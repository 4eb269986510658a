// Pinned request-mode digests.
//
// The request plane's storage and scheduling are performance details: a run
// must come out the same however the driver keeps its queues or whichever
// workers advance the shards.  These tests pin whole runs -- every interval
// report, the end state of the fleet and the SLA summary -- to the digests
// the map-keyed, serially advanced driver produced, so any change to a
// simulated outcome (routing order, admission decisions, drain residues,
// backlog sums, each host's load-update sequence) shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>

#include "../cluster/run_digest.h"
#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "experiment/request_driver.h"
#include "experiment/scenario.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"

namespace eclb::experiment {
namespace {

using cluster::testing::RunDigest;

/// Crashes a server mid-run (recovering it later), crashes another for good
/// and makes a third of the migrations abort mid-copy, so the pins cover
/// stranded queues, vanished VMs and failed drains.
constexpr const char* kFaults =
    "migfail@60:p=0.3;crash@300:s=3;recover@900:s=3;crash@540:s=11;seed=77";

workload::engine::RequestWorkloadConfig parse_workload(const std::string& spec) {
  std::string error;
  const auto cfg = workload::engine::RequestWorkloadConfig::parse(spec, &error);
  EXPECT_TRUE(cfg.has_value()) << error;
  return *cfg;
}

fault::FaultPlan fault_plan() {
  std::string error;
  const auto plan = fault::FaultPlan::parse(kFaults, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return *plan;
}

cluster::ClusterConfig driver_cluster_config(std::size_t servers,
                                             std::uint64_t seed) {
  auto cfg = paper_cluster_config(servers, AverageLoad::kLow30, seed);
  cfg.demand_evolution_enabled = false;
  return cfg;
}

/// Folds the fleet's end state: every host's load and every hosted VM's
/// demand and queue mirror, in server and roster order.
void add_fleet(const cluster::Cluster& c, RunDigest& digest) {
  for (const server::Server& s : c.servers()) {
    digest.add_double(s.load());
    digest.add_u64(s.vm_count());
    for (const vm::Vm& v : s.vms()) {
      digest.add_u64(v.id().value);
      digest.add_double(v.demand());
      digest.add_u64(v.queued_requests());
      digest.add_double(v.queued_work());
    }
  }
  digest.add_double(c.total_energy().value);
}

std::uint64_t single_cluster_run(const std::string& admission) {
  cluster::Cluster c(driver_cluster_config(24, 31));
  fault::FaultInjector injector(c, fault_plan());
  RequestDriver driver(
      c, parse_workload("poisson:rate=24,mean=0.25;flash:rate=8,burst=6,"
                        "on=120,off=400,mean=0.2;seed=21;drain=2" +
                        admission));
  EXPECT_TRUE(driver.ok());
  RunDigest digest;
  std::size_t migrations = 0;
  for (int i = 0; i < 24; ++i) {
    driver.advance_interval();
    const cluster::IntervalReport report = c.step();
    migrations += report.migrations;
    digest.add_report(report);
    EXPECT_EQ(driver.audit(), std::nullopt) << "interval " << i;
  }
  EXPECT_GT(migrations, 0U);  // The drain path must actually run.
  add_fleet(c, digest);
  digest.add_u64(driver.summary().digest());
  return digest.value();
}

TEST(RequestDigests, SingleClusterNoAdmission) {
  const std::uint64_t got = single_cluster_run("");
  EXPECT_EQ(got, 0x279229f0e00f9066ULL) << std::hex << got;
}

TEST(RequestDigests, SingleClusterTailDrop) {
  const std::uint64_t got = single_cluster_run(";admit=tail-drop;cap=12");
  EXPECT_EQ(got, 0x07a4b47a3846ae81ULL) << std::hex << got;
}

TEST(RequestDigests, SingleClusterDeadlineShed) {
  const std::uint64_t got =
      single_cluster_run(";admit=deadline-shed;budget=45");
  EXPECT_EQ(got, 0xca6ca98c2a4e4177ULL) << std::hex << got;
}

TEST(RequestDigests, FabricSessionAtAnyThreadCount) {
  const auto workload = parse_workload(
      "poisson:rate=60,mean=0.25;flash:rate=16,burst=5,on=120,off=500,"
      "mean=0.2;seed=14;drain=2;admit=tail-drop;cap=12");
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    cluster::FabricConfig fcfg;
    fcfg.shard_count = 4;
    fcfg.threads = threads;
    fcfg.cluster_template = driver_cluster_config(16, 23);
    cluster::Fabric fabric(fcfg);
    fault::FabricFaultSession faults(fabric, fault_plan());
    FabricRequestSession session(fabric, workload);
    ASSERT_TRUE(session.ok());
    RunDigest digest;
    for (int i = 0; i < 16; ++i) {
      session.advance_interval();
      digest.add_u64(cluster::fabric_report_digest(fabric.step()));
      ASSERT_EQ(session.audit(), std::nullopt) << "interval " << i;
    }
    digest.add_u64(fabric.state_digest());
    digest.add_u64(session.summary().digest());
    EXPECT_EQ(digest.value(), 0x944ac91c5bc83687ULL)
        << std::hex << digest.value() << " at " << std::dec << threads
        << " threads";
  }
}

}  // namespace
}  // namespace eclb::experiment
