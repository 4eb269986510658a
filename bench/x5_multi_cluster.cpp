// Extension X5: multi-cluster scalability on the sharded fabric.
//
// "Clustering supports scalability, as the number of systems increase we add
// new clusters."  Compares one flat 2000-server cluster against fabrics of
// 2 x 1000, 4 x 500 and 8 x 250 shards with inter-shard overflow, on the
// same total capacity and load: per-interval decision traffic per leader,
// energy and violations.  Also shows an asymmetric fabric (one hot shard)
// with and without overflow sharing, and finishes with the determinism
// check the fabric's barrier protocol promises: the same (seed, fault plan)
// replayed at worker thread counts {1, 2, N} must produce bit-identical
// per-interval digests.  The check exits nonzero on mismatch, which is what
// lets CI (including the TSan job) run this bench as a gate.
//
// Flags: --tiny (CI smoke: fewer servers/intervals), --threads N (worker
// count for the sweep sections; the determinism section always crosses
// {1, 2, N}).
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "common/table.h"
#include "experiment/scenario.h"
#include "fault/injector.h"

namespace {

bool g_tiny = false;
std::size_t g_threads = 2;

std::size_t total_servers() { return g_tiny ? 200 : 2000; }
std::size_t intervals() { return g_tiny ? 10 : 40; }

/// One fabric run's determinism fingerprint: every interval's report digest
/// plus the final live-state digest.
std::vector<std::uint64_t> digest_run(std::size_t threads,
                                      std::size_t shards,
                                      std::size_t servers_per_shard,
                                      std::size_t steps) {
  using namespace eclb;
  cluster::FabricConfig cfg;
  cfg.shard_count = shards;
  cfg.threads = threads;
  cfg.cluster_template = experiment::paper_cluster_config(
      servers_per_shard, experiment::AverageLoad::kLow30, 4242);
  cfg.cluster_template.demand_change_probability = 0.3;
  cluster::Fabric fabric(cfg);

  // Same faults every run: a member crash plus lossy links, exercising the
  // per-shard fault streams (mix_seed-derived) under the barrier protocol.
  fault::FaultPlan plan;
  plan.link_loss(common::Seconds{0.0}, 0.10)
      .crash(common::Seconds{180.0}, common::ServerId{3})
      .recover(common::Seconds{420.0}, common::ServerId{3});
  fault::FabricFaultSession faults(fabric, plan);

  std::vector<std::uint64_t> digests;
  digests.reserve(steps + 1);
  for (std::size_t i = 0; i < steps; ++i) {
    digests.push_back(cluster::fabric_report_digest(fabric.step()));
  }
  digests.push_back(fabric.state_digest());
  return digests;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eclb;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      g_tiny = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = static_cast<std::size_t>(std::stoul(argv[++i]));
      if (g_threads == 0) g_threads = 1;
    } else {
      std::cerr << "usage: x5_multi_cluster [--tiny] [--threads N]\n";
      return 2;
    }
  }

  std::cout << "== X5: clustering for scalability (sharded fabric, "
            << g_threads << " worker thread" << (g_threads == 1 ? "" : "s")
            << ") ==\n\n";

  common::TextTable table({"Organization", "Energy (kWh)", "SLA viol.",
                           "Deep asleep (final)", "In-cluster dec./interval",
                           "Peak dec. per leader"});

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    cluster::FabricConfig cfg;
    cfg.shard_count = shards;
    cfg.threads = g_threads;
    cfg.cluster_template = experiment::paper_cluster_config(
        total_servers() / shards, experiment::AverageLoad::kLow30, 77);
    cluster::Fabric fabric(cfg);

    std::size_t violations = 0;
    std::size_t in_cluster = 0;
    std::size_t peak_per_leader = 0;
    for (std::size_t i = 0; i < intervals(); ++i) {
      const auto report = fabric.step();
      violations += report.total_sla_violations();
      in_cluster += report.total_in_cluster();
      for (const auto& c : report.clusters) {
        peak_per_leader = std::max(peak_per_leader, c.in_cluster_decisions);
      }
    }
    std::size_t deep = 0;
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      deep += fabric.cluster(i).deep_sleeping_count();
    }
    table.row({std::to_string(shards) + " x " +
                   std::to_string(total_servers() / shards),
               common::TextTable::num(fabric.total_energy().kwh(), 1),
               common::TextTable::num(static_cast<long long>(violations)),
               common::TextTable::num(static_cast<long long>(deep)),
               common::TextTable::num(
                   static_cast<double>(in_cluster) /
                       static_cast<double>(intervals()),
                   1),
               common::TextTable::num(static_cast<long long>(peak_per_leader))});
  }
  table.print(std::cout);
  std::cout << "\nShape check: smaller shards bound the per-leader decision"
               " traffic (the practicality argument of Section 4) at similar"
               " total energy; the consolidation guardrail floors deep sleep"
               " in very small shards.\n\n";

  // Asymmetric fabric: overflow sharing vs isolation.
  const std::size_t asym_servers = total_servers() / 8;
  std::cout << "Asymmetric fabric (1 hot shard at ~80 %, 3 cool at ~30 %), 10"
               " intervals:\n";
  common::TextTable asym({"Mode", "SLA violations", "Offloaded placements",
                          "Unplaced"});
  for (bool overflow : {true, false}) {
    cluster::FabricConfig cfg;
    cfg.shard_count = 4;
    cfg.threads = g_threads;
    cfg.inter_cluster_overflow = overflow;
    cfg.cluster_template = experiment::paper_cluster_config(
        asym_servers, experiment::AverageLoad::kLow30, 99);
    cfg.cluster_template.demand_change_probability = 0.3;
    cluster::Fabric fabric(cfg);
    // Heat shard 0.
    auto& hot = fabric.mutable_cluster(0);
    for (auto& s : hot.mutable_servers()) {
      (void)hot.inject_vm(s.id(), common::AppId{0}, 0.80 - s.load());
    }
    std::size_t violations = 0;
    std::size_t offloads = 0;
    std::size_t unplaced = 0;
    for (std::size_t i = 0; i < 10; ++i) {
      const auto report = fabric.step();
      violations += report.total_sla_violations();
      offloads += report.inter_cluster_placements;
      unplaced += report.unplaced_overflows;
    }
    asym.row({overflow ? "overflow sharing" : "isolated",
              common::TextTable::num(static_cast<long long>(violations)),
              common::TextTable::num(static_cast<long long>(offloads)),
              common::TextTable::num(static_cast<long long>(unplaced))});
  }
  asym.print(std::cout);
  std::cout << "\nShape check: sharing absorbs the hot shard's overflow into"
               " cool siblings, cutting SLA violations.\n\n";

  // Determinism: the same (seed, fault plan) replayed at different worker
  // thread counts -- and twice at the same count -- must be bit-identical.
  const std::size_t det_shards = 4;
  const std::size_t det_servers = g_tiny ? 50 : 250;
  const std::size_t det_steps = g_tiny ? 8 : 20;
  std::vector<std::size_t> counts{1, 2};
  if (g_threads != 1 && g_threads != 2) counts.push_back(g_threads);
  std::cout << "Determinism: " << det_shards << " x " << det_servers
            << " servers, " << det_steps << " intervals, faults on, thread"
               " counts {";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << counts[i];
  }
  std::cout << "} plus a double run:\n";

  const std::vector<std::uint64_t> baseline =
      digest_run(counts[0], det_shards, det_servers, det_steps);
  bool identical = true;
  for (const std::size_t threads : counts) {
    // Two runs per count: catches both cross-thread-count divergence and
    // run-to-run nondeterminism at a fixed count.
    for (int rep = 0; rep < 2; ++rep) {
      if (digest_run(threads, det_shards, det_servers, det_steps) != baseline) {
        std::cout << "  MISMATCH at threads=" << threads << " run " << rep + 1
                  << "\n";
        identical = false;
      }
    }
  }
  if (!identical) {
    std::cout << "\nFAIL: fabric replay is not bit-identical.\n";
    return 1;
  }
  std::cout << "  all runs bit-identical (digest 0x" << std::hex
            << baseline.back() << std::dec << ")\n";
  return 0;
}
