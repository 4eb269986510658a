// Partition-tolerance invariants, end to end through the fault injector.
//
// The acceptance bar for the membership layer: under any partition/heal
// schedule the run stays deterministic, after the final heal there is
// exactly one leader operating at the highest epoch, and no VM is ever lost
// or double-placed (Cluster::self_audit checks placement uniqueness, the
// shadow ledger and the regime index in one pass).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "fault/injector.h"

namespace eclb::fault {
namespace {

using common::Seconds;
using common::ServerId;

cluster::ClusterConfig base_config(std::uint64_t seed, std::size_t servers = 40,
                                   double lo = 0.3, double hi = 0.5) {
  cluster::ClusterConfig cfg;
  cfg.server_count = servers;
  cfg.initial_load_min = lo;
  cfg.initial_load_max = hi;
  cfg.seed = seed;
  return cfg;
}

/// Two groups: servers with id < `split` on side 0, the rest on side 1.
std::vector<std::vector<ServerId>> split_at(std::size_t servers,
                                            std::size_t split) {
  std::vector<std::vector<ServerId>> groups(2);
  for (std::uint64_t i = 0; i < servers; ++i) {
    groups[i < split ? 0 : 1].push_back(ServerId{i});
  }
  return groups;
}

/// VM ids hosted on servers of `group` under the cluster's current map.
std::set<common::VmId> vms_on_side(const cluster::Cluster& c,
                                   std::int32_t group) {
  std::set<common::VmId> out;
  for (const auto& s : c.servers()) {
    if (c.membership().group_of(s.id()) != group) continue;
    for (const auto& v : s.vms()) out.insert(v.id());
  }
  return out;
}

TEST(PartitionReconciliation, ShadowDuplicatesAreRetiredOnHeal) {
  cluster::Cluster c(base_config(42));
  FaultPlan plan;
  plan.partition(Seconds{90.0}, split_at(40, 32), Seconds{270.0});
  FaultInjector injector(c, plan);

  c.step();  // t = 60: whole
  const std::size_t before = c.total_vms();
  c.step();  // t = 120: split at 90, quorum shadow-restarted side 1's VMs
  ASSERT_TRUE(c.membership().partitioned());
  const std::size_t shadows = injector.stats().shadow_restarts;
  EXPECT_GT(shadows, 0U);
  EXPECT_EQ(c.total_vms(), before + shadows);

  for (int i = 0; i < 4; ++i) c.step();  // heal at 270, reconcile at 300
  EXPECT_FALSE(c.membership().partitioned());
  // Every original survived, so every shadow is a duplicate to retire.
  EXPECT_EQ(injector.stats().duplicates_resolved, shadows);
  EXPECT_EQ(injector.stats().orphans_adopted, 0U);
  EXPECT_EQ(c.self_audit(), std::nullopt);
}

TEST(PartitionReconciliation, LostOriginalsAreCoveredByAdoptedShadows) {
  cluster::Cluster c(base_config(7));
  FaultPlan plan;
  // Server 36 (minority) crashes mid-partition: its originals are orphaned
  // on a degraded side, but the quorum's shadows already cover them.
  plan.partition(Seconds{90.0}, split_at(40, 32), Seconds{390.0})
      .crash(Seconds{150.0}, ServerId{36});
  FaultInjector injector(c, plan);

  for (int i = 0; i < 8; ++i) c.step();  // through heal (390) + reconcile (420)
  EXPECT_FALSE(c.membership().partitioned());
  EXPECT_GT(injector.stats().orphans_adopted, 0U);
  // An adopted shadow closes its crash orphan: nothing left queued for the
  // crashed host, and nothing restored twice.
  for (const auto& o : c.orphans()) EXPECT_NE(o.origin, ServerId{36});
  EXPECT_EQ(c.self_audit(), std::nullopt);
}

TEST(PartitionReconciliation, TenThousandServersSplitAndHealStaySound) {
  // The same invariants at scale: a 10^4-server cluster split in half, with
  // a minority host crashing mid-split.  Every round of the split is served
  // by the regime index's per-side axes (self_audit re-derives them from
  // scratch), and the heal converges like the small cases.
  constexpr std::size_t kServers = 10000;
  cluster::Cluster c(base_config(19, kServers));
  FaultPlan plan;
  plan.partition(Seconds{90.0}, split_at(kServers, 5000), Seconds{390.0})
      .crash(Seconds{150.0}, ServerId{7500});
  FaultInjector injector(c, plan);

  c.step();  // t = 60: whole
  c.step();  // t = 120: split at 90
  ASSERT_TRUE(c.membership().partitioned());
  const std::size_t shadows = injector.stats().shadow_restarts;
  EXPECT_GT(shadows, 0U);
  EXPECT_EQ(c.self_audit(), std::nullopt);

  for (int i = 0; i < 6; ++i) c.step();  // crash 150, heal 390, reconcile 420
  EXPECT_FALSE(c.membership().partitioned());
  EXPECT_FALSE(c.reconcile_pending());
  EXPECT_EQ(c.membership().side_count(), 1U);
  EXPECT_EQ(c.membership().side(0).epoch, c.membership().highest_epoch());
  EXPECT_EQ(injector.stats().heals, 1U);
  EXPECT_GT(injector.stats().duplicates_resolved, 0U);
  EXPECT_LE(injector.stats().duplicates_resolved +
                injector.stats().orphans_adopted,
            shadows);
  EXPECT_EQ(c.self_audit(), std::nullopt);
}

TEST(PartitionReconciliation, MinorityPlacementsAreFrozenWhileSplit) {
  // Degraded mode: without crashes, a minority side's VM set cannot change
  // while the fabric is split -- no migrations in, none out, no horizontal
  // starts (vertical scaling only changes demand, never membership).
  cluster::Cluster c(base_config(11));
  FaultPlan plan;
  plan.partition(Seconds{90.0}, split_at(40, 30), Seconds{570.0});
  FaultInjector injector(c, plan);

  c.step();
  c.step();  // t = 120: split
  ASSERT_TRUE(c.membership().partitioned());
  const auto frozen = vms_on_side(c, 1);
  ASSERT_FALSE(frozen.empty());
  for (int i = 0; i < 7; ++i) {  // t = 180..540, still split
    c.step();
    ASSERT_TRUE(c.membership().partitioned()) << i;
    EXPECT_EQ(vms_on_side(c, 1), frozen) << i;
  }
  for (int i = 0; i < 2; ++i) c.step();  // heal + reconcile
  EXPECT_FALSE(c.membership().partitioned());
  EXPECT_EQ(c.self_audit(), std::nullopt);
}

TEST(PartitionReconciliation, ExactlyOneLeaderAtHighestEpochAfterEveryHeal) {
  cluster::Cluster c(base_config(3));
  FaultPlan plan;
  plan.partition(Seconds{90.0}, split_at(40, 24), Seconds{210.0})
      .partition(Seconds{390.0}, split_at(40, 12), Seconds{510.0});
  FaultInjector injector(c, plan);

  for (int i = 0; i < 12; ++i) {
    c.step();
    if (c.membership().partitioned() || c.reconcile_pending()) continue;
    // Whole fabric: one side, its leader at the globally highest epoch.
    EXPECT_EQ(c.membership().side_count(), 1U);
    EXPECT_TRUE(c.membership().side(0).leader.valid());
    EXPECT_EQ(c.membership().side(0).epoch, c.membership().highest_epoch());
    EXPECT_TRUE(c.leader_available());
  }
  EXPECT_EQ(injector.stats().partitions, 2U);
  EXPECT_EQ(injector.stats().heals, 2U);
  EXPECT_EQ(injector.stats().heal_convergence.count(), 2U);
  EXPECT_EQ(c.self_audit(), std::nullopt);
}

TEST(PartitionReconciliation, RandomizedChurnKeepsInvariants) {
  // Satellite acceptance: randomized partition/heal/crash/recover schedules
  // (deterministic per seed) must always converge to a sound state.
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL, 404ULL}) {
    common::Rng script(seed);
    cluster::Cluster c(base_config(seed, 32, 0.35, 0.55));
    FaultPlan plan;
    plan.set_seed(seed * 13);
    double t = 60.0;
    for (int burst = 0; burst < 3; ++burst) {
      // A random two-way split of the 32 servers (sizes 4..28).
      const auto cut = static_cast<std::size_t>(
          4 + static_cast<std::uint64_t>(script.uniform(0.0, 24.0)));
      const double start = t + 30.0;
      const double heal = start + 120.0 + 60.0 * std::floor(script.uniform(0.0, 3.0));
      plan.partition(Seconds{start}, split_at(32, cut), Seconds{heal});
      if (script.bernoulli(0.5)) {
        const auto victim =
            static_cast<std::uint64_t>(script.uniform(0.0, 32.0));
        plan.crash(Seconds{start + 60.0}, ServerId{victim});
        plan.recover(Seconds{heal + 120.0}, ServerId{victim});
      }
      t = heal + 180.0;
    }
    FaultInjector injector(c, plan);
    const auto intervals = static_cast<int>(t / 60.0) + 4;
    for (int i = 0; i < intervals; ++i) c.step();

    EXPECT_FALSE(c.membership().partitioned()) << seed;
    EXPECT_FALSE(c.reconcile_pending()) << seed;
    EXPECT_EQ(c.membership().side_count(), 1U) << seed;
    EXPECT_EQ(c.membership().side(0).epoch, c.membership().highest_epoch())
        << seed;
    EXPECT_TRUE(c.leader_available()) << seed;
    EXPECT_EQ(injector.stats().partitions, 3U) << seed;
    EXPECT_EQ(injector.stats().heals, 3U) << seed;
    const auto audit = c.self_audit();
    EXPECT_EQ(audit, std::nullopt) << seed << ": " << audit.value_or("");
  }
}

TEST(PartitionReconciliation, StaleWakeCommandsAreFencedAcrossTheSplit) {
  // A lossy link arms wake retries carrying the committed epoch; a
  // partition bumps the receiver's side, so pending retries for minority
  // servers must fence instead of firing.
  cluster::Cluster c(base_config(5, 40, 0.15, 0.3));
  FaultPlan plan;
  plan.link_loss(Seconds{0.0}, 0.9)
      .partition(Seconds{130.0}, split_at(40, 30), Seconds{450.0})
      .set_seed(23);
  // Stretch the backoff so chains armed at the t=60/120 rounds are still
  // pending when the fabric splits at t=130 and the minority bumps its epoch.
  plan.params().max_retries = 5;
  plan.params().retry_backoff_base = Seconds{15.0};
  plan.params().retry_backoff_cap = Seconds{60.0};
  FaultInjector injector(c, plan);
  for (int i = 0; i < 12; ++i) c.step();
  EXPECT_GT(injector.stats().fenced_commands, 0U);
  EXPECT_EQ(c.self_audit(), std::nullopt);
}

}  // namespace
}  // namespace eclb::fault
