// Equivalence suite for the incremental regime index (src/cluster/index).
//
// The index's contract is *bit-identity* with the reference full scans
// (policy::find_tiered_target, policy::find_below_center_target,
// Leader::pick_wake_candidate and the drain scan below): every aggregate,
// cursor and placement search must reproduce the scan answer exactly, on
// every partition side, under arbitrary interleavings of protocol rounds,
// crashes, recoveries, derates, injected VMs, splits and heals.  Three
// layers of checking:
//   1. self_check(): the index audits itself against a fresh classification
//      of every server (catches stale incremental state).
//   2. Scan oracles: tests recompute each aggregate/search with the scan
//      expressions -- per side, through a PlacementFilter -- and compare.
//   3. Pinned full runs: fault-free, FaultPlan and partitioned runs must
//      reproduce the report-stream digest recorded before the scan path was
//      retired (where the indexed and the full-scan paths agreed, and where
//      split clusters were served by side-filtered scans).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/index/regime_index.h"
#include "cluster/leader.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "policy/placement.h"
#include "run_digest.h"

namespace eclb::cluster {
namespace {

using common::Seconds;
using common::ServerId;

ClusterConfig base_config(std::uint64_t seed, std::size_t servers = 60) {
  ClusterConfig cfg;
  cfg.server_count = servers;
  cfg.initial_load_min = 0.2;
  cfg.initial_load_max = 0.4;
  cfg.seed = seed;
  return cfg;
}

/// Applies a deterministic churn step `round` to `c`: crash, recover,
/// derate or inject, cycling over the fleet.
void churn(Cluster& c, int round) {
  const auto n = static_cast<std::uint32_t>(c.size());
  const ServerId victim{static_cast<std::uint32_t>((round * 7 + 3) % n)};
  switch (round % 4) {
    case 0: c.crash_server(victim); break;
    case 1: c.recover_server(victim); break;
    case 2: c.derate_server(victim, 0.5 + 0.1 * (round % 5)); break;
    default:
      if (!c.servers()[victim.value].failed()) {
        c.inject_vm(victim, common::AppId{static_cast<std::uint32_t>(9000 + round)},
                    0.05);
      }
      break;
  }
}

/// The reference drain (consolidation) scan, restricted to the servers
/// `filter` admits: an R1/R2 peer with strictly more load, or an R3 peer
/// staying below its own center, ending within its optimal region;
/// fullest-fit (closest to its center) wins, the first (lowest id) on a
/// tie.
std::optional<ServerId> drain_scan(std::span<const server::Server> servers,
                                   Seconds now, const server::Server& donor,
                                   double demand,
                                   const policy::PlacementFilter& filter) {
  constexpr double kEps = 1e-9;
  std::optional<ServerId> want;
  double best = 0.0;
  for (const auto& t : servers) {
    if (t.id() == donor.id() || !t.awake(now)) continue;
    if (!filter.admits(t.id())) continue;
    if (t.load() <= donor.load() + kEps) continue;
    const auto r = t.regime();
    if (!r.has_value()) continue;
    const auto& th = t.thresholds();
    const double post = t.load() + demand;
    const bool low = *r == energy::Regime::kR1UndesirableLow ||
                     *r == energy::Regime::kR2SuboptimalLow;
    const bool r3_below = *r == energy::Regime::kR3Optimal &&
                          post <= th.optimal_center() + kEps;
    if (!low && !r3_below) continue;
    if (post > th.alpha_opt_high + kEps) continue;
    const double score = std::abs(post - th.optimal_center());
    if (!want.has_value() || score < best) {
      want = t.id();
      best = score;
    }
  }
  return want;
}

/// Compares every index search, on every side of `c`'s current membership,
/// against the reference scans confined to that side.  Returns the number
/// of drain queries compared.
std::size_t expect_searches_match_scans(const Cluster& c,
                                        const std::string& where) {
  const auto& idx = c.regime_index();
  const auto servers = c.servers();
  const auto now = c.now();
  const Leader leader;
  const auto n = static_cast<std::uint32_t>(c.size());
  std::size_t drains = 0;
  for (std::size_t g = 0; g < c.membership().side_count(); ++g) {
    const auto side = static_cast<std::int32_t>(g);
    const policy::PlacementFilter filter{&c.membership().groups(), side};
    const std::string at = where + " side " + std::to_string(g);
    EXPECT_EQ(idx.pick_wake_candidate(side),
              leader.pick_wake_candidate(servers, now, &filter))
        << at;
    for (double demand : {0.01, 0.08, 0.2, 0.45}) {
      for (std::uint32_t ex : {0u, 5u, n / 2, n - 1}) {
        const ServerId exclude{ex};
        for (auto tier : {policy::PlacementTier::kLowRegimesOnly,
                          policy::PlacementTier::kStayOptimal,
                          policy::PlacementTier::kStaySuboptimal}) {
          EXPECT_EQ(idx.find_tiered_target(demand, exclude, tier, side),
                    policy::find_tiered_target(servers, now, demand, exclude,
                                               tier, &filter))
              << at << " demand " << demand << " ex " << ex;
        }
        EXPECT_EQ(idx.find_below_center_target(demand, exclude, side),
                  policy::find_below_center_target(servers, now, demand,
                                                   exclude, &filter))
            << at << " demand " << demand << " ex " << ex;
      }
    }
    for (const auto& donor : servers) {
      if (!donor.awake(now) || donor.vms().empty()) continue;
      if (!filter.admits(donor.id())) continue;
      const double demand = donor.vms().front().demand();
      EXPECT_EQ(idx.find_drain_target(donor, demand, side),
                drain_scan(servers, now, donor, demand, filter))
          << at << " donor " << donor.id().value;
      ++drains;
    }
  }
  return drains;
}

TEST(RegimeIndex, SelfCheckPassesAfterConstruction) {
  Cluster c(base_config(2));
  const auto err = c.regime_index().self_check();
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(RegimeIndex, SelfCheckPassesUnderRandomizedChurn) {
  for (std::uint64_t seed : {3u, 11u, 42u}) {
    Cluster c(base_config(seed));
    for (int round = 0; round < 24; ++round) {
      c.step();
      churn(c, round);
      const auto err = c.regime_index().self_check();
      ASSERT_FALSE(err.has_value())
          << "seed " << seed << " round " << round << ": " << *err;
    }
  }
}

TEST(RegimeIndex, AggregatesMatchNaiveScans) {
  Cluster c(base_config(5));
  for (int round = 0; round < 16; ++round) {
    c.step();
    churn(c, round);
    const auto& idx = c.regime_index();
    const auto now = c.now();

    std::size_t vms = 0, sleeping = 0, parked = 0, deep = 0, reporters = 0;
    energy::RegimeHistogram hist{};
    for (const auto& s : c.servers()) {
      vms += s.vm_count();
      if (!s.failed() && !s.awake(now)) ++sleeping;
      const auto cs = s.effective_cstate();
      if (cs == energy::CState::kC1) ++parked;
      if (cs == energy::CState::kC3 || cs == energy::CState::kC6) ++deep;
      if (s.awake(now)) {
        const auto r = s.regime();
        if (r.has_value()) ++hist[energy::regime_index(*r)];
      }
      // The j_k fan-in counts every server whose regime is *defined* -- the
      // scan includes hosts still settling into sleep.
      const auto r = s.regime();
      if (r.has_value() && *r != energy::Regime::kR3Optimal) ++reporters;
    }
    EXPECT_EQ(idx.total_vms(), vms);
    EXPECT_EQ(idx.sleeping_count(), sleeping);
    EXPECT_EQ(idx.parked_count(), parked);
    EXPECT_EQ(idx.deep_sleeping_count(), deep);
    EXPECT_EQ(idx.regime_reporter_count(), reporters);
    EXPECT_EQ(idx.regime_histogram(), hist);
  }
}

TEST(RegimeIndex, PlacementSearchesMatchLegacyScans) {
  Cluster c(base_config(7));
  for (int round = 0; round < 16; ++round) {
    c.step();
    churn(c, round);
    expect_searches_match_scans(c, "round " + std::to_string(round));
  }
}

TEST(RegimeIndex, DrainSearchMatchesLegacyScan) {
  Cluster c(base_config(9));
  std::size_t compared = 0;
  for (int round = 0; round < 16; ++round) {
    c.step();
    compared += expect_searches_match_scans(c, "round " + std::to_string(round));
  }
  EXPECT_GT(compared, 100U);  // the oracle actually exercised real donors
}

/// A random map of `servers` onto `sides` groups (not contiguous ranges, so
/// the per-side axes see interleaved ids).
std::vector<std::int32_t> random_groups(common::Rng& rng, std::size_t servers,
                                        std::size_t sides) {
  std::vector<std::int32_t> groups(servers);
  for (auto& g : groups) {
    g = static_cast<std::int32_t>(rng.index(sides));
  }
  return groups;
}

TEST(RegimeIndex, SideSearchesMatchFilteredScansThroughSplitChurnAndHeal) {
  // Randomized split / churn / heal schedules: two- and three-way splits
  // over interleaved id sets, crashes and injections on every side, heals
  // and the reconciliation round after them.  Every search is compared on
  // every side mid-phase (after churn, before the round flushes) and after
  // each round, and the index audits itself after every step.
  std::size_t splits = 0;
  std::size_t drains = 0;
  for (const std::uint64_t seed : {5u, 17u, 29u, 41u}) {
    common::Rng script(seed * 31);
    Cluster c(base_config(seed, 64));
    for (int round = 0; round < 36; ++round) {
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      if (!c.membership().partitioned() && !c.reconcile_pending() &&
          script.bernoulli(0.3)) {
        const std::size_t sides = 2 + script.index(2);
        if (c.begin_partition(random_groups(script, c.size(), sides)) >= 0) {
          ++splits;
        }
      } else if (c.membership().partitioned() && !c.reconcile_pending() &&
                 script.bernoulli(0.25)) {
        c.heal_partition();
      }
      churn(c, round);
      drains += expect_searches_match_scans(c, where + " mid-phase");
      auto err = c.regime_index().self_check();
      ASSERT_FALSE(err.has_value()) << where << ": " << *err;
      c.step();
      drains += expect_searches_match_scans(c, where);
      err = c.regime_index().self_check();
      ASSERT_FALSE(err.has_value()) << where << ": " << *err;
    }
  }
  EXPECT_GT(splits, 4U);
  EXPECT_GT(drains, 1000U);
}

// The digests below were recorded from the parent revision that still had
// the full-scan protocol path: the indexed run and the scan run of each
// seed produced the same value.

TEST(RegimeIndex, FullRunBitIdenticalToLegacyScans) {
  const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
      {13u, 0xc6487890069db19fULL}, {99u, 0x3c0933e643bd942fULL}};
  for (const auto& [seed, want] : pinned) {
    Cluster c(base_config(seed));
    testing::RunDigest digest;
    for (std::size_t i = 0; i < 80; ++i) digest.add_report(c.step());
    digest.add_double(c.total_demand());
    digest.add_double(c.total_energy().value);
    digest.add_u64(c.total_vms());
    digest.add_u64(c.message_stats().total());
    EXPECT_EQ(digest.value(), want) << "seed " << seed;
  }
}

fault::FaultPlan stress_plan() {
  fault::FaultPlan plan;
  plan.crash(Seconds{90.0}, ServerId{4});
  plan.crash(Seconds{150.0}, ServerId{17});
  plan.crash_leader(Seconds{210.0});
  plan.recover(Seconds{400.0}, ServerId{4});
  plan.derate(Seconds{450.0}, ServerId{23}, 0.6);
  plan.link_loss(Seconds{500.0}, 0.2);
  plan.migration_failure_rate(Seconds{560.0}, 0.3);
  plan.link_delay(Seconds{620.0}, Seconds{0.05});
  return plan;
}

TEST(RegimeIndex, FullRunBitIdenticalToLegacyScansUnderFaultPlan) {
  Cluster c(base_config(21));
  fault::FaultInjector injector(c, stress_plan());
  testing::RunDigest digest;
  for (std::size_t i = 0; i < 40; ++i) {
    digest.add_report(c.step());
    const auto err = c.regime_index().self_check();
    ASSERT_FALSE(err.has_value()) << "interval " << i << ": " << *err;
  }
  digest.add_double(c.total_energy().value);
  digest.add_u64(injector.stats().crashes);
  digest.add_u64(injector.stats().failovers);
  EXPECT_EQ(digest.value(), 0x263869ca8f7259b0ULL);
}

TEST(RegimeIndex, PartitionedRunMatchesRecordedScanPath) {
  // Two splits -- the first with the larger group 1 as the quorum, the
  // second with group 0 -- each with a crash and a heal, over a wide load
  // spread so draining (R1 donors) and shedding (R4/R5) both run while
  // split, with and without shadow restarts (without them the quorum keeps
  // its light servers, so consolidation runs on its side).  The digests
  // were recorded from the parent revision, which served every search of a
  // split cluster with side-filtered scans (its full-scan mode gave the
  // same values); the per-side axes must reproduce them.
  struct Pinned {
    std::uint64_t seed;
    bool shadow_restart;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {{8u, true, 0x822bdbfb8ef82273ULL},
                           {64u, true, 0x2bab35dde9b3cc77ULL},
                           {8u, false, 0xad513da59f998d47ULL},
                           {64u, false, 0x8e24c12587dcd441ULL}};
  const auto split = [](std::size_t cut) {
    std::vector<std::vector<ServerId>> groups(2);
    for (std::uint64_t i = 0; i < 60; ++i) {
      groups[i < cut ? 0 : 1].push_back(ServerId{i});
    }
    return groups;
  };
  for (const auto& [seed, shadow_restart, want] : pinned) {
    ClusterConfig cfg = base_config(seed);
    cfg.initial_load_min = 0.1;
    cfg.initial_load_max = 0.85;
    cfg.partition_shadow_restart = shadow_restart;
    Cluster c(cfg);
    fault::FaultPlan plan;
    plan.partition(Seconds{90.0}, split(20), Seconds{630.0})
        .crash(Seconds{200.0}, ServerId{5})
        .partition(Seconds{930.0}, split(45), Seconds{1500.0})
        .crash(Seconds{1100.0}, ServerId{50});
    fault::FaultInjector injector(c, plan);
    testing::RunDigest digest;
    for (std::size_t i = 0; i < 30; ++i) digest.add_report(c.step());
    digest.add_double(c.total_energy().value);
    digest.add_u64(c.total_vms());
    digest.add_u64(injector.stats().shadow_restarts);
    digest.add_u64(injector.stats().duplicates_resolved);
    digest.add_u64(injector.stats().orphans_adopted);
    digest.add_u64(c.message_stats().total());
    EXPECT_EQ(digest.value(), want)
        << "seed " << seed << " shadow restart " << shadow_restart;
    EXPECT_EQ(c.self_audit(), std::nullopt) << "seed " << seed;
  }
}

}  // namespace
}  // namespace eclb::cluster
