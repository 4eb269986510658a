#include "common/shard_team.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace eclb::common {
namespace {

TEST(ShardTeam, SizeCountsTheCallingThread) {
  EXPECT_EQ(ShardTeam(1).size(), 1U);
  EXPECT_EQ(ShardTeam(3).size(), 3U);
  EXPECT_GE(ShardTeam(0).size(), 1U);  // 0 = hardware concurrency
}

TEST(ShardTeam, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    ShardTeam team(threads);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
          std::size_t{64}}) {
      std::vector<std::atomic<int>> hits(n);
      team.run(n, [&hits](std::size_t i) { hits[i]++; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ShardTeam, SlowIndexIsWorkedAround) {
  // Index 0 does not return until every other index has run, so the phase
  // can only finish if another thread claims the rest -- including indices
  // 1..3, which share index 0's home range.  The deadline turns a missing
  // steal into a test failure instead of a hang.
  constexpr std::size_t kN = 8;
  ShardTeam team(2);
  std::vector<std::thread::id> ran_on(kN);
  std::atomic<std::size_t> others_done{0};
  bool timed_out = false;
  team.run(kN, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    if (i != 0) {
      others_done++;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done.load() < kN - 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  ASSERT_FALSE(timed_out) << "the other indices were never claimed";
  // Indices 1..3 are claimed after index 0 from the same cursor, while the
  // thread holding index 0 is blocked: another thread took them.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NE(ran_on[i], ran_on[0]) << "index " << i;
  }
}

TEST(ShardTeam, RunsEveryIndexAndRethrowsTheFirstFailure) {
  // Threads 1 runs the phase inline on the caller; the contract is the same.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ShardTeam team(threads);
    constexpr std::size_t kN = 16;
    std::vector<std::atomic<int>> hits(kN);
    try {
      team.run(kN, [&hits](std::size_t i) {
        hits[i]++;
        if (i == 3 || i == 11) throw std::runtime_error("boom");
      });
      ADD_FAILURE() << "the failure was swallowed at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

    // The failure does not leak into the next phase.
    std::atomic<std::size_t> ran{0};
    EXPECT_NO_THROW(team.run(kN, [&ran](std::size_t) { ran++; }));
    EXPECT_EQ(ran.load(), kN);
  }
}

TEST(ShardTeamDeathTest, ReentrantRunAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // From fn on the calling thread ...
  EXPECT_DEATH(
      {
        ShardTeam team(2);
        team.run(1, [&team](std::size_t) { team.run(1, [](std::size_t) {}); });
      },
      "re-entrant");
  // ... and from a worker: the caller holds one index forever, so the
  // worker claims the other and re-enters from there.
  EXPECT_DEATH(
      {
        ShardTeam team(2);
        const auto caller = std::this_thread::get_id();
        team.run(2, [&team, caller](std::size_t) {
          while (std::this_thread::get_id() == caller) {
            std::this_thread::yield();
          }
          team.run(2, [](std::size_t) {});
        });
      },
      "re-entrant");
}

TEST(ShardTeam, NestedRunAcrossDistinctTeamsWorks) {
  ShardTeam outer(2);
  ShardTeam inner(2);
  std::atomic<int> total{0};
  outer.run(4, [&](std::size_t) {
    // Only one thread at a time may drive `inner`.
    static std::mutex inner_mu;
    std::lock_guard lock(inner_mu);
    inner.run(3, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 12);
}

TEST(ShardTeam, BackToBackPhasesDoNotDeadlock) {
  ShardTeam team(3);
  std::atomic<std::size_t> ran{0};
  std::size_t expected = 0;
  for (std::size_t phase = 0; phase < 10000; ++phase) {
    const std::size_t n = phase % 6;  // includes empty and 1-index phases
    team.run(n, [&ran](std::size_t) { ran++; });
    expected += n;
  }
  EXPECT_EQ(ran.load(), expected);
}

TEST(ShardTeam, DestroysCleanlyWithIdleWorkers) {
  { ShardTeam never_used(4); }
  ShardTeam team(4);
  std::atomic<int> ran{0};
  team.run(8, [&ran](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 8);
  // Let the workers park again before the destructor wakes them to stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

}  // namespace
}  // namespace eclb::common
