// P1: the recorded perf baseline for the scan-free protocol hot path.
//
// Standalone harness (no external benchmark framework): sweeps the
// per-interval cluster step across cluster sizes (8 warmup intervals past
// the placement transient, then the median of individually timed
// intervals); at each flat size answers one fixed seeded batch of placement
// queries with both the regime index and the reference scans
// (policy::find_tiered_target, policy::find_below_center_target,
// Leader::pick_wake_candidate) -- any differing answer is a hard failure,
// the scan/index time ratio is the search speedup; times a partitioned run
// (split at the first round, heal at the last) against the fault-free run
// of the same cluster; times the sharded fabric (10 x 100 anchor, 100 x 1000
// = 1e5-server scale point at 1, 2 and 4 threads for its parallel
// efficiency, with the allocations of each step) and smoke-checks its
// thread-count determinism;
// measures steady-state event-queue throughput with a global allocation
// counter; runs the request-driven fabric (request plane + fabric step) at
// 1/2/4 threads, reporting ms/interval, completed requests/s and the
// allocations per interval of the request phase and of the step, and checks
// that all three replay the same run; and emits the results as BENCH_perf.json (schema
// "eclb-perf-3").  With --check <reference.json> it gates the measured
// search speedups at half the recorded reference, the partition factor at
// 1.25x the recorded value, the SoA data plane's bytes-per-server footprint
// at 1.5x the recorded value, the fabric overhead ratio and the 1e5
// fabric's parallel efficiency at half the recorded figure, the request
// phase's allocations per interval at the recorded count, and search
// agreement, fabric determinism and the request-driven fabric's
// determinism hard -- the CI perf smoke gate.
//
// Usage:
//   perf_kernel [--ci] [--tiny] [--full] [--phases] [--out BENCH_perf.json]
//               [--check ref.json]
//     --ci     small sizes only (100, 1000 flat, the 1e4 partition factor
//              + 10 x 100 fabric): fast enough for every CI run.
//     --tiny   smallest possible sweep (100 flat + 10 x 10 fabric, short
//              queue/request cycles, a 1000-server partition factor): a
//              seconds-long smoke of every code path, for the CI
//              perf-smoke job.
//     --full   adds the 1e6-server fabric (minutes, local only).
//     --phases breaks the coalesced notification pipeline's interval down
//              into classify / diff / refile / protocol wall-clock at the
//              largest flat size of the run (emitted as pipeline_phases).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "cluster/index/regime_index.h"
#include "cluster/leader.h"
#include "common/flags.h"
#include "common/sysinfo.h"
#include "experiment/request_driver.h"
#include "experiment/scenario.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "policy/placement.h"
#include "sim/event_queue.h"
#include "workload/engine/engine.h"

// --- global allocation counter ---------------------------------------------
//
// Counts every operator-new on the process; the event-queue benchmark reads
// it around its steady-state cycle to prove the hot path performs zero
// per-event heap allocations (SBO callbacks + retained heap capacity).

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace eclb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- cluster step sweep -----------------------------------------------------

struct StepSample {
  std::size_t servers{0};
  std::size_t intervals{0};
  double ms_per_interval{0.0};
  double bytes_per_server{0.0};
};

/// Intervals to time per size, derived from a fixed work budget of
/// ~50k server-intervals per sample rather than a hand-tuned table: the
/// counts scale automatically as sizes are added and as the kernel gets
/// faster, instead of drifting in BENCH_perf.json.  Floor of 5 keeps large
/// N statistically usable; cap of 200 bounds tiny-cluster runs.
std::size_t intervals_for(std::size_t servers) {
  constexpr std::size_t kServerIntervalBudget = 50000;
  const std::size_t k = kServerIntervalBudget / (servers == 0 ? 1 : servers);
  return std::clamp<std::size_t>(k, 5, 200);
}

StepSample time_cluster_step(std::size_t servers) {
  cluster::Cluster c(experiment::paper_cluster_config(
      servers, experiment::AverageLoad::kLow30, 42));
  // Warmup: the opening intervals are a placement transient (the initial
  // sleep wave plus consolidation churn, roughly 1.5-2x the sustained cost);
  // run past it so the figure reports steady-state throughput.
  constexpr std::size_t kWarmupIntervals = 8;
  for (std::size_t i = 0; i < kWarmupIntervals; ++i) c.step();
  // Time each interval individually and report the median: a shared CI
  // runner can stall any single interval, and the median discards those
  // spikes where a mean would smear them across the figure.
  const std::size_t k = intervals_for(servers);
  std::vector<double> laps(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto start = Clock::now();
    c.step();
    laps[i] = seconds_since(start);
  }
  std::sort(laps.begin(), laps.end());
  const double median = (k % 2 != 0)
                            ? laps[k / 2]
                            : 0.5 * (laps[k / 2 - 1] + laps[k / 2]);
  StepSample s;
  s.servers = servers;
  s.intervals = k;
  s.ms_per_interval = 1e3 * median;
  s.bytes_per_server = c.memory_stats().bytes_per_server;
  return s;
}

// --- placement search: index vs reference scans ---------------------------

struct SearchSample {
  std::size_t servers{0};
  std::size_t queries{0};
  std::size_t mismatches{0};  ///< Index answers differing from the scan.
  double index_us{0.0};       ///< Per query.
  double scan_us{0.0};        ///< Per query.
};

/// One placement query of the fixed batch: a tiered search (kind 0-2 =
/// tier), a below-center search (3) or a wake pick (4).
struct Query {
  int kind{0};
  double demand{0.0};
  common::ServerId exclude{};
};

/// After the usual warm-up, answers one fixed seeded batch of placement
/// queries twice on the same quiescent cluster: through the regime index
/// and through the reference scans it replaced.  The batch is sized to a
/// fixed scan budget (~2e7 server visits), so large sizes stay quick.
SearchSample time_searches(std::size_t servers) {
  cluster::Cluster c(experiment::paper_cluster_config(
      servers, experiment::AverageLoad::kLow30, 42));
  constexpr std::size_t kWarmupIntervals = 8;
  for (std::size_t i = 0; i < kWarmupIntervals; ++i) c.step();
  const std::size_t k =
      std::clamp<std::size_t>(20000000 / servers, 100, 2000);
  common::Rng rng(7);
  std::vector<Query> batch(k);
  for (auto& q : batch) {
    q.kind = static_cast<int>(rng.index(5));
    q.demand = rng.uniform(0.01, 0.3);
    q.exclude = common::ServerId{rng.index(servers)};
  }
  const auto& idx = c.regime_index();
  (void)idx.total_vms();  // flush outside the timed loop
  const auto tier = [](const Query& q) {
    return static_cast<policy::PlacementTier>(q.kind);
  };
  std::vector<std::optional<common::ServerId>> by_index(k);
  auto start = Clock::now();
  for (std::size_t i = 0; i < k; ++i) {
    const Query& q = batch[i];
    if (q.kind < 3) {
      by_index[i] = idx.find_tiered_target(q.demand, q.exclude, tier(q), 0);
    } else if (q.kind == 3) {
      by_index[i] = idx.find_below_center_target(q.demand, q.exclude, 0);
    } else {
      by_index[i] = idx.pick_wake_candidate(0);
    }
  }
  const double index_s = seconds_since(start);
  const auto fleet = c.servers();
  const auto now = c.now();
  const cluster::Leader leader;
  std::vector<std::optional<common::ServerId>> by_scan(k);
  start = Clock::now();
  for (std::size_t i = 0; i < k; ++i) {
    const Query& q = batch[i];
    if (q.kind < 3) {
      by_scan[i] = policy::find_tiered_target(fleet, now, q.demand, q.exclude,
                                              tier(q));
    } else if (q.kind == 3) {
      by_scan[i] =
          policy::find_below_center_target(fleet, now, q.demand, q.exclude);
    } else {
      by_scan[i] = leader.pick_wake_candidate(fleet, now);
    }
  }
  const double scan_s = seconds_since(start);
  SearchSample s;
  s.servers = servers;
  s.queries = k;
  for (std::size_t i = 0; i < k; ++i) {
    s.mismatches += static_cast<std::size_t>(by_index[i] != by_scan[i]);
  }
  s.index_us = 1e6 * index_s / static_cast<double>(k);
  s.scan_us = 1e6 * scan_s / static_cast<double>(k);
  return s;
}

// --- partition factor ---------------------------------------------------------

struct PartitionSample {
  std::size_t servers{0};
  std::size_t intervals{0};
  double fault_free_s{0.0};   ///< Median total wall of the window.
  double partitioned_s{0.0};  ///< Same window, split in half.
  [[nodiscard]] double factor() const {
    return fault_free_s > 0.0 ? partitioned_s / fault_free_s : 0.0;
  }
};

/// Total wall time of a 30-interval window in which the cluster splits in
/// half at the first round boundary and heals before the last round (the
/// reconciliation runs inside the window), against the same window without
/// faults.  The total -- not a per-interval percentile -- is what exposes an
/// onset or heal cliff.  Median of five runs each.
PartitionSample time_partition(std::size_t servers) {
  constexpr std::size_t kIntervals = 30;
  constexpr int kRuns = 5;
  const auto cfg = experiment::paper_cluster_config(
      servers, experiment::AverageLoad::kLow30, 42);
  std::vector<std::vector<common::ServerId>> halves(2);
  for (std::size_t i = 0; i < servers; ++i) {
    halves[i < servers / 2 ? 0 : 1].push_back(common::ServerId{i});
  }
  fault::FaultPlan plan;
  const double tau = cfg.reallocation_interval.value;
  plan.partition(common::Seconds{tau},
                 halves, common::Seconds{tau * (kIntervals - 1)});
  const auto window = [&](bool split) {
    cluster::Cluster c(cfg);
    std::optional<fault::FaultInjector> injector;
    if (split) injector.emplace(c, plan);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIntervals; ++i) c.step();
    return seconds_since(start);
  };
  std::vector<double> free_laps, split_laps;
  for (int r = 0; r < kRuns; ++r) {
    free_laps.push_back(window(false));
    split_laps.push_back(window(true));
  }
  std::sort(free_laps.begin(), free_laps.end());
  std::sort(split_laps.begin(), split_laps.end());
  PartitionSample p;
  p.servers = servers;
  p.intervals = kIntervals;
  p.fault_free_s = free_laps[kRuns / 2];
  p.partitioned_s = split_laps[kRuns / 2];
  return p;
}

// --- fabric step sweep ------------------------------------------------------

struct FabricSample {
  std::size_t shards{0};
  std::size_t servers_per_shard{0};
  std::size_t threads{0};           ///< Requested (0 = hardware).
  std::size_t resolved_threads{0};  ///< Threads the parallel phase ran on.
  std::size_t intervals{0};
  double ms_per_interval{0.0};
  /// operator-new calls inside Fabric::step() per timed interval, on every
  /// thread: the shards' own allocations plus whatever the parallel phase
  /// adds (nothing, for the shard team).
  double allocs_per_interval{0.0};
};

cluster::FabricConfig fabric_config(std::size_t shards,
                                    std::size_t servers_per_shard,
                                    std::size_t threads) {
  cluster::FabricConfig cfg;
  cfg.shard_count = shards;
  cfg.threads = threads;
  cfg.cluster_template = experiment::paper_cluster_config(
      servers_per_shard, experiment::AverageLoad::kLow30, 42);
  return cfg;
}

/// Times Fabric::step() on one fabric per entry of `thread_counts`, all
/// built from the same config: 8 warm-up steps each, then `timed` rounds in
/// which every fabric takes one timed step in turn.  Interleaving puts the
/// same host conditions under every thread count, so ratios between the
/// rows (the parallel efficiency) survive host drift that sequential rows
/// would not.  Each row reports the median of its laps.
std::vector<FabricSample> time_fabric_steps(
    std::size_t shards, std::size_t servers_per_shard,
    const std::vector<std::size_t>& thread_counts, std::size_t timed) {
  std::vector<std::unique_ptr<cluster::Fabric>> fabrics;
  for (const std::size_t threads : thread_counts) {
    fabrics.push_back(std::make_unique<cluster::Fabric>(
        fabric_config(shards, servers_per_shard, threads)));
  }
  constexpr std::size_t kWarmupIntervals = 8;
  for (auto& fabric : fabrics) {
    for (std::size_t i = 0; i < kWarmupIntervals; ++i) fabric->step();
  }
  std::vector<std::vector<double>> laps(fabrics.size(),
                                        std::vector<double>(timed));
  std::vector<std::size_t> allocs(fabrics.size(), 0);
  for (std::size_t i = 0; i < timed; ++i) {
    for (std::size_t f = 0; f < fabrics.size(); ++f) {
      const std::size_t allocs_before =
          g_alloc_count.load(std::memory_order_relaxed);
      const auto start = Clock::now();
      fabrics[f]->step();
      laps[f][i] = seconds_since(start);
      allocs[f] += g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    }
  }
  std::vector<FabricSample> out;
  for (std::size_t f = 0; f < fabrics.size(); ++f) {
    auto& l = laps[f];
    std::sort(l.begin(), l.end());
    FabricSample s;
    s.shards = shards;
    s.servers_per_shard = servers_per_shard;
    s.threads = thread_counts[f];
    s.resolved_threads = fabrics[f]->resolved_threads();
    s.intervals = timed;
    s.ms_per_interval =
        1e3 * ((timed % 2 != 0) ? l[timed / 2]
                                : 0.5 * (l[timed / 2 - 1] + l[timed / 2]));
    s.allocs_per_interval =
        static_cast<double>(allocs[f]) / static_cast<double>(timed);
    out.push_back(s);
  }
  return out;
}

// --- pipeline phase breakdown -----------------------------------------------

struct PhaseSample {
  std::size_t servers{0};
  std::size_t intervals{0};
  double classify_ms{0.0};  ///< Batch gather-classification, per interval.
  double diff_ms{0.0};      ///< Slot diff + bitset/aggregate apply.
  double refile_ms{0.0};    ///< Grouped-run apply to the key axes.
  double protocol_ms{0.0};  ///< Interval wall-clock minus the flush phases.
  double dirty_per_interval{0.0};
  double refiles_per_interval{0.0};
  double runs_per_interval{0.0};
};

/// Times the interval with pipeline phase timing switched on and splits the
/// wall clock into the three flush phases plus the protocol remainder.  Runs
/// on a separate cluster instance so the headline ms_per_interval figures
/// never pay for the clock reads.
PhaseSample time_pipeline_phases(std::size_t servers) {
  auto cfg = experiment::paper_cluster_config(
      servers, experiment::AverageLoad::kLow30, 42);
  cluster::Cluster c(cfg);
  c.set_pipeline_phase_timing(true);
  constexpr std::size_t kWarmupIntervals = 8;
  for (std::size_t i = 0; i < kWarmupIntervals; ++i) c.step();
  const std::size_t k = intervals_for(servers);
  const auto before = c.pipeline_stats();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < k; ++i) c.step();
  const double wall_ms = 1e3 * seconds_since(start);
  const auto after = c.pipeline_stats();
  const double n = static_cast<double>(k);
  PhaseSample p;
  p.servers = servers;
  p.intervals = k;
  p.classify_ms = 1e3 * (after.classify_seconds - before.classify_seconds) / n;
  p.diff_ms = 1e3 * (after.diff_seconds - before.diff_seconds) / n;
  p.refile_ms = 1e3 * (after.refile_seconds - before.refile_seconds) / n;
  p.protocol_ms =
      wall_ms / n - (p.classify_ms + p.diff_ms + p.refile_ms);
  p.dirty_per_interval =
      static_cast<double>(after.dirty_slots - before.dirty_slots) / n;
  p.refiles_per_interval =
      static_cast<double>(after.batch_refiles - before.batch_refiles) / n;
  p.runs_per_interval =
      static_cast<double>(after.refile_runs - before.refile_runs) / n;
  return p;
}

/// The barrier protocol's promise, smoke-checked on every perf run: the same
/// fabric seed replayed at 1 and 2 worker threads produces bit-identical
/// per-interval digests and final state.
bool fabric_determinism_ok() {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kServers = 50;
  constexpr std::size_t kSteps = 6;
  std::vector<std::uint64_t> runs[2];
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    cluster::Fabric fabric(fabric_config(kShards, kServers, threads));
    auto& digests = runs[threads - 1];
    digests.reserve(kSteps + 1);
    for (std::size_t i = 0; i < kSteps; ++i) {
      digests.push_back(cluster::fabric_report_digest(fabric.step()));
    }
    digests.push_back(fabric.state_digest());
  }
  return runs[0] == runs[1];
}

// --- request engine benchmark -----------------------------------------------

struct RequestSample {
  std::size_t requests{0};
  double requests_per_sec{0.0};
};

/// Times the open-loop arrival generator on a mixed three-stream workload
/// (Poisson + diurnal + flash-crowd MMPP with lognormal service times) --
/// the per-request hot path behind `--requests` and the X13 bench.  The
/// throughput figure is requests generated per wall-clock second, gated in
/// the reference at half the recorded value.
RequestSample time_request_engine(std::size_t target_requests) {
  std::string error;
  const auto cfg = workload::engine::RequestWorkloadConfig::parse(
      "poisson:rate=400,mean=0.2;diurnal:rate=300,amp=0.6,period=3600;"
      "flash:rate=200,burst=6,on=120,off=600;seed=17",
      &error);
  if (!cfg.has_value()) {
    std::fprintf(stderr, "request engine spec: %s\n", error.c_str());
    std::exit(2);
  }
  workload::engine::RequestEngine engine(*cfg);
  std::vector<std::vector<workload::engine::Request>> per_stream;
  // Warm one window so buffer growth is off the clock.
  engine.generate(common::Seconds{0.0}, common::Seconds{60.0}, &per_stream);
  const std::uint64_t warm = engine.total_generated();
  double t = 60.0;
  const auto start = Clock::now();
  while (engine.total_generated() - warm < target_requests) {
    engine.generate(common::Seconds{t}, common::Seconds{t + 60.0},
                    &per_stream);
    t += 60.0;
  }
  const double elapsed = seconds_since(start);
  RequestSample s;
  s.requests = engine.total_generated() - warm;
  s.requests_per_sec =
      elapsed > 0.0 ? static_cast<double>(s.requests) / elapsed : 0.0;
  return s;
}

// --- request-driven fabric --------------------------------------------------

struct RequestFabricSample {
  std::size_t shards{0};
  std::size_t servers_per_shard{0};
  double rate{0.0};                 ///< Offered requests/second, fabric-wide.
  std::size_t threads{0};
  std::size_t resolved_threads{0};
  std::size_t intervals{0};
  double ms_per_interval{0.0};      ///< Median of request advance + step.
  double completed_per_sec{0.0};    ///< Completions over timed wall time.
  /// operator-new calls inside FabricRequestSession::advance_interval() per
  /// timed interval, on every thread: the request plane's own steady-state
  /// allocation rate plus whatever the parallel phase adds (nothing, for
  /// the shard team).
  double allocs_per_interval{0.0};
  /// operator-new calls inside the interval's Fabric::step().
  double step_allocs_per_interval{0.0};
  std::uint64_t digest{0};  ///< Every report, the end state and the SLA summary.
};

/// The end-to-end request-driven fabric: `shards` x `servers_per_shard`
/// servers under a Poisson stream at `rate`, each interval one
/// FabricRequestSession::advance_interval() plus one Fabric::step(), the
/// way the request plane runs in every fabric surface.  The digest chains
/// every interval's report digest, the end state and the SLA summary, so
/// runs at different thread counts must match exactly.
RequestFabricSample time_request_fabric(std::size_t shards,
                                        std::size_t servers_per_shard,
                                        double rate, std::size_t threads,
                                        std::size_t timed) {
  cluster::FabricConfig cfg = fabric_config(shards, servers_per_shard, threads);
  cfg.cluster_template.demand_evolution_enabled = false;
  cluster::Fabric fabric(cfg);
  std::string error;
  const auto workload = workload::engine::RequestWorkloadConfig::parse(
      "poisson:rate=" + std::to_string(rate) + ";seed=7", &error);
  if (!workload.has_value()) {
    std::fprintf(stderr, "request fabric spec: %s\n", error.c_str());
    std::exit(2);
  }
  experiment::FabricRequestSession session(fabric, *workload);

  std::uint64_t digest = 1469598103934665603ull;
  auto fold = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  constexpr std::size_t kWarmupIntervals = 8;
  for (std::size_t i = 0; i < kWarmupIntervals; ++i) {
    session.advance_interval();
    fold(cluster::fabric_report_digest(fabric.step()));
  }
  const std::uint64_t completed_before = session.summary().completed;
  std::vector<double> laps(timed);
  std::size_t allocs = 0;
  std::size_t step_allocs = 0;
  for (std::size_t i = 0; i < timed; ++i) {
    const auto start = Clock::now();
    const std::size_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    session.advance_interval();
    const std::size_t allocs_between =
        g_alloc_count.load(std::memory_order_relaxed);
    allocs += allocs_between - allocs_before;
    fold(cluster::fabric_report_digest(fabric.step()));
    step_allocs +=
        g_alloc_count.load(std::memory_order_relaxed) - allocs_between;
    laps[i] = seconds_since(start);
  }
  double wall = 0.0;
  for (const double lap : laps) wall += lap;
  const experiment::SlaSummary summary = session.summary();
  fold(fabric.state_digest());
  fold(summary.digest());

  std::sort(laps.begin(), laps.end());
  RequestFabricSample s;
  s.shards = shards;
  s.servers_per_shard = servers_per_shard;
  s.rate = rate;
  s.threads = threads;
  s.resolved_threads = fabric.resolved_threads();
  s.intervals = timed;
  s.ms_per_interval =
      1e3 * ((timed % 2 != 0) ? laps[timed / 2]
                              : 0.5 * (laps[timed / 2 - 1] + laps[timed / 2]));
  s.completed_per_sec =
      wall > 0.0
          ? static_cast<double>(summary.completed - completed_before) / wall
          : 0.0;
  s.allocs_per_interval =
      static_cast<double>(allocs) / static_cast<double>(timed);
  s.step_allocs_per_interval =
      static_cast<double>(step_allocs) / static_cast<double>(timed);
  s.digest = digest;
  return s;
}

/// True when every sample of the sweep replayed the same run.
bool request_fabric_deterministic(
    const std::vector<RequestFabricSample>& samples) {
  return std::all_of(samples.begin(), samples.end(),
                     [&](const RequestFabricSample& s) {
                       return s.digest == samples.front().digest;
                     });
}

// --- sleep/wake hysteresis row ----------------------------------------------

struct HysteresisSample {
  std::size_t flaps_raw{0};     ///< wake_sleep_flaps, hysteresis off.
  std::size_t flaps_damped{0};  ///< wake_sleep_flaps, hysteresis on.
};

/// Replays a fixed on/off flash workload (request-driven demand, 40
/// servers, 30 intervals, deep-sleep budget raised to 10 %/interval so the
/// idle phases genuinely put servers into C3/C6 and the bursts recall them)
/// with sleep/wake hysteresis off and on and counts the wake_sleep_flaps
/// each run books.  The scenario is identical in every mode (--tiny through
/// --full) and fully deterministic -- the counts are simulation facts, not
/// timings -- so the reference gates them exactly: the damped count may
/// never exceed the raw count, and may never grow past the recorded value.
HysteresisSample measure_hysteresis() {
  const auto run = [](bool hysteresis) {
    auto cfg = experiment::paper_cluster_config(
        40, experiment::AverageLoad::kLow30, 77);
    cfg.demand_evolution_enabled = false;
    cfg.max_sleep_fraction_per_interval = 0.1;
    cfg.hysteresis.enabled = hysteresis;
    cluster::Cluster c(cfg);
    std::string error;
    const auto wl = workload::engine::RequestWorkloadConfig::parse(
        "flash:rate=20,burst=10,on=60,off=300,mean=0.2,sla=30;seed=9;"
        "util=0.7",
        &error);
    if (!wl.has_value()) {
      std::fprintf(stderr, "hysteresis spec: %s\n", error.c_str());
      std::exit(2);
    }
    experiment::RequestDriver driver(c, *wl);
    std::size_t flaps = 0;
    for (int i = 0; i < 30; ++i) {
      driver.advance_interval();
      flaps += c.step().wake_sleep_flaps;
    }
    return flaps;
  };
  HysteresisSample s;
  s.flaps_raw = run(false);
  s.flaps_damped = run(true);
  return s;
}

// --- event-queue benchmark --------------------------------------------------

struct QueueSample {
  std::size_t events{0};
  double ns_per_event{0.0};
  double allocs_per_event{0.0};
};

QueueSample time_event_queue(std::size_t n) {
  sim::EventQueue q;
  common::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);

  // Cycle 0 warms the heap vector to full capacity; pops retain it, so the
  // measured cycle runs allocation-free end to end.
  for (int cycle = 0; cycle < 2; ++cycle) {
    const std::size_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      q.push(common::Seconds{times[i]}, [](sim::Simulation&) {});
    }
    std::size_t popped = 0;
    while (q.pop().has_value()) ++popped;
    const double elapsed = seconds_since(start);
    const std::size_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    if (popped != n) {
      std::fprintf(stderr, "event queue lost events: %zu != %zu\n", popped, n);
      std::exit(2);
    }
    if (cycle == 1) {
      QueueSample s;
      s.events = n;
      s.ns_per_event = 1e9 * elapsed / (2.0 * static_cast<double>(n));
      s.allocs_per_event =
          static_cast<double>(allocs) / static_cast<double>(n);
      return s;
    }
  }
  return {};
}

// --- JSON output ------------------------------------------------------------

/// Indexed-mode bytes/server at the canonical 1000-server size: present in
/// both --ci and full runs, so the reference file can carry one stable
/// memory figure for the CI gate.
std::optional<double> bytes_per_server_1000(
    const std::vector<StepSample>& steps) {
  for (const auto& s : steps) {
    if (s.servers == 1000) return s.bytes_per_server;
  }
  return std::nullopt;
}

/// Fabric-over-flat ratio at the canonical 1000-server size: the flat
/// 1000-server step time over the 10 x 100 fabric step time (same
/// total servers, 1 worker thread).  Present in both --ci and full runs and
/// gated as a ratio so the figure survives CI runners of any speed; a
/// collapse toward zero means the fabric layer's per-interval overhead
/// (mailboxes, ledger, barrier) has blown up relative to the work it wraps.
std::optional<double> fabric_efficiency_1000(
    const std::vector<StepSample>& steps,
    const std::vector<FabricSample>& fabrics) {
  for (const auto& f : fabrics) {
    if (f.shards != 10 || f.servers_per_shard != 100 || f.threads != 1) continue;
    for (const auto& s : steps) {
      if (s.servers == 1000) return s.ms_per_interval / f.ms_per_interval;
    }
  }
  return std::nullopt;
}

/// Per-server scaling ratio from the 1e5 fabric (100 x 1000) to the 1e6
/// fabric (1000 x 1000), both on the same resolved thread count (hardware
/// threads for the 1e6 row): ms_1e6 / (10 * ms_1e5).  1.0 is perfect linear
/// scaling in fabric size; present only in --full runs, and gated as a
/// ratio so it survives CI runners of any speed.
std::optional<double> fabric_scale_1e6(
    const std::vector<FabricSample>& fabrics) {
  const FabricSample* big = nullptr;
  for (const auto& f : fabrics) {
    if (f.shards == 1000 && f.servers_per_shard == 1000) big = &f;
  }
  if (big == nullptr) return std::nullopt;
  for (const auto& f : fabrics) {
    if (f.shards == 100 && f.servers_per_shard == 1000 &&
        f.resolved_threads == big->resolved_threads &&
        f.ms_per_interval > 0.0) {
      return big->ms_per_interval / (10.0 * f.ms_per_interval);
    }
  }
  return std::nullopt;
}

/// Parallel efficiency of the 1e5 fabric (100 x 1000) at each thread count
/// T > 1 of the sweep: t1 / (T * tT), where t1 is the same fabric stepped
/// inline.  1.0 is perfect scaling; what falls short is the parallel
/// phase's imbalance and dispatch cost plus the serial barrier.  Present
/// only in runs that carry the 1e5 rows (not --ci / --tiny).
std::vector<std::pair<std::size_t, double>> fabric_parallel_efficiency(
    const std::vector<FabricSample>& fabrics) {
  auto is_1e5 = [](const FabricSample& f) {
    return f.shards == 100 && f.servers_per_shard == 1000;
  };
  const FabricSample* inline_row = nullptr;
  for (const auto& f : fabrics) {
    if (is_1e5(f) && f.resolved_threads == 1) inline_row = &f;
  }
  std::vector<std::pair<std::size_t, double>> out;
  if (inline_row == nullptr) return out;
  for (const auto& f : fabrics) {
    if (!is_1e5(f) || f.resolved_threads <= 1 || f.ms_per_interval <= 0.0) {
      continue;
    }
    out.emplace_back(f.resolved_threads,
                     inline_row->ms_per_interval /
                         (static_cast<double>(f.resolved_threads) *
                          f.ms_per_interval));
  }
  return out;
}

std::string json_report(const std::vector<StepSample>& steps,
                        const std::vector<SearchSample>& searches,
                        const std::vector<PartitionSample>& partitions,
                        const std::vector<FabricSample>& fabrics,
                        const std::vector<PhaseSample>& phases,
                        bool determinism_ok, const QueueSample& queue,
                        const RequestSample& requests,
                        const std::vector<RequestFabricSample>& request_fabrics,
                        const HysteresisSample& hysteresis) {
  const common::SysInfo sys = common::query_sysinfo();
  std::ostringstream out;
  out.precision(6);
  out << "{\n  \"schema\": \"eclb-perf-3\",\n  \"generated_by\": \"perf_kernel\",\n";
  out << "  \"machine\": {\"os\": \"" << sys.os << "\", \"release\": \""
      << sys.release << "\", \"machine\": \"" << sys.machine
      << "\", \"compiler\": \"" << sys.compiler << "\", \"cpus\": " << sys.cpus
      << ", \"assertions\": " << (sys.assertions ? "true" : "false") << "},\n";
  out << "  \"cluster_step\": [\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& s = steps[i];
    out << "    {\"servers\": " << s.servers << ", \"intervals\": "
        << s.intervals << ", \"ms_per_interval\": " << s.ms_per_interval
        << ", \"bytes_per_server\": " << s.bytes_per_server << "}"
        << (i + 1 < steps.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"search\": [\n";
  for (std::size_t i = 0; i < searches.size(); ++i) {
    const auto& q = searches[i];
    out << "    {\"servers\": " << q.servers << ", \"queries\": " << q.queries
        << ", \"index_us\": " << q.index_us << ", \"scan_us\": " << q.scan_us
        << ", \"mismatches\": " << q.mismatches << "}"
        << (i + 1 < searches.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"partition\": [\n";
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const auto& p = partitions[i];
    out << "    {\"servers\": " << p.servers << ", \"intervals\": "
        << p.intervals << ", \"fault_free_s\": " << p.fault_free_s
        << ", \"partitioned_s\": " << p.partitioned_s << "}"
        << (i + 1 < partitions.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fabric_step\": [\n";
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    const auto& f = fabrics[i];
    out << "    {\"shards\": " << f.shards << ", \"servers_per_shard\": "
        << f.servers_per_shard << ", \"total_servers\": "
        << f.shards * f.servers_per_shard << ", \"threads\": " << f.threads
        << ", \"resolved_threads\": " << f.resolved_threads
        << ", \"intervals\": " << f.intervals << ", \"ms_per_interval\": "
        << f.ms_per_interval << ", \"allocs_per_interval\": "
        << f.allocs_per_interval << "}" << (i + 1 < fabrics.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n";
  if (!phases.empty()) {
    out << "  \"pipeline_phases\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const auto& p = phases[i];
      out << "    {\"servers\": " << p.servers << ", \"intervals\": "
          << p.intervals << ", \"classify_ms\": " << p.classify_ms
          << ", \"diff_ms\": " << p.diff_ms << ", \"refile_ms\": "
          << p.refile_ms << ", \"protocol_ms\": " << p.protocol_ms
          << ", \"dirty_per_interval\": " << p.dirty_per_interval
          << ", \"refiles_per_interval\": " << p.refiles_per_interval
          << ", \"runs_per_interval\": " << p.runs_per_interval << "}"
          << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
  }
  out << "  \"fabric_determinism\": "
      << (determinism_ok ? "true" : "false") << ",\n";
  out << "  \"request_fabric\": [\n";
  for (std::size_t i = 0; i < request_fabrics.size(); ++i) {
    const auto& r = request_fabrics[i];
    out << "    {\"shards\": " << r.shards << ", \"servers_per_shard\": "
        << r.servers_per_shard << ", \"total_servers\": "
        << r.shards * r.servers_per_shard << ", \"rate\": " << r.rate
        << ", \"threads\": " << r.threads << ", \"resolved_threads\": "
        << r.resolved_threads << ", \"intervals\": " << r.intervals
        << ", \"ms_per_interval\": " << r.ms_per_interval
        << ", \"completed_per_sec\": " << r.completed_per_sec
        << ", \"allocs_per_interval\": " << r.allocs_per_interval
        << ", \"step_allocs_per_interval\": " << r.step_allocs_per_interval
        << "}" << (i + 1 < request_fabrics.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"request_fabric_determinism\": "
      << (request_fabric_deterministic(request_fabrics) ? "true" : "false")
      << ",\n";
  if (const auto scale = fabric_scale_1e6(fabrics); scale.has_value()) {
    out << "  \"fabric_scale_1e6\": " << *scale << ",\n";
  }
  if (const auto eff = fabric_parallel_efficiency(fabrics); !eff.empty()) {
    out << "  \"fabric_parallel_efficiency\": {";
    for (std::size_t i = 0; i < eff.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << eff[i].first
          << "\": " << eff[i].second;
    }
    out << "},\n";
  }
  if (const auto eff = fabric_efficiency_1000(steps, fabrics);
      eff.has_value()) {
    out << "  \"fabric_efficiency_1000\": " << *eff << ",\n";
  }
  if (const auto bps = bytes_per_server_1000(steps); bps.has_value()) {
    out << "  \"bytes_per_server_1000\": " << *bps << ",\n";
  }
  out << "  \"search_speedup\": {";
  for (std::size_t i = 0; i < searches.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << searches[i].servers
        << "\": " << searches[i].scan_us / searches[i].index_us;
  }
  out << "},\n  \"partition_factor\": {";
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << partitions[i].servers
        << "\": " << partitions[i].factor();
  }
  out << "},\n  \"event_queue\": {\"events\": " << queue.events
      << ", \"ns_per_event\": " << queue.ns_per_event
      << ", \"allocs_per_event\": " << queue.allocs_per_event << "},\n";
  out << "  \"request_engine\": {\"requests\": " << requests.requests
      << ", \"requests_per_sec\": " << requests.requests_per_sec << "},\n";
  out << "  \"hysteresis\": {\"wake_sleep_flaps_raw\": "
      << hysteresis.flaps_raw << ", \"wake_sleep_flaps_damped\": "
      << hysteresis.flaps_damped << "}\n}\n";
  return out.str();
}

/// Pulls `"key": <number>` pairs out of the flat reference JSON, searching
/// from `from` on.  The file is generated by this tool, so a plain text scan
/// is sufficient -- no JSON library in the container.
std::optional<double> json_number(const std::string& text,
                                  const std::string& key,
                                  std::size_t from = 0) {
  const auto at = text.find("\"" + key + "\"", from);
  if (at == std::string::npos) return std::nullopt;
  const auto colon = text.find(':', at);
  if (colon == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

/// `"key": <number>` inside the `"section": { ... }` object of the
/// reference (per-size rows such as search_speedup share their keys).
std::optional<double> json_section_number(const std::string& text,
                                          const std::string& section,
                                          const std::string& key) {
  const auto at = text.find("\"" + section + "\"");
  if (at == std::string::npos) return std::nullopt;
  const auto key_at = text.find("\"" + key + "\"", at);
  if (key_at == std::string::npos || key_at > text.find('}', at)) {
    return std::nullopt;
  }
  return json_number(text, key, key_at);
}

int check_against_reference(const std::string& ref_path,
                            const std::vector<StepSample>& steps,
                            const std::vector<SearchSample>& searches,
                            const std::vector<PartitionSample>& partitions,
                            const std::vector<FabricSample>& fabrics,
                            bool determinism_ok, const QueueSample& queue,
                            const RequestSample& requests,
                            const std::vector<RequestFabricSample>& request_fabrics,
                            const HysteresisSample& hysteresis) {
  std::ifstream in(ref_path);
  if (!in) {
    std::fprintf(stderr, "cannot read reference %s\n", ref_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string ref = buf.str();
  int failures = 0;

  for (const auto& q : searches) {
    // Agreement is the index's contract: one differing answer is a hard
    // failure, whatever the timing.
    if (q.mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: %zu of %zu placement queries at %zu servers differ "
                   "between the index and the reference scans\n",
                   q.mismatches, q.queries, q.servers);
      ++failures;
      continue;
    }
    const double measured = q.scan_us / q.index_us;
    const auto expect = json_section_number(ref, "search_speedup",
                                            std::to_string(q.servers));
    if (!expect.has_value()) continue;  // size not in the reference
    // Gate at half the recorded speedup: generous enough for CI-runner
    // noise, tight enough to catch a search silently degrading into a scan
    // (which would drop the ratio to ~1).
    if (measured < *expect / 2.0) {
      std::fprintf(stderr,
                   "FAIL: search speedup at %zu servers regressed: "
                   "measured %.2fx, reference %.2fx (gate %.2fx)\n",
                   q.servers, measured, *expect, *expect / 2.0);
      ++failures;
    } else {
      std::printf("ok: search speedup at %zu servers %.2fx (reference %.2fx)\n",
                  q.servers, measured, *expect);
    }
  }

  // Partition gate: a split may cost a constant factor over the fault-free
  // window, never a change of complexity class.  Both windows run on the
  // same host back to back, so host speed cancels out of the ratio and the
  // gate can sit closer to the reference than the throughput gates: 1.25x.
  for (const auto& p : partitions) {
    const auto expect = json_section_number(ref, "partition_factor",
                                            std::to_string(p.servers));
    if (!expect.has_value()) continue;
    const double gate = *expect * 1.25;
    if (p.factor() > gate) {
      std::fprintf(stderr,
                   "FAIL: partition factor at %zu servers regressed: "
                   "measured %.2fx, reference %.2fx (gate %.2fx)\n",
                   p.servers, p.factor(), *expect, gate);
      ++failures;
    } else {
      std::printf("ok: partition factor at %zu servers %.2fx (reference "
                  "%.2fx)\n",
                  p.servers, p.factor(), *expect);
    }
  }

  // Memory gate: the SoA data plane's indexed bytes/server at 1000 servers
  // must stay within 1.5x of the recorded footprint.  Catches regressions
  // like per-server heap churn sneaking back into the index or recorder.
  const auto ref_bps = json_number(ref, "bytes_per_server_1000");
  const auto measured_bps = bytes_per_server_1000(steps);
  if (ref_bps.has_value() && measured_bps.has_value()) {
    const double gate = *ref_bps * 1.5;
    if (*measured_bps > gate) {
      std::fprintf(stderr,
                   "FAIL: bytes/server at 1000 servers grew: "
                   "measured %.0f, reference %.0f (gate %.0f)\n",
                   *measured_bps, *ref_bps, gate);
      ++failures;
    } else {
      std::printf("ok: bytes/server at 1000 servers %.0f (reference %.0f)\n",
                  *measured_bps, *ref_bps);
    }
  }

  // Fabric gates: the barrier protocol must replay bit-identically across
  // thread counts (hard fail, no reference needed), and the fabric layer's
  // per-interval overhead at the canonical 1000-server size must stay
  // within 2x of the recorded flat-over-fabric ratio.
  if (!determinism_ok) {
    std::fprintf(stderr,
                 "FAIL: fabric replay diverged between 1 and 2 threads\n");
    ++failures;
  } else {
    std::printf("ok: fabric replay bit-identical at 1 vs 2 threads\n");
  }
  const auto ref_eff = json_number(ref, "fabric_efficiency_1000");
  const auto measured_eff = fabric_efficiency_1000(steps, fabrics);
  if (ref_eff.has_value() && measured_eff.has_value()) {
    const double gate = *ref_eff / 2.0;
    if (*measured_eff < gate) {
      std::fprintf(stderr,
                   "FAIL: fabric efficiency at 1000 servers regressed: "
                   "measured %.2f, reference %.2f (gate %.2f)\n",
                   *measured_eff, *ref_eff, gate);
      ++failures;
    } else {
      std::printf("ok: fabric efficiency at 1000 servers %.2f (reference %.2f)\n",
                  *measured_eff, *ref_eff);
    }
  }

  // 1e6 fabric gate, active only when this run measured the --full row:
  // per-server scaling from the 1e5 fabric to the 1e6 fabric must stay
  // within 2x of the recorded ratio.  Catches superlinear blowup (barrier
  // overhead, allocator contention) that the smaller rows cannot see.
  const auto ref_scale = json_number(ref, "fabric_scale_1e6");
  const auto measured_scale = fabric_scale_1e6(fabrics);
  if (ref_scale.has_value() && measured_scale.has_value()) {
    const double gate = *ref_scale * 2.0;
    if (*measured_scale > gate) {
      std::fprintf(stderr,
                   "FAIL: 1e6 fabric scaling regressed: measured %.2f, "
                   "reference %.2f (gate %.2f)\n",
                   *measured_scale, *ref_scale, gate);
      ++failures;
    } else {
      std::printf("ok: 1e6 fabric scaling %.2f (reference %.2f)\n",
                  *measured_scale, *ref_scale);
    }
  }

  // Parallel efficiency gate, active only when this run measured the 1e5
  // rows: at each thread count the recorded efficiency t1 / (T * tT) may
  // not fall below half, i.e. the parallel phase keeps scaling.
  for (const auto& [threads, eff] : fabric_parallel_efficiency(fabrics)) {
    const auto expect = json_section_number(ref, "fabric_parallel_efficiency",
                                            std::to_string(threads));
    if (!expect.has_value()) continue;
    const double gate = *expect / 2.0;
    if (eff < gate) {
      std::fprintf(stderr,
                   "FAIL: fabric parallel efficiency at %zu threads "
                   "regressed: measured %.2f, reference %.2f (gate %.2f)\n",
                   threads, eff, *expect, gate);
      ++failures;
    } else {
      std::printf("ok: fabric parallel efficiency at %zu threads %.2f "
                  "(reference %.2f)\n",
                  threads, eff, *expect);
    }
  }

  // Request-fabric determinism gate: the request plane advances on the
  // fabric's workers, so the run must replay bit-identically at every
  // thread count of the sweep (hard fail, no reference needed).
  if (!request_fabric_deterministic(request_fabrics)) {
    std::fprintf(stderr,
                 "FAIL: request-driven fabric replay diverged across thread "
                 "counts\n");
    ++failures;
  } else {
    std::printf("ok: request-driven fabric replay bit-identical at %zu "
                "thread counts\n",
                request_fabrics.size());
  }

  // Request-phase allocation gate: advancing the request plane must not
  // allocate more per interval than recorded, at any thread count of the
  // sweep -- the per-VM state is reused and the parallel phase dispatches
  // without allocating, so extra threads may not add any.
  const auto ref_phase_allocs =
      json_number(ref, "request_phase_allocs_per_interval");
  if (ref_phase_allocs.has_value()) {
    for (const auto& r : request_fabrics) {
      if (r.allocs_per_interval > *ref_phase_allocs) {
        std::fprintf(stderr,
                     "FAIL: the request phase allocates %.1f per interval at "
                     "%zu threads (reference %.1f)\n",
                     r.allocs_per_interval, r.resolved_threads,
                     *ref_phase_allocs);
        ++failures;
      } else {
        std::printf("ok: request phase allocs/interval %.1f at %zu "
                    "threads\n",
                    r.allocs_per_interval, r.resolved_threads);
      }
    }
  }

  // Request engine gate: arrival generation throughput must stay within 2x
  // of the recorded figure -- catches per-request allocation or an O(n^2)
  // slip in the thinning/sampling loop.
  const auto ref_rps = json_number(ref, "requests_per_sec");
  if (ref_rps.has_value()) {
    const double gate = *ref_rps / 2.0;
    if (requests.requests_per_sec < gate) {
      std::fprintf(stderr,
                   "FAIL: request engine throughput regressed: "
                   "measured %.0f req/s, reference %.0f (gate %.0f)\n",
                   requests.requests_per_sec, *ref_rps, gate);
      ++failures;
    } else {
      std::printf("ok: request engine %.0f req/s (reference %.0f)\n",
                  requests.requests_per_sec, *ref_rps);
    }
  }

  // Hysteresis gate: flap counts are deterministic simulation facts, so the
  // comparison is exact.  Hysteresis must never flap *more* than the raw
  // protocol, and the damped count must not grow past the recorded value
  // (more flaps = the dwell/margin guards stopped biting).
  if (hysteresis.flaps_damped > hysteresis.flaps_raw) {
    std::fprintf(stderr,
                 "FAIL: hysteresis flaps %zu exceed the raw protocol's %zu\n",
                 hysteresis.flaps_damped, hysteresis.flaps_raw);
    ++failures;
  }
  const auto ref_flaps = json_number(ref, "wake_sleep_flaps_damped");
  if (ref_flaps.has_value()) {
    if (static_cast<double>(hysteresis.flaps_damped) > *ref_flaps) {
      std::fprintf(stderr,
                   "FAIL: wake_sleep_flaps under hysteresis grew: "
                   "measured %zu, reference %.0f\n",
                   hysteresis.flaps_damped, *ref_flaps);
      ++failures;
    } else {
      std::printf("ok: wake_sleep_flaps %zu damped / %zu raw "
                  "(reference %.0f)\n",
                  hysteresis.flaps_damped, hysteresis.flaps_raw, *ref_flaps);
    }
  }

  const auto ref_allocs = json_number(ref, "allocs_per_event");
  if (ref_allocs.has_value() && queue.allocs_per_event > *ref_allocs) {
    std::fprintf(stderr,
                 "FAIL: event queue allocates %.4f per event "
                 "(reference %.4f)\n",
                 queue.allocs_per_event, *ref_allocs);
    ++failures;
  } else {
    std::printf("ok: event queue allocs/event %.4f\n", queue.allocs_per_event);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::parse(argc, argv);
  const auto bad = flags.unknown({"ci", "tiny", "full", "out", "check", "phases"});
  if (!bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 2;
  }
  const bool tiny = flags.get_bool("tiny");
  const bool ci = tiny || flags.get_bool("ci");
  const bool full = !tiny && flags.get_bool("full");
  const bool phases_on = flags.get_bool("phases");
  const std::string out_path = flags.get("out", "BENCH_perf.json");

  std::vector<std::size_t> sizes{100};
  if (!tiny) sizes.push_back(1000);
  if (!ci) sizes.push_back(10000);

  std::vector<StepSample> steps;
  std::vector<SearchSample> searches;
  for (const auto n : sizes) {
    std::printf("cluster step: %zu servers...\n", n);
    std::fflush(stdout);
    steps.push_back(time_cluster_step(n));
    std::printf("  %.3f ms/interval\n", steps.back().ms_per_interval);
    std::printf("placement search: %zu servers, index vs scans...\n", n);
    std::fflush(stdout);
    searches.push_back(time_searches(n));
    const auto& q = searches.back();
    std::printf("  %.2f us index, %.2f us scan per query (%zu queries, %zu "
                "mismatches)\n",
                q.index_us, q.scan_us, q.queries, q.mismatches);
  }
  if (!ci) {
    // The whole point of the index: 1e5 servers is interactive.
    std::printf("cluster step: 100000 servers...\n");
    std::fflush(stdout);
    steps.push_back(time_cluster_step(100000));
    std::printf("  %.3f ms/interval\n", steps.back().ms_per_interval);
    std::printf("placement search: 100000 servers, index vs scans...\n");
    std::fflush(stdout);
    searches.push_back(time_searches(100000));
    std::printf("  %.2f us index, %.2f us scan per query (%zu mismatches)\n",
                searches.back().index_us, searches.back().scan_us,
                searches.back().mismatches);
  }

  // Partition factor: 1e4 in every CI run, 1e5 locally (tiny: 1000).
  std::vector<std::size_t> split_sizes{tiny ? std::size_t{1000} : 10000};
  if (!ci) split_sizes.push_back(100000);
  std::vector<PartitionSample> partitions;
  for (const auto n : split_sizes) {
    std::printf("partition factor: %zu servers, split vs fault-free...\n", n);
    std::fflush(stdout);
    partitions.push_back(time_partition(n));
    const auto& p = partitions.back();
    std::printf("  %.3f s split / %.3f s fault-free = %.2fx\n",
                p.partitioned_s, p.fault_free_s, p.factor());
  }

  // Fabric sweep: 10 x 100 at 1 thread anchors the efficiency gate in every
  // run; the larger fabrics are the scale figures this tier exists for.
  std::vector<FabricSample> fabrics;
  // Tiny mode shrinks the anchor fabric but keeps the same shape, so the
  // whole fabric path (mailboxes, barrier, digesting) still runs.
  const std::size_t anchor_servers = tiny ? 10 : 100;
  std::printf("fabric step: 10 x %zu servers, 1 thread...\n", anchor_servers);
  std::fflush(stdout);
  fabrics.push_back(time_fabric_steps(10, anchor_servers, {1},
                                      intervals_for(10 * anchor_servers))
                        .front());
  std::printf("  %.3f ms/interval\n", fabrics.back().ms_per_interval);
  if (!ci) {
    // The fabric's scale point: 1e5 servers as 100 shards, stepped inline
    // and on 2 and 4 threads -- the parallel efficiency rows, interleaved
    // and with more laps than the budget gives a 1e5 row, since their
    // ratios are gated.
    std::printf("fabric step: 100 x 1000 servers, 1 / 2 / 4 threads "
                "interleaved...\n");
    std::fflush(stdout);
    for (const auto& f : time_fabric_steps(100, 1000, {1, 2, 4}, 21)) {
      fabrics.push_back(f);
      std::printf("  %zu thread(s): %.3f ms/interval, %.1f allocs/interval\n",
                  f.resolved_threads, f.ms_per_interval, f.allocs_per_interval);
    }
    for (const auto& [threads, eff] : fabric_parallel_efficiency(fabrics)) {
      std::printf("  parallel efficiency at %zu threads: %.2f\n", threads,
                  eff);
    }
    if (full) {
      std::printf("fabric step: 1000 x 1000 servers, hardware threads...\n");
      std::fflush(stdout);
      fabrics.push_back(
          time_fabric_steps(1000, 1000, {0}, intervals_for(1000 * 1000))
              .front());
      std::printf("  %.3f ms/interval\n", fabrics.back().ms_per_interval);
    }
  }
  std::printf("fabric determinism: 1 vs 2 threads...\n");
  std::fflush(stdout);
  const bool determinism_ok = fabric_determinism_ok();
  std::printf("  %s\n", determinism_ok ? "bit-identical" : "DIVERGED");

  // Phase breakdown at the largest flat size of the run: where the split
  // between classification, diff, refile and protocol work is most honest.
  std::vector<PhaseSample> phases;
  if (phases_on) {
    const std::size_t n = ci ? sizes.back() : 100000;
    std::printf("pipeline phases: %zu servers...\n", n);
    std::fflush(stdout);
    phases.push_back(time_pipeline_phases(n));
    const auto& p = phases.back();
    std::printf(
        "  classify %.3f + diff %.3f + refile %.3f + protocol %.3f "
        "ms/interval (%.0f dirty, %.0f refiles in %.0f runs)\n",
        p.classify_ms, p.diff_ms, p.refile_ms, p.protocol_ms,
        p.dirty_per_interval, p.refiles_per_interval, p.runs_per_interval);
  }

  std::printf("event queue: steady-state push/pop...\n");
  std::fflush(stdout);
  const QueueSample queue = time_event_queue(tiny ? 5000 : ci ? 20000 : 100000);
  std::printf("  %.1f ns/event, %.4f allocs/event\n", queue.ns_per_event,
              queue.allocs_per_event);

  std::printf("request engine: open-loop arrival generation...\n");
  std::fflush(stdout);
  const RequestSample requests =
      time_request_engine(tiny ? 50000 : ci ? 200000 : 1000000);
  std::printf("  %.0f requests/s\n", requests.requests_per_sec);

  // The request-driven fabric at 1, 2 and 4 threads: 10^5 servers at the
  // per-server rate of the request_fabric benchmark workload (500/s per
  // 10^4 servers), smaller in --ci / --tiny.
  const std::size_t rf_shards = tiny ? 4 : ci ? 10 : 100;
  const std::size_t rf_servers = tiny ? 25 : ci ? 100 : 1000;
  const double rf_rate =
      0.05 * static_cast<double>(rf_shards * rf_servers);
  const std::size_t rf_timed = tiny ? 5 : ci ? 20 : 10;
  std::vector<RequestFabricSample> request_fabrics;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::printf("request fabric: %zu x %zu servers, %.0f req/s, %zu "
                "thread(s)...\n",
                rf_shards, rf_servers, rf_rate, threads);
    std::fflush(stdout);
    request_fabrics.push_back(
        time_request_fabric(rf_shards, rf_servers, rf_rate, threads, rf_timed));
    const auto& r = request_fabrics.back();
    std::printf("  %.3f ms/interval, %.0f completed/s, %.1f allocs/interval "
                "in the request phase, %.1f in the step (%zu resolved "
                "threads)\n",
                r.ms_per_interval, r.completed_per_sec, r.allocs_per_interval,
                r.step_allocs_per_interval, r.resolved_threads);
  }
  const bool request_determinism_ok =
      request_fabric_deterministic(request_fabrics);
  std::printf("  replay %s across thread counts\n",
              request_determinism_ok ? "bit-identical" : "DIVERGED");

  std::printf("hysteresis: flash overload, flap count off vs on...\n");
  std::fflush(stdout);
  const HysteresisSample hysteresis = measure_hysteresis();
  std::printf("  %zu flaps raw, %zu damped\n", hysteresis.flaps_raw,
              hysteresis.flaps_damped);

  const std::string report = json_report(steps, searches, partitions,
                                         fabrics, phases,
                                         determinism_ok, queue, requests,
                                         request_fabrics, hysteresis);
  std::ofstream out(out_path);
  out << report;
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (flags.has("check")) {
    return check_against_reference(flags.get("check"), steps, searches,
                                   partitions, fabrics, determinism_ok, queue,
                                   requests, request_fabrics, hysteresis);
  }
  const bool searches_agree =
      std::all_of(searches.begin(), searches.end(),
                  [](const SearchSample& q) { return q.mismatches == 0; });
  return determinism_ok && request_determinism_ok && searches_agree ? 0 : 1;
}
