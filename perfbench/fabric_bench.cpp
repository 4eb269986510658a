// The fabric benchmark driver: one named workload, timed from outside.
//
// Every workload runs through the public API only -- cluster::Fabric,
// experiment::FabricRequestSession and fault::FabricFaultSession -- and the
// driver reads the host clock around those calls and nowhere else.  A run
// repeats one deterministic *episode* (build the fabric and sessions, step a
// warm-up, step a fixed timed window) until --seconds have elapsed, pools the
// per-interval wall times of every timed window, and checks the simulated
// outputs:
//
//   * the request session's conservation audit after every interval,
//   * every shard's self_audit() at the end of every episode,
//   * one sim digest (the chain of per-interval fabric_report_digest values,
//     then state_digest, then the SLA summary digest) identical across the
//     episodes of the run -- traced and untraced alike -- and, on a short
//     prefix, identical between 1 and 2 fabric threads,
//   * workload-specific expectations (admission sheds under the flash crowd,
//     every planned crash and repair fires, ...),
//   * on 1-thread workloads, the traced layers add up to the interval wall.
//
// With --trace 1, untraced episodes (the reference for the tracing overhead)
// alternate with traced ones, which attach one observer per shard, enable the
// index's phase timing and advance the per-shard request drivers one by one;
// the traced episodes yield the per-layer figures.
//
// The last stdout line is a JSON object {correct, attempted, failed,
// metrics}; the lines before it print every figure by name with its unit.
// Exit status is 0 only when every check passed.
//
// With --setup-only 1 the process only builds the workload once and prints
// how long that took; perfbench/run.py runs it in fresh processes around the
// main run and reports their median as setup_s.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fabric.h"
#include "common/rng.h"
#include "common/sysinfo.h"
#include "experiment/request_driver.h"
#include "experiment/scenario.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "workload/engine/engine.h"
#include "workload/engine/spec.h"

namespace {

using namespace eclb;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads ---------------------------------------------------------------

constexpr double kTau = 60.0;  // Reallocation interval of every workload.
/// On 1-thread workloads advance + round + barrier must cover the traced
/// interval wall time to within this share (BENCHMARK.json names it too).
constexpr double kAttributionTolerancePct = 2.0;

struct Workload {
  std::string name;
  std::size_t shards{1};
  std::size_t servers_per_shard{1000};
  std::size_t threads{1};
  /// Intervals stepped after populate and before the timed window.
  std::size_t warmup{5};
  /// Intervals in each episode's timed window.
  std::size_t timed{100};
  /// Request spec without its seed; empty = stochastic demand evolution.
  std::string requests;
  /// Builds the fault plan (times relative to the timed window); null = none.
  std::function<fault::FaultPlan()> plan;
};

/// Simulation time at which timed interval `k` (0-based) runs its round.
double timed_round_time(const Workload& w, std::size_t k) {
  return static_cast<double>(w.warmup + 1 + k) * kTau;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;

  Workload steady;
  steady.name = "steady_fabric";
  steady.shards = 100;
  steady.servers_per_shard = 1000;
  steady.threads = 2;
  steady.warmup = 5;
  steady.timed = 150;
  out.push_back(steady);

  Workload request;
  request.name = "request_fabric";
  request.shards = 10;
  request.servers_per_shard = 1000;
  request.threads = 2;
  request.warmup = 8;
  request.timed = 100;
  request.requests = "poisson:rate=500";
  out.push_back(request);

  Workload overload;
  overload.name = "overload_fabric";
  overload.shards = 10;
  overload.servers_per_shard = 1000;
  overload.threads = 1;
  overload.warmup = 5;
  overload.timed = 60;
  overload.requests =
      "flash:rate=800,burst=8,on=120,off=480,mean=0.2,sigma=1.2,sla=30;"
      "admit=tail-drop;cap=48;drain=2";
  overload.plan = [w = overload] {
    // Per shard: two crashes, a leader kill and both repairs, with
    // migration failures and a lossy control plane underneath -- all inside
    // the timed window, so the crash-recovery path is what gets timed.
    const auto at = [&w](double k) {
      return common::Seconds{timed_round_time(w, 0) + k * kTau - kTau / 2};
    };
    fault::FaultPlan plan;
    plan.migration_failure_rate(at(1), 0.3)
        .link_loss(at(1), 0.05)
        .crash(at(3), common::ServerId{3})
        .crash(at(5), common::ServerId{11})
        .crash_leader(at(8))
        .recover(at(20), common::ServerId{3})
        .recover(at(20), common::ServerId{11});
    return plan;
  };
  out.push_back(overload);

  return out;
}

// --- the fabric under test ---------------------------------------------------

/// One shard's trace probe.  Each shard gets its own, so callbacks from pool
/// workers never share a probe.
class ShardProbe final : public cluster::ClusterObserver {
 public:
  void on_interval_begin(std::size_t, common::Seconds) override {
    begin = Clock::now();
  }
  void on_interval_end(const cluster::IntervalReport&,
                       common::Seconds) override {
    end = Clock::now();
  }
  void on_phase(std::string_view phase, double wall_seconds) override {
    if (phase == "round") {
      round_s += wall_seconds;
      round_end = Clock::now();
    } else if (phase == "placement_search") {
      search_s += wall_seconds;
    } else if (phase == "cstate_settle") {
      settle_s += wall_seconds;
    }
  }
  void reset() {
    round_s = search_s = settle_s = 0.0;
  }

  Clock::time_point begin{};
  Clock::time_point end{};
  Clock::time_point round_end{};
  double round_s{0.0};
  double search_s{0.0};
  double settle_s{0.0};
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Everything one episode builds: fabric, fault session, request session.
struct Instance {
  std::unique_ptr<cluster::Fabric> fabric;
  std::unique_ptr<fault::FabricFaultSession> faults;
  std::unique_ptr<experiment::FabricRequestSession> requests;
};

workload::engine::RequestWorkloadConfig request_config(const Workload& w,
                                                       std::uint64_t seed) {
  std::string error;
  auto cfg = workload::engine::RequestWorkloadConfig::parse(w.requests, &error);
  if (!cfg.has_value()) {
    std::cerr << "fabric_bench: bad request spec: " << error << "\n";
    std::exit(2);
  }
  cfg->seed = common::mix_seed(seed, 1);
  return *cfg;
}

Instance build(const Workload& w, std::uint64_t seed, std::size_t threads) {
  cluster::FabricConfig fcfg;
  fcfg.shard_count = w.shards;
  fcfg.threads = threads;
  fcfg.cluster_template = experiment::paper_cluster_config(
      w.servers_per_shard, experiment::AverageLoad::kLow30, seed);
  fcfg.cluster_template.demand_evolution_enabled = w.requests.empty();
  Instance inst;
  inst.fabric = std::make_unique<cluster::Fabric>(fcfg);
  if (w.plan) {
    fault::FaultPlan plan = w.plan();
    plan.set_seed(common::mix_seed(seed, 2));
    inst.faults = std::make_unique<fault::FabricFaultSession>(*inst.fabric, plan);
  }
  if (!w.requests.empty()) {
    inst.requests = std::make_unique<experiment::FabricRequestSession>(
        *inst.fabric, request_config(w, seed));
  }
  return inst;
}

// --- one episode -------------------------------------------------------------

/// Per-layer sums over the timed intervals of a traced episode.
struct LayerSums {
  double advance_s{0.0};
  double shard_advance_max_s{0.0};
  double generate_s{0.0};
  double round_s{0.0};
  double round_max_s{0.0};
  double round_mean_s{0.0};
  double barrier_s{0.0};
  double kernel_s{0.0};
  double settle_s{0.0};
  double search_s{0.0};
  double wall_s{0.0};
  cluster::index::PipelineStats pipeline{};

  LayerSums& operator+=(const LayerSums& o) {
    advance_s += o.advance_s;
    shard_advance_max_s += o.shard_advance_max_s;
    generate_s += o.generate_s;
    round_s += o.round_s;
    round_max_s += o.round_max_s;
    round_mean_s += o.round_mean_s;
    barrier_s += o.barrier_s;
    kernel_s += o.kernel_s;
    settle_s += o.settle_s;
    search_s += o.search_s;
    wall_s += o.wall_s;
    pipeline += o.pipeline;
    return *this;
  }
};

/// Pipeline counters accrued between two snapshots.
cluster::index::PipelineStats since(const cluster::index::PipelineStats& now,
                                    const cluster::index::PipelineStats& then) {
  cluster::index::PipelineStats d = now;
  d.flushes -= then.flushes;
  d.dirty_slots -= then.dirty_slots;
  d.batch_refiles -= then.batch_refiles;
  d.refile_runs -= then.refile_runs;
  d.classify_seconds -= then.classify_seconds;
  d.diff_seconds -= then.diff_seconds;
  d.refile_seconds -= then.refile_seconds;
  return d;
}

struct Episode {
  std::vector<double> interval_s;  ///< Timed intervals: advance + step wall.
  std::vector<std::uint64_t> chain;  ///< fabric_report_digest per interval.
  std::uint64_t digest{0};
  std::size_t intervals{0};        ///< Every interval stepped (warm-up too).
  std::vector<std::string> failures;

  // Simulated outputs.
  double energy_kwh{0.0};
  std::uint64_t sla_violations{0};
  experiment::SlaSummary sla;
  std::uint64_t generated{0};
  std::uint64_t timed_generated{0};
  std::uint64_t timed_completed{0};
  std::uint64_t timed_refused{0};  ///< Shed + dropped + failed by fault.
  std::uint64_t queued{0};
  fault::ResilienceStats resilience;

  // Protocol counts over the timed window.
  std::uint64_t local{0}, in_cluster{0}, migrations{0}, sleeps{0}, wakes{0};
  std::uint64_t inter_cluster{0}, unplaced{0};

  // Memory at episode end.
  cluster::ClusterMemoryStats mem{};
  std::size_t servers{0};

  LayerSums layers;  ///< Traced episodes only.
};

std::uint64_t queued_total(experiment::FabricRequestSession& s) {
  std::uint64_t q = 0;
  for (std::size_t i = 0; i < s.size(); ++i) q += s.driver(i).queued();
  return q;
}

std::uint64_t refused(const experiment::SlaSummary& s) {
  return s.shed + s.dropped + s.failed_by_fault;
}

/// Runs one episode; `intervals_limit` (0 = all) cuts it short for the
/// thread-count prefix check.
Episode run_episode(const Workload& w, std::uint64_t seed, std::size_t threads,
                    bool traced, std::size_t intervals_limit = 0) {
  Episode ep;
  Instance inst = build(w, seed, threads);
  cluster::Fabric& fabric = *inst.fabric;
  experiment::FabricRequestSession* session = inst.requests.get();

  std::vector<std::unique_ptr<ShardProbe>> probes;
  std::vector<workload::engine::RequestEngine> replay;
  std::vector<std::vector<workload::engine::Request>> replay_buf;
  if (traced) {
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      probes.push_back(std::make_unique<ShardProbe>());
      fabric.mutable_cluster(i).attach_observer(probes.back().get());
    }
    fabric.set_pipeline_phase_timing(true);
    if (session != nullptr) {
      const auto cfg = request_config(w, seed);
      for (std::size_t i = 0; i < fabric.size(); ++i) {
        replay.emplace_back(
            experiment::shard_workload_config(cfg, i, fabric.size()));
      }
    }
  }

  const std::size_t total = w.warmup + w.timed;
  const std::size_t limit = intervals_limit == 0 ? total : intervals_limit;
  experiment::SlaSummary before;
  for (std::size_t k = 0; k < limit; ++k) {
    const bool timed = k >= w.warmup;
    if (timed && k == w.warmup && session != nullptr) {
      before = session->summary();
      ep.timed_generated = session->total_generated();
    }
    cluster::index::PipelineStats pipe_before{};
    if (traced) {
      pipe_before = fabric.pipeline_stats();
      for (auto& p : probes) p->reset();
    }

    // Replay the arrival generation for this window on the side (traced
    // only), before the live drivers advance the shard clocks.
    double generate_s = 0.0;
    if (traced && session != nullptr) {
      for (std::size_t i = 0; i < replay.size(); ++i) {
        const common::Seconds a = fabric.cluster(i).now();
        const auto g0 = Clock::now();
        replay[i].generate(a, common::Seconds{a.value + kTau}, &replay_buf);
        generate_s += seconds_between(g0, Clock::now());
      }
    }

    const auto a0 = Clock::now();
    double advance_max = 0.0;
    if (session != nullptr) {
      if (traced) {
        for (std::size_t i = 0; i < session->size(); ++i) {
          const auto d0 = Clock::now();
          session->driver(i).advance_interval();
          advance_max = std::max(advance_max, seconds_between(d0, Clock::now()));
        }
      } else {
        session->advance_interval();
      }
    }
    const auto s0 = Clock::now();
    const cluster::FabricIntervalReport report = fabric.step();
    const auto s1 = Clock::now();
    const double interval = seconds_between(a0, s1);

    // --- checks and bookkeeping (outside the timed calls) ---
    ++ep.intervals;
    ep.chain.push_back(cluster::fabric_report_digest(report));
    if (session != nullptr) {
      if (auto err = session->audit(); err.has_value()) {
        ep.failures.push_back("interval " + std::to_string(k) +
                              " request audit: " + *err);
      }
    }
    ep.sla_violations += report.total_sla_violations();
    if (!timed) continue;

    ep.interval_s.push_back(interval);
    ep.local += report.total_local();
    ep.in_cluster += report.total_in_cluster();
    for (const auto& c : report.clusters) {
      ep.migrations += c.migrations;
      ep.sleeps += c.sleeps;
      ep.wakes += c.wakes;
    }
    ep.inter_cluster += report.inter_cluster_placements;
    ep.unplaced += report.unplaced_overflows;

    if (traced) {
      LayerSums& L = ep.layers;
      L.wall_s += interval;
      L.advance_s += seconds_between(a0, s0);
      L.shard_advance_max_s += advance_max;
      L.generate_s += generate_s;
      double round_sum = 0.0;
      double round_max = 0.0;
      Clock::time_point last_end = probes.front()->end;
      Clock::time_point prev = s0;
      for (const auto& p : probes) {
        round_sum += p->round_s;
        round_max = std::max(round_max, p->round_s);
        last_end = std::max(last_end, p->end);
        L.settle_s += p->settle_s;
        L.search_s += p->search_s;
        // Inline stepping runs the shards back to back, so the time from
        // the previous shard's round end to this shard's round begin is
        // this shard's event kernel running ahead of its round.
        if (threads == 1) {
          L.kernel_s += seconds_between(prev, p->begin);
          prev = p->round_end;
        }
      }
      L.round_s += round_sum;
      L.round_max_s += round_max;
      L.round_mean_s += round_sum / static_cast<double>(probes.size());
      L.barrier_s += seconds_between(last_end, s1);
      L.pipeline += since(fabric.pipeline_stats(), pipe_before);
    }
  }

  if (intervals_limit != 0) return ep;

  for (std::size_t i = 0; i < fabric.size(); ++i) {
    if (auto err = fabric.cluster(i).self_audit(); err.has_value()) {
      ep.failures.push_back("shard " + std::to_string(i) +
                            " self_audit: " + *err);
    }
    const auto m = fabric.cluster(i).memory_stats();
    ep.mem.state_table_bytes += m.state_table_bytes;
    ep.mem.index_bytes += m.index_bytes;
    ep.mem.total_bytes += m.total_bytes;
  }
  ep.servers = fabric.total_servers();
  ep.energy_kwh = fabric.total_energy().kwh();

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t d : ep.chain) h = fnv_mix(h, d);
  h = fnv_mix(h, fabric.state_digest());
  if (session != nullptr) {
    ep.sla = session->summary();
    h = fnv_mix(h, ep.sla.digest());
    ep.generated = session->total_generated();
    ep.timed_generated = ep.generated - ep.timed_generated;
    ep.timed_completed = ep.sla.completed - before.completed;
    ep.timed_refused = refused(ep.sla) - refused(before);
    ep.queued = queued_total(*session);
    if (traced) {
      std::uint64_t replayed = 0;
      for (const auto& e : replay) replayed += e.total_generated();
      if (replayed != ep.generated) {
        ep.failures.push_back("arrival replay generated " +
                              std::to_string(replayed) + " requests, live " +
                              std::to_string(ep.generated));
      }
    }
  }
  ep.digest = h;
  if (inst.faults != nullptr) ep.resilience = inst.faults->combined_stats();
  for (std::size_t i = 0; i < fabric.size() && traced; ++i) {
    fabric.mutable_cluster(i).detach_observers();
  }
  return ep;
}

/// Simulated-behaviour expectations that make each workload what it claims
/// to be; a miss means the workload silently stopped exercising its layer.
void check_expectations(const Workload& w, Episode& ep) {
  auto expect = [&ep](bool ok, const std::string& what) {
    if (!ok) ep.failures.push_back("expectation: " + what);
  };
  if (!w.requests.empty()) {
    expect(ep.timed_completed > 0, "requests complete in the timed window");
  }
  if (w.name == "overload_fabric") {
    expect(ep.sla.shed > 0, "tail-drop admission sheds requests");
    expect(ep.resilience.crashes == 3 * w.shards,
           "two crashes and a leader kill per shard");
    expect(ep.resilience.recoveries == 2 * w.shards, "two repairs per shard");
    expect(ep.resilience.failovers >= w.shards, "a leader failover per shard");
  }
  if (w.name == "request_fabric") {
    expect(refused(ep.sla) == 0, "no request is refused below capacity");
  }
}

// --- statistics and output ---------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed{42};
  double seconds{10.0};
  bool trace{false};
  bool setup_only{false};
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) return false;
    const char* val = argv[++i];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a->trace = std::string_view(val) == "1";
    } else if (key == "--setup-only") {
      a->setup_only = std::string_view(val) == "1";
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: fabric_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--setup-only 0|1]\n";
    return 2;
  }
  const auto all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (it == all.end()) {
    std::cerr << "fabric_bench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload& w = *it;

  // --setup-only times one set-up in this fresh process -- fabric
  // construction, the fault plan and the sessions, up to the first interval
  // -- and prints it with the built fabric's state digest.  The teardown runs
  // after the clock has stopped.
  if (args.setup_only) {
    const auto t0 = Clock::now();
    const Instance inst = build(w, args.seed, w.threads);
    const double setup_s = seconds_between(t0, Clock::now());
    std::cout << "setup_s " << json_number(setup_s) << " digest "
              << hex(inst.fabric->state_digest()) << std::endl;
    return 0;
  }

  // Episodes until the time budget is spent: at least two of each kind, so
  // the digest is compared across repeats.  With --trace 1 untraced and
  // traced episodes alternate (drift in host speed then hits both alike) and
  // must produce the same digest.
  std::vector<Episode> plain;
  std::vector<Episode> traced;
  const auto start = Clock::now();
  while (plain.size() < 2 || (args.trace && traced.size() < 2) ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const bool next_traced = args.trace && traced.size() < plain.size();
    (next_traced ? traced : plain)
        .push_back(run_episode(w, args.seed, w.threads, next_traced));
  }

  // Thread-count determinism on a short prefix: the other of {1, 2}.
  const std::size_t other_threads = w.threads == 1 ? 2 : 1;
  const std::size_t prefix = w.warmup + 3;
  const Episode alt =
      run_episode(w, args.seed, other_threads, false, prefix);

  // attempted counts the intervals stepped; failed counts failed checks.
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::vector<Episode*> episodes;
  for (auto& e : plain) episodes.push_back(&e);
  for (auto& e : traced) episodes.push_back(&e);
  for (Episode* e : episodes) {
    check_expectations(w, *e);
    attempted += e->intervals;
    for (const auto& f : e->failures) failures.push_back(f);
    if (e->digest != plain.front().digest) {
      failures.push_back("sim.digest differs between repeats: " +
                         hex(plain.front().digest) + " vs " + hex(e->digest));
    }
  }
  attempted += alt.intervals;
  if (!std::equal(alt.chain.begin(), alt.chain.end(),
                  plain.front().chain.begin())) {
    failures.push_back("report digests differ between " +
                       std::to_string(w.threads) + " and " +
                       std::to_string(other_threads) + " threads in the first " +
                       std::to_string(prefix) + " intervals");
  }

  // --- end-to-end figures (untraced episodes) ---
  std::vector<double> interval_ms;
  double timed_wall = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t generated = 0;
  std::uint64_t refused_n = 0;
  for (const auto& e : plain) {
    for (const double s : e.interval_s) interval_ms.push_back(s * 1e3);
    timed_wall += sum(e.interval_s);
    completed += e.timed_completed;
    generated += e.timed_generated;
    refused_n += e.timed_refused;
  }
  const Episode& ref = plain.front();
  const double p50 = quantile(interval_ms, 0.5);
  const double intervals_per_s =
      static_cast<double>(interval_ms.size()) / timed_wall;
  const double requests_per_s = static_cast<double>(completed) / timed_wall;
  const double failed_share =
      w.requests.empty()
          ? static_cast<double>(failures.size()) /
                static_cast<double>(attempted)
          : static_cast<double>(refused_n) /
                static_cast<double>(std::max<std::uint64_t>(generated, 1));
  const double peak_rss_mb =
      static_cast<double>(common::peak_rss_bytes()) / (1024.0 * 1024.0);

  std::cout << "workload " << w.name << ": " << w.shards << " x "
            << w.servers_per_shard << " servers, " << w.threads
            << " thread(s), seed " << args.seed << ", warm-up " << w.warmup
            << ", timed " << w.timed << " intervals x " << plain.size()
            << " untraced + " << traced.size() << " traced episodes\n";
  std::cout << "sim.digest " << hex(ref.digest) << "\n"
            << "sim.energy_kwh " << json_number(ref.energy_kwh) << " kWh\n"
            << "sim.sla_violations " << ref.sla_violations << " count\n";
  if (!w.requests.empty()) {
    std::cout << "sim.requests generated " << ref.generated << " completed "
              << ref.sla.completed << " shed " << ref.sla.shed << " dropped "
              << ref.sla.dropped << " failed_by_fault "
              << ref.sla.failed_by_fault << " queued " << ref.queued
              << " request_sla_violations " << ref.sla.sla_violations << "\n";
  }
  std::cout << "samples interval_ms " << interval_ms.size() << "\n";

  std::vector<Metric> e2e = {
      {"interval_ms_p50", p50, "ms"},
      {"intervals_per_s", intervals_per_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  // Printed with every run but kept out of the bounded set: the p90 of a
  // 2-thread fabric follows the host's CPU contention more than the code.
  const double p90 = quantile(interval_ms, 0.9);
  std::vector<Metric> info = {
      {"interval_ms_p90", p90, "ms"},
      {"requests_per_s", requests_per_s, "1/s"},
      {"failed_share", failed_share, "ratio"},
  };
  for (const auto& m : e2e) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  for (const auto& m : info) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  }

  std::vector<Metric> reported = e2e;
  if (args.trace) {
    // --- per-layer figures (traced episodes), per timed interval ---
    LayerSums L;
    std::vector<double> traced_ms;
    double n = 0.0;
    for (const auto& e : traced) {
      L += e.layers;
      for (const double x : e.interval_s) traced_ms.push_back(x * 1e3);
      n += static_cast<double>(e.interval_s.size());
    }
    const double ms = 1e3 / n;
    const auto per = [n](double x) { return x / n; };
    const Episode& t = traced.front();
    const double tn = static_cast<double>(t.interval_s.size());
    const auto sla = t.sla;
    const double servers = static_cast<double>(t.servers);
    const fault::ResilienceStats& rs = t.resilience;
    // On inline (1-thread) stepping the layers tile the interval: advance,
    // then per shard its event kernel and its round, then the barrier.  The
    // kernel has no phase of its own, so what advance + round + barrier leave
    // over is mostly sim.kernel_ms.  With workers the shard rounds overlap,
    // so no sum of them is a wall time.
    double unattributed_pct = 0.0;
    if (w.threads == 1) {
      const double attributed = L.advance_s + L.round_s + L.barrier_s;
      unattributed_pct = 100.0 * (L.wall_s - attributed) / L.wall_s;
      if (std::abs(unattributed_pct) > kAttributionTolerancePct) {
        failures.push_back("advance + round + barrier leave " +
                           json_number(unattributed_pct) +
                           " % of the interval wall unattributed");
      }
    }
    reported = {
        {"experiment.advance_ms", L.advance_s * ms, "ms"},
        {"experiment.shard_advance_ms_max", L.shard_advance_max_s * ms, "ms"},
        {"workload.generate_ms", L.generate_s * ms, "ms"},
        {"interval_ms_p90", p90, "ms"},
        {"experiment.requests_per_s", requests_per_s, "1/s"},
        {"experiment.failed_share", failed_share, "ratio"},
        {"experiment.completed", static_cast<double>(sla.completed), "count"},
        {"experiment.shed", static_cast<double>(sla.shed), "count"},
        {"experiment.dropped", static_cast<double>(sla.dropped), "count"},
        {"experiment.failed_by_fault", static_cast<double>(sla.failed_by_fault),
         "count"},
        {"experiment.queued", static_cast<double>(t.queued), "count"},
        {"cluster.round_ms", L.round_s * ms, "ms"},
        {"cluster.straggler_ratio",
         L.round_mean_s > 0.0 ? L.round_max_s / L.round_mean_s : 0.0, "ratio"},
        {"cluster.fabric.barrier_ms", L.barrier_s * ms, "ms"},
        {"cluster.cstate_settle_ms", L.settle_s * ms, "ms"},
        {"cluster.placement_search_ms", L.search_s * ms, "ms"},
        {"cluster.index.classify_ms", L.pipeline.classify_seconds * ms, "ms"},
        {"cluster.index.diff_ms", L.pipeline.diff_seconds * ms, "ms"},
        {"cluster.index.refile_ms", L.pipeline.refile_seconds * ms, "ms"},
        {"cluster.index.dirty_slots",
         per(static_cast<double>(L.pipeline.dirty_slots)), "count"},
        {"cluster.index.batch_refiles",
         per(static_cast<double>(L.pipeline.batch_refiles)), "count"},
        {"cluster.index.refile_runs",
         per(static_cast<double>(L.pipeline.refile_runs)), "count"},
        {"cluster.index.flushes", per(static_cast<double>(L.pipeline.flushes)),
         "count"},
        {"cluster.protocol.local", static_cast<double>(t.local) / tn, "count"},
        {"cluster.protocol.in_cluster", static_cast<double>(t.in_cluster) / tn,
         "count"},
        {"cluster.protocol.migrations", static_cast<double>(t.migrations) / tn,
         "count"},
        {"cluster.protocol.sleeps", static_cast<double>(t.sleeps) / tn, "count"},
        {"cluster.protocol.wakes", static_cast<double>(t.wakes) / tn, "count"},
        {"cluster.fabric.inter_cluster_placements",
         static_cast<double>(t.inter_cluster) / tn, "count"},
        {"cluster.fabric.unplaced_overflows",
         static_cast<double>(t.unplaced) / tn, "count"},
        {"sim.kernel_ms", L.kernel_s * ms, "ms"},
        {"mem.bytes_per_server",
         static_cast<double>(t.mem.total_bytes) / servers, "B"},
        {"mem.state_table_bytes", static_cast<double>(t.mem.state_table_bytes),
         "B"},
        {"mem.index_bytes", static_cast<double>(t.mem.index_bytes), "B"},
        {"fault.failovers", static_cast<double>(rs.failovers), "count"},
        {"fault.dropped_messages", static_cast<double>(rs.dropped_messages),
         "count"},
        {"fault.retried_messages", static_cast<double>(rs.retried_messages),
         "count"},
        {"fault.shadow_restarts", static_cast<double>(rs.shadow_restarts),
         "count"},
        {"fault.orphans_adopted", static_cast<double>(rs.orphans_adopted),
         "count"},
        {"trace.interval_ms", L.wall_s * ms, "ms"},
        {"trace.unattributed_pct", unattributed_pct, "%"},
        {"trace.overhead_pct",
         100.0 * (quantile(traced_ms, 0.5) / p50 - 1.0), "%"},
    };
    for (const auto& m : reported) {
      std::cout << "layer " << m.name << " " << json_number(m.value) << " "
                << m.unit << "\n";
    }
  }

  for (const auto& f : failures) std::cout << "CHECK FAILED: " << f << "\n";
  const bool correct = failures.empty();
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted
     << ", \"failed\": " << failures.size()
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    js << (i == 0 ? "" : ", ") << "\"" << reported[i].name
       << "\": {\"value\": " << json_number(reported[i].value)
       << ", \"unit\": \"" << reported[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}
