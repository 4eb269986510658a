// Routes the request engine's output onto a cluster's VMs.
//
// The driver closes the loop between the open-loop workload generator
// (workload/engine) and the protocol's demand signal: each reallocation
// interval it generates the window's arrivals, round-robins them onto
// per-VM FIFO queues, serves every queue at the capacity share its host
// granted, and converts the remaining backlog into each VM's next demand
//
//   d* = min(1, backlog / (tau * target_utilization)),
//
// the inversion of "a VM at demand d clears d*tau capacity-seconds per
// interval at the target utilization".  The protocol itself is untouched:
// it still sheds, rebalances, sleeps and accounts SLA violations off the
// demand signal -- only the *source* of demand changes, which is why the
// cluster must be built with demand_evolution_enabled = false (the driver
// replaces the EvolveAndScale bernoulli pass).
//
// Determinism: arrivals are a pure function of (workload config, seed);
// routing walks servers in index order and VM rosters in position order;
// every order-sensitive sum (the backlog total, each host's load updates)
// runs in that same snapshot order, with drain residues after it in VmId
// order.  Two runs with the same cluster seed and workload config are
// bit-identical.  A driver touches nothing but its own cluster, engine,
// queues and recorder, which is what lets FabricRequestSession advance the
// per-shard drivers concurrently on the fabric's workers at any thread
// count.
//
// Storage: VmIds are dense per cluster (Cluster::spawn_vm hands out
// next_vm_id_++), so per-VM state -- the FIFO queue, the last placement --
// lives in a VmId-indexed vector, each queue is a ring buffer holding its
// first requests inline, and arrivals route straight from the engine
// without a per-interval buffer.  Once the queues reach their steady depth
// an interval allocates nothing.
//
// Overload resilience (flag-gated; defaults reproduce PR 8 byte-for-byte):
// admission control sheds arrivals whose target queue is past the policy's
// bar (a pure function of queue state -- no RNG draw); migration draining
// keeps a residue on the source host served over `drain_intervals` instead
// of teleporting backlog to the destination; and requests stranded on a
// crashed host fail deterministically at detection time rather than being
// silently dropped, surfacing as `failed_by_fault`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "workload/engine/engine.h"
#include "workload/engine/latency.h"
#include "workload/engine/queue.h"

namespace eclb::experiment {

/// End-to-end request accounting for one run (or one merged fabric run).
struct SlaSummary {
  std::uint64_t arrived{0};         ///< Requests routed onto queues.
  std::uint64_t completed{0};       ///< Requests fully served.
  std::uint64_t dropped{0};         ///< Requests lost with a vanished VM.
  std::uint64_t shed{0};            ///< Requests refused by admission.
  std::uint64_t failed_by_fault{0}; ///< Requests stranded by a host crash.
  std::uint64_t sla_violations{0};  ///< Completions beyond their SLA.
  double backlog{0.0};              ///< Queued work at run end, cap-seconds.
  double p50{0.0};                  ///< Median sojourn, seconds.
  double p99{0.0};
  double p999{0.0};
  workload::engine::LatencyHistogram histogram{};

  /// FNV-1a digest over every counter and the histogram -- the repro
  /// fingerprint the determinism checks compare.
  [[nodiscard]] std::uint64_t digest() const;

  /// Accumulates `other` (fabric merge: counters add, histograms merge,
  /// quantiles are recomputed from the merged histogram).
  void merge(const SlaSummary& other);
};

/// Drives one cluster's request workload.  Call advance_interval()
/// immediately before every cluster.step().
class RequestDriver {
 public:
  /// The cluster must have been built with demand_evolution_enabled =
  /// false; the driver owns the demand signal from now on.
  RequestDriver(cluster::Cluster& cluster,
                workload::engine::RequestWorkloadConfig config);

  /// False when a trace-backed stream failed to open.
  [[nodiscard]] bool ok() const { return engine_.ok(); }
  /// First stream error, empty when ok().
  [[nodiscard]] std::string error() const { return engine_.error(); }

  /// Generates, routes and serves the upcoming interval [now, now + tau),
  /// then installs each VM's next demand and queue mirror and books the
  /// batch into the cluster's recorder.
  void advance_interval();

  /// Accounting so far (quantiles computed from the live histogram).
  [[nodiscard]] SlaSummary summary() const;

  /// The shared sojourn histogram.
  [[nodiscard]] const workload::engine::LatencyHistogram& histogram() const {
    return hist_;
  }

  /// Requests generated by the engine so far.
  [[nodiscard]] std::uint64_t total_generated() const {
    return engine_.total_generated();
  }

  /// Requests still queued (main queues plus draining residues).
  [[nodiscard]] std::uint64_t queued() const;

  /// The request-conservation invariant: every generated request is exactly
  /// one of completed / shed / dropped / failed-by-fault / still queued.
  /// Returns nullopt when the books balance, else a diagnostic.
  [[nodiscard]] std::optional<std::string> audit() const;

 private:
  /// One live VM as seen at the head of an interval.
  struct VmSlot {
    common::VmId id{};
    std::uint32_t server{0};    ///< Host index in the server array.
    std::uint32_t position{0};  ///< Position in the host's VM roster.
    double rate{0.0};           ///< Granted capacity share this interval.
    double sla_seconds{0.0};    ///< Owning stream's sojourn budget.
  };

  /// Per-VM request state, indexed by VmId.
  struct VmState {
    workload::engine::RequestQueue queue;
    /// Interval stamp of the last snapshot that held the VM.
    std::uint32_t live{0};
    /// Host and serve rate at that snapshot: a migration shows as a changed
    /// host while the queue still holds work.
    std::uint32_t server{0};
    double rate{0.0};
  };

  /// Residual backlog left behind on a migration source while it drains.
  struct DrainState {
    common::VmId id{};
    workload::engine::RequestQueue queue;
    std::size_t source{0};         ///< Source host index in the server array.
    double rate{0.0};              ///< Frozen serve rate (pre-move share).
    double sla_seconds{0.0};       ///< Owning stream's sojourn budget.
    std::uint32_t intervals_left{0};
  };

  /// True when admission refuses an arrival given the target queue's state
  /// -- a pure function of (policy, queue, rate), so no RNG stream moves.
  [[nodiscard]] bool shed_decision(
      const workload::engine::RequestQueue& queue, const VmSlot& slot) const;

  /// Freezes `state`'s backlog as a residue on its previous host; a residue
  /// still draining from an earlier hop re-joins at the front.
  void start_drain(const VmSlot& slot, VmState& state,
                   std::uint32_t window);

  cluster::Cluster& cluster_;
  workload::engine::RequestEngine engine_;
  std::vector<VmSlot> slots_;       ///< This interval's snapshot.
  std::vector<VmSlot> prev_slots_;  ///< The previous interval's snapshot.
  /// Slot indices per stream.
  std::vector<std::vector<std::uint32_t>> targets_;
  std::vector<std::uint64_t> rr_;     ///< Round-robin cursors.
  std::vector<VmState> vms_;          ///< Indexed by VmId.
  std::vector<DrainState> draining_;  ///< Sorted by VmId.
  std::uint32_t interval_{0};         ///< Stamp of the current snapshot.
  workload::engine::LatencyHistogram hist_;
  std::uint64_t arrived_{0};
  std::uint64_t completed_{0};
  std::uint64_t dropped_{0};
  std::uint64_t shed_{0};
  std::uint64_t failed_by_fault_{0};
  std::uint64_t violations_{0};
  // Totals at the previous recorder booking (request_batch takes deltas).
  std::uint64_t last_arrived_{0};
  std::uint64_t last_completed_{0};
  std::uint64_t last_dropped_{0};
  std::uint64_t last_shed_{0};
  std::uint64_t last_failed_{0};
  std::uint64_t last_violations_{0};
  double backlog_{0.0};
};

/// Splits `config` across `shard_count` shards: per-stream rates (and trace
/// scales) divide evenly, the shard's engine seed derives via
/// common::mix_seed(config.seed, shard).  Shard 0 of 1 returns the config
/// unchanged.
[[nodiscard]] workload::engine::RequestWorkloadConfig shard_workload_config(
    const workload::engine::RequestWorkloadConfig& config, std::size_t shard,
    std::size_t shard_count);

/// One RequestDriver per fabric shard, advanced in the fabric's parallel
/// phase: each driver runs on a worker and touches only its own shard, so a
/// fabric run stays bit-identical at any worker thread count.  Call
/// advance_interval() immediately before every fabric.step().  The fabric
/// must outlive the session.
class FabricRequestSession {
 public:
  FabricRequestSession(cluster::Fabric& fabric,
                       const workload::engine::RequestWorkloadConfig& config);

  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::string error() const;

  /// Advances every shard's driver on the fabric's workers.
  void advance_interval();

  /// Merged accounting across the shards.
  [[nodiscard]] SlaSummary summary() const;

  /// Requests generated across every shard's engine.
  [[nodiscard]] std::uint64_t total_generated() const;

  /// First failing shard's conservation diagnostic, nullopt when all pass.
  [[nodiscard]] std::optional<std::string> audit() const;

  [[nodiscard]] std::size_t size() const { return drivers_.size(); }
  [[nodiscard]] RequestDriver& driver(std::size_t i) { return *drivers_.at(i); }

 private:
  cluster::Fabric& fabric_;
  std::vector<std::unique_ptr<RequestDriver>> drivers_;
};

}  // namespace eclb::experiment
