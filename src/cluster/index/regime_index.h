// Incremental regime index: the one backing store for the protocol's
// placement queries and fleet aggregates.
//
// Every protocol action used to re-derive "which servers are in regime X,
// ordered how" by scanning all N servers per query, making one reallocation
// round O(N * queries).  The index maintains that information incrementally:
// servers notify it on every state change (ServerStateListener), and it
// keeps
//   * per-(side, regime) buckets of *awake* servers ordered by load distance
//     to the server's own optimal-region center (the placement score axis);
//     a whole fleet is one side, a partitioned one has a set of axes per
//     side so every search stays inside the side it was asked about,
//   * fleet-wide per-regime bitsets of awake servers ordered by id (the
//     protocol's deterministic visit order),
//   * sleeper buckets per settled sleep depth (C1/C3/C6), ordered by id,
//   * membership sets for the rebalance donors (awake above center) and the
//     drain/park candidates (awake and empty),
//   * running integer aggregates (VM count, sleeping/parked/deep counts,
//     regime-report fan-in) that previously cost one fleet scan each per
//     interval snapshot.
//
// Bit-identity contract: every query reproduces the corresponding reference
// full scan *exactly* -- policy::find_tiered_target, policy::
// find_below_center_target, Leader::pick_wake_candidate and the drain scan,
// each restricted by a PlacementFilter to the side searched -- same winner,
// same tie-breaks, same floating-point comparisons.  The scans survive only
// as test and perf_kernel oracles.  Two techniques make that possible:
//   1. Candidate enumeration is approximate, scoring is exact.  The ordered
//      buckets are keyed by (load - center), which tracks the scan's score
//      |load + demand - center| only up to FP rounding.  Searches therefore
//      expand outward from the ideal key, re-compute the *scan's* score
//      expression for every candidate examined, and only stop once the key
//      distance provably exceeds the best exact score by kSlop (a margin
//      nine orders of magnitude above the achievable rounding error).
//   2. Cursor queries return a *superset* in id order and the actions keep
//      their original visit-time condition checks, so mid-pass mutations
//      (a donor shedding out of its regime) resolve identically to a
//      scan-and-test loop.
//
// Storage: the id-ordered membership sets are dense bitsets over the slot
// universe (one word write per refile, word-scan cursors), and the
// load-keyed search axes are bucketed sorted vectors (KeyBucketSet) whose
// storage comes from a pooled arena with a counting upstream -- refiling a
// server is a short memmove in a small bucket instead of two red-black tree
// walks, and the index can report its exact heap footprint (memory_bytes).
#pragma once

#include <array>
#include <cstdint>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/index/dirty_set.h"
#include "cluster/index/key_bucket_set.h"
#include "cluster/index/pipeline_stats.h"
#include "common/assert.h"
#include "common/arena.h"
#include "common/dense_bitset.h"
#include "common/types.h"
#include "energy/cstates.h"
#include "energy/regimes.h"
#include "policy/placement.h"
#include "server/server.h"

namespace eclb::cluster::index {

/// The incremental index over one cluster's server array.  Install with
/// Server::set_state_listener on every server; the span must stay valid and
/// stable (Cluster reserves the vector up front) for the index's lifetime.
class RegimeIndex final : public server::ServerStateListener {
 public:
  /// Builds the index from the servers' current state.
  explicit RegimeIndex(std::span<const server::Server> servers);

  /// ServerStateListener: records the change as a slot-level dirty mark in
  /// the per-phase DirtySet; the deferred reclassify + refile happens in one
  /// batch at the next flush().
  void server_state_changed(const server::Server& s) override;

  // --- phase-coalesced pipeline -------------------------------------------

  /// Applies every pending dirty mark: one batch gather-classification over
  /// the dirty lanes, an old/new slot diff, and sorted grouped refile runs
  /// into the key axes (each bucket touched once).  Every public query calls
  /// this first, so an index answer is always computed on exactly the live
  /// server state a per-notification update would have shown.  No-op when
  /// nothing is dirty; cheap enough to sit on every query.
  void flush() const {
    if (dirty_.empty()) return;
    // Logically const: flushing publishes already-committed server state
    // into the index's internal structures and changes no query answer.
    const_cast<RegimeIndex*>(this)->flush_impl();
  }

  /// Enables wall-clock timing of the flush phases (classify/diff/refile in
  /// pipeline_stats()).  Off by default so the hot path never reads a clock.
  void set_phase_timing(bool on) { phase_timing_ = on; }

  /// Cumulative pipeline counters since construction.
  [[nodiscard]] const PipelineStats& pipeline_stats() const { return stats_; }

  /// Rebuilds everything from scratch (constructor body; test hook).
  void rebuild();

  /// Installs the partition sides the load-keyed axes are split by:
  /// `groups[i]` is server i's side, `count` the number of sides.  With
  /// count == 1 (a whole fleet; `groups` is ignored) every server is on
  /// side 0.  Sides change only at a fabric split and at reconciliation, so
  /// this re-derives the whole index (rebuild()) rather than tracking side
  /// moves on the per-notification path.
  void set_sides(std::span<const std::int32_t> groups, std::size_t count);

  /// Exact heap bytes held by the index (bitsets, slot mirror, and the
  /// arena feeding the key-ordered search trees).
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- aggregates (all O(1) after the implicit flush) ---------------------

  /// Total VM count across the cluster.
  [[nodiscard]] std::size_t total_vms() const {
    flush();
    return total_vms_;
  }
  /// Non-failed servers that are not awake (== Cluster::sleeping_count).
  [[nodiscard]] std::size_t sleeping_count() const {
    flush();
    return sleeping_;
  }
  /// Servers whose effective C-state is C1.
  [[nodiscard]] std::size_t parked_count() const {
    flush();
    return cnt_effective_[static_cast<std::size_t>(energy::CState::kC1)];
  }
  /// Servers whose effective C-state is C3 or C6.
  [[nodiscard]] std::size_t deep_sleeping_count() const {
    flush();
    return cnt_effective_[static_cast<std::size_t>(energy::CState::kC3)] +
           cnt_effective_[static_cast<std::size_t>(energy::CState::kC6)];
  }
  /// Histogram of awake servers over the five regimes.
  [[nodiscard]] energy::RegimeHistogram regime_histogram() const;
  /// Servers that report their regime to the leader each interval (regime
  /// defined and != R3; includes servers still settling into sleep, exactly
  /// like a RegimeReport scan over the fleet).
  [[nodiscard]] std::size_t regime_reporter_count() const {
    flush();
    return reporters_;
  }

  // --- exact-equivalent placement searches --------------------------------
  //
  // Each search considers only servers on `side` (see set_sides); it is
  // bit-identical to the reference scan run with a PlacementFilter
  // admitting that side.

  /// The paper's tiered search; bit-identical to policy::find_tiered_target.
  [[nodiscard]] std::optional<common::ServerId> find_tiered_target(
      double demand, common::ServerId exclude, policy::PlacementTier max_tier,
      std::int32_t side) const;

  /// Bit-identical to policy::find_below_center_target.
  [[nodiscard]] std::optional<common::ServerId> find_below_center_target(
      double demand, common::ServerId exclude, std::int32_t side) const;

  /// The consolidation (drain) uphill search: an R1/R2 peer, or an R3 peer
  /// staying below its center, with strictly more load than `donor`, ending
  /// within its optimal region; fullest-fit (closest to its own center)
  /// wins, the lower id on a tie.
  [[nodiscard]] std::optional<common::ServerId> find_drain_target(
      const server::Server& donor, double demand, std::int32_t side) const;

  /// Bit-identical to Leader::pick_wake_candidate: the lowest-id settled
  /// sleeper in the shallowest occupied sleep state.
  [[nodiscard]] std::optional<common::ServerId> pick_wake_candidate(
      std::int32_t side) const;

  // --- ordered cursors (id order, fleet-wide; supersets of the visit sets) -

  /// Next awake server in `r` with id greater than `after` (nullopt = from
  /// the start).  Returns nullopt when exhausted.
  [[nodiscard]] std::optional<common::ServerId> next_in_regime(
      energy::Regime r, std::optional<common::ServerId> after) const;
  /// Next awake server with load above its optimal center (+kEps).
  [[nodiscard]] std::optional<common::ServerId> next_above_center(
      std::optional<common::ServerId> after) const;
  /// Next settled C1 sleeper.
  [[nodiscard]] std::optional<common::ServerId> next_parked(
      std::optional<common::ServerId> after) const;
  /// Next awake server hosting no VMs.
  [[nodiscard]] std::optional<common::ServerId> next_awake_empty(
      std::optional<common::ServerId> after) const;

  // --- verification hooks --------------------------------------------------

  /// Full consistency audit against a fresh classification of every server;
  /// returns a description of the first mismatch, nullopt when coherent.
  [[nodiscard]] std::optional<std::string> self_check() const;

 private:
  /// Everything the index knows about one server, derived from
  /// time-independent accessors only (see Server::transition_pending).
  struct Slot {
    double key{0.0};          ///< load - optimal_center (bucket sort key).
    double load{0.0};
    std::uint32_t vm_count{0};
    std::int8_t regime{-1};   ///< 0-based regime when awake, else -1.
    std::int8_t sleeper{-1};  ///< Settled sleep depth (C1->0,C3->1,C6->2), else -1.
    std::int8_t effective{0};  ///< effective_cstate as an int.
    bool awake{false};
    bool sleeping{false};     ///< !failed && !awake.
    bool above_center{false};
    bool awake_empty{false};
    bool reporter{false};     ///< Counts toward the regime-report fan-in.

    friend bool operator==(const Slot&, const Slot&) = default;
  };

  /// (key, id) pairs; the id disambiguates equal keys.
  using LoadKey = std::pair<double, std::uint32_t>;
  /// Key-ordered search axis: bucketed sorted vectors over the arena.
  using KeySet = KeyBucketSet;

  /// One bucket in a placement search: which regime, and the largest key
  /// distance any admissible candidate can have (beyond it the upward scan
  /// stops; the margin over the true per-server bound is baked in).
  struct BucketRef {
    int regime_idx;
    double hi_cutoff;
  };

  [[nodiscard]] Slot classify(const server::Server& s) const;
  /// Derives a Slot from a packed state-table record.  Slot is a pure
  /// function of the row -- the invariant the notification gate relies on:
  /// when a server's current row equals the mirrored row the index last
  /// applied (rows_), no index structure can need updating.
  [[nodiscard]] static Slot slot_from_row(
      const server::ServerStateTable::IndexRow& row);
  void update_slot(std::size_t i);
  void file_slot(std::uint32_t id, const Slot& slot);
  void unfile_slot(std::uint32_t id, const Slot& slot);

  /// The deferred phase barrier behind flush(): batch-classifies the dirty
  /// lanes, diffs old vs new slots (bitsets and scalar aggregates applied
  /// inline; they are one-word writes), and applies the collected key-axis
  /// mutations as sorted grouped runs via KeyBucketSet::apply_batch.
  void flush_impl();
  /// file_slot/unfile_slot with the by_key_ mutation deferred into the
  /// per-regime run lists instead of applied immediately.
  void file_slot_deferred(std::uint32_t id, const Slot& slot);
  void unfile_slot_deferred(std::uint32_t id, const Slot& slot);

  /// Bidirectional best-score search over `buckets` around the ideal key
  /// -demand on `side`'s axes.  `admit(server, regime_idx)` returns the
  /// *exact scan score* when the candidate is admissible, nullopt
  /// otherwise.  The winner is the exact lexicographic minimum of
  /// (score, id) -- the reference scan's answer.
  template <class Admit>
  [[nodiscard]] std::optional<common::ServerId> search(
      std::int32_t side, std::span<const BucketRef> buckets, double demand,
      common::ServerId exclude, const Admit& admit) const;

  /// Position of (side, regime) in by_key_ and the run lists.
  [[nodiscard]] static std::size_t axis(std::size_t side, int regime_idx) {
    return side * energy::kRegimeCount + static_cast<std::size_t>(regime_idx);
  }
  /// The axis server `id` files into for regime `regime_idx`.
  [[nodiscard]] std::size_t axis_of(std::uint32_t id, int regime_idx) const {
    return axis(side_of_.empty() ? 0 : static_cast<std::size_t>(side_of_[id]),
                regime_idx);
  }
  /// `side` as a position, asserting it names an installed side (the query
  /// entry points' argument check).
  [[nodiscard]] std::size_t checked_side(std::int32_t side) const {
    ECLB_ASSERT(side >= 0 && static_cast<std::size_t>(side) < side_count_,
                "RegimeIndex: side out of range");
    return static_cast<std::size_t>(side);
  }

  std::span<const server::Server> servers_;
  std::vector<Slot> slots_;
  /// Mirror of each server's packed IndexRow as of the last time the index
  /// applied it (rebuild or flush).  A notification whose current row equals
  /// the mirror is a no-op for every structure the index keeps, so the
  /// dirty-mark path drops it after one 32-byte compare -- settle sweeps and
  /// other fact-free notifications never reach the refile machinery.
  std::vector<server::ServerStateTable::IndexRow> rows_;
  /// Per-server side while partitioned; empty (everyone on side 0) while
  /// the fleet is whole, so a whole fleet pays no memory for it.
  std::vector<std::int32_t> side_of_;
  std::size_t side_count_{1};

  // --- coalesced-pipeline state -------------------------------------------

  bool phase_timing_{false};
  DirtySet dirty_;
  PipelineStats stats_;
  /// Classification output for the dirty lanes, parallel to the sorted
  /// dirty-slot list (gather kernel scratch).
  std::vector<std::int8_t> gather_out_;
  /// Per-axis key mutations collected during one flush's diff pass, applied
  /// as sorted grouped runs at the end of the phase (indexed like by_key_).
  std::vector<std::vector<LoadKey>> erase_runs_;
  std::vector<std::vector<LoadKey>> insert_runs_;

  /// Arena for the key sets: the pool recycles bucket storage across
  /// refiles, the counting upstream makes memory_bytes() exact.  Declared
  /// before the sets (construction order) and destroyed after them.
  common::CountingMemoryResource counting_;
  std::pmr::unsynchronized_pool_resource pool_{&counting_};

  /// Load-keyed search axes, one per (side, regime): axis(side, r).
  std::vector<KeySet> by_key_;
  std::array<common::DenseBitset, energy::kRegimeCount> by_id_;
  /// Settled sleepers by depth: [0]=C1, [1]=C3, [2]=C6.
  std::array<common::DenseBitset, 3> sleepers_;
  common::DenseBitset above_center_;
  common::DenseBitset awake_empty_;

  std::size_t total_vms_{0};
  std::size_t sleeping_{0};
  std::size_t reporters_{0};
  std::array<std::size_t, energy::kCStateCount> cnt_effective_{};

  /// Fleet-wide maxima of (alpha_opt_high - center) and
  /// (alpha_sopt_high - center): sound upward cutoffs for the searches.
  double max_opt_halfwidth_{0.0};
  double max_sopt_halfwidth_{0.0};
};

}  // namespace eclb::cluster::index
