// A fixed team of threads for the fabric's parallel phase.
//
// A phase runs fn(i) for i in [0, n) -- one index per shard -- and returns
// once every index has run.  The team is `size()` threads: size() - 1
// persistent workers plus the thread that calls run(), which works the phase
// instead of sleeping on it.  Indices are claimed, not pre-assigned: [0, n)
// is split into size() contiguous home ranges (the split a static chunking
// would make), each behind an atomic cursor.  Every thread first drains its
// own home range, then steals from the other ranges' cursors, so a slow
// index holds up only the thread running it.  Which thread runs which index
// is therefore not deterministic; callers keep fn(i) confined to index i's
// state so the outcome cannot depend on it.
//
// A phase allocates nothing: the callable is passed by reference through a
// function pointer (no std::function), the cursors live in storage sized at
// construction, and workers park on a condition variable between phases.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace eclb::common {

class ShardTeam {
 public:
  /// A team of `threads` threads including the caller of run(); 0 means
  /// std::thread::hardware_concurrency() (at least 1).  Spawns threads - 1
  /// workers; a team of 1 runs every phase inline on the caller.
  explicit ShardTeam(std::size_t threads);

  /// Wakes the parked workers and joins them.
  ~ShardTeam();

  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  /// Threads doing the work of a phase, the caller included.
  [[nodiscard]] std::size_t size() const { return cursors_.size(); }

  /// Runs fn(i) for every i in [0, n) on the team and the calling thread,
  /// and returns once all have finished.  fn must be safe to invoke
  /// concurrently for distinct indices.  If one or more invocations throw,
  /// every index still runs and the first captured exception is rethrown
  /// after the join.  A call from inside a phase of the same team (from a
  /// worker, or from fn on the calling thread) asserts: it would deadlock.
  /// One thread at a time may call run().
  template <class Fn>
  void run(std::size_t n, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_phase(n, &invoke<F>,
              const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

 private:
  using Call = void (*)(void*, std::size_t);

  template <class F>
  static void invoke(void* fn, std::size_t i) {
    (*static_cast<F*>(fn))(i);
  }

  /// One home range [next, end); `next` is the claim cursor.  Padded to a
  /// cache line so claims on different ranges do not contend.
  struct alignas(64) Cursor {
    std::atomic<std::size_t> next{0};
    std::size_t end{0};
  };

  void run_phase(std::size_t n, Call call, void* fn);
  /// Claims and runs indices: member's home range first, then the others'.
  void work(std::size_t member);
  void worker_loop(std::size_t member);

  std::vector<Cursor> cursors_;  ///< One per member; member 0 is the caller.

  // The published phase; written by the caller under mu_ before the
  // generation bump, read by workers after they observe it.
  Call call_{nullptr};
  void* fn_{nullptr};

  std::mutex mu_;
  std::condition_variable wake_cv_;  ///< Workers park here between phases.
  std::condition_variable done_cv_;  ///< The caller waits here for the join.
  std::uint64_t generation_{0};      ///< Guarded by mu_; bumped per phase.
  bool stop_{false};                 ///< Guarded by mu_.
  /// Workers still inside the current phase; the last one out wakes the
  /// caller.
  alignas(64) std::atomic<std::size_t> pending_{0};

  std::mutex error_mu_;
  std::exception_ptr first_error_;  ///< Guarded by error_mu_.

  std::vector<std::thread> workers_;  ///< Declared last: joined first.
};

}  // namespace eclb::common
