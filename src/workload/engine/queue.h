// Per-VM FIFO request queues: the layer that turns request backlog into the
// utilization signal the protocol consumes.
//
// A queue holds the requests routed to one VM and serves them in arrival
// order at whatever capacity share the host grants (an exact fluid G/G/1
// model: a request's completion is max(arrival, queue-ready) plus its
// remaining work over the service rate).  Sojourn times land in the shared
// log-scale histogram; the remaining backlog is what the request driver
// converts into the VM's next demand.
//
// Storage is a power-of-two ring buffer.  The first few requests live
// inline in the queue object itself; deeper queues move to a heap ring that
// doubles as needed, and a large ring that has drained to a quarter of its
// capacity halves back after a serve.  A queue at its steady depth therefore
// pushes, serves and splices without touching the allocator, and most VMs
// -- a handful of requests deep -- never allocate at all.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/units.h"
#include "workload/engine/arrivals.h"
#include "workload/engine/latency.h"

namespace eclb::workload::engine {

/// What one serve window completed.
struct QueueServeStats {
  std::size_t completed{0};       ///< Requests finished in the window.
  std::size_t sla_violations{0};  ///< Finished with sojourn > the SLA.
};

/// FIFO queue of requests pending on one VM.
class RequestQueue {
 public:
  /// One queued request.
  struct Pending {
    common::Seconds arrival{};
    double remaining{0.0};  ///< Capacity-seconds of work left.
  };

  /// Enqueues a request (callers push in arrival order).
  void push(const Request& r);

  /// Serves the window [t0, t1) at `rate` capacity-seconds per second (the
  /// VM's granted share; 0 while the host is overloaded away or gone).
  /// Completed sojourns are recorded into `hist` and checked against
  /// `sla_seconds`.  Partial work on the head request carries over.
  QueueServeStats serve(common::Seconds t0, common::Seconds t1, double rate,
                        double sla_seconds, LatencyHistogram* hist);

  /// Requests waiting (including the partially served head).
  [[nodiscard]] std::size_t depth() const { return size_; }
  /// Remaining work in the queue, capacity-seconds.
  [[nodiscard]] double backlog_work() const { return backlog_work_; }
  /// The `i`-th waiting request counted from the head (i < depth()).
  [[nodiscard]] const Pending& at(std::size_t i) const {
    return data()[(head_ + i) & mask()];
  }

  /// Drops everything (the VM vanished); returns the number dropped.
  std::size_t drop_all();

  /// Takes every request of `from` and splices them in front of this
  /// queue's contents, FIFO order preserved on both sides, adding their work
  /// to this backlog head to tail.  `from` is left empty with zero backlog
  /// (its server-free time is untouched).  The migration drain uses this
  /// both ways: to freeze a moved VM's backlog as a source-side residue, and
  /// to hand an expired residue back ahead of the newer arrivals.
  void prepend(RequestQueue& from);

  /// Empties the queue and forgets its server-free time: a recycled queue
  /// then serves exactly like a new one.
  void reset();

 private:
  /// Requests held inline before the first heap ring.
  static constexpr std::uint32_t kInlineCapacity = 4;
  /// Heap rings at or below this size never shrink, so a queue whose depth
  /// wobbles around a few requests does not churn the allocator.
  static constexpr std::uint32_t kShrinkFloor = 16;

  [[nodiscard]] Pending* data() {
    return heap_ != nullptr ? heap_.get() : inline_.data();
  }
  [[nodiscard]] const Pending* data() const {
    return heap_ != nullptr ? heap_.get() : inline_.data();
  }
  [[nodiscard]] std::size_t mask() const { return capacity_ - 1; }
  /// Re-lays the contents out head-first in a ring of `capacity` slots (a
  /// power of two >= depth(); inline when it fits).
  void relocate(std::size_t capacity);

  std::array<Pending, kInlineCapacity> inline_{};
  std::unique_ptr<Pending[]> heap_;  ///< Null while the ring is inline.
  std::uint32_t capacity_{kInlineCapacity};
  std::uint32_t head_{0};
  std::uint32_t size_{0};
  double backlog_work_{0.0};
  common::Seconds ready_at_{common::Seconds{0.0}};  ///< Server-free time.
};

}  // namespace eclb::workload::engine
