#include "workload/engine/queue.h"

#include <algorithm>

#include "common/assert.h"

namespace eclb::workload::engine {

void RequestQueue::relocate(std::size_t capacity) {
  std::unique_ptr<Pending[]> fresh;
  if (capacity > kInlineCapacity) fresh = std::make_unique<Pending[]>(capacity);
  // Moving back inline means the contents currently sit on the heap, so the
  // copy never reads and writes the inline slots at once.
  Pending* dst = fresh != nullptr ? fresh.get() : inline_.data();
  for (std::size_t i = 0; i < size_; ++i) dst[i] = at(i);
  heap_ = std::move(fresh);
  capacity_ = static_cast<std::uint32_t>(capacity);
  head_ = 0;
}

void RequestQueue::push(const Request& r) {
  ECLB_ASSERT(r.service > 0.0, "request queue: service work must be > 0");
  if (size_ == capacity_) relocate(2 * std::size_t{capacity_});
  data()[(head_ + size_) & mask()] = Pending{r.arrival, r.service};
  ++size_;
  backlog_work_ += r.service;
}

QueueServeStats RequestQueue::serve(common::Seconds t0, common::Seconds t1,
                                    double rate, double sla_seconds,
                                    LatencyHistogram* hist) {
  QueueServeStats stats;
  if (!(rate > 0.0) || t1 <= t0) return stats;

  double cursor = std::max(ready_at_.value, t0.value);
  Pending* ring = data();
  while (size_ > 0) {
    Pending& head = ring[head_];
    const double start = std::max(head.arrival.value, cursor);
    if (start >= t1.value) break;
    const double finish = start + head.remaining / rate;
    if (finish > t1.value) {
      // The window closes mid-request: bank the work done, keep the head.
      const double done = rate * (t1.value - start);
      head.remaining -= done;
      backlog_work_ = std::max(0.0, backlog_work_ - done);
      cursor = t1.value;
      break;
    }
    const double sojourn = finish - head.arrival.value;
    if (hist != nullptr) hist->record(sojourn);
    ++stats.completed;
    if (sojourn > sla_seconds) ++stats.sla_violations;
    backlog_work_ = std::max(0.0, backlog_work_ - head.remaining);
    head_ = static_cast<std::uint32_t>((head_ + 1) & mask());
    --size_;
    cursor = finish;
  }
  ready_at_ = common::Seconds{std::min(cursor, t1.value)};
  if (capacity_ > kShrinkFloor && 4 * std::size_t{size_} <= capacity_) {
    relocate(capacity_ / 2);
  }
  return stats;
}

std::size_t RequestQueue::drop_all() {
  const std::size_t n = size_;
  head_ = 0;
  size_ = 0;
  backlog_work_ = 0.0;
  return n;
}

void RequestQueue::prepend(RequestQueue& from) {
  const std::size_t n = from.size_;
  if (n > 0) {
    std::size_t capacity = capacity_;
    while (capacity < size_ + n) capacity *= 2;
    if (capacity != capacity_) relocate(capacity);
    head_ = static_cast<std::uint32_t>((head_ - n) & mask());
    Pending* ring = data();
    for (std::size_t i = 0; i < n; ++i) {
      const Pending& p = from.at(i);
      backlog_work_ += p.remaining;
      ring[(head_ + i) & mask()] = p;
    }
    size_ += static_cast<std::uint32_t>(n);
  }
  (void)from.drop_all();
}

void RequestQueue::reset() {
  (void)drop_all();
  ready_at_ = common::Seconds{0.0};
}

}  // namespace eclb::workload::engine
