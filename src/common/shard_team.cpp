#include "common/shard_team.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace eclb::common {

namespace {

/// The team whose phase the current thread is working, if any: set for
/// good on a team's workers and for the length of run() on the caller.  A
/// run() on that same team from here would wait on a join that can only
/// complete once this thread returns.
thread_local const ShardTeam* tls_phase_team = nullptr;

class PhaseScope {
 public:
  explicit PhaseScope(const ShardTeam* team) : previous_(tls_phase_team) {
    tls_phase_team = team;
  }
  ~PhaseScope() { tls_phase_team = previous_; }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const ShardTeam* previous_;
};

std::size_t resolve(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ShardTeam::ShardTeam(std::size_t threads) : cursors_(resolve(threads)) {
  workers_.reserve(cursors_.size() - 1);
  for (std::size_t member = 1; member < cursors_.size(); ++member) {
    workers_.emplace_back([this, member] { worker_loop(member); });
  }
}

ShardTeam::~ShardTeam() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardTeam::run_phase(std::size_t n, Call call, void* fn) {
  ECLB_ASSERT(tls_phase_team != this,
              "ShardTeam::run: re-entrant call from inside a phase deadlocks");
  const PhaseScope scope(this);
  call_ = call;
  fn_ = fn;
  if (workers_.empty() || n <= 1) {
    cursors_[0].next.store(0);
    cursors_[0].end = n;
    work(0);
  } else {
    // Home ranges: the first n % chunks ranges take one index more, and
    // members past n (n < size()) start with nothing and only steal.
    const std::size_t chunks = std::min(n, cursors_.size());
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    std::size_t begin = 0;
    for (std::size_t k = 0; k < cursors_.size(); ++k) {
      const std::size_t end =
          k < chunks ? begin + base + (k < extra ? 1 : 0) : n;
      cursors_[k].next.store(begin);
      cursors_[k].end = end;
      begin = end;
    }
    {
      std::lock_guard lock(mu_);
      pending_.store(workers_.size());
      ++generation_;
    }
    wake_cv_.notify_all();
    work(0);
    // The join.  Every index has been claimed by now; at most the workers'
    // last claims are still running.
    if (pending_.load() != 0) {
      std::unique_lock lock(mu_);
      done_cv_.wait(lock, [this] { return pending_.load() == 0; });
    }
  }
  // The join orders every worker's error_mu_ section before this read.
  if (first_error_ != nullptr) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
}

void ShardTeam::work(std::size_t member) {
  const std::size_t members = cursors_.size();
  for (std::size_t k = 0; k < members; ++k) {
    const std::size_t range = member + k;  // k == 0: the home range
    Cursor& c = cursors_[range < members ? range : range - members];
    while (c.next.load() < c.end) {
      const std::size_t i = c.next.fetch_add(1);
      if (i >= c.end) break;
      try {
        call_(fn_, i);
      } catch (...) {
        std::lock_guard lock(error_mu_);
        if (first_error_ == nullptr) first_error_ = std::current_exception();
      }
    }
  }
}

void ShardTeam::worker_loop(std::size_t member) {
  tls_phase_team = this;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    work(member);
    if (pending_.fetch_sub(1) == 1) {
      // Lock once so the caller is either before its predicate check or
      // already waiting; the notify cannot fall between the two.
      { std::lock_guard lock(mu_); }
      done_cv_.notify_one();
    }
  }
}

}  // namespace eclb::common
