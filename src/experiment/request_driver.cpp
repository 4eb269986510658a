#include "experiment/request_driver.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/assert.h"
#include "common/rng.h"

namespace eclb::experiment {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t SlaSummary::digest() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, arrived);
  fnv_mix(h, completed);
  fnv_mix(h, dropped);
  fnv_mix(h, shed);
  fnv_mix(h, failed_by_fault);
  fnv_mix(h, sla_violations);
  std::uint64_t backlog_bits = 0;
  static_assert(sizeof backlog_bits == sizeof backlog);
  std::memcpy(&backlog_bits, &backlog, sizeof backlog_bits);
  fnv_mix(h, backlog_bits);
  fnv_mix(h, histogram.digest());
  return h;
}

void SlaSummary::merge(const SlaSummary& other) {
  arrived += other.arrived;
  completed += other.completed;
  dropped += other.dropped;
  shed += other.shed;
  failed_by_fault += other.failed_by_fault;
  sla_violations += other.sla_violations;
  backlog += other.backlog;
  histogram.merge(other.histogram);
  p50 = histogram.quantile(0.50);
  p99 = histogram.quantile(0.99);
  p999 = histogram.quantile(0.999);
}

RequestDriver::RequestDriver(cluster::Cluster& cluster,
                             workload::engine::RequestWorkloadConfig config)
    : cluster_(cluster), engine_(std::move(config)) {
  ECLB_ASSERT(!cluster_.config().demand_evolution_enabled,
              "RequestDriver: build the cluster with demand_evolution_enabled "
              "= false; the driver owns the demand signal");
  rr_.assign(engine_.stream_count(), 0);
  targets_.resize(engine_.stream_count());
  // Reserve the per-VM state and the snapshot buffers for today's fleet
  // here, on the constructing thread: a fabric session then advances the
  // driver on a worker, and memory first claimed there would come from that
  // worker's own allocator arena.  The entries are built as the first
  // interval meets each VM, so set-up touches none of the pages.  VmIds
  // count up from 0, so the VM count is the id range of a fresh cluster;
  // VMs spawned later grow the storage on demand.
  const std::size_t vms = cluster_.total_vms();
  vms_.reserve(vms);
  slots_.reserve(vms);
  prev_slots_.reserve(vms);
  for (auto& t : targets_) t.reserve(vms);
}

void RequestDriver::start_drain(const VmSlot& slot, VmState& state,
                                std::uint32_t window) {
  workload::engine::RequestQueue residue;
  residue.prepend(state.queue);
  auto it = std::lower_bound(
      draining_.begin(), draining_.end(), slot.id,
      [](const DrainState& d, common::VmId id) { return d.id < id; });
  if (it != draining_.end() && it->id == slot.id) {
    // Second hop while still draining: the older residue re-joins at the
    // front so overall arrival order survives.
    residue.prepend(it->queue);
  } else {
    it = draining_.insert(it, DrainState{});
    it->id = slot.id;
  }
  it->queue = std::move(residue);
  it->source = state.server;
  it->rate = state.rate;
  it->sla_seconds = slot.sla_seconds;
  it->intervals_left = window;
}

void RequestDriver::advance_interval() {
  const common::Seconds t0 = cluster_.now();
  const common::Seconds tau = cluster_.config().reallocation_interval;
  const common::Seconds t1{t0.value + tau.value};

  const std::size_t nstreams = engine_.stream_count();
  const std::uint32_t drain_window = engine_.config().drain_intervals;
  ++interval_;

  // 1. Snapshot the live fleet in deterministic (server index, roster
  //    position) order.  The capacity share is the host's oversubscription
  //    discount: an overloaded server serves every hosted VM
  //    proportionally, exactly how ServeAndAccount grants demand.
  //
  //    Migrations show against the VM's last placement.  With draining
  //    enabled a moved VM's backlog stays behind as a source-side residue,
  //    served at the frozen pre-move rate; without it the queue travels
  //    with the VM.  A non-empty queue means the VM was in the previous
  //    snapshot (step 3 empties a vanished VM's queue), so its recorded
  //    placement is current.
  prev_slots_.swap(slots_);
  slots_.clear();
  for (auto& t : targets_) t.clear();
  const std::span<server::Server> servers = cluster_.mutable_servers();
  for (std::size_t si = 0; si < servers.size(); ++si) {
    const server::Server& s = servers[si];
    const double load = s.load();
    const double share =
        load > s.capacity() && load > 0.0 ? s.capacity() / load : 1.0;
    const std::span<const vm::Vm> roster = s.vms();
    for (std::size_t pos = 0; pos < roster.size(); ++pos) {
      const vm::Vm& v = roster[pos];
      const std::size_t owner =
          nstreams == 0 ? 0 : v.app().index() % nstreams;
      VmSlot slot;
      slot.id = v.id();
      slot.server = static_cast<std::uint32_t>(si);
      slot.position = static_cast<std::uint32_t>(pos);
      slot.rate = v.demand() * share;
      slot.sla_seconds = nstreams == 0
                             ? 0.0
                             : engine_.config().streams[owner].sla_seconds;
      if (owner < targets_.size()) {
        targets_[owner].push_back(static_cast<std::uint32_t>(slots_.size()));
      }
      slots_.push_back(slot);

      if (v.id().index() >= vms_.size()) vms_.resize(v.id().index() + 1);
      VmState& state = vms_[v.id().index()];
      if (drain_window > 0 && state.queue.depth() > 0 &&
          state.server != slot.server) {
        start_drain(slot, state, drain_window);
      }
      state.live = interval_;
      state.server = slot.server;
      state.rate = slot.rate;
    }
  }

  // 2. Route each stream's arrivals, as the engine generates them,
  //    round-robin over the VMs the stream owns (falling back to the whole
  //    fleet when it owns none).  The cursors persist across intervals so
  //    routing does not restart at the first VM every window.
  const bool admitting =
      engine_.config().admission != workload::engine::AdmissionPolicy::kNone;
  engine_.generate_each(t0, t1, [&](std::size_t s,
                                    const workload::engine::Request& r) {
    const std::vector<std::uint32_t>& owned = targets_[s];
    const std::size_t fleet = owned.empty() ? slots_.size() : owned.size();
    if (fleet == 0) {
      // No VM anywhere to take the stream: the request is lost.
      ++dropped_;
      return;
    }
    const std::size_t k = rr_[s] % fleet;
    ++rr_[s];
    const VmSlot& slot = slots_[owned.empty() ? k : owned[k]];
    workload::engine::RequestQueue& queue = vms_[slot.id.index()].queue;
    if (admitting && shed_decision(queue, slot)) {
      ++shed_;
      return;
    }
    queue.push(r);
    ++arrived_;
  });

  // 3. Serve every live VM's queue over the window at its granted share.
  //    Queues whose VM vanished since the last snapshot (crash orphan
  //    retired, shadow resolved) drop their requests -- as stranded backlog
  //    killed by the fault when the VM's last host is down.  Each queue is
  //    independent and the tallies are counts, so the walk order is free.
  for (const VmSlot& prev : prev_slots_) {
    VmState& state = vms_[prev.id.index()];
    if (state.live == interval_) continue;
    const std::size_t lost = state.queue.depth();
    if (prev.server < servers.size() && servers[prev.server].failed()) {
      failed_by_fault_ += lost;
    } else {
      dropped_ += lost;
    }
    state.queue.reset();
  }
  for (const VmSlot& slot : slots_) {
    const workload::engine::QueueServeStats stats =
        vms_[slot.id.index()].queue.serve(t0, t1, slot.rate, slot.sla_seconds,
                                          &hist_);
    completed_ += stats.completed;
    violations_ += stats.sla_violations;
  }

  // 3b. Serve draining residues on their source hosts.  A crashed source
  //     fails its residue; an expired window hands whatever is left back to
  //     the VM's current queue, ahead of newer arrivals.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < draining_.size(); ++i) {
    DrainState& st = draining_[i];
    bool done = true;
    if (st.source < servers.size() && servers[st.source].failed()) {
      failed_by_fault_ += st.queue.drop_all();
    } else {
      const workload::engine::QueueServeStats stats =
          st.queue.serve(t0, t1, st.rate, st.sla_seconds, &hist_);
      completed_ += stats.completed;
      violations_ += stats.sla_violations;
      if (st.intervals_left > 1 && st.queue.depth() > 0) {
        --st.intervals_left;
        done = false;
      } else if (st.queue.depth() > 0) {
        VmState& state = vms_[st.id.index()];
        if (state.live == interval_) {
          state.queue.prepend(st.queue);
        } else {
          // The VM vanished mid-drain with the source still up: the
          // residue is a routing drop, same as a retired VM's queue.
          dropped_ += st.queue.drop_all();
        }
      }
    }
    if (!done) {
      if (kept != i) draining_[kept] = std::move(st);
      ++kept;
    }
  }
  draining_.erase(draining_.begin() + static_cast<std::ptrdiff_t>(kept),
                  draining_.end());

  // 4. Convert backlog into each VM's next demand and refresh the queue
  //    mirror the VM carries.  Walk the slots (server index order) so each
  //    host's load-update sequence is deterministic; residues add to the
  //    backlog total after them, in VmId order.
  const double util = engine_.config().target_utilization;
  double backlog_total = 0.0;
  for (const VmSlot& slot : slots_) {
    const workload::engine::RequestQueue& queue = vms_[slot.id.index()].queue;
    const double backlog = queue.backlog_work();
    backlog_total += backlog;
    const double demand =
        std::clamp(backlog / (tau.value * util), 0.0, 1.0);
    servers[slot.server].set_vm_request_state(
        slot.position, demand, static_cast<std::uint32_t>(queue.depth()),
        backlog);
  }
  for (const DrainState& st : draining_) {
    backlog_total += st.queue.backlog_work();
  }
  backlog_ = backlog_total;

  // 5. Book the batch; the recorder pre-stamped the upcoming interval, so
  //    the counts land in the round cluster.step() is about to run.
  cluster_.recorder().request_batch(
      static_cast<std::size_t>(arrived_ - last_arrived_),
      static_cast<std::size_t>(completed_ - last_completed_),
      static_cast<std::size_t>(violations_ - last_violations_),
      static_cast<std::size_t>(dropped_ - last_dropped_),
      static_cast<std::size_t>(shed_ - last_shed_),
      static_cast<std::size_t>(failed_by_fault_ - last_failed_),
      backlog_total);
  last_arrived_ = arrived_;
  last_completed_ = completed_;
  last_violations_ = violations_;
  last_dropped_ = dropped_;
  last_shed_ = shed_;
  last_failed_ = failed_by_fault_;
}

bool RequestDriver::shed_decision(const workload::engine::RequestQueue& queue,
                                  const VmSlot& slot) const {
  using workload::engine::AdmissionPolicy;
  const workload::engine::RequestWorkloadConfig& cfg = engine_.config();
  switch (cfg.admission) {
    case AdmissionPolicy::kNone:
      return false;
    case AdmissionPolicy::kTailDrop:
      return queue.depth() >= cfg.admission_cap;
    case AdmissionPolicy::kDeadlineShed: {
      const double work = queue.backlog_work();
      if (work <= 0.0) return false;  // An empty queue admits anything.
      if (!(slot.rate > 0.0)) return true;  // Backlog with no grant: shed.
      const double budget = cfg.admission_budget_seconds > 0.0
                                ? cfg.admission_budget_seconds
                                : slot.sla_seconds;
      return work / slot.rate > budget;
    }
  }
  return false;
}

std::uint64_t RequestDriver::queued() const {
  std::uint64_t total = 0;
  for (const VmState& state : vms_) total += state.queue.depth();
  for (const DrainState& st : draining_) total += st.queue.depth();
  return total;
}

std::optional<std::string> RequestDriver::audit() const {
  const std::uint64_t generated = engine_.total_generated();
  const std::uint64_t in_queues = queued();
  const std::uint64_t accounted =
      completed_ + shed_ + dropped_ + failed_by_fault_ + in_queues;
  if (accounted == generated) return std::nullopt;
  std::ostringstream out;
  out << "request conservation violated: generated=" << generated
      << " != completed=" << completed_ << " + shed=" << shed_
      << " + dropped=" << dropped_ << " + failed_by_fault=" << failed_by_fault_
      << " + queued=" << in_queues << " (= " << accounted << ")";
  return out.str();
}

SlaSummary RequestDriver::summary() const {
  SlaSummary s;
  s.arrived = arrived_;
  s.completed = completed_;
  s.dropped = dropped_;
  s.shed = shed_;
  s.failed_by_fault = failed_by_fault_;
  s.sla_violations = violations_;
  s.backlog = backlog_;
  s.histogram = hist_;
  s.p50 = hist_.quantile(0.50);
  s.p99 = hist_.quantile(0.99);
  s.p999 = hist_.quantile(0.999);
  return s;
}

workload::engine::RequestWorkloadConfig shard_workload_config(
    const workload::engine::RequestWorkloadConfig& config, std::size_t shard,
    std::size_t shard_count) {
  ECLB_ASSERT(shard_count > 0 && shard < shard_count,
              "shard_workload_config: shard out of range");
  workload::engine::RequestWorkloadConfig out = config;
  if (shard_count == 1) return out;
  const double split = static_cast<double>(shard_count);
  for (workload::engine::StreamSpec& spec : out.streams) {
    spec.rate /= split;
    spec.trace_scale /= split;
  }
  out.seed = common::mix_seed(config.seed, shard);
  return out;
}

FabricRequestSession::FabricRequestSession(
    cluster::Fabric& fabric,
    const workload::engine::RequestWorkloadConfig& config)
    : fabric_(fabric) {
  drivers_.reserve(fabric.size());
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    drivers_.push_back(std::make_unique<RequestDriver>(
        fabric.mutable_cluster(i),
        shard_workload_config(config, i, fabric.size())));
  }
}

bool FabricRequestSession::ok() const {
  for (const auto& d : drivers_) {
    if (!d->ok()) return false;
  }
  return true;
}

std::string FabricRequestSession::error() const {
  for (const auto& d : drivers_) {
    if (!d->ok()) return d->error();
  }
  return {};
}

void FabricRequestSession::advance_interval() {
  fabric_.for_each_shard([this](std::size_t i) {
    drivers_[i]->advance_interval();
  });
}

SlaSummary FabricRequestSession::summary() const {
  SlaSummary merged;
  for (const auto& d : drivers_) merged.merge(d->summary());
  return merged;
}

std::uint64_t FabricRequestSession::total_generated() const {
  std::uint64_t total = 0;
  for (const auto& d : drivers_) total += d->total_generated();
  return total;
}

std::optional<std::string> FabricRequestSession::audit() const {
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    if (auto fail = drivers_[i]->audit()) {
      return "shard " + std::to_string(i) + ": " + *fail;
    }
  }
  return std::nullopt;
}

}  // namespace eclb::experiment
