#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/config.h"
#include "cluster/leader.h"
#include "cluster/protocol/actions.h"
#include "cluster/protocol/view.h"

namespace eclb::cluster::protocol {

bool DrainAndSleep::enabled(const ClusterConfig& config) const {
  return config.regime_actions_enabled && config.allow_sleep;
}

void DrainAndSleep::run(ClusterView& view) {
  const ClusterConfig& config = view.config();
  const common::Seconds now = view.now();
  const auto servers = view.servers();

  // Consolidation (the R1 action of Section 4): an undesirable-low server
  // pushes its VMs *uphill* -- to R1/R2 peers carrying more load than
  // itself that still end within their optimal region.  The uphill rule
  // makes consolidation a strict order (no migration cycles).  Draining is
  // throttled by the per-interval send budget, so emptying a server takes
  // several intervals; that gradual trickle is Figure 3's low-load decay.
  //
  // Negative-result cache (see shed phase): acceptor loads only grow here.
  // Donors run least-loaded first, so every later donor sees a *narrower*
  // uphill target set than the one a failure was recorded against -- which
  // keeps the cache sound.
  double min_failed_demand = std::numeric_limits<double>::infinity();
  donors_.clear();
  // Donors are snapshotted (id order) before any migration, so the cursor
  // walk and the legacy full scan see the same fleet state.
  for (auto sid = view.next_in_regime(energy::Regime::kR1UndesirableLow,
                                      std::nullopt);
       sid.has_value();
       sid = view.next_in_regime(energy::Regime::kR1UndesirableLow, sid)) {
    auto& s = view.server(*sid);
    if (!s.awake(now)) continue;
    if (view.degraded(s.id())) continue;  // no migrations off a minority side
    const auto r = s.regime();
    if (!r.has_value() || *r != energy::Regime::kR1UndesirableLow) continue;
    if (s.vm_count() == 0) continue;
    // Hysteresis enter threshold: with dual thresholds on, a donor must sit
    // clearly inside R1 (below enter_load_margin of the R1/R2 boundary)
    // before it starts draining toward sleep, so load hovering at the
    // boundary no longer toggles drain decisions interval to interval.
    if (config.hysteresis.enabled &&
        s.served_load() > config.hysteresis.enter_load_margin *
                              s.thresholds().alpha_sopt_low) {
      continue;
    }
    donors_.push_back(&s);
  }
  std::sort(donors_.begin(), donors_.end(),
            [](const server::Server* a, const server::Server* b) {
              return a->load() < b->load();
            });
  for (server::Server* donor : donors_) {
    auto& s = *donor;
    std::size_t sends_left = config.max_sends_per_interval;
    while (sends_left > 0 && s.vm_count() > 0) {
      // Largest VM first: empties the donor fastest.
      const vm::Vm* biggest = nullptr;
      for (const auto& v : s.vms()) {
        if (biggest == nullptr || v.demand() > biggest->demand()) biggest = &v;
      }
      if (biggest->demand() >= min_failed_demand) break;
      // Uphill target: an R1/R2 peer with strictly more load, ending within
      // its optimal region; fullest-fit (closest to its center) wins.
      const auto chosen = view.find_drain_target(s, biggest->demand());
      if (!chosen.has_value()) {
        min_failed_demand = biggest->demand();
        break;
      }
      if (!view.migrate(s, biggest->id(), *chosen,
                        MigrationCause::kConsolidation)) {
        break;
      }
      --sends_left;
    }
    if (s.vm_count() == 0) view.recorder().drained(s.id());
  }

  // Sleep phase.  Deep sleep (C3/C6) removes capacity for 30 s / 180 s of
  // wake latency, so it is guarded: at most floor(fraction * N) deep-sleep
  // transitions per interval, and never within the post-wake cooldown.
  // Drained servers that cannot deep-sleep park in C1 instead -- C1 wakes in
  // ~1 ms, so parking removes no effective capacity and needs no guardrail.
  std::size_t budget = static_cast<std::size_t>(std::floor(
      config.max_sleep_fraction_per_interval *
      static_cast<double>(servers.size())));

  const double cluster_load = view.load_fraction();
  const energy::CState deep_state =
      config.forced_sleep_state.value_or(Leader::choose_sleep_state(
          cluster_load, config.sleep_state_load_threshold));

  // Deep-sleep pass: prefer servers already parked in C1 (their emptiness
  // has persisted at least one interval), then freshly drained ones.
  for (int pass = 0; pass < 2 && budget > 0; ++pass) {
    // Pass 0 walks the settled-C1 bucket, pass 1 the awake-empty set; both
    // only lose members as servers begin transitions, and the visit-time
    // checks below remain authoritative (identical to the legacy scan).
    const auto next = [&](std::optional<common::ServerId> after) {
      return pass == 0 ? view.next_parked(after) : view.next_awake_empty(after);
    };
    for (auto sid = next(std::nullopt); sid.has_value(); sid = next(sid)) {
      if (budget == 0) break;
      auto& s = view.server(*sid);
      // No sleep commands cross to a minority side: the quorum leader cannot
      // reach it, and the sub-leader defers capacity changes until the heal.
      if (view.degraded(s.id())) continue;
      if (s.vm_count() > 0 || s.in_transition(now)) continue;
      const bool parked = s.cstate() == energy::CState::kC1;
      const bool fresh = s.awake(now);
      if (pass == 0 ? !parked : !fresh) continue;
      const auto woken = view.last_wake_interval(s.id());
      // Minimum dwell: with hysteresis on, a freshly woken server must stay
      // awake for at least min_dwell_intervals (on top of the cooldown)
      // before it may re-enter deep sleep.
      const std::size_t cooldown =
          config.hysteresis.enabled
              ? std::max(config.wake_cooldown_intervals,
                         config.hysteresis.min_dwell_intervals)
              : config.wake_cooldown_intervals;
      if (woken.has_value() && view.interval_index() - *woken <= cooldown) {
        continue;
      }
      view.charge_message(MessageKind::kSleepNotice, 1, /*network_energy=*/true);
      const common::Seconds done = parked ? s.deepen_sleep(deep_state, now)
                                          : s.begin_sleep(deep_state, now);
      view.begin_transition(s, done);
      // Flap metric (always measured): a deep sleep this soon after a wake
      // is one reversal of the oscillation hysteresis exists to kill.
      if (woken.has_value() &&
          view.interval_index() - *woken <=
              config.hysteresis.flap_window_intervals) {
        view.recorder().wake_sleep_flap(s.id());
      }
      view.note_sleep(s.id());
      view.recorder().sleep_begun(s.id());
      --budget;
    }
  }

  // Parking pass: any remaining awake empty server halts in C1.
  for (auto sid = view.next_awake_empty(std::nullopt); sid.has_value();
       sid = view.next_awake_empty(sid)) {
    auto& s = view.server(*sid);
    if (!s.awake(now) || s.vm_count() > 0) continue;
    if (view.degraded(s.id())) continue;
    const common::Seconds done = s.begin_sleep(energy::CState::kC1, now);
    view.begin_transition(s, done);
  }
}

}  // namespace eclb::cluster::protocol
