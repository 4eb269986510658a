// The bridge from the cluster's observer hook to the obs instruments: an
// ObsConfig says what to collect, a ClusterProbe implements
// cluster::ClusterObserver and fans events out to a TraceWriter, a
// MetricsRegistry and a Profiler.
//
// Everything here is strictly read-only with respect to the simulation:
// attaching a probe changes no simulated bit, only what gets recorded.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/recorder.h"
#include "obs/handles.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace eclb::obs {

/// What the observability layer should collect for a run.  Default
/// constructed it is inactive and adds zero overhead.
struct ObsConfig {
  /// Directory for per-replication JSONL traces; empty disables tracing.
  /// Created (recursively) on first use.
  std::string trace_dir;
  /// Registry aggregating counters/gauges/histograms; null disables metrics.
  MetricsRegistry* metrics{nullptr};
  /// Phase wall-clock aggregator; null disables profiling.
  Profiler* profiler{nullptr};

  /// True when any sink is configured.
  [[nodiscard]] bool active() const {
    return !trace_dir.empty() || metrics != nullptr || profiler != nullptr;
  }
};

/// A ClusterObserver forwarding protocol events to the configured sinks.
/// One probe serves one replication (the trace file is per-replication);
/// metrics and profiler sinks may be shared across probes.
class ClusterProbe final : public cluster::ClusterObserver {
 public:
  /// `trace` may be null (no tracing); likewise `metrics` / `profiler`.
  ClusterProbe(std::unique_ptr<TraceWriter> trace, MetricsRegistry* metrics,
               Profiler* profiler);

  /// Builds a probe for replication `replication` of a run seeded with
  /// `seed`; nullptr when `config` is inactive.  Creates the trace
  /// directory when tracing is requested.
  [[nodiscard]] static std::unique_ptr<ClusterProbe> make(
      const ObsConfig& config, std::uint64_t seed, std::size_t replication);

  /// Builds a probe for shard `shard` of a fabric templated on `seed`;
  /// nullptr when `config` is inactive.  Traces land in per-shard files
  /// (shard_trace_file_path) so cross-shard attribution is unambiguous;
  /// metrics and profiler sinks are thread-safe and may be shared by every
  /// shard's probe even when shards step on the fabric's shard team.
  [[nodiscard]] static std::unique_ptr<ClusterProbe> make_shard(
      const ObsConfig& config, std::uint64_t seed, std::size_t shard);

  void on_interval_begin(std::size_t interval, common::Seconds now) override;
  void on_event(const cluster::ProtocolEvent& event) override;
  void on_interval_end(const cluster::IntervalReport& report,
                       common::Seconds now) override;
  void on_phase(std::string_view phase, double wall_seconds) override;

  /// The trace writer, when tracing is active (tests).
  [[nodiscard]] const TraceWriter* trace() const { return trace_.get(); }

 private:
  std::unique_ptr<TraceWriter> trace_;
  MetricsRegistry* metrics_;
  Profiler* profiler_;

  /// Instruments resolved once at construction (obs/handles.h) so the
  /// per-event path never touches the registry map.
  ProtocolInstruments instruments_;
};

}  // namespace eclb::obs
