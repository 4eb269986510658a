// The request engine: deterministic open-loop arrival generation.
//
// Owns one ArrivalStream per configured stream, each on its own child RNG
// (mix_seed(config.seed, stream index)), and produces every stream's
// requests for a reallocation window in one call.  The engine knows nothing
// about clusters; the experiment-side RequestDriver routes its output onto
// per-VM queues and feeds the backlog into the protocol's demand signal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "workload/engine/arrivals.h"
#include "workload/engine/spec.h"

namespace eclb::workload::engine {

/// The open-loop workload generator.
class RequestEngine {
 public:
  explicit RequestEngine(RequestWorkloadConfig config);

  [[nodiscard]] const RequestWorkloadConfig& config() const { return config_; }
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }
  [[nodiscard]] const ArrivalStream& stream(std::size_t i) const {
    return streams_[i];
  }

  /// True when every stream opened cleanly (a kTrace stream with an
  /// unreadable file is the failure case).
  [[nodiscard]] bool ok() const;
  /// First stream error, empty when ok().
  [[nodiscard]] std::string error() const;

  /// Generates the window [t0, t1): per_stream[i] receives stream i's
  /// requests in arrival order.  The outer vector is sized to the stream
  /// count; inner buffers are cleared and reused.
  void generate(common::Seconds t0, common::Seconds t1,
                std::vector<std::vector<Request>>* per_stream);

  /// Streams the window [t0, t1) to `emit(stream index, request)`: stream
  /// by stream, each in arrival order -- the sequence generate() stores,
  /// without buffering it.
  template <class Emit>
  void generate_each(common::Seconds t0, common::Seconds t1, Emit&& emit) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      streams_[i].generate(t0, t1, [&](const Request& r) {
        ++generated_;
        emit(i, r);
      });
    }
  }

  /// Requests generated since construction.
  [[nodiscard]] std::uint64_t total_generated() const { return generated_; }

 private:
  RequestWorkloadConfig config_;
  std::vector<ArrivalStream> streams_;
  std::uint64_t generated_{0};
};

}  // namespace eclb::workload::engine
