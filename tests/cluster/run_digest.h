// FNV-1a digest of one cluster run's observable output.
//
// The regime index used to be checked by running the same seed twice -- once
// through the index, once through full scans (or per-notification updates)
// -- and comparing the interval reports.  Those alternate paths are gone;
// the tests now pin each run to the digest both paths produced before they
// were retired.  A changed digest means the index changed a simulated
// outcome.
#pragma once

#include <bit>
#include <cstdint>

#include "cluster/fabric.h"
#include "cluster/recorder.h"

namespace eclb::cluster::testing {

class RunDigest {
 public:
  /// Folds one interval report, hashed as a one-shard fabric report (every
  /// counter, the regime histogram and the energy bit pattern).
  void add_report(const IntervalReport& report) {
    FabricIntervalReport wrapped;
    wrapped.clusters.push_back(report);
    add_u64(fabric_report_digest(wrapped));
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

}  // namespace eclb::cluster::testing
