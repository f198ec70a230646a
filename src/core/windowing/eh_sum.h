#ifndef STREAMLIB_CORE_WINDOWING_EH_SUM_H_
#define STREAMLIB_CORE_WINDOWING_EH_SUM_H_

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "common/state.h"
#include "common/status.h"
#include "core/windowing/exponential_histogram.h"

namespace streamlib {

/// Sliding-window *sum* of bounded nonnegative integers via the bit-sliced
/// composition of DGIM histograms (the extension sketched in Datar et al.):
/// one ExponentialHistogram per bit of the value; bit b of each arriving
/// value feeds histogram b and the estimate recombines sum_b 2^b * est_b.
/// Relative error matches the underlying DGIM bound while memory stays
/// O(bits * k * log W) buckets — constant in the window contents.
class EhSum {
 public:
  static constexpr state::TypeId kTypeId = state::TypeId::kEhSum;
  /// Follows ExponentialHistogram's payload, which it embeds per bit.
  static constexpr uint16_t kStateVersion = 2;

  /// \param window      window size W in elements.
  /// \param k           DGIM buckets per size class (error ~ 1/k).
  /// \param value_bits  values must fit in this many bits (<= 32).
  EhSum(uint64_t window, uint32_t k, uint32_t value_bits);

  /// Processes the next value (must be < 2^value_bits).
  void Add(uint32_t value);

  /// Estimated sum of the last `window` values.
  uint64_t Estimate() const;

  uint64_t window() const { return window_; }
  size_t NumBuckets() const;
  size_t MemoryBytes() const;

  /// Merges bit-slice by bit-slice; same timeline caveat as
  /// ExponentialHistogram::Merge. Parameters must match.
  Status Merge(const EhSum& other);

  /// state::MergeableSketch payload: parameters then each bit histogram's
  /// own payload (delegated, like DyadicCountMin's per-level sketches).
  void SerializeTo(ByteWriter& w) const;
  static Result<EhSum> Deserialize(ByteReader& r);

 private:
  uint64_t window_;
  uint32_t value_bits_;
  std::vector<ExponentialHistogram> bit_histograms_;
};

}  // namespace streamlib

#endif  // STREAMLIB_CORE_WINDOWING_EH_SUM_H_
