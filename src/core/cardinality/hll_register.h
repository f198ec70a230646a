// HyperLogLog register helpers shared by HyperLogLog, LogLogCounter and
// SlidingHyperLogLog: where a 64-bit digest lands (register index + rho
// rank), the bias-correction constant alpha_m, the harmonic register sum
// (from a table of 2^-r, no libm call per register), and the cardinality
// estimate with the small-range linear-counting switch.
#ifndef STREAMLIB_CORE_CARDINALITY_HLL_REGISTER_H_
#define STREAMLIB_CORE_CARDINALITY_HLL_REGISTER_H_

#include <array>
#include <cmath>
#include <cstdint>

#include "common/bitutil.h"

namespace streamlib::hll {

/// Where one 64-bit digest lands: register index (the top `precision` bits)
/// and the rho rank of the remaining low bits.
struct RegisterProbe {
  uint32_t index;
  uint8_t rank;
};

inline RegisterProbe ProbeHash(uint64_t hash, int precision) {
  const uint32_t index = static_cast<uint32_t>(hash >> (64 - precision));
  // The remaining 64-p low bits, kept low-aligned for RankOfLeadingOne.
  const uint64_t remaining = (hash << precision) >> precision;
  const uint8_t rank =
      static_cast<uint8_t>(RankOfLeadingOne(remaining, 64 - precision));
  return RegisterProbe{index, rank};
}

/// The HLL bias-correction constant alpha_m.
inline double Alpha(uint32_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

/// Cardinality estimate from the harmonic register sum
/// sum_j 2^-M[j] over m registers, `zeros` of which are empty.
inline double EstimateFromRegisterSum(uint32_t m, double inverse_sum,
                                      uint32_t zeros) {
  const double md = static_cast<double>(m);
  const double raw = Alpha(m) * md * md / inverse_sum;
  // Small-range correction: linear counting while any register is empty and
  // the raw estimate is below the 2.5m threshold from the HLL paper.
  if (raw <= 2.5 * md && zeros > 0) {
    return md * std::log(md / static_cast<double>(zeros));
  }
  // 64-bit hashing: no large-range correction required (HLL++ observation).
  return raw;
}

/// 2^-r for every rank a uint8_t register can hold. Every entry is a power
/// of two well inside the normal double range, so each equals
/// std::ldexp(1.0, -r) exactly.
inline constexpr std::array<double, 256> kInversePow2 = [] {
  std::array<double, 256> table{};
  double value = 1.0;
  for (double& entry : table) {
    entry = value;
    value *= 0.5;
  }
  return table;
}();

/// The harmonic register sum sum_j 2^-M[j] and the empty-register count,
/// accumulated one register at a time in the caller's order. Summing table
/// entries in the same order as ldexp values gives a bit-identical sum.
struct RegisterSum {
  double inverse_sum = 0.0;
  uint32_t zeros = 0;

  void Add(uint8_t rank) {
    inverse_sum += kInversePow2[rank];
    zeros += rank == 0 ? 1 : 0;
  }

  double Estimate(uint32_t m) const {
    return EstimateFromRegisterSum(m, inverse_sum, zeros);
  }
};

}  // namespace streamlib::hll

#endif  // STREAMLIB_CORE_CARDINALITY_HLL_REGISTER_H_
