#include "core/cardinality/hyperloglog.h"

#include <algorithm>
#include <bit>

#include "common/bitutil.h"
#include "common/check.h"
#include "common/serde.h"
#include "common/simd.h"
#include "core/cardinality/hll_register.h"

namespace streamlib {
HyperLogLog::HyperLogLog(int precision, bool sparse)
    : precision_(precision), sparse_(sparse) {
  STREAMLIB_CHECK_MSG(precision >= 4 && precision <= 18,
                      "precision must be in [4, 18]");
  if (!sparse_) registers_.assign(size_t{1} << precision_, 0);
}

double HyperLogLog::Alpha(uint32_t m) { return hll::Alpha(m); }

void HyperLogLog::AddHash(uint64_t hash) {
  if (sparse_) {
    // Exact hash set while small: sorted insert with dedup.
    auto it = std::lower_bound(sparse_hashes_.begin(), sparse_hashes_.end(),
                               hash);
    if (it == sparse_hashes_.end() || *it != hash) {
      sparse_hashes_.insert(it, hash);
    }
    if (sparse_hashes_.size() > SparseLimit()) Densify();
    return;
  }
  AddHashDense(hash);
}

void HyperLogLog::AddHashDense(uint64_t hash) {
  const hll::RegisterProbe probe = hll::ProbeHash(hash, precision_);
  if (probe.rank > registers_[probe.index]) {
    registers_[probe.index] = probe.rank;
  }
}

void HyperLogLog::AddHashBatch(std::span<const uint64_t> hashes) {
  size_t i = 0;
  // While sparse, replay the exact scalar sequence (sorted insert, dedup,
  // possibly a mid-batch densify flips sparse_ and drops to the dense loop).
  for (; i < hashes.size() && sparse_; i++) AddHash(hashes[i]);
  if (i >= hashes.size()) return;
  const int value_bits = 64 - precision_;
  uint8_t* regs = registers_.data();
#if STREAMLIB_SIMD_AVX2
  // Vectorized probe: index and rank for four digests at a time. rank =
  // value_bits - floor(log2 value) for value != 0 (else value_bits + 1),
  // with floor(log2) from the exact double-conversion exponent trick —
  // valid only while value fits a 52-bit mantissa, i.e. precision >= 12.
  // The register-max merge itself stays scalar (lane order == input order,
  // and max commutes anyway, so state is bit-identical to the scalar loop).
  if (value_bits <= 52) {
    const simd::U64x4 value_mask = simd::Set1((uint64_t{1} << value_bits) - 1);
    const simd::U64x4 vbits = simd::Set1(static_cast<uint64_t>(value_bits));
    const simd::U64x4 vbits1 =
        simd::Set1(static_cast<uint64_t>(value_bits) + 1);
    const simd::U64x4 zero = simd::Set1(0);
    alignas(32) uint64_t idx[simd::kLanes];
    alignas(32) uint64_t rnk[simd::kLanes];
    for (; i + simd::kLanes <= hashes.size(); i += simd::kLanes) {
      const simd::U64x4 h = simd::Load4(&hashes[i]);
      const simd::U64x4 value = simd::And(h, value_mask);
      const simd::U64x4 rank =
          simd::Select(simd::Sub64(vbits, simd::FloorLog2Below52(value)),
                       vbits1, simd::CmpEq64(value, zero));
      simd::Store4(idx, simd::ShiftRightVar(h, value_bits));
      simd::Store4(rnk, rank);
      for (size_t lane = 0; lane < simd::kLanes; lane++) {
        const uint8_t r = static_cast<uint8_t>(rnk[lane]);
        if (r > regs[idx[lane]]) regs[idx[lane]] = r;
      }
    }
  }
#endif
  // Dense scalar loop (full batch on the scalar backend or precision < 12;
  // the < kLanes tail otherwise). Register max commutes, so the streaming
  // loop is free to prefetch ahead without changing the final state.
  constexpr size_t kAhead = 8;
  for (; i < hashes.size(); i++) {
    if (i + kAhead < hashes.size()) {
      simd::PrefetchRead(regs + (hashes[i + kAhead] >> value_bits));
    }
    const hll::RegisterProbe probe = hll::ProbeHash(hashes[i], precision_);
    if (probe.rank > regs[probe.index]) regs[probe.index] = probe.rank;
  }
}

void HyperLogLog::AddBatch64(const uint64_t* keys, size_t n) {
  size_t i = 0;
  // While sparse, replay the exact scalar sequence (sorted insert, dedup,
  // possibly a mid-batch densify flips sparse_ and drops through).
  for (; i < n && sparse_; i++) AddHash(HashInt64(keys[i], kHashSeed));
  if (i >= n) return;
  const uint64_t offset = 0x9e3779b97f4a7c15ULL * (kHashSeed + 1);
  uint8_t* regs = registers_.data();
#if STREAMLIB_SIMD_AVX2
  const int value_bits = 64 - precision_;
  // Fused hash+probe, two 4-lane groups per iteration for ILP: the digest
  // never round-trips through a buffer, and the rank comes from the
  // double-conversion trick (exact while the value fits a 52-bit mantissa,
  // i.e. precision >= 12 — see AddHashBatch). The register-max merge stays
  // scalar in lane order, so state is bit-identical to the scalar loop.
  if (value_bits <= 52) {
    const simd::U64x4 voffset = simd::Set1(offset);
    const simd::U64x4 value_mask = simd::Set1((uint64_t{1} << value_bits) - 1);
    const simd::U64x4 vbits = simd::Set1(static_cast<uint64_t>(value_bits));
    const simd::U64x4 vbits1 =
        simd::Set1(static_cast<uint64_t>(value_bits) + 1);
    const simd::U64x4 zero = simd::Set1(0);
    alignas(32) uint64_t idx[2 * simd::kLanes];
    alignas(32) uint64_t rnk[2 * simd::kLanes];
    for (; i + 2 * simd::kLanes <= n; i += 2 * simd::kLanes) {
      const simd::U64x4 h0 =
          simd::Mix64x4(simd::Add64(simd::Load4(keys + i), voffset));
      const simd::U64x4 h1 = simd::Mix64x4(
          simd::Add64(simd::Load4(keys + i + simd::kLanes), voffset));
      const simd::U64x4 v0 = simd::And(h0, value_mask);
      const simd::U64x4 v1 = simd::And(h1, value_mask);
      simd::Store4(idx, simd::ShiftRightVar(h0, value_bits));
      simd::Store4(idx + simd::kLanes, simd::ShiftRightVar(h1, value_bits));
      simd::Store4(rnk, simd::Select(
                            simd::Sub64(vbits, simd::FloorLog2Below52(v0)),
                            vbits1, simd::CmpEq64(v0, zero)));
      simd::Store4(rnk + simd::kLanes,
                   simd::Select(
                       simd::Sub64(vbits, simd::FloorLog2Below52(v1)),
                       vbits1, simd::CmpEq64(v1, zero)));
      for (size_t lane = 0; lane < 2 * simd::kLanes; lane++) {
        const uint8_t r = static_cast<uint8_t>(rnk[lane]);
        if (r > regs[idx[lane]]) regs[idx[lane]] = r;
      }
    }
  }
#endif
  for (; i < n; i++) {
    const hll::RegisterProbe probe =
        hll::ProbeHash(Mix64(keys[i] + offset), precision_);
    if (probe.rank > regs[probe.index]) regs[probe.index] = probe.rank;
  }
}

void HyperLogLog::Densify() {
  registers_.assign(size_t{1} << precision_, 0);
  sparse_ = false;
  for (uint64_t h : sparse_hashes_) AddHashDense(h);
  sparse_hashes_.clear();
  sparse_hashes_.shrink_to_fit();
}

double HyperLogLog::Estimate() const {
  if (sparse_) {
    // The sparse set is exact up to 64-bit hash collisions (negligible).
    return static_cast<double>(sparse_hashes_.size());
  }
  return EstimateDense();
}

double HyperLogLog::EstimateDense() const {
  hll::RegisterSum sum;
  for (uint8_t r : registers_) sum.Add(r);
  return sum.Estimate(num_registers());
}

Status HyperLogLog::Merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) {
    return Status::InvalidArgument("HLL merge: precision mismatch");
  }
  // A union with itself changes nothing; return before the loops below
  // read what they write.
  if (&other == this) return Status::OK();
  if (other.sparse_) {
    for (uint64_t h : other.sparse_hashes_) AddHash(h);
    return Status::OK();
  }
  if (sparse_) Densify();
  // Hoisted pointers: indexing through the vectors on every iteration
  // keeps the byte stores from vectorizing.
  uint8_t* dst = registers_.data();
  const uint8_t* src = other.registers_.data();
  const size_t n = registers_.size();
  for (size_t i = 0; i < n; i++) dst[i] = std::max(dst[i], src[i]);
  return Status::OK();
}

size_t HyperLogLog::MemoryBytes() const {
  if (sparse_) return sparse_hashes_.size() * sizeof(uint64_t);
  return registers_.size();
}

void HyperLogLog::SerializeTo(ByteWriter& w) const {
  HyperLogLog dense = *this;
  if (dense.sparse_) dense.Densify();
  w.PutU8(static_cast<uint8_t>(dense.precision_));
  w.PutBytes(dense.registers_.data(), dense.registers_.size());
}

Result<HyperLogLog> HyperLogLog::Deserialize(ByteReader& r) {
  uint8_t precision = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&precision));
  if (precision < 4 || precision > 18) {
    return Status::Corruption("HLL: precision out of range");
  }
  HyperLogLog hll(precision, /*sparse=*/false);
  if (r.remaining() < hll.registers_.size()) {
    return Status::Corruption("HLL: register payload truncated");
  }
  STREAMLIB_RETURN_NOT_OK(
      r.GetBytes(hll.registers_.data(), hll.registers_.size()));
  return hll;
}

std::vector<uint8_t> HyperLogLog::Serialize() const {
  ByteWriter w;
  SerializeTo(w);
  return w.TakeBytes();
}

Result<HyperLogLog> HyperLogLog::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  Result<HyperLogLog> hll = Deserialize(r);
  STREAMLIB_RETURN_NOT_OK(hll.status());
  if (!r.AtEnd()) {
    return Status::Corruption("HLL: register payload size mismatch");
  }
  return hll;
}

}  // namespace streamlib
