#include "core/frequency/count_min_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bitutil.h"
#include "common/check.h"
#include "common/serde.h"
#include "common/simd.h"

namespace streamlib {

CountMinSketch::CountMinSketch(uint32_t width, uint32_t depth,
                               bool conservative)
    : width_(0), mask_(0), depth_(depth), conservative_(conservative) {
  STREAMLIB_CHECK_MSG(width >= 1, "width must be >= 1");
  STREAMLIB_CHECK_MSG(depth >= 1 && depth <= 64, "depth must be in [1, 64]");
  STREAMLIB_CHECK_MSG(width <= (1u << 31), "width must be <= 2^31");
  width_ = static_cast<uint32_t>(NextPowerOfTwo(width));
  mask_ = width_ - 1;
  table_.assign(static_cast<size_t>(width_) * depth_, 0);
}

CountMinSketch CountMinSketch::WithErrorBound(double eps, double delta,
                                              bool conservative) {
  STREAMLIB_CHECK_MSG(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
  STREAMLIB_CHECK_MSG(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  const uint32_t width =
      static_cast<uint32_t>(std::ceil(std::exp(1.0) / eps));
  const uint32_t depth = static_cast<uint32_t>(std::ceil(std::log(1.0 / delta)));
  return CountMinSketch(width, std::max<uint32_t>(1, depth), conservative);
}

void CountMinSketch::AddHash(uint64_t hash, uint64_t count) {
  total_count_ += count;
  const uint64_t h2 = KmStepHash(hash, kKmSalt);
  if (!conservative_) {
    for (uint32_t row = 0; row < depth_; row++) {
      Cell(row, ColumnOf(hash, h2, row)) += count;
    }
    return;
  }
  // Conservative update: raise each counter only as far as the post-update
  // point estimate requires.
  uint64_t current = EstimateHash(hash);
  const uint64_t target = current + count;
  for (uint32_t row = 0; row < depth_; row++) {
    uint64_t& cell = Cell(row, ColumnOf(hash, h2, row));
    cell = std::max(cell, target);
  }
}

uint64_t CountMinSketch::EstimateHash(uint64_t hash) const {
  const uint64_t h2 = KmStepHash(hash, kKmSalt);
  uint64_t estimate = std::numeric_limits<uint64_t>::max();
  for (uint32_t row = 0; row < depth_; row++) {
    estimate = std::min(estimate, Cell(row, ColumnOf(hash, h2, row)));
  }
  return estimate;
}

void CountMinSketch::AddHashBatch(std::span<const uint64_t> hashes,
                                  uint64_t count) {
  if (conservative_) {
    // Conservative updates are order-dependent (an in-batch duplicate must
    // see the estimate raised by its predecessor): scalar path per key.
    for (uint64_t hash : hashes) AddHash(hash, count);
    return;
  }
  uint64_t h2s[kBatchChunk];
  for (size_t done = 0; done < hashes.size(); done += kBatchChunk) {
    const size_t n = std::min(kBatchChunk, hashes.size() - done);
    const uint64_t* h1s = hashes.data() + done;
    // One vectorized h2 derivation feeds every row of the chunk.
    KmStepHashBatch(h1s, n, kKmSalt, h2s);
    // Row-major sweep: all chunk increments for row r land in one width_
    // region before moving on. Addition commutes, so reordering per-key
    // work across rows leaves the final counters bit-identical to the
    // scalar order. Prefetch only pays when a row overflows L2 — on a
    // cache-resident row the extra address computation just steals issue
    // slots from the increments.
    const bool stream_row =
        static_cast<size_t>(width_) * sizeof(uint64_t) > (size_t{256} << 10);
    for (uint32_t row = 0; row < depth_; row++) {
      uint64_t* base = table_.data() + static_cast<size_t>(row) * width_;
      if (stream_row) {
        constexpr size_t kAhead = 8;
        const size_t lead = std::min(kAhead, n);
        for (size_t i = 0; i < lead; i++) {
          simd::PrefetchRead(base + ColumnOf(h1s[i], h2s[i], row));
        }
        for (size_t i = 0; i < n; i++) {
          if (i + kAhead < n) {
            simd::PrefetchRead(
                base + ColumnOf(h1s[i + kAhead], h2s[i + kAhead], row));
          }
          base[ColumnOf(h1s[i], h2s[i], row)] += count;
        }
      } else {
        for (size_t i = 0; i < n; i++) {
          base[ColumnOf(h1s[i], h2s[i], row)] += count;
        }
      }
    }
    total_count_ += count * n;
  }
}

Status CountMinSketch::Merge(const CountMinSketch& other) {
  if (other.width_ != width_ || other.depth_ != depth_) {
    return Status::InvalidArgument("CMS merge: geometry mismatch");
  }
  for (size_t i = 0; i < table_.size(); i++) table_[i] += other.table_[i];
  total_count_ += other.total_count_;
  return Status::OK();
}

Result<uint64_t> CountMinSketch::InnerProduct(
    const CountMinSketch& other) const {
  if (other.width_ != width_ || other.depth_ != depth_) {
    return Status::InvalidArgument("CMS inner product: geometry mismatch");
  }
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (uint32_t row = 0; row < depth_; row++) {
    uint64_t dot = 0;
    for (uint64_t col = 0; col < width_; col++) {
      dot += Cell(row, col) * other.Cell(row, col);
    }
    best = std::min(best, dot);
  }
  return best;
}

void CountMinSketch::SerializeTo(ByteWriter& w) const {
  w.PutU32(width_);
  w.PutU32(depth_);
  w.PutU8(conservative_ ? 1 : 0);
  w.PutU64(total_count_);
  for (uint64_t cell : table_) w.PutVarint(cell);
}

Result<CountMinSketch> CountMinSketch::Deserialize(ByteReader& r) {
  uint32_t width;
  uint32_t depth;
  uint8_t conservative;
  uint64_t total;
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&width));
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&depth));
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&conservative));
  STREAMLIB_RETURN_NOT_OK(r.GetU64(&total));
  if (width < 1 || depth < 1 || depth > 64) {
    return Status::Corruption("CMS: geometry out of range");
  }
  // v2 only ever writes power-of-two widths; anything else is corruption.
  if (!IsPowerOfTwo(width)) {
    return Status::Corruption("CMS: width not a power of two");
  }
  // Each cell is at least one varint byte: a corrupted geometry claiming
  // more cells than the payload could hold must be rejected *before*
  // allocating the table (a flipped width bit would otherwise trigger a
  // multi-gigabyte allocation).
  if (static_cast<uint64_t>(width) * depth > r.remaining()) {
    return Status::Corruption("CMS: geometry exceeds payload");
  }
  CountMinSketch sketch(width, depth, conservative != 0);
  sketch.total_count_ = total;
  for (uint64_t& cell : sketch.table_) {
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&cell));
  }
  return sketch;
}

std::vector<uint8_t> CountMinSketch::Serialize() const {
  ByteWriter w;
  SerializeTo(w);
  return w.TakeBytes();
}

Result<CountMinSketch> CountMinSketch::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  Result<CountMinSketch> sketch = Deserialize(r);
  STREAMLIB_RETURN_NOT_OK(sketch.status());
  if (!r.AtEnd()) return Status::Corruption("CMS: trailing bytes");
  return sketch;
}

double CountMinSketch::ErrorBound() const {
  return std::exp(1.0) / static_cast<double>(width_) *
         static_cast<double>(total_count_);
}

}  // namespace streamlib
