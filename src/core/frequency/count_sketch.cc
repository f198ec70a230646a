#include "core/frequency/count_sketch.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/check.h"

namespace streamlib {

CountSketch::CountSketch(uint32_t width, uint32_t depth)
    : width_(0), mask_(0), depth_(depth) {
  STREAMLIB_CHECK_MSG(width >= 1, "width must be >= 1");
  STREAMLIB_CHECK_MSG(depth >= 1 && depth <= 64, "depth must be in [1, 64]");
  STREAMLIB_CHECK_MSG(width <= (1u << 31), "width must be <= 2^31");
  width_ = static_cast<uint32_t>(NextPowerOfTwo(width));
  mask_ = width_ - 1;
  table_.assign(static_cast<size_t>(width_) * depth_, 0);
}

void CountSketch::AddHash(uint64_t hash, int64_t count) {
  const uint64_t h2 = KmStepHash(hash, kKmSalt);
  for (uint32_t row = 0; row < depth_; row++) {
    const uint64_t g = DoubleHash(hash, h2, row);
    const uint64_t col = (g >> 1) & mask_;
    const int64_t sign = (g & 1) != 0 ? 1 : -1;
    Cell(row, col) += sign * count;
  }
}

int64_t CountSketch::EstimateHash(uint64_t hash) const {
  const uint64_t h2 = KmStepHash(hash, kKmSalt);
  std::vector<int64_t> row_estimates;
  row_estimates.reserve(depth_);
  for (uint32_t row = 0; row < depth_; row++) {
    const uint64_t g = DoubleHash(hash, h2, row);
    const uint64_t col = (g >> 1) & mask_;
    const int64_t sign = (g & 1) != 0 ? 1 : -1;
    row_estimates.push_back(sign * Cell(row, col));
  }
  std::nth_element(row_estimates.begin(),
                   row_estimates.begin() + row_estimates.size() / 2,
                   row_estimates.end());
  return row_estimates[row_estimates.size() / 2];
}

double CountSketch::EstimateF2() const {
  std::vector<double> row_f2;
  row_f2.reserve(depth_);
  for (uint32_t row = 0; row < depth_; row++) {
    double sum = 0.0;
    for (uint64_t col = 0; col < width_; col++) {
      const double c = static_cast<double>(Cell(row, col));
      sum += c * c;
    }
    row_f2.push_back(sum);
  }
  std::nth_element(row_f2.begin(), row_f2.begin() + row_f2.size() / 2,
                   row_f2.end());
  return row_f2[row_f2.size() / 2];
}

Status CountSketch::Merge(const CountSketch& other) {
  if (other.width_ != width_ || other.depth_ != depth_) {
    return Status::InvalidArgument("CountSketch merge: geometry mismatch");
  }
  for (size_t i = 0; i < table_.size(); i++) table_[i] += other.table_[i];
  return Status::OK();
}

void CountSketch::SerializeTo(ByteWriter& w) const {
  w.PutU32(width_);
  w.PutU32(depth_);
  for (int64_t cell : table_) w.PutVarintSigned(cell);
}

Result<CountSketch> CountSketch::Deserialize(ByteReader& r) {
  uint32_t width = 0;
  uint32_t depth = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&width));
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&depth));
  if (width < 1 || depth < 1 || depth > 64) {
    return Status::Corruption("CountSketch: geometry out of range");
  }
  // v2 only ever writes power-of-two widths; anything else is corruption.
  if (!IsPowerOfTwo(width)) {
    return Status::Corruption("CountSketch: width not a power of two");
  }
  // One varint byte minimum per cell: reject impossible geometry before
  // allocating the table.
  if (static_cast<uint64_t>(width) * depth > r.remaining()) {
    return Status::Corruption("CountSketch: geometry exceeds payload");
  }
  CountSketch sketch(width, depth);
  for (int64_t& cell : sketch.table_) {
    STREAMLIB_RETURN_NOT_OK(r.GetVarintSigned(&cell));
  }
  return sketch;
}

}  // namespace streamlib
