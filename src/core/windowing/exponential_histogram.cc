#include "core/windowing/exponential_histogram.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "common/bitutil.h"

namespace streamlib {

ExponentialHistogram::ExponentialHistogram(uint64_t window, uint32_t k)
    : window_(window), k_(k) {
  STREAMLIB_CHECK_MSG(window >= 1, "window must be >= 1");
  STREAMLIB_CHECK_MSG(k >= 1, "k must be >= 1");
}

void ExponentialHistogram::Add(bool bit) {
  position_++;
  ExpireOld();
  if (!bit) return;
  buckets_.push_back(Bucket{position_, 1, position_});
  total_ += 1;
  MergeOverflow();
}

void ExponentialHistogram::ExpireOld() {
  // A bucket expires when its newest 1 falls outside the window.
  while (!buckets_.empty() &&
         buckets_.front().newest_position + window_ <= position_) {
    total_ -= buckets_.front().size;
    buckets_.pop_front();
  }
}

void ExponentialHistogram::MergeOverflow() {
  // Walk size classes from the newest end; when a class has k+2 buckets,
  // merge its two oldest into one bucket of twice the size (which may
  // cascade into the next class).
  uint64_t size = 1;
  size_t end = buckets_.size();  // Exclusive end of the current class scan.
  while (true) {
    // Count buckets of `size` scanning backward from `end`.
    size_t count = 0;
    size_t i = end;
    while (i > 0 && buckets_[i - 1].size == size) {
      count++;
      i--;
    }
    if (count < k_ + 2) break;
    // Merge the two oldest of this class: positions i and i+1.
    buckets_[i] = Combine(buckets_[i], buckets_[i + 1]);
    buckets_.erase(buckets_.begin() + static_cast<long>(i) + 1);
    end = i + 1;  // The merged bucket belongs to the next class.
    size *= 2;
  }
}

ExponentialHistogram::Bucket ExponentialHistogram::Combine(
    const Bucket& older, const Bucket& newer) {
  // After a merge the two spans may interleave, so take both extremes.
  return Bucket{std::max(older.newest_position, newer.newest_position),
                older.size * 2,
                std::min(older.oldest_position, newer.oldest_position)};
}

// A single stream's buckets cover disjoint ranges, so only the oldest can
// straddle the window start; merged shards interleave, so Estimate and
// LowerBound check every bucket.
uint64_t ExponentialHistogram::Estimate() const {
  // All of every bucket inside the window, plus half of each straddler.
  uint64_t estimate = total_;
  for (const Bucket& b : buckets_) {
    if (Straddles(b)) estimate -= b.size / 2;
  }
  return estimate;
}

uint64_t ExponentialHistogram::LowerBound() const {
  uint64_t bound = total_;
  for (const Bucket& b : buckets_) {
    if (Straddles(b)) bound -= b.size - 1;
  }
  return bound;
}

void ExponentialHistogram::Canonicalize() {
  // Re-establish the <= k+1 buckets-per-size-class invariant after a merge,
  // which may have left any class over-full. Classes are processed smallest
  // first so merges cascade upward, exactly like MergeOverflow.
  std::map<uint64_t, std::vector<Bucket>> classes;  // size -> oldest-first.
  for (const Bucket& b : buckets_) classes[b.size].push_back(b);
  for (auto it = classes.begin(); it != classes.end(); ++it) {
    std::vector<Bucket>& vec = it->second;
    while (vec.size() >= k_ + 2) {
      const Bucket merged = Combine(vec[0], vec[1]);
      vec.erase(vec.begin(), vec.begin() + 2);
      std::vector<Bucket>& up = classes[it->first * 2];
      up.insert(std::upper_bound(up.begin(), up.end(), merged,
                                 [](const Bucket& a, const Bucket& b) {
                                   return a.newest_position <
                                          b.newest_position;
                                 }),
                merged);
    }
  }
  std::vector<Bucket> all;
  all.reserve(buckets_.size());
  for (const auto& [size, vec] : classes) {
    all.insert(all.end(), vec.begin(), vec.end());
  }
  std::sort(all.begin(), all.end(), [](const Bucket& a, const Bucket& b) {
    return a.newest_position < b.newest_position;
  });
  buckets_.assign(all.begin(), all.end());
}

Status ExponentialHistogram::Merge(const ExponentialHistogram& other) {
  if (other.window_ != window_ || other.k_ != k_) {
    return Status::InvalidArgument("EH merge: parameter mismatch");
  }
  std::deque<Bucket> merged;
  std::merge(buckets_.begin(), buckets_.end(), other.buckets_.begin(),
             other.buckets_.end(), std::back_inserter(merged),
             [](const Bucket& a, const Bucket& b) {
               return a.newest_position < b.newest_position;
             });
  buckets_ = std::move(merged);
  position_ = std::max(position_, other.position_);
  total_ += other.total_;
  ExpireOld();
  Canonicalize();
  return Status::OK();
}

void ExponentialHistogram::SerializeTo(ByteWriter& w) const {
  w.PutVarint(window_);
  w.PutU32(k_);
  w.PutVarint(position_);
  w.PutVarint(buckets_.size());
  for (const Bucket& b : buckets_) {
    w.PutVarint(b.newest_position);
    w.PutVarint(b.size);
    w.PutVarint(b.newest_position - b.oldest_position);
  }
}

Result<ExponentialHistogram> ExponentialHistogram::Deserialize(
    ByteReader& r) {
  uint64_t window = 0;
  uint32_t k = 0;
  uint64_t position = 0;
  uint64_t num_buckets = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&window));
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&k));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&position));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_buckets));
  if (window < 1 || k < 1) {
    return Status::Corruption("EH: parameters out of range");
  }
  if (num_buckets * 3 > r.remaining()) {
    return Status::Corruption("EH: bucket count exceeds payload");
  }
  ExponentialHistogram hist(window, k);
  hist.position_ = position;
  uint64_t prev_position = 0;
  for (uint64_t i = 0; i < num_buckets; i++) {
    Bucket b{};
    uint64_t span = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&b.newest_position));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&b.size));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&span));
    if (b.size == 0 || !IsPowerOfTwo(b.size) ||
        span >= b.newest_position ||
        b.newest_position > position ||
        b.newest_position + window <= position ||
        (i > 0 && b.newest_position < prev_position)) {
      return Status::Corruption("EH: malformed bucket");
    }
    prev_position = b.newest_position;
    b.oldest_position = b.newest_position - span;
    hist.buckets_.push_back(b);
    hist.total_ += b.size;
  }
  return hist;
}

}  // namespace streamlib
