#include "core/cardinality/sliding_hyperloglog.h"

#include <algorithm>

#include "common/check.h"
#include "core/cardinality/hll_register.h"

namespace streamlib {

SlidingHyperLogLog::SlidingHyperLogLog(int precision, uint64_t max_window)
    : precision_(precision), max_window_(max_window) {
  STREAMLIB_CHECK_MSG(precision >= 4 && precision <= 16,
                      "precision must be in [4, 16]");
  STREAMLIB_CHECK_MSG(max_window >= 1, "max_window must be >= 1");
  registers_.resize(size_t{1} << precision_);
}

void SlidingHyperLogLog::AddHash(uint64_t hash, uint64_t timestamp) {
  const hll::RegisterProbe probe = hll::ProbeHash(hash, precision_);

  std::deque<Entry>& lfpm = registers_[probe.index];
  // Expire entries older than the maximum horizon.
  while (!lfpm.empty() &&
         lfpm.front().timestamp + max_window_ <= timestamp) {
    lfpm.pop_front();
  }
  // Dominance pruning: an older entry with rank <= the new rank can never be
  // the max of any future window that still contains the new entry.
  while (!lfpm.empty() && lfpm.back().rank <= probe.rank) {
    lfpm.pop_back();
  }
  lfpm.push_back(Entry{timestamp, probe.rank});
}

double SlidingHyperLogLog::Estimate(uint64_t now, uint64_t window) const {
  STREAMLIB_CHECK_MSG(window >= 1 && window <= max_window_,
                      "window out of range");
  hll::RegisterSum sum;
  for (const auto& lfpm : registers_) {
    // Ranks within an LFPM are strictly decreasing in time, so the first
    // unexpired entry carries the window maximum. An entry is in the window
    // iff timestamp + window > now (avoids unsigned underflow of now-window).
    uint8_t best = 0;
    for (const Entry& e : lfpm) {
      if (e.timestamp + window > now) {
        best = e.rank;
        break;
      }
    }
    sum.Add(best);
  }
  return sum.Estimate(uint32_t{1} << precision_);
}

Status SlidingHyperLogLog::Merge(const SlidingHyperLogLog& other) {
  if (other.precision_ != precision_) {
    return Status::InvalidArgument("sliding HLL merge: precision mismatch");
  }
  if (other.max_window_ != max_window_) {
    return Status::InvalidArgument("sliding HLL merge: max_window mismatch");
  }
  // The merged stream's "now" is the newest timestamp on either side;
  // entries that have already aged past max_window relative to it can never
  // influence a future estimate.
  uint64_t latest = 0;
  for (const auto& reg : registers_) {
    if (!reg.empty()) latest = std::max(latest, reg.back().timestamp);
  }
  for (const auto& reg : other.registers_) {
    if (!reg.empty()) latest = std::max(latest, reg.back().timestamp);
  }
  for (size_t i = 0; i < registers_.size(); i++) {
    const std::deque<Entry>& a = registers_[i];
    const std::deque<Entry>& b = other.registers_[i];
    if (b.empty()) continue;
    // Interleave both LFPMs by timestamp, then re-apply dominance pruning —
    // exactly what replaying the combined arrival order would have built.
    std::vector<Entry> merged;
    merged.reserve(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(merged),
               [](const Entry& x, const Entry& y) {
                 return x.timestamp < y.timestamp;
               });
    std::deque<Entry> out;
    for (const Entry& e : merged) {
      if (e.timestamp + max_window_ <= latest) continue;  // Expired.
      while (!out.empty() && out.back().rank <= e.rank) out.pop_back();
      out.push_back(e);
    }
    registers_[i] = std::move(out);
  }
  return Status::OK();
}

void SlidingHyperLogLog::SerializeTo(ByteWriter& w) const {
  w.PutU8(static_cast<uint8_t>(precision_));
  w.PutU64(max_window_);
  for (const auto& lfpm : registers_) {
    w.PutVarint(lfpm.size());
    for (const Entry& e : lfpm) {
      w.PutVarint(e.timestamp);
      w.PutU8(e.rank);
    }
  }
}

Result<SlidingHyperLogLog> SlidingHyperLogLog::Deserialize(ByteReader& r) {
  uint8_t precision = 0;
  uint64_t max_window = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&precision));
  STREAMLIB_RETURN_NOT_OK(r.GetU64(&max_window));
  if (precision < 4 || precision > 16) {
    return Status::Corruption("sliding HLL: precision out of range");
  }
  if (max_window < 1) {
    return Status::Corruption("sliding HLL: max_window out of range");
  }
  SlidingHyperLogLog sketch(precision, max_window);
  for (auto& lfpm : sketch.registers_) {
    uint64_t count = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&count));
    // Two bytes minimum per serialized entry: a count the remaining payload
    // cannot possibly hold is corruption, caught before allocating.
    if (count * 2 > r.remaining()) {
      return Status::Corruption("sliding HLL: LFPM count exceeds payload");
    }
    uint64_t prev_timestamp = 0;
    uint8_t prev_rank = 255;
    for (uint64_t i = 0; i < count; i++) {
      uint64_t timestamp = 0;
      uint8_t rank = 0;
      STREAMLIB_RETURN_NOT_OK(r.GetVarint(&timestamp));
      STREAMLIB_RETURN_NOT_OK(r.GetU8(&rank));
      // LFPM invariant: timestamps nondecreasing, ranks strictly decreasing.
      if (rank == 0 || rank >= prev_rank ||
          (i > 0 && timestamp < prev_timestamp)) {
        return Status::Corruption("sliding HLL: LFPM invariant violated");
      }
      lfpm.push_back(Entry{timestamp, rank});
      prev_timestamp = timestamp;
      prev_rank = rank;
    }
  }
  return sketch;
}

size_t SlidingHyperLogLog::TotalEntries() const {
  size_t total = 0;
  for (const auto& lfpm : registers_) total += lfpm.size();
  return total;
}

size_t SlidingHyperLogLog::MemoryBytes() const {
  return TotalEntries() * sizeof(Entry) +
         registers_.size() * sizeof(std::deque<Entry>);
}

}  // namespace streamlib
