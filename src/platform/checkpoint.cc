#include "platform/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>

namespace streamlib::platform {

namespace {

/// File magic ("SLCK") + format version; a reader seeing anything else
/// knows immediately it is not looking at a checkpoint file.
constexpr uint32_t kCheckpointMagic = 0x534c434bu;
constexpr uint32_t kCheckpointVersion = 1;

/// Smallest a serialized producer can be: u64 id, u64 watermark, 1-byte
/// varint count.
constexpr size_t kMinProducerBytes = 2 * sizeof(uint64_t) + 1;

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) n++;
  return n;
}

// Ids travel as one bulk copy of the in-memory run, which is the wire's
// little-endian u64 layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "DedupLedger bulk id copy assumes a little-endian host");

void PutIds(ByteWriter& w, const uint64_t* ids, size_t count) {
  if (count != 0) w.PutBytes(ids, count * sizeof(uint64_t));
}

}  // namespace

Status KvCheckpointStore::SaveToFile(const std::string& path) const {
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU32(kCheckpointVersion);
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.PutVarint(entries_.size());
    for (const auto& [key, entry] : entries_) {
      w.PutString(key);
      w.PutU64(entry.version);
      w.PutVarint(entry.state.size());
      w.PutBytes(entry.state.data(), entry.state.size());
    }
  }
  const std::vector<uint8_t> bytes = w.TakeBytes();
  // Write-then-rename: the file under `path` is always either the old
  // complete checkpoint or the new complete checkpoint, never a torn mix.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + tmp + "' for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

Status KvCheckpointStore::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint file at '" + path + "'");
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("read error on '" + path + "'");
  }

  ByteReader r(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&magic));
  if (magic != kCheckpointMagic) {
    return Status::Corruption("'" + path + "' is not a checkpoint file");
  }
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&version));
  if (version != kCheckpointVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  uint64_t count = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&count));
  // Decode into a staging map so a torn file (Corruption below) leaves the
  // live store untouched.
  std::unordered_map<std::string, Entry> staged;
  staged.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    std::string key;
    Entry entry;
    uint64_t state_len = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetString(&key));
    STREAMLIB_RETURN_NOT_OK(r.GetU64(&entry.version));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&state_len));
    if (state_len > bytes.size()) {
      // A length longer than the whole file is garbage; reject before
      // resize so a torn file can't make us allocate gigabytes.
      return Status::Corruption("checkpoint state length exceeds file size");
    }
    entry.state.resize(state_len);
    STREAMLIB_RETURN_NOT_OK(r.GetBytes(entry.state.data(), state_len));
    staged[std::move(key)] = std::move(entry);
  }
  if (!r.AtEnd()) {
    return Status::Corruption("checkpoint file has trailing bytes");
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(staged);
  return Status::OK();
}

void DedupLedger::State::Absorb() {
  for (;;) {
    if (head < ids.size() && ids[head] == watermark) {
      head++;
    } else if (!parked.empty() && *parked.begin() == watermark) {
      parked.erase(parked.begin());
    } else {
      break;
    }
    watermark++;
  }
  if (head == ids.size()) {
    ids.clear();
    head = 0;
  } else if (head > ids.size() / 2) {
    ids.erase(ids.begin(), ids.begin() + static_cast<ptrdiff_t>(head));
    head = 0;
  }
}

bool DedupLedger::State::RecordOutOfOrder(uint64_t sequence) {
  if (std::binary_search(ids.begin() + static_cast<ptrdiff_t>(head),
                         ids.end(), sequence)) {
    return false;
  }
  if (!parked.insert(sequence).second) return false;
  // Fold once the side run matches the flat run: each fold costs
  // O(retained) but follows as many O(log) inserts, so replays stay
  // amortized O(log) and the side run never outgrows the flat one.
  if (parked.size() >= live()) {
    ids = Merged();
    head = 0;
    parked.clear();
  }
  return true;
}

std::vector<uint64_t> DedupLedger::State::Merged() const {
  std::vector<uint64_t> merged;
  merged.reserve(size());
  std::merge(ids.begin() + static_cast<ptrdiff_t>(head), ids.end(),
             parked.begin(), parked.end(), std::back_inserter(merged));
  return merged;
}

void DedupLedger::SerializeTo(ByteWriter& w) const {
  w.PutVarint(producers_.size());
  for (const auto& [producer, state] : producers_) {
    w.PutU64(producer);
    w.PutU64(state.watermark);
    w.PutVarint(state.size());
    if (state.parked.empty()) {
      PutIds(w, state.ids.data() + state.head, state.live());
    } else {
      const std::vector<uint64_t> merged = state.Merged();
      PutIds(w, merged.data(), merged.size());
    }
  }
}

std::vector<uint8_t> DedupLedger::Serialize() const {
  ByteWriter w;
  w.Reserve(SerializedSize());
  SerializeTo(w);
  return w.TakeBytes();
}

size_t DedupLedger::SerializedSize() const {
  size_t total = VarintSize(producers_.size());
  for (const auto& [producer, state] : producers_) {
    total += 2 * sizeof(uint64_t) + VarintSize(state.size()) +
             state.size() * sizeof(uint64_t);
  }
  return total;
}

Result<DedupLedger> DedupLedger::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  uint64_t num_producers = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_producers));
  if (num_producers > r.remaining() / kMinProducerBytes) {
    return Status::Corruption("DedupLedger: producer count exceeds its bytes");
  }
  DedupLedger ledger;
  for (uint64_t p = 0; p < num_producers; p++) {
    uint64_t producer = 0;
    uint64_t watermark = 0;
    uint64_t count = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetU64(&producer));
    STREAMLIB_RETURN_NOT_OK(r.GetU64(&watermark));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&count));
    if (count > r.remaining() / sizeof(uint64_t)) {
      return Status::Corruption("DedupLedger: id count exceeds its bytes");
    }
    auto [it, inserted] = ledger.producers_.try_emplace(producer);
    if (!inserted) return Status::Corruption("DedupLedger: duplicate producer");
    State& state = it->second;
    state.watermark = watermark;
    state.ids.resize(count);
    if (count != 0) {
      STREAMLIB_RETURN_NOT_OK(
          r.GetBytes(state.ids.data(), count * sizeof(uint64_t)));
    }
    // Canonical form, whatever order the writer listed the ids in.
    std::vector<uint64_t>& ids = state.ids;
    if (!std::is_sorted(ids.begin(), ids.end())) {
      std::sort(ids.begin(), ids.end());
    }
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ids.erase(ids.begin(), std::lower_bound(ids.begin(), ids.end(), watermark));
    state.Absorb();
  }
  if (!r.AtEnd()) return Status::Corruption("DedupLedger: trailing bytes");
  return ledger;
}

}  // namespace streamlib::platform
