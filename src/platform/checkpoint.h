#ifndef STREAMLIB_PLATFORM_CHECKPOINT_H_
#define STREAMLIB_PLATFORM_CHECKPOINT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/serde.h"
#include "common/status.h"

namespace streamlib::platform {

/// Versioned key-value checkpoint store — the in-process stand-in for the
/// BigTable MillWheel checkpoints against (DESIGN.md §2). Writes are
/// versioned per key; a bolt restores the latest state after a (simulated)
/// crash. Thread-safe.
class KvCheckpointStore {
 public:
  KvCheckpointStore() = default;

  /// Stores a new version of `key`'s state; returns the version number.
  uint64_t Put(const std::string& key, std::vector<uint8_t> state) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[key];
    entry.version++;
    entry.state = std::move(state);
    return entry.version;
  }

  /// Latest state for `key` (nullopt if never checkpointed).
  std::optional<std::vector<uint8_t>> Get(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.state;
  }

  /// Status-typed restore lookup: NotFound (with the key in the message)
  /// when `key` was never checkpointed. Restore paths use this instead of
  /// Get so a component renamed between save and restore produces a clean
  /// diagnosable error rather than silently starting empty.
  Result<std::vector<uint8_t>> Fetch(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("no checkpoint for key '" + key + "'");
    }
    return it->second.state;
  }

  /// Latest version for `key` (0 if never checkpointed).
  uint64_t VersionOf(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    return it == entries_.end() ? 0 : it->second.version;
  }

  size_t NumKeys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Removes `key` (all versions); returns whether it existed. Rescaling
  /// uses this to retire epoch frames of task indices that no longer exist.
  bool Erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.erase(key) > 0;
  }

  /// Total Put() calls absorbed across all keys (the sum of per-key
  /// versions). The replay debugger's "on checkpoint K" breakpoint keys on
  /// this monotonic count.
  uint64_t TotalPuts() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& [key, entry] : entries_) total += entry.version;
    return total;
  }

  /// Durability across "process" restarts: writes every entry (key,
  /// version, state) to `path` atomically (temp file + rename), so a crash
  /// mid-save can never leave a half-written file under the real name. An
  /// empty store saves a valid file that restores to an empty store.
  Status SaveToFile(const std::string& path) const;

  /// Replaces this store's contents with the entries in `path`. Rejects
  /// torn/truncated/garbage files with Corruption (the store is left
  /// untouched on any error) and a missing file with NotFound.
  Status LoadFromFile(const std::string& path);

 private:
  struct Entry {
    uint64_t version = 0;
    std::vector<uint8_t> state;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

/// MillWheel-style duplicate suppression: the paper credits MillWheel with
/// "exactly once semantics by checkpointing state every time" — concretely,
/// each (producer, sequence) id is recorded alongside the state mutation so
/// a redelivered record (the at-least-once engine *will* redeliver after
/// failures) is recognized and dropped.
///
/// Memory and snapshot cost: each producer keeps a low-watermark (every id
/// below it was applied) and a flat ascending run of the applied ids above
/// it, 8 bytes per retained id. The watermark only helps a dense
/// per-producer sequence, where ids arrive near order and the run stays
/// short. A sparse subsequence never advances it — KeyGroupedSketchBolt
/// records every payload under producer 0 and each key group sees roughly
/// one id in kNumKeyGroups — so there every applied id is retained, and a
/// snapshot is O(retained): one bulk copy per producer.
///
/// Per id: the next id at the watermark advances it; an id above the
/// newest retained one is appended (the steady state of a key group); a
/// duplicate is found by binary search; an out-of-order new id (a replay)
/// is parked in a side run, O(log) per insert, folded into the flat run
/// once the side run is as large as it.
///
/// The serialized form is canonical — producers ascending, each producer's
/// ids ascending — so two ledgers holding the same ids write the same
/// bytes whatever order the ids arrived in.
///
/// Not internally synchronized: a ledger belongs to one bolt task, whose
/// Execute calls the engine already serializes.
class DedupLedger {
 public:
  DedupLedger() = default;

  /// Records `sequence` for `producer`; returns false if it was already
  /// processed (a duplicate the caller must drop).
  bool CheckAndRecord(uint64_t producer, uint64_t sequence) {
    State& state = producers_[producer];
    if (sequence < state.watermark) return false;
    if (sequence == state.watermark) {
      state.watermark++;
      if (state.size() != 0) state.Absorb();
      return true;
    }
    if (sequence > state.Newest()) {
      state.ids.push_back(sequence);
      return true;
    }
    return state.RecordOutOfOrder(sequence);
  }

  /// Ids retained above all watermarks (memory diagnostic).
  size_t RetainedIds() const {
    size_t total = 0;
    for (const auto& [producer, state] : producers_) total += state.size();
    return total;
  }

  /// Serialization for inclusion in checkpoints: varint producer count,
  /// then per producer u64 id, u64 watermark, varint id count and the ids
  /// as little-endian u64s.
  std::vector<uint8_t> Serialize() const;
  /// Appends the Serialize bytes to `w` (no framing, no temporary buffer).
  void SerializeTo(ByteWriter& w) const;
  /// Exact length of the Serialize bytes, for callers that length-prefix
  /// a SerializeTo in place.
  size_t SerializedSize() const;
  /// Accepts any id order (frames written by the former hash-set ledger
  /// list ids in hash order) and restores the canonical form: ids sorted
  /// and deduplicated, ids below the watermark dropped, the watermark
  /// advanced over a contiguous prefix. Counts larger than the remaining
  /// bytes allow are Corruption, checked before anything is allocated.
  static Result<DedupLedger> Deserialize(const std::vector<uint8_t>& bytes);

 private:
  struct State {
    uint64_t watermark = 0;     // Every id below it was applied.
    std::vector<uint64_t> ids;  // Ascending, > watermark; live from `head`.
    size_t head = 0;            // ids[0, head) were absorbed by the watermark.
    std::set<uint64_t> parked;  // Out-of-order ids, disjoint from `ids`.

    size_t live() const { return ids.size() - head; }
    size_t size() const { return live() + parked.size(); }
    /// Largest retained id (the watermark when none is).
    uint64_t Newest() const {
      const uint64_t newest = live() != 0 ? ids.back() : watermark;
      return parked.empty() ? newest : std::max(newest, *parked.rbegin());
    }
    /// Advances the watermark over retained ids equal to it, then drops
    /// the absorbed prefix of `ids` once it is half the vector.
    void Absorb();
    /// An id above the watermark and at most Newest(): a duplicate of a
    /// retained id (false) or an out-of-order new one, parked (true).
    bool RecordOutOfOrder(uint64_t sequence);
    /// Live `ids` and `parked` merged, ascending.
    std::vector<uint64_t> Merged() const;
  };

  std::map<uint64_t, State> producers_;  // Ordered: canonical bytes.
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_CHECKPOINT_H_
