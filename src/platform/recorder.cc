#include "platform/recorder.h"

#include <cstdio>
#include <utility>
#include <variant>

#include "common/crc32.h"

namespace streamlib::platform {

namespace {

// Segment kinds (part of the persisted format — append only).
constexpr uint8_t kSegMeta = 1;
constexpr uint8_t kSegRecords = 2;
constexpr uint8_t kSegEnd = 3;

// Tuple field tags (part of the persisted format).
constexpr uint8_t kFieldNull = 0;
constexpr uint8_t kFieldBool = 1;
constexpr uint8_t kFieldInt = 2;
constexpr uint8_t kFieldDouble = 3;
constexpr uint8_t kFieldString = 4;

// Records segments flush once the framed buffer passes this size.
constexpr size_t kSegmentFlushBytes = 256 * 1024;

// Backstop for a filesystem slower than the spouts: the handoff queue
// holds at most this many pending segments (~16 MiB) before emit
// threads block on the writer, trading throughput for bounded memory.
constexpr size_t kMaxPendingSegments = 64;

// Recycled segment buffers kept beyond this count are freed instead —
// caps idle memory at ~2 MiB while still absorbing flush bursts.
constexpr size_t kMaxSpareBuffers = 8;

void EncodeConfig(ByteWriter& w, const EngineConfig& c) {
  w.PutU8(static_cast<uint8_t>(c.mode));
  w.PutU8(static_cast<uint8_t>(c.semantics));
  w.PutVarint(c.queue_capacity);
  w.PutVarint(c.multiplexed_threads);
  w.PutVarint(c.max_spout_pending);
  w.PutU64(c.seed);
  w.PutVarint(c.latency_sample_every);
  w.PutDouble(c.ack_timeout_seconds);
  w.PutVarint(c.emit_batch_size);
  w.PutVarint(c.execute_batch_size);
  w.PutU8(c.enable_spsc ? 1 : 0);
  w.PutVarint(c.telemetry_sample_interval_ms);
  w.PutVarint(c.trace_sample_every);
  const FaultSpec& f = c.faults;
  w.PutU64(f.seed);
  w.PutDouble(f.drop_tuple_prob);
  w.PutDouble(f.duplicate_tuple_prob);
  w.PutDouble(f.delay_delivery_prob);
  w.PutVarint(f.delay_max_micros);
  w.PutDouble(f.bolt_throw_prob);
  w.PutDouble(f.task_crash_prob);
  w.PutVarint(f.max_task_crashes);
  w.PutDouble(f.queue_stall_prob);
  w.PutVarint(f.queue_stall_micros);
  w.PutDouble(f.acker_loss_prob);
  w.PutU8(c.enable_fusion ? 1 : 0);
}

Status DecodeConfig(ByteReader& r, EngineConfig* out) {
  uint8_t mode = 0;
  uint8_t semantics = 0;
  uint8_t enable_spsc = 0;
  uint64_t v = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&mode));
  if (mode > static_cast<uint8_t>(ExecutionMode::kMultiplexed)) {
    return Status::Corruption("recording: invalid execution mode");
  }
  out->mode = static_cast<ExecutionMode>(mode);
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&semantics));
  if (semantics > static_cast<uint8_t>(DeliverySemantics::kAtLeastOnce)) {
    return Status::Corruption("recording: invalid delivery semantics");
  }
  out->semantics = static_cast<DeliverySemantics>(semantics);
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  out->queue_capacity = v;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  out->multiplexed_threads = static_cast<uint32_t>(v);
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  out->max_spout_pending = v;
  STREAMLIB_RETURN_NOT_OK(r.GetU64(&out->seed));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  out->latency_sample_every = static_cast<uint32_t>(v);
  STREAMLIB_RETURN_NOT_OK(r.GetDouble(&out->ack_timeout_seconds));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  out->emit_batch_size = v;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  out->execute_batch_size = v;
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&enable_spsc));
  out->enable_spsc = enable_spsc != 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  out->telemetry_sample_interval_ms = static_cast<uint32_t>(v);
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  out->trace_sample_every = static_cast<uint32_t>(v);
  FaultSpec& f = out->faults;
  STREAMLIB_RETURN_NOT_OK(r.GetU64(&f.seed));
  STREAMLIB_RETURN_NOT_OK(r.GetDouble(&f.drop_tuple_prob));
  STREAMLIB_RETURN_NOT_OK(r.GetDouble(&f.duplicate_tuple_prob));
  STREAMLIB_RETURN_NOT_OK(r.GetDouble(&f.delay_delivery_prob));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  f.delay_max_micros = static_cast<uint32_t>(v);
  STREAMLIB_RETURN_NOT_OK(r.GetDouble(&f.bolt_throw_prob));
  STREAMLIB_RETURN_NOT_OK(r.GetDouble(&f.task_crash_prob));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  f.max_task_crashes = static_cast<uint32_t>(v);
  STREAMLIB_RETURN_NOT_OK(r.GetDouble(&f.queue_stall_prob));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&v));
  f.queue_stall_micros = static_cast<uint32_t>(v);
  STREAMLIB_RETURN_NOT_OK(r.GetDouble(&f.acker_loss_prob));
  uint8_t enable_fusion = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&enable_fusion));
  out->enable_fusion = enable_fusion != 0;
  return Status::OK();
}

void EncodeFingerprint(ByteWriter& w, const TopologyFingerprint& fp) {
  w.PutVarint(fp.components.size());
  for (const auto& c : fp.components) {
    w.PutString(c.name);
    w.PutU8(c.is_spout ? 1 : 0);
    w.PutVarint(c.parallelism);
    w.PutVarint(c.inputs.size());
    for (const auto& in : c.inputs) {
      w.PutString(in.source);
      w.PutU8(in.grouping_kind);
      w.PutVarint(in.field_index);
    }
  }
}

Status DecodeFingerprint(ByteReader& r, TopologyFingerprint* out) {
  uint64_t num_components = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_components));
  if (num_components > r.remaining()) {
    return Status::Corruption("recording: component count exceeds segment");
  }
  out->components.clear();
  out->components.reserve(num_components);
  for (uint64_t i = 0; i < num_components; ++i) {
    TopologyFingerprint::Component c;
    uint8_t is_spout = 0;
    uint64_t parallelism = 0;
    uint64_t num_inputs = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetString(&c.name));
    STREAMLIB_RETURN_NOT_OK(r.GetU8(&is_spout));
    c.is_spout = is_spout != 0;
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&parallelism));
    c.parallelism = static_cast<uint32_t>(parallelism);
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_inputs));
    if (num_inputs > r.remaining()) {
      return Status::Corruption("recording: input count exceeds segment");
    }
    c.inputs.reserve(num_inputs);
    for (uint64_t j = 0; j < num_inputs; ++j) {
      TopologyFingerprint::Input in;
      STREAMLIB_RETURN_NOT_OK(r.GetString(&in.source));
      STREAMLIB_RETURN_NOT_OK(r.GetU8(&in.grouping_kind));
      if (in.grouping_kind > static_cast<uint8_t>(GroupingKind::kBroadcast)) {
        return Status::Corruption("recording: invalid grouping kind");
      }
      STREAMLIB_RETURN_NOT_OK(r.GetVarint(&in.field_index));
      c.inputs.push_back(std::move(in));
    }
    out->components.push_back(std::move(c));
  }
  return Status::OK();
}

void EncodeSummary(ByteWriter& w, bool has_summary, const RunSummary& s) {
  w.PutU8(has_summary ? 1 : 0);
  if (!has_summary) return;
  w.PutVarint(s.completed_roots);
  w.PutVarint(s.failed_roots);
  for (uint64_t by_kind : s.faults_by_kind) w.PutVarint(by_kind);
  w.PutVarint(s.tasks.size());
  for (const auto& t : s.tasks) {
    w.PutVarint(t.emitted);
    w.PutVarint(t.executed);
    w.PutVarint(t.acked);
    w.PutVarint(t.failed);
    w.PutVarint(t.bolt_exceptions);
  }
}

Status DecodeSummary(ByteReader& r, bool* has_summary, RunSummary* out) {
  uint8_t flag = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetU8(&flag));
  *has_summary = flag != 0;
  if (!*has_summary) return Status::OK();
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&out->completed_roots));
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&out->failed_roots));
  for (size_t k = 0; k < kNumFaultKinds; ++k) {
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&out->faults_by_kind[k]));
  }
  uint64_t num_tasks = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_tasks));
  if (num_tasks > r.remaining()) {
    return Status::Corruption("recording: task count exceeds segment");
  }
  out->tasks.clear();
  out->tasks.reserve(num_tasks);
  for (uint64_t i = 0; i < num_tasks; ++i) {
    RunSummary::TaskCounters t;
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&t.emitted));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&t.executed));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&t.acked));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&t.failed));
    STREAMLIB_RETURN_NOT_OK(r.GetVarint(&t.bolt_exceptions));
    out->tasks.push_back(t);
  }
  return Status::OK();
}

}  // namespace

void EncodeTuple(ByteWriter& w, const Tuple& tuple) {
  w.PutVarint(tuple.size());
  for (const Value& v : tuple.values()) {
    if (std::holds_alternative<std::monostate>(v)) {
      w.PutU8(kFieldNull);
    } else if (const bool* b = std::get_if<bool>(&v)) {
      w.PutU8(kFieldBool);
      w.PutU8(*b ? 1 : 0);
    } else if (const int64_t* i = std::get_if<int64_t>(&v)) {
      w.PutU8(kFieldInt);
      w.PutVarintSigned(*i);
    } else if (const double* d = std::get_if<double>(&v)) {
      w.PutU8(kFieldDouble);
      w.PutDouble(*d);
    } else {
      w.PutU8(kFieldString);
      w.PutString(std::get<std::string>(v));
    }
  }
}

Status DecodeTuple(ByteReader& r, Tuple* out) {
  uint64_t num_fields = 0;
  STREAMLIB_RETURN_NOT_OK(r.GetVarint(&num_fields));
  if (num_fields > r.remaining()) {
    return Status::Corruption("recording: tuple field count exceeds segment");
  }
  std::vector<Value> values;
  values.reserve(num_fields);
  for (uint64_t i = 0; i < num_fields; ++i) {
    uint8_t tag = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetU8(&tag));
    switch (tag) {
      case kFieldNull:
        values.emplace_back(std::monostate{});
        break;
      case kFieldBool: {
        uint8_t b = 0;
        STREAMLIB_RETURN_NOT_OK(r.GetU8(&b));
        values.emplace_back(b != 0);
        break;
      }
      case kFieldInt: {
        int64_t v = 0;
        STREAMLIB_RETURN_NOT_OK(r.GetVarintSigned(&v));
        values.emplace_back(v);
        break;
      }
      case kFieldDouble: {
        double d = 0;
        STREAMLIB_RETURN_NOT_OK(r.GetDouble(&d));
        values.emplace_back(d);
        break;
      }
      case kFieldString: {
        std::string s;
        STREAMLIB_RETURN_NOT_OK(r.GetString(&s));
        values.emplace_back(std::move(s));
        break;
      }
      default:
        return Status::Corruption("recording: unknown tuple field tag");
    }
  }
  *out = Tuple(std::move(values));
  return Status::OK();
}

TopologyFingerprint FingerprintOf(const Topology& topology) {
  TopologyFingerprint fp;
  fp.components.reserve(topology.components().size());
  for (const ComponentSpec& spec : topology.components()) {
    TopologyFingerprint::Component c;
    c.name = spec.name;
    c.is_spout = spec.is_spout;
    c.parallelism = spec.parallelism;
    c.inputs.reserve(spec.inputs.size());
    for (const Subscription& sub : spec.inputs) {
      c.inputs.push_back(TopologyFingerprint::Input{
          sub.source, static_cast<uint8_t>(sub.grouping.kind),
          sub.grouping.field_index});
    }
    fp.components.push_back(std::move(c));
  }
  return fp;
}

Status MatchesTopology(const TopologyFingerprint& fingerprint,
                       const Topology& topology) {
  const TopologyFingerprint actual = FingerprintOf(topology);
  if (actual.components.size() != fingerprint.components.size()) {
    return Status::FailedPrecondition(
        "topology has " + std::to_string(actual.components.size()) +
        " components, recording expects " +
        std::to_string(fingerprint.components.size()));
  }
  for (size_t i = 0; i < actual.components.size(); ++i) {
    const auto& a = actual.components[i];
    const auto& e = fingerprint.components[i];
    if (a.name != e.name || a.is_spout != e.is_spout) {
      return Status::FailedPrecondition("component " + std::to_string(i) +
                                        " is '" + a.name +
                                        "', recording expects '" + e.name +
                                        "'");
    }
    if (a.parallelism != e.parallelism) {
      return Status::FailedPrecondition(
          "component '" + a.name + "' has parallelism " +
          std::to_string(a.parallelism) + ", recording expects " +
          std::to_string(e.parallelism));
    }
    if (a.inputs.size() != e.inputs.size()) {
      return Status::FailedPrecondition("component '" + a.name +
                                        "' subscription list differs from "
                                        "recording");
    }
    for (size_t j = 0; j < a.inputs.size(); ++j) {
      if (a.inputs[j].source != e.inputs[j].source ||
          a.inputs[j].grouping_kind != e.inputs[j].grouping_kind ||
          a.inputs[j].field_index != e.inputs[j].field_index) {
        return Status::FailedPrecondition(
            "component '" + a.name + "' input " + std::to_string(j) +
            " differs from recording");
      }
    }
  }
  return Status::OK();
}

// ----------------------------------------------------------- RunRecorder

// Cache-line aligned so adjacent shards (small heap allocations) never
// share a line — each shard's bytes are written by exactly one thread.
struct alignas(64) RunRecorder::Shard {
  ByteWriter buffer;
  uint64_t buffered_records = 0;
  // Total appended via this shard. Written only by the shard's owner
  // thread (plain load+store, never an RMW — interlocked ops measurably
  // dominated the emit path on virtualized hosts); readers see a
  // monotone value.
  std::atomic<uint64_t> records{0};
};

RunRecorder::RunRecorder(std::string path, std::FILE* file)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp"), file_(file) {}

Result<std::unique_ptr<RunRecorder>> RunRecorder::Create(
    std::string path, const EngineConfig& config, const Topology& topology) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + tmp + "' for writing");
  }
  std::unique_ptr<RunRecorder> recorder(
      new RunRecorder(std::move(path), f));
  // One shard per global task index (separately heap-allocated, so
  // concurrent spout tasks never share a buffer cache line). Bolt
  // indices get shards too — wasteful only in principle; they are one
  // empty ByteWriter each and the indexing stays a plain subscript.
  size_t total_tasks = 0;
  for (const auto& component : topology.components()) {
    total_tasks += component.parallelism;
  }
  recorder->shards_.reserve(total_tasks);
  for (size_t i = 0; i < total_tasks; i++) {
    auto shard = std::make_unique<Shard>();
    // Pre-size to the flush threshold (+ slack for the record that tips
    // it over) so the hot path never reallocates mid-run.
    shard->buffer.Reserve(kSegmentFlushBytes + 4096);
    recorder->shards_.push_back(std::move(shard));
  }
  // Header, then the meta segment — written up front so even a recording
  // interrupted by a crash identifies its run (from the .tmp file).
  ByteWriter header;
  header.PutU32(kRecordingMagic);
  header.PutU32(kRecordingVersion);
  const std::vector<uint8_t> header_bytes = header.TakeBytes();
  if (std::fwrite(header_bytes.data(), 1, header_bytes.size(), f) !=
      header_bytes.size()) {
    std::fclose(f);
    recorder->file_ = nullptr;
    recorder->failed_.store(true, std::memory_order_relaxed);
    std::remove(tmp.c_str());
    return Status::Internal("short write to '" + tmp + "'");
  }
  recorder->bytes_written_.fetch_add(header_bytes.size(),
                                     std::memory_order_relaxed);
  ByteWriter meta;
  EncodeConfig(meta, config);
  EncodeFingerprint(meta, FingerprintOf(topology));
  recorder->WriteSegment(kSegMeta, meta.TakeBytes());
  if (recorder->failed()) {
    return Status::Internal("cannot write recording meta segment to '" + tmp +
                            "'");
  }
  // The writer thread owns all records-segment I/O from here on; it is
  // joined by Finalize() before the end segment is written.
  RunRecorder* raw = recorder.get();
  recorder->writer_ = std::thread([raw] { raw->WriterLoop(); });
  return recorder;
}

RunRecorder::~RunRecorder() {
  // Best-effort: an unfinalized recorder still leaves no torn file at the
  // target path (only the .tmp), matching the checkpoint-store discipline.
  (void)Finalize();
}

void RunRecorder::WriteSegment(uint8_t kind,
                               const std::vector<uint8_t>& payload) {
  if (file_ == nullptr || failed_.load(std::memory_order_relaxed)) return;
  ByteWriter frame;
  frame.Reserve(9 + payload.size());
  frame.PutU8(kind);
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload.data(), payload.size()));
  frame.PutBytes(payload.data(), payload.size());
  const std::vector<uint8_t>& bytes = frame.bytes();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    failed_.store(true, std::memory_order_relaxed);
    if (first_error_.ok()) {
      first_error_ = Status::Internal("short write to '" + tmp_path_ + "'");
    }
    return;
  }
  bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
}

void RunRecorder::RecordEmission(uint32_t spout_task, const Tuple& tuple) {
  // Lock-free single-writer hot path: the tuple is encoded directly into
  // the task's shard buffer — no scratch copy, no mutex, and no
  // interlocked op (see the thread-safety contract in the class doc; the
  // engine's one-thread-per-spout-task lifecycle provides it).
  if (spout_task >= shards_.size() ||
      closed_.load(std::memory_order_relaxed) ||
      failed_.load(std::memory_order_relaxed)) {
    dropped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = *shards_[spout_task];
  shard.buffer.PutVarint(spout_task);
  EncodeTuple(shard.buffer, tuple);
  ++shard.buffered_records;
  shard.records.store(shard.records.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  if (shard.buffer.size() < kSegmentFlushBytes) return;

  // Full shard: hand the buffer to the writer thread (a swap and a
  // queue push) and keep emitting into a recycled one. Doing the frame
  // copy, CRC, and fwrite here instead measurably cost ~10% end-to-end
  // throughput on the word-count bench — nearly the recorder's entire
  // overhead — because the emit thread stalls for the full 256 KiB
  // burst every ~36k records.
  ByteWriter full = std::move(shard.buffer);
  const uint64_t count = shard.buffered_records;
  shard.buffered_records = 0;
  EnqueueSegment(std::move(full), count, &shard.buffer);
}

void RunRecorder::EnqueueSegment(ByteWriter&& records, uint64_t count,
                                 ByteWriter* refill) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_space_cv_.wait(
      lock, [this] { return queue_.size() < kMaxPendingSegments; });
  queue_.push_back(PendingSegment{std::move(records), count});
  if (refill != nullptr) {
    if (!spares_.empty()) {
      *refill = std::move(spares_.back());
      spares_.pop_back();
    } else {
      // No spare yet (writer still draining): reserve a fresh buffer.
      // Steady state recycles, so this is rare past warm-up.
      *refill = ByteWriter();
      refill->Reserve(kSegmentFlushBytes + 4096);
    }
  }
  lock.unlock();
  queue_ready_cv_.notify_one();
}

void RunRecorder::WriterLoop() {
  for (;;) {
    PendingSegment seg;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_ready_cv_.wait(
          lock, [this] { return writer_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // writer_stop_ and fully drained.
      seg = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      std::lock_guard<std::mutex> io(io_mu_);
      WriteRecordsSegment(seg.records, seg.count);
    }
    // Recycle the drained buffer: Clear() keeps its capacity, so the
    // next flush reuses warm pages instead of paying an mmap/munmap
    // pair plus a page fault per rewritten line.
    seg.records.Clear();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (spares_.size() < kMaxSpareBuffers) {
        spares_.push_back(std::move(seg.records));
      }
    }
    queue_space_cv_.notify_one();
  }
}

uint64_t RunRecorder::records_written() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->records.load(std::memory_order_relaxed);
  }
  return total;
}

void RunRecorder::WriteRecordsSegment(const ByteWriter& records,
                                      uint64_t count) {
  if (count == 0) return;
  if (file_ == nullptr || failed_.load(std::memory_order_relaxed)) return;
  // Frame in place: the payload is (varint count ++ record span), but
  // only the tiny count prefix is materialized — the 256 KiB record span
  // is checksummed where it sits and handed straight to fwrite. The
  // obvious build-the-payload-then-WriteSegment path moves every
  // recorded byte through two more buffers, which is pure CPU this
  // machine could have spent running the topology.
  ByteWriter prefix;
  prefix.PutVarint(count);
  uint32_t crc = Crc32(prefix.bytes().data(), prefix.size());
  crc = Crc32(records.bytes().data(), records.size(), crc);
  ByteWriter head;
  head.Reserve(9 + prefix.size());
  head.PutU8(kSegRecords);
  head.PutU32(static_cast<uint32_t>(prefix.size() + records.size()));
  head.PutU32(crc);
  head.PutBytes(prefix.bytes().data(), prefix.size());
  const std::vector<uint8_t>& head_bytes = head.bytes();
  if (std::fwrite(head_bytes.data(), 1, head_bytes.size(), file_) !=
          head_bytes.size() ||
      std::fwrite(records.bytes().data(), 1, records.size(), file_) !=
          records.size()) {
    failed_.store(true, std::memory_order_relaxed);
    if (first_error_.ok()) {
      first_error_ = Status::Internal("short write to '" + tmp_path_ + "'");
    }
    return;
  }
  bytes_written_.fetch_add(head_bytes.size() + records.size(),
                           std::memory_order_relaxed);
}

void RunRecorder::SetSummary(const RunSummary& summary) {
  std::lock_guard<std::mutex> lock(mu_);
  summary_ = summary;
  has_summary_ = true;
}

Status RunRecorder::Finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) {
    std::lock_guard<std::mutex> io(io_mu_);
    return first_error_;
  }
  finalized_ = true;
  // Close the recorder first (a buggy late emit drops instead of
  // vanishing into a drained shard), then push every shard's remainder
  // through the writer queue — FIFO, so each remainder lands after all
  // of its shard's earlier segments — and join the writer before the
  // end segment. The emit threads are quiescent here per the
  // thread-safety contract, so the shards can be read directly.
  closed_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    if (shard->buffered_records == 0) continue;
    ByteWriter full = std::move(shard->buffer);
    const uint64_t count = shard->buffered_records;
    shard->buffered_records = 0;
    EnqueueSegment(std::move(full), count, nullptr);
  }
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> q(queue_mu_);
      writer_stop_ = true;
    }
    queue_ready_cv_.notify_all();
    writer_.join();
  }
  std::lock_guard<std::mutex> io(io_mu_);
  ByteWriter end;
  end.PutU64(records_written());
  EncodeSummary(end, has_summary_, summary_);
  WriteSegment(kSegEnd, end.TakeBytes());
  bool flushed = true;
  if (file_ != nullptr) {
    flushed = std::fflush(file_) == 0;
    std::fclose(file_);
    file_ = nullptr;
  }
  if (failed_.load(std::memory_order_relaxed) || !flushed) {
    std::remove(tmp_path_.c_str());
    if (first_error_.ok()) {
      first_error_ = Status::Internal("short write to '" + tmp_path_ + "'");
    }
    failed_.store(true, std::memory_order_relaxed);
    return first_error_;
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    failed_.store(true, std::memory_order_relaxed);
    first_error_ = Status::Internal("cannot rename '" + tmp_path_ + "' to '" +
                                    path_ + "'");
    return first_error_;
  }
  return Status::OK();
}

// ----------------------------------------------------------- ReadRecording

Result<RecordedRun> ReadRecording(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no recording file at '" + path + "'");
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[16384];
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
  if (magic != kRecordingMagic) {
    return Status::Corruption("'" + path + "' is not a recording file");
  }
  STREAMLIB_RETURN_NOT_OK(r.GetU32(&version));
  if (version != kRecordingVersion) {
    return Status::InvalidArgument("unsupported recording version " +
                                   std::to_string(version));
  }

  RecordedRun run;
  bool saw_meta = false;
  bool saw_end = false;
  uint64_t declared_records = 0;
  while (!r.AtEnd()) {
    if (saw_end) {
      return Status::Corruption("recording: bytes after end segment");
    }
    uint8_t kind = 0;
    uint32_t len = 0;
    uint32_t crc = 0;
    STREAMLIB_RETURN_NOT_OK(r.GetU8(&kind));
    STREAMLIB_RETURN_NOT_OK(r.GetU32(&len));
    STREAMLIB_RETURN_NOT_OK(r.GetU32(&crc));
    if (len > r.remaining()) {
      return Status::Corruption("recording: truncated segment");
    }
    std::vector<uint8_t> payload(len);
    STREAMLIB_RETURN_NOT_OK(r.GetBytes(payload.data(), len));
    if (Crc32(payload.data(), payload.size()) != crc) {
      return Status::Corruption("recording: segment CRC mismatch");
    }
    ByteReader pr(payload);
    switch (kind) {
      case kSegMeta: {
        if (saw_meta) {
          return Status::Corruption("recording: duplicate meta segment");
        }
        saw_meta = true;
        STREAMLIB_RETURN_NOT_OK(DecodeConfig(pr, &run.config));
        STREAMLIB_RETURN_NOT_OK(DecodeFingerprint(pr, &run.fingerprint));
        if (!pr.AtEnd()) {
          return Status::Corruption("recording: trailing bytes in meta");
        }
        break;
      }
      case kSegRecords: {
        if (!saw_meta) {
          return Status::Corruption("recording: records before meta segment");
        }
        uint64_t count = 0;
        STREAMLIB_RETURN_NOT_OK(pr.GetVarint(&count));
        if (count > pr.remaining()) {
          return Status::Corruption("recording: record count exceeds segment");
        }
        run.emissions.reserve(run.emissions.size() + count);
        for (uint64_t i = 0; i < count; ++i) {
          RecordedEmission e;
          uint64_t task = 0;
          STREAMLIB_RETURN_NOT_OK(pr.GetVarint(&task));
          e.spout_task = static_cast<uint32_t>(task);
          STREAMLIB_RETURN_NOT_OK(DecodeTuple(pr, &e.tuple));
          run.emissions.push_back(std::move(e));
        }
        if (!pr.AtEnd()) {
          return Status::Corruption(
              "recording: trailing bytes in records segment");
        }
        break;
      }
      case kSegEnd: {
        if (!saw_meta) {
          return Status::Corruption("recording: end before meta segment");
        }
        saw_end = true;
        STREAMLIB_RETURN_NOT_OK(pr.GetU64(&declared_records));
        STREAMLIB_RETURN_NOT_OK(
            DecodeSummary(pr, &run.has_summary, &run.summary));
        if (!pr.AtEnd()) {
          return Status::Corruption("recording: trailing bytes in end");
        }
        break;
      }
      default:
        return Status::Corruption("recording: unknown segment kind");
    }
  }
  if (!saw_meta) {
    return Status::Corruption("recording: missing meta segment");
  }
  if (!saw_end) {
    return Status::Corruption("recording: missing end segment (torn file)");
  }
  if (declared_records != run.emissions.size()) {
    return Status::Corruption("recording: record count mismatch");
  }
  return run;
}

}  // namespace streamlib::platform
