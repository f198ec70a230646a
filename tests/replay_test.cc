// Record→replay verification suite for the flight recorder (recorder.h)
// and the time-travel replayer (replay.h): the SLFR tuple codec and file
// format round-trip, corruption edges resolve to typed Statuses, replay
// reproduces the recorded run bit-for-bit (counters and sketch state)
// across 100 fault-injected seeds — including a chaos crash-and-restore
// mid-recording — and the debugger surface (breakpoints, stepping, state
// inspection, divergence bisection) behaves as documented.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/crc32.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/state.h"
#include "common/status.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/checkpoint.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/fault.h"
#include "platform/plan.h"
#include "platform/recorder.h"
#include "platform/replay.h"
#include "platform/replayable_log.h"
#include "platform/stream_operators.h"
#include "platform/topology.h"
#include "test_seed.h"

namespace streamlib::platform {
namespace {

// Paths include the pid: ctest runs each discovered test as its own
// process, possibly in parallel, and they must not share scratch files.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "replay_test_" + std::to_string(::getpid()) +
         "_" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Deterministic (word, sequence) generator; `diverge_at` swaps in a
// sentinel word at one index to plant a known divergence between runs.
class WordGen {
 public:
  WordGen(uint64_t seed, uint64_t n, int64_t diverge_at = -1)
      : rng_(seed), n_(n), diverge_at_(diverge_at) {}

  std::optional<Tuple> Next() {
    if (i_ >= n_) return std::nullopt;
    const int64_t i = static_cast<int64_t>(i_++);
    std::string word = "w" + std::to_string(rng_.NextBounded(50));
    if (i == diverge_at_) word = "DIVERGENT";
    return Tuple::Of(std::move(word), i);
  }

 private:
  Rng rng_;
  uint64_t n_;
  uint64_t i_ = 0;
  int64_t diverge_at_;
};

// Shared side-state of one pipeline build. Factories capture the
// shared_ptrs, so the parts may go out of scope before the topology.
struct PipelineParts {
  std::shared_ptr<KvCheckpointStore> store =
      std::make_shared<KvCheckpointStore>();
  std::shared_ptr<std::vector<uint8_t>> merged =
      std::make_shared<std::vector<uint8_t>>();
};

// The contract-conformant pipeline every test here replays:
//   src x1 -> relay x1 (shuffle) -> cm x`cm_parallelism` (fields, sketch
//   checkpoints) -> merge x1 (global, captures the merged blob).
// Every run-phase bolt has exactly one producer task, as the replay
// determinism contract requires. With `log` set the spout replays the
// log (at-least-once redelivery included); otherwise it generates
// `n` words from `seed`. With `cm_source` "src", cm subscribes to the
// spout directly: the spout then has two arms and relay is a leaf.
Topology BuildPipeline(uint64_t seed, uint64_t n, PipelineParts* parts,
                       std::shared_ptr<ReplayableLog> log = nullptr,
                       int64_t diverge_at = -1, uint32_t cm_parallelism = 3,
                       uint64_t checkpoint_every = 48,
                       const char* cm_source = "relay") {
  TopologyBuilder builder;
  if (log != nullptr) {
    const uint64_t end = log->Size();
    builder.AddSpout("src", [log, end] {
      return std::make_unique<LogReplaySpout>(log.get(), 0, end);
    });
  } else {
    auto gen = std::make_shared<WordGen>(seed, n, diverge_at);
    builder.AddSpout("src", [gen] {
      return std::make_unique<GeneratorSpout>([gen] { return gen->Next(); });
    });
  }
  builder.AddBolt(
      "relay",
      [] {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& input, OutputCollector* out) { out->Emit(input); });
      },
      1, {{"src", Grouping::Shuffle()}});
  auto store = parts->store;
  builder.AddBolt(
      "cm",
      [store, checkpoint_every] {
        return std::make_unique<SketchBolt<CountMinSketch>>(
            CountMinSketch(512, 4),
            [](CountMinSketch& sketch, const Tuple& input) {
              sketch.Add(input.Str(0));
            },
            FieldKeyBatchUpdate<CountMinSketch>(0),
            SketchCheckpoint{store.get(), "cm", checkpoint_every});
      },
      cm_parallelism, {{cm_source, Grouping::Fields(0)}});
  auto merged = parts->merged;
  builder.AddBolt(
      "merge",
      [merged] {
        return std::make_unique<SketchCombinerBolt<CountMinSketch>>(
            CountMinSketch(512, 4),
            [merged](const CountMinSketch& sketch, OutputCollector*) {
              *merged = state::ToBlob(sketch);
            });
      },
      1, {{"cm", Grouping::Global()}});
  Result<Topology> topology = builder.Build();
  STREAMLIB_CHECK_MSG(topology.ok(), "pipeline build failed: %s",
                      topology.status().ToString().c_str());
  return std::move(topology).value();
}

// Records one live run of the pipeline to `path` and returns the parsed
// recording. The run's side effects (final checkpoints, merged blob)
// land in whatever PipelineParts the topology was built with; `plan`,
// when set, receives the live engine's compiled plan.
RecordedRun RecordRun(const std::string& path, EngineConfig config,
                      Topology topology, TopologyPlan* plan = nullptr) {
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, topology);
  STREAMLIB_CHECK_MSG(recorder.ok(), "recorder create failed: %s",
                      recorder.status().ToString().c_str());
  config.recorder = recorder.value().get();
  {
    TopologyEngine engine(std::move(topology), config);
    engine.Run();
    if (plan != nullptr) *plan = *engine.plan();
  }
  const Status finalized = recorder.value()->Finalize();
  STREAMLIB_CHECK_MSG(finalized.ok(), "finalize failed: %s",
                      finalized.ToString().c_str());
  Result<RecordedRun> run = ReadRecording(path);
  STREAMLIB_CHECK_MSG(run.ok(), "read recording failed: %s",
                      run.status().ToString().c_str());
  return std::move(run).value();
}

// ---------------------------------------------------------- tuple codec

TEST(TupleCodecTest, RoundTripsEveryFieldType) {
  const Tuple original(std::vector<Value>{
      Value{}, Value{true}, Value{false}, Value{int64_t{-42}},
      Value{int64_t{INT64_MIN}}, Value{int64_t{INT64_MAX}}, Value{3.25},
      Value{-0.0}, Value{std::string("hello world")}, Value{std::string()}});
  ByteWriter w;
  EncodeTuple(w, original);
  ByteReader r(w.bytes());
  Tuple decoded;
  const Status status = DecodeTuple(r, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.values(), original.values());
}

TEST(TupleCodecTest, RoundTripsEmptyTuple) {
  ByteWriter w;
  EncodeTuple(w, Tuple());
  ByteReader r(w.bytes());
  Tuple decoded;
  ASSERT_TRUE(DecodeTuple(r, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(TupleCodecTest, RejectsUnknownFieldTag) {
  ByteWriter w;
  w.PutVarint(1);  // one field
  w.PutU8(9);      // no such tag
  ByteReader r(w.bytes());
  Tuple decoded;
  EXPECT_EQ(DecodeTuple(r, &decoded).code(), StatusCode::kCorruption);
}

TEST(TupleCodecTest, RejectsTruncatedPayload) {
  ByteWriter w;
  EncodeTuple(w, Tuple::Of(std::string("abcdef"), int64_t{7}));
  std::vector<uint8_t> bytes = w.bytes();
  bytes.erase(bytes.end() - 3, bytes.end());
  ByteReader r(bytes);
  Tuple decoded;
  EXPECT_EQ(DecodeTuple(r, &decoded).code(), StatusCode::kCorruption);
}

// ------------------------------------------------------- file round-trip

TEST(RecorderFormatTest, RoundTripsConfigEmissionsAndSummary) {
  const std::string path = TempPath("roundtrip.slfr");
  PipelineParts parts;
  Topology topology = BuildPipeline(1, 4, &parts);

  EngineConfig config;
  config.mode = ExecutionMode::kMultiplexed;
  config.semantics = DeliverySemantics::kAtLeastOnce;
  config.queue_capacity = 77;
  config.seed = 424242;
  config.ack_timeout_seconds = 2.5;
  config.execute_batch_size = 9;
  // The fields right after execute_batch_size, where versions 1–3 carried
  // the enable_spsc byte: a leftover or missing byte would shift them.
  config.telemetry_sample_interval_ms = 7;
  config.trace_sample_every = 5;
  config.faults.seed = 99;
  config.faults.drop_tuple_prob = 0.125;
  config.faults.max_task_crashes = 3;
  config.enable_fusion = true;  // Version 3's trailing config byte.

  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, topology);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  recorder.value()->RecordEmission(0, Tuple::Of(std::string("alpha"),
                                                int64_t{1}));
  recorder.value()->RecordEmission(0, Tuple::Of(std::string("beta"),
                                                int64_t{2}));
  RunSummary summary;
  summary.completed_roots = 2;
  summary.faults_by_kind[static_cast<size_t>(FaultKind::kDropTuple)] = 5;
  summary.tasks.resize(6);
  summary.tasks[0].emitted = 2;
  recorder.value()->SetSummary(summary);
  ASSERT_TRUE(recorder.value()->Finalize().ok());
  EXPECT_EQ(recorder.value()->records_written(), 2u);

  Result<RecordedRun> run = ReadRecording(path);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const RecordedRun& r = run.value();
  EXPECT_EQ(r.config.mode, ExecutionMode::kMultiplexed);
  EXPECT_EQ(r.config.semantics, DeliverySemantics::kAtLeastOnce);
  EXPECT_EQ(r.config.queue_capacity, 77u);
  EXPECT_EQ(r.config.seed, 424242u);
  EXPECT_EQ(r.config.ack_timeout_seconds, 2.5);
  EXPECT_EQ(r.config.execute_batch_size, 9u);
  EXPECT_EQ(r.config.telemetry_sample_interval_ms, 7u);
  EXPECT_EQ(r.config.trace_sample_every, 5u);
  EXPECT_EQ(r.config.faults.seed, 99u);
  EXPECT_EQ(r.config.faults.drop_tuple_prob, 0.125);
  EXPECT_EQ(r.config.faults.max_task_crashes, 3u);
  EXPECT_TRUE(r.config.enable_fusion);
  EXPECT_EQ(r.config.recorder, nullptr);

  ASSERT_EQ(r.emissions.size(), 2u);
  EXPECT_EQ(r.emissions[0].spout_task, 0u);
  EXPECT_EQ(r.emissions[0].tuple.Str(0), "alpha");
  EXPECT_EQ(r.emissions[1].tuple.Int(1), 2);

  ASSERT_TRUE(r.has_summary);
  EXPECT_EQ(r.summary.completed_roots, 2u);
  EXPECT_EQ(
      r.summary.faults_by_kind[static_cast<size_t>(FaultKind::kDropTuple)],
      5u);
  ASSERT_EQ(r.summary.tasks.size(), 6u);
  EXPECT_EQ(r.summary.tasks[0].emitted, 2u);

  EXPECT_TRUE(MatchesTopology(r.fingerprint, topology).ok());
  PipelineParts other_parts;
  const Topology narrower =
      BuildPipeline(1, 4, &other_parts, nullptr, -1, /*cm_parallelism=*/2);
  EXPECT_EQ(MatchesTopology(r.fingerprint, narrower).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(RecorderFormatTest, TargetAppearsOnlyOnFinalize) {
  const std::string path = TempPath("atomic.slfr");
  std::remove(path.c_str());
  PipelineParts parts;
  EngineConfig config;
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, BuildPipeline(1, 4, &parts));
  ASSERT_TRUE(recorder.ok());
  recorder.value()->RecordEmission(0, Tuple::Of(int64_t{1}));
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".tmp"));
  ASSERT_TRUE(recorder.value()->Finalize().ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_TRUE(recorder.value()->Finalize().ok());  // Idempotent.
  std::remove(path.c_str());
}

// ------------------------------------------------------ corruption edges

class RecordingCorruptionTest : public ::testing::Test {
 protected:
  // One pristine recording all mutation cases start from.
  void SetUp() override {
    path_ = TempPath("corrupt.slfr");
    PipelineParts parts;
    EngineConfig config;
    Result<std::unique_ptr<RunRecorder>> recorder =
        RunRecorder::Create(path_, config, BuildPipeline(1, 4, &parts));
    ASSERT_TRUE(recorder.ok());
    recorder.value()->RecordEmission(0, Tuple::Of(std::string("alpha"),
                                                  int64_t{1}));
    recorder.value()->RecordEmission(0, Tuple::Of(std::string("beta"),
                                                  int64_t{2}));
    ASSERT_TRUE(recorder.value()->Finalize().ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 40u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  StatusCode ReadCodeAfter(const std::vector<uint8_t>& mutated) {
    WriteFileBytes(path_, mutated);
    return ReadRecording(path_).status().code();
  }

  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(RecordingCorruptionTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadRecording(TempPath("nonexistent.slfr")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RecordingCorruptionTest, ZeroLengthFileIsCorruption) {
  EXPECT_EQ(ReadCodeAfter({}), StatusCode::kCorruption);
}

TEST_F(RecordingCorruptionTest, BadMagicIsCorruption) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[0] ^= 0xff;
  EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kCorruption);
}

TEST_F(RecordingCorruptionTest, UnsupportedVersionIsInvalidArgument) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[4] = 99;  // Version field follows the u32 magic.
  EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kInvalidArgument);
}

// Rebuilds the fixture as a genuine older-version file: `version` in the
// header and the meta config carrying the fields version 4 dropped — the
// emit_batch_size varint after ack_timeout_seconds and the enable_spsc
// byte after execute_batch_size — followed by `after_spsc` (version 1's
// bolt-batch flag byte). Segment length and CRC are recomputed, so the
// reader must refuse the file by version before decoding a field, instead
// of reading every later field a few bytes off.
std::vector<uint8_t> OlderLayout(const std::vector<uint8_t>& bytes,
                                 uint32_t version,
                                 const std::vector<uint8_t>& after_spsc) {
  ByteReader header(bytes);
  uint32_t magic = 0;
  uint32_t current = 0;
  uint8_t kind = 0;
  uint32_t meta_len = 0;
  uint32_t meta_crc = 0;
  EXPECT_TRUE(header.GetU32(&magic).ok());
  EXPECT_TRUE(header.GetU32(&current).ok());
  EXPECT_EQ(current, kRecordingVersion);
  EXPECT_TRUE(header.GetU8(&kind).ok());
  EXPECT_TRUE(header.GetU32(&meta_len).ok());
  EXPECT_TRUE(header.GetU32(&meta_crc).ok());
  const size_t meta_start = bytes.size() - header.remaining();
  EXPECT_LE(meta_start + meta_len, bytes.size());
  std::vector<uint8_t> meta(bytes.begin() + meta_start,
                            bytes.begin() + meta_start + meta_len);

  // Walk the config prefix up to and including execute_batch_size.
  ByteReader config(meta);
  uint8_t u8 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  EXPECT_TRUE(config.GetU8(&u8).ok());        // mode
  EXPECT_TRUE(config.GetU8(&u8).ok());        // semantics
  EXPECT_TRUE(config.GetVarint(&u64).ok());   // queue_capacity
  EXPECT_TRUE(config.GetVarint(&u64).ok());   // multiplexed_threads
  EXPECT_TRUE(config.GetVarint(&u64).ok());   // max_spout_pending
  EXPECT_TRUE(config.GetU64(&u64).ok());      // seed
  EXPECT_TRUE(config.GetVarint(&u64).ok());   // latency_sample_every
  EXPECT_TRUE(config.GetDouble(&f64).ok());   // ack_timeout_seconds
  const size_t emit_batch_at = meta.size() - config.remaining();
  EXPECT_TRUE(config.GetVarint(&u64).ok());   // execute_batch_size
  std::vector<uint8_t> spsc_and_after = {uint8_t{1}};  // enable_spsc
  spsc_and_after.insert(spsc_and_after.end(), after_spsc.begin(),
                        after_spsc.end());
  meta.insert(meta.begin() + static_cast<long>(meta.size() -
                                               config.remaining()),
              spsc_and_after.begin(), spsc_and_after.end());
  meta.insert(meta.begin() + static_cast<long>(emit_batch_at),
              uint8_t{32});  // emit_batch_size, one varint byte

  ByteWriter old;
  old.PutU32(magic);
  old.PutU32(version);
  old.PutU8(kind);
  old.PutU32(static_cast<uint32_t>(meta.size()));
  old.PutU32(Crc32(meta.data(), meta.size()));
  old.PutBytes(meta.data(), meta.size());
  old.PutBytes(bytes.data() + meta_start + meta_len,
               bytes.size() - meta_start - meta_len);
  std::vector<uint8_t> out = old.TakeBytes();
  EXPECT_EQ(out.size(), bytes.size() + 2 + after_spsc.size());
  return out;
}

TEST_F(RecordingCorruptionTest, PreviousVersionIsInvalidArgument) {
  EXPECT_EQ(ReadCodeAfter(OlderLayout(bytes_, 1, {uint8_t{1}})),
            StatusCode::kInvalidArgument);
}

TEST_F(RecordingCorruptionTest, Version3FileIsRejected) {
  WriteFileBytes(path_, OlderLayout(bytes_, 3, {}));
  const Status status = ReadRecording(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("unsupported recording version 3"),
            std::string::npos)
      << status.ToString();
}

TEST_F(RecordingCorruptionTest, TruncatedSegmentIsCorruption) {
  // Chop from several depths: mid end-segment, mid records payload, and
  // right after the file header (no meta segment at all).
  for (const size_t keep :
       {bytes_.size() - 5, bytes_.size() / 2, size_t{8}, size_t{9}}) {
    std::vector<uint8_t> mutated(bytes_.begin(),
                                 bytes_.begin() + static_cast<long>(keep));
    EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kCorruption)
        << "kept " << keep << " of " << bytes_.size() << " bytes";
  }
}

TEST_F(RecordingCorruptionTest, CrcMismatchIsCorruption) {
  // Flip one payload byte in the meta segment (header is 8 bytes, the
  // segment frame is 9, so offset 20 sits inside the meta payload).
  std::vector<uint8_t> mutated = bytes_;
  mutated[20] ^= 0x01;
  EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kCorruption);
}

TEST_F(RecordingCorruptionTest, TrailingGarbageIsCorruption) {
  std::vector<uint8_t> mutated = bytes_;
  mutated.insert(mutated.end(), {0xde, 0xad, 0xbe, 0xef});
  EXPECT_EQ(ReadCodeAfter(mutated), StatusCode::kCorruption);
}

// ------------------------------------------------- record/replay torture

EngineConfig TortureConfig(uint64_t seed, uint64_t k) {
  EngineConfig config;
  config.seed = seed;
  config.mode = (k % 4 < 2) ? ExecutionMode::kDedicated
                            : ExecutionMode::kMultiplexed;
  config.multiplexed_threads = 2;
  config.semantics = (k % 2 == 0) ? DeliverySemantics::kAtLeastOnce
                                  : DeliverySemantics::kAtMostOnce;
  // Far above the microseconds a 160-tuple tree needs, so only
  // structurally unresolvable (fault-hit) trees time out — the contract's
  // requirement — while failed roots still resolve quickly.
  config.ack_timeout_seconds = 0.1;
  config.telemetry_sample_interval_ms = 0;
  // One-message pops: the contract requires them only with task_crash
  // armed, and this config arms bolt_throw alone.
  config.execute_batch_size = 1;
  config.faults.seed = seed ^ 0xfau;
  config.faults.drop_tuple_prob = 0.02;
  config.faults.duplicate_tuple_prob = 0.02;
  config.faults.delay_delivery_prob = 0.01;
  config.faults.delay_max_micros = 20;
  config.faults.bolt_throw_prob = 0.01;
  if (k % 3 == 0) {
    config.faults.queue_stall_prob = 0.02;
    config.faults.queue_stall_micros = 30;
  }
  // Half the dedicated seeds fuse (the multiplexed pool never does): the
  // src->relay and 1->3 fields relay->cm edges then run inline, live and
  // replayed alike.
  config.enable_fusion = k % 8 < 2;
  return config;
}

// The tentpole acceptance: across 100 seeds spanning both execution
// modes, both delivery semantics, generator and log-replay spouts, and a
// live fault mix (drops/dups/delays/throws/stalls), replaying the
// recording reproduces the recorded run exactly — every per-task counter,
// every per-kind fault count, and every sketch's state blob, byte for
// byte.
TEST(RecordReplayTortureTest, HundredSeedsReplayBitIdentical) {
  const uint64_t base = TestSeed();
  const uint64_t n = 160;
  for (uint64_t k = 0; k < 100; k++) {
    SCOPED_TRACE("seed index " + std::to_string(k));
    const uint64_t seed = base ^ (k * 0x9e3779b9u + 1);
    const std::string path = TempPath("torture.slfr");

    // Every tenth run replays a prefilled log through LogReplaySpout,
    // exercising at-least-once redelivery emissions in the recording.
    // Only on at-least-once seeds (k even): the log spout blocks on acks
    // for its pending roots, which at-most-once mode never delivers.
    std::shared_ptr<ReplayableLog> log;
    if (k % 10 == 0) {
      log = std::make_shared<ReplayableLog>();
      WordGen gen(seed, n);
      while (std::optional<Tuple> tuple = gen.Next()) {
        log->Append(*std::move(tuple));
      }
    }

    const EngineConfig config = TortureConfig(seed, k);
    PipelineParts live;
    const RecordedRun run =
        RecordRun(path, config, BuildPipeline(seed, n, &live, log));
    ASSERT_TRUE(run.has_summary);
    ASSERT_FALSE(run.summary.tasks.empty());
    EXPECT_EQ(run.emissions.size(), run.summary.tasks[0].emitted);

    PipelineParts replayed;
    ReplayEngine replay(BuildPipeline(seed, n, &replayed, log), run);
    const Status prepared = replay.Prepare();
    ASSERT_TRUE(prepared.ok()) << prepared.ToString();
    EXPECT_EQ(replay.Run(), ReplayStop::kEnd);

    const Status verdict = replay.CompareWithRecorded();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();

    // Sketch state, not just counters: the merged result and every
    // shard's final blob must match the live run's bytes.
    EXPECT_FALSE(live.merged->empty());
    EXPECT_EQ(*live.merged, *replayed.merged);
    for (uint32_t shard = 0; shard < 3; shard++) {
      Result<std::vector<uint8_t>> blob = replay.BoltStateBlob("cm", shard);
      ASSERT_TRUE(blob.ok()) << blob.status().ToString();
      Result<std::vector<uint8_t>> live_blob =
          live.store->Fetch("cm:" + std::to_string(shard));
      ASSERT_TRUE(live_blob.ok()) << live_blob.status().ToString();
      EXPECT_EQ(blob.value(), live_blob.value());
    }
    std::remove(path.c_str());
  }
}

// Chaos crash-and-restore mid-recording: a bolt task crashes (fault
// budget > 0), restarts from its factory, and restores its sketch from
// the checkpoint store — and the replay, maintaining its own store at the
// same cadence, walks through the identical crash/restore and still
// reproduces counters and state exactly.
TEST(RecordReplayChaosTest, CrashAndRestoreMidRecordingReplaysIdentically) {
  const uint64_t n = 400;
  bool crash_covered = false;
  for (uint64_t attempt = 0; attempt < 8 && !crash_covered; attempt++) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    const uint64_t seed = TestSeed() ^ (0xc0ffee + attempt * 1315423911ull);
    const std::string path = TempPath("chaos.slfr");

    EngineConfig config;
    config.seed = seed;
    config.semantics = DeliverySemantics::kAtLeastOnce;
    config.ack_timeout_seconds = 0.15;
    config.telemetry_sample_interval_ms = 0;
    // task_crash is armed: the contract then demands one-message pops (a
    // crash kills the rest of the popped input, whose size is timing).
    config.execute_batch_size = 1;
    config.faults.seed = seed ^ 0x5eedu;
    // The crash budget must never bind: an exhausted budget is allocated
    // to concurrently-firing sites in wall-clock order, which a
    // sequential replay cannot reproduce (the contract's condition on
    // task_crash). ~4 crash draws fire over these 400 tuples.
    config.faults.task_crash_prob = 0.005;
    config.faults.max_task_crashes = 64;
    config.faults.bolt_throw_prob = 0.005;
    config.faults.drop_tuple_prob = 0.01;
    config.faults.acker_loss_prob = 0.005;

    PipelineParts live;
    const RecordedRun run =
        RecordRun(path, config,
                  BuildPipeline(seed, n, &live, nullptr, -1, 3,
                                /*checkpoint_every=*/32));
    ASSERT_TRUE(run.has_summary);
    const uint64_t crashes =
        run.summary.faults_by_kind[static_cast<size_t>(FaultKind::kTaskCrash)];
    if (crashes == 0) {
      std::remove(path.c_str());
      continue;  // This seed never crashed; try the next.
    }
    crash_covered = true;

    PipelineParts replayed;
    ReplayEngine replay(
        BuildPipeline(seed, n, &replayed, nullptr, -1, 3, 32), run);
    ASSERT_TRUE(replay.Prepare().ok());
    EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
    const Status verdict = replay.CompareWithRecorded();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    EXPECT_EQ(*live.merged, *replayed.merged);
    for (uint32_t shard = 0; shard < 3; shard++) {
      Result<std::vector<uint8_t>> blob = replay.BoltStateBlob("cm", shard);
      ASSERT_TRUE(blob.ok());
      Result<std::vector<uint8_t>> live_blob =
          live.store->Fetch("cm:" + std::to_string(shard));
      ASSERT_TRUE(live_blob.ok());
      EXPECT_EQ(blob.value(), live_blob.value());
    }
    std::remove(path.c_str());
  }
  EXPECT_TRUE(crash_covered) << "no seed produced a mid-run task crash";
}

// A recording of a fused plan replays through the same fused plan: the
// src->relay and relay->cm edges run inline on the spout's step under
// drops, dups, delays, throws and stalls, and counters and sketch state
// still match.
TEST(RecordReplayFusionTest, FusedSpoutEdgeReplaysBitIdentical) {
  const uint64_t seed = TestSeed() ^ 0xf05edu;
  const uint64_t n = 300;
  EngineConfig config = TortureConfig(seed, /*k=*/0);
  config.enable_fusion = true;
  const std::string path = TempPath("fused.slfr");
  PipelineParts live;
  TopologyPlan plan;
  const RecordedRun run =
      RecordRun(path, config, BuildPipeline(seed, n, &live), &plan);
  const PlanEdge* src_relay = nullptr;
  for (const PlanEdge& edge : plan.edges()) {
    if (plan.nodes()[edge.from].name == "src" &&
        plan.nodes()[edge.to].name == "relay") {
      src_relay = &edge;
    }
  }
  ASSERT_NE(src_relay, nullptr);
  ASSERT_EQ(src_relay->channel, EdgeChannel::kFused) << plan.ToString();

  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(seed, n, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  const Status verdict = replay.CompareWithRecorded();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  // relay is a fused follower: its inputs ran inside src's steps.
  EXPECT_EQ(replay.inputs_seen(1), 0u);
  EXPECT_EQ(*live.merged, *replayed.merged);
  for (uint32_t shard = 0; shard < 3; shard++) {
    Result<std::vector<uint8_t>> blob = replay.BoltStateBlob("cm", shard);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    Result<std::vector<uint8_t>> live_blob =
        live.store->Fetch("cm:" + std::to_string(shard));
    ASSERT_TRUE(live_blob.ok()) << live_blob.status().ToString();
    EXPECT_EQ(blob.value(), live_blob.value());
  }
  std::remove(path.c_str());
}

// A fan-out-fused recording replays to a match: both arms of the spout
// (src->relay, and the 1->3 fields edge src->cm) run inline on the
// spout's step under drops, dups, delays, throws and stalls, while the
// cm->merge fan-in stays queued.
TEST(RecordReplayFusionTest, FanOutFusedSpoutReplaysBitIdentical) {
  const uint64_t seed = TestSeed() ^ 0xfa4011u;
  const uint64_t n = 300;
  const auto build = [seed, n](PipelineParts* parts) {
    return BuildPipeline(seed, n, parts, nullptr, -1, 3, 48, "src");
  };
  EngineConfig config = TortureConfig(seed, /*k=*/0);
  config.enable_fusion = true;
  const std::string path = TempPath("fanout.slfr");
  PipelineParts live;
  TopologyPlan plan;
  const RecordedRun run = RecordRun(path, config, build(&live), &plan);
  ASSERT_EQ(plan.fused_edge_count(), 2u) << plan.ToString();
  for (const PlanEdge& edge : plan.edges()) {
    EXPECT_EQ(edge.channel, plan.nodes()[edge.from].is_spout
                                ? EdgeChannel::kFused
                                : EdgeChannel::kQueued)
        << plan.ToString();
  }
  ASSERT_GT(run.summary.faults_by_kind[static_cast<size_t>(
                FaultKind::kDropTuple)],
            0u);

  PipelineParts replayed;
  ReplayEngine replay(build(&replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  const Status verdict = replay.CompareWithRecorded();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_FALSE(live.merged->empty());
  EXPECT_EQ(*live.merged, *replayed.merged);
  for (uint32_t shard = 0; shard < 3; shard++) {
    Result<std::vector<uint8_t>> blob = replay.BoltStateBlob("cm", shard);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    Result<std::vector<uint8_t>> live_blob =
        live.store->Fetch("cm:" + std::to_string(shard));
    ASSERT_TRUE(live_blob.ok()) << live_blob.status().ToString();
    EXPECT_EQ(blob.value(), live_blob.value());
  }
  std::remove(path.c_str());
}

// At-least-once broadcast out of a spout: every emission opens its root
// with one ledger edge per shard. Live and replayed runs allocate
// different edge ids, so this replays bit-identically only if no set of
// distinct ids XORs to zero and acks a root early on one side alone.
TEST(RecordReplayBroadcastTest, SpoutBroadcastUnderAtLeastOnceReplays) {
  for (uint64_t k = 0; k < 8; k++) {
    SCOPED_TRACE("seed index " + std::to_string(k));
    const uint64_t seed = TestSeed() ^ (0xb40adu + k * 0x9e3779b9u);
    auto build = [seed](PipelineParts* parts) {
      auto gen = std::make_shared<WordGen>(seed, 120);
      TopologyBuilder builder;
      builder.AddSpout("src", [gen] {
        return std::make_unique<GeneratorSpout>([gen] { return gen->Next(); });
      });
      auto merged = parts->merged;
      builder.AddBolt(
          "cm",
          [] {
            return std::make_unique<SketchBolt<CountMinSketch>>(
                CountMinSketch(512, 4),
                [](CountMinSketch& sketch, const Tuple& input) {
                  sketch.Add(input.Str(0));
                });
          },
          3, {{"src", Grouping::Broadcast()}});
      builder.AddBolt(
          "merge",
          [merged] {
            return std::make_unique<SketchCombinerBolt<CountMinSketch>>(
                CountMinSketch(512, 4),
                [merged](const CountMinSketch& sketch, OutputCollector*) {
                  *merged = state::ToBlob(sketch);
                });
          },
          1, {{"cm", Grouping::Global()}});
      return builder.Build().value();
    };
    EngineConfig config = TortureConfig(seed, k);
    config.semantics = DeliverySemantics::kAtLeastOnce;
    const std::string path = TempPath("broadcast.slfr");
    PipelineParts live;
    const RecordedRun run = RecordRun(path, config, build(&live));
    PipelineParts replayed;
    ReplayEngine replay(build(&replayed), run);
    ASSERT_TRUE(replay.Prepare().ok());
    EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
    const Status verdict = replay.CompareWithRecorded();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    EXPECT_EQ(*live.merged, *replayed.merged);
    std::remove(path.c_str());
  }
}

// --------------------------------------------- breakpoints and stepping

// A quiet (no faults, at-most-once) recording for the debugger-surface
// tests. Global task indices: src=0, relay=1, cm=2..4, merge=5.
RecordedRun QuietRecording(uint64_t seed, uint64_t n, PipelineParts* live,
                           bool enable_fusion = true) {
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  config.enable_fusion = enable_fusion;
  return RecordRun(TempPath("quiet.slfr"), config,
                   BuildPipeline(seed, n, live));
}

TEST(ReplayBreakpointTest, TaskTuplePausesBeforeTheNthInput) {
  PipelineParts live;
  // Queued layout: a fused relay has no queued inputs to break on.
  const RecordedRun run = QuietRecording(TestSeed() ^ 0xb1, 30, &live,
                                         /*enable_fusion=*/false);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  replay.AddBreakpoint(
      Breakpoint{Breakpoint::Kind::kTaskTuple, /*task=*/1, /*count=*/5});
  ASSERT_EQ(replay.Run(), ReplayStop::kBreakpoint);
  EXPECT_EQ(replay.inputs_seen(1), 4u);  // Paused *before* input 5.
  EXPECT_FALSE(replay.Done());
  EXPECT_GE(replay.pending_deliveries(), 1u);
  // Resume past the (persistent but now unmatchable) breakpoint.
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  EXPECT_TRUE(replay.Done());
  EXPECT_EQ(replay.inputs_seen(1), 30u);
  EXPECT_TRUE(replay.CompareWithRecorded().ok());
}

TEST(ReplayBreakpointTest, FirstFaultPausesOnceThenRunsToEnd) {
  const uint64_t seed = TestSeed() ^ 0xf0;
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  config.execute_batch_size = 1;
  config.faults.seed = seed ^ 1;
  config.faults.drop_tuple_prob = 0.25;
  PipelineParts live;
  const RecordedRun run = RecordRun(TempPath("faulty.slfr"), config,
                                    BuildPipeline(seed, 40, &live));

  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  replay.AddBreakpoint(Breakpoint{Breakpoint::Kind::kFirstFault, 0, 0});
  ASSERT_EQ(replay.Run(), ReplayStop::kBreakpoint);
  ASSERT_NE(replay.fault_plan(), nullptr);
  EXPECT_GE(replay.fault_plan()->total_injected(), 1u);
  EXPECT_FALSE(replay.Done());
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);  // One-shot: never re-fires.
  EXPECT_TRUE(replay.CompareWithRecorded().ok());
}

TEST(ReplayBreakpointTest, CheckpointPausesAfterKPuts) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0xcc, 200, &live);
  PipelineParts replayed;
  ReplayOptions options;
  options.checkpoint_store = replayed.store.get();
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run, options);
  ASSERT_TRUE(replay.Prepare().ok());
  replay.AddBreakpoint(
      Breakpoint{Breakpoint::Kind::kCheckpoint, 0, /*count=*/2});
  ASSERT_EQ(replay.Run(), ReplayStop::kBreakpoint);
  EXPECT_GE(replayed.store->TotalPuts(), 2u);
  EXPECT_FALSE(replay.Done());
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
}

TEST(ReplayStepTest, StepsOneUnitAtATimeToTheEnd) {
  PipelineParts live;
  // Queued layout: fused deliveries run inside their producer's step.
  const RecordedRun run = QuietRecording(TestSeed() ^ 0x57e9, 10, &live,
                                         /*enable_fusion=*/false);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  uint64_t steps = 0;
  while (replay.Step() == ReplayStop::kStep) {
    steps++;
    ASSERT_LT(steps, 10000u) << "replay never terminated";
  }
  // At minimum each of the 10 emissions plus each delivery at relay and
  // cm is its own unit.
  EXPECT_GE(steps, 30u);
  EXPECT_TRUE(replay.Done());
  EXPECT_EQ(replay.emissions_processed(), 10u);
  EXPECT_EQ(replay.Step(), ReplayStop::kEnd);  // Idempotent at the end.
  EXPECT_TRUE(replay.CompareWithRecorded().ok());
}

TEST(ReplayStepTest, RunToEmissionHoldsBetweenTreesAndClamps) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0xa7, 20, &live);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  ASSERT_TRUE(replay.RunToEmission(3).ok());
  EXPECT_EQ(replay.emissions_processed(), 3u);
  EXPECT_EQ(replay.pending_deliveries(), 0u);  // Tree fully drained.
  EXPECT_FALSE(replay.Done());                 // Finish pass not run.
  ASSERT_TRUE(replay.RunToEmission(1u << 30).ok());  // Clamps to length.
  EXPECT_EQ(replay.emissions_processed(), replay.total_emissions());
  EXPECT_FALSE(replay.Done());
  EXPECT_EQ(replay.Run(), ReplayStop::kEnd);
  EXPECT_TRUE(replay.Done());
}

TEST(ReplayInspectionTest, BoltStateBlobReportsTypedErrors) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0x1b, 10, &live);
  PipelineParts replayed;
  ReplayEngine replay(BuildPipeline(0, 0, &replayed), run);
  ASSERT_TRUE(replay.Prepare().ok());
  EXPECT_EQ(replay.BoltStateBlob("nosuch", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replay.BoltStateBlob("cm", 9).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replay.BoltStateBlob("src", 0).status().code(),
            StatusCode::kInvalidArgument);
  // FunctionBolt exposes no StateBlob.
  EXPECT_EQ(replay.BoltStateBlob("relay", 0).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_TRUE(replay.BoltStateBlob("cm", 0).ok());
  EXPECT_FALSE(replay.TaskStateBlob(0).has_value());  // Spout.
  EXPECT_TRUE(replay.TaskStateBlob(2).has_value());   // cm shard 0.
}

TEST(ReplayInspectionTest, PrepareRejectsMismatchedTopology) {
  PipelineParts live;
  const RecordedRun run = QuietRecording(TestSeed() ^ 0x33, 10, &live);
  PipelineParts replayed;
  ReplayEngine replay(
      BuildPipeline(0, 0, &replayed, nullptr, -1, /*cm_parallelism=*/2), run);
  EXPECT_EQ(replay.Prepare().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- divergence bisection

TEST(DivergenceBisectTest, SelfComparisonFindsNoDivergence) {
  const uint64_t seed = TestSeed() ^ 0xb15ec7;
  PipelineParts live;
  const RecordedRun run = QuietRecording(seed, 60, &live);
  const auto make_topology = [] {
    PipelineParts parts;  // Factories keep the stores alive.
    return BuildPipeline(0, 0, &parts);
  };
  Result<std::optional<uint64_t>> result = FindFirstDivergence(
      ReplayTarget{make_topology, &run}, ReplayTarget{make_topology, &run});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().has_value());
}

TEST(DivergenceBisectTest, FindsThePlantedDivergenceIndex) {
  const uint64_t seed = TestSeed() ^ 0xd1f;
  const uint64_t n = 120;
  const int64_t planted = 37;
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;

  PipelineParts live_a;
  const RecordedRun run_a = RecordRun(TempPath("bisect_a.slfr"), config,
                                      BuildPipeline(seed, n, &live_a));
  PipelineParts live_b;
  const RecordedRun run_b =
      RecordRun(TempPath("bisect_b.slfr"), config,
                BuildPipeline(seed, n, &live_b, nullptr, planted));
  ASSERT_EQ(run_a.emissions.size(), n);
  ASSERT_EQ(run_b.emissions.size(), n);

  const auto make_topology = [] {
    PipelineParts parts;
    return BuildPipeline(0, 0, &parts);
  };
  Result<std::optional<uint64_t>> result = FindFirstDivergence(
      ReplayTarget{make_topology, &run_a}, ReplayTarget{make_topology, &run_b});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().has_value());
  EXPECT_EQ(*result.value(), static_cast<uint64_t>(planted));
}

TEST(DivergenceBisectTest, StrictPrefixReportsTheCommonLength) {
  const uint64_t seed = TestSeed() ^ 0x9ef;
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  PipelineParts live_short;
  const RecordedRun run_short = RecordRun(
      TempPath("prefix_a.slfr"), config, BuildPipeline(seed, 60, &live_short));
  PipelineParts live_long;
  const RecordedRun run_long = RecordRun(
      TempPath("prefix_b.slfr"), config, BuildPipeline(seed, 100, &live_long));
  const auto make_topology = [] {
    PipelineParts parts;
    return BuildPipeline(0, 0, &parts);
  };
  Result<std::optional<uint64_t>> result =
      FindFirstDivergence(ReplayTarget{make_topology, &run_short},
                          ReplayTarget{make_topology, &run_long});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().has_value());
  EXPECT_EQ(*result.value(), 60u);
}

// ------------------------------------------- log batching and telemetry

TEST(ReplayableLogBatchTest, ReadBatchMatchesScalarReads) {
  ReplayableLog log;
  for (int64_t i = 0; i < 10; i++) log.Append(Tuple::Of(i));

  const std::vector<Tuple> middle = log.ReadBatch(2, 5);
  ASSERT_EQ(middle.size(), 5u);
  for (size_t i = 0; i < middle.size(); i++) {
    EXPECT_EQ(middle[i].values(),
              log.Read(2 + i)->values());
  }
  EXPECT_EQ(log.ReadBatch(7, 100).size(), 3u);  // Clamped at the tail.
  EXPECT_TRUE(log.ReadBatch(10, 4).empty());    // Past the end.
  EXPECT_TRUE(log.ReadBatch(500, 4).empty());
  EXPECT_EQ(log.ReadBatch(0, 0).size(), 0u);
}

TEST(ReplayableLogBatchTest, PrefetchingSpoutDeliversEveryOffsetInOrder) {
  // 300 tuples forces several 64-tuple prefetch refills, including a
  // short final one.
  auto log = std::make_shared<ReplayableLog>();
  for (int64_t i = 0; i < 300; i++) {
    std::string key = "k";  // Built up to dodge a GCC 12 -Wrestrict
    key += std::to_string(i % 7);  // false positive on "k" + to_string().
    log->Append(Tuple::Of(std::move(key), i));
  }
  auto sink = std::make_shared<TupleSink>();
  TopologyBuilder builder;
  builder.AddSpout("src", [log] {
    return std::make_unique<LogReplaySpout>(log.get(), 0, log->Size());
  });
  builder.AddBolt(
      "sink", [sink] { return std::make_unique<SinkBolt>(sink.get()); }, 1,
      {{"src", Grouping::Global()}});
  Result<Topology> topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  // The log spout waits for acks on its pending roots, so it needs the
  // at-least-once acker to make progress.
  config.semantics = DeliverySemantics::kAtLeastOnce;
  TopologyEngine engine(std::move(topology).value(), config);
  engine.Run();
  const std::vector<Tuple> seen = sink->Snapshot();
  ASSERT_EQ(seen.size(), 300u);
  for (size_t i = 0; i < seen.size(); i++) {
    EXPECT_EQ(seen[i].values(), log->Read(i)->values());
  }
}

TEST(RecorderTelemetryTest, ReportCarriesTheRecordingSection) {
  const std::string path = TempPath("telemetry.slfr");
  const uint64_t seed = TestSeed() ^ 0x7e1e;
  PipelineParts parts;
  Topology topology = BuildPipeline(seed, 50, &parts);
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(path, config, topology);
  ASSERT_TRUE(recorder.ok());
  config.recorder = recorder.value().get();
  TopologyEngine engine(std::move(topology), config);
  engine.Run();

  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_TRUE(report.recording.enabled);
  EXPECT_EQ(report.recording.path, path);
  EXPECT_EQ(report.recording.records, 50u);
  EXPECT_GT(report.recording.bytes, 0u);
  EXPECT_EQ(report.recording.dropped, 0u);
  std::ostringstream json;
  report.WriteJson(json);
  EXPECT_NE(json.str().find("\"recording\": {\"enabled\": true"),
            std::string::npos);

  ASSERT_TRUE(recorder.value()->Finalize().ok());
  std::remove(path.c_str());
}

TEST(RecorderTelemetryTest, ReportWithoutRecorderIsDisabled) {
  PipelineParts parts;
  EngineConfig config;
  config.telemetry_sample_interval_ms = 0;
  TopologyEngine engine(BuildPipeline(TestSeed() ^ 0x0ff, 20, &parts), config);
  engine.Run();
  const TelemetryReport report = engine.telemetry().BuildReport();
  EXPECT_FALSE(report.recording.enabled);
  std::ostringstream json;
  report.WriteJson(json);
  EXPECT_NE(json.str().find("\"recording\": {\"enabled\": false"),
            std::string::npos);
}

}  // namespace
}  // namespace streamlib::platform
