// E-kernel-simd: scalar-vs-batched sketch kernel microbenchmark.
//
// For each batched kernel this binary times (a) the scalar per-key Add loop
// and (b) the batched AddBatch path on the same pre-generated key stream,
// reports updates/sec/core for both, and — the part CI cares about —
// re-verifies the bit-identity contract on the bench workload itself:
// after both runs the two sketch states must be byte-identical (blob
// compare for serde types, exhaustive probe compare for the filters).
// Any divergence makes the process exit nonzero, so the smoke run doubles
// as an end-to-end estimate-equivalence check at bench scale.
//
// Flags:
//   --quick      reduced key counts (the ctest bench_kernels_smoke config).
//   --out=PATH   where to write BENCH_kernels.json (default: cwd).
//
// Timing is hand-rolled steady_clock around tight loops (google-benchmark's
// per-iteration machinery would dominate sub-10ns updates); each cell takes
// the best of `reps` passes to shed scheduler noise.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/state.h"
#include "core/cardinality/hyperloglog.h"
#include "core/filtering/blocked_bloom_filter.h"
#include "core/frequency/count_min_sketch.h"
#include "core/frequency/dyadic_count_min.h"

namespace streamlib {
namespace {

struct KernelResult {
  std::string kernel;
  uint64_t keys = 0;
  double scalar_upd_per_sec = 0;
  double batch_upd_per_sec = 0;
  double speedup = 0;
  bool state_identical = false;
};

double SecondsOf(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Best-of-reps wall time of `fn()`, where each call replays the full
/// stream on a fresh sketch built by `make()`.
template <typename MakeFn, typename RunFn>
double BestSeconds(int reps, MakeFn make, RunFn run) {
  double best = 1e30;
  for (int r = 0; r < reps; r++) {
    auto sketch = make();
    const auto t0 = std::chrono::steady_clock::now();
    run(sketch);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = SecondsOf(t1 - t0);
    if (s < best) best = s;
  }
  return best;
}

/// Times scalar-vs-batch for one kernel and verifies final-state identity.
/// `scalar_run` / `batch_run` must apply the identical key stream.
template <typename MakeFn, typename ScalarFn, typename BatchFn,
          typename IdenticalFn>
KernelResult BenchKernel(const char* name, uint64_t n, int reps, MakeFn make,
                         ScalarFn scalar_run, BatchFn batch_run,
                         IdenticalFn identical) {
  KernelResult result;
  result.kernel = name;
  result.keys = n;
  const double scalar_s = BestSeconds(reps, make, scalar_run);
  const double batch_s = BestSeconds(reps, make, batch_run);
  result.scalar_upd_per_sec = static_cast<double>(n) / scalar_s;
  result.batch_upd_per_sec = static_cast<double>(n) / batch_s;
  result.speedup = result.batch_upd_per_sec / result.scalar_upd_per_sec;
  auto a = make();
  auto b = make();
  scalar_run(a);
  batch_run(b);
  result.state_identical = identical(a, b);
  std::printf("  %-22s scalar %10.2f Mupd/s   batch %10.2f Mupd/s   "
              "speedup %5.2fx   state %s\n",
              name, result.scalar_upd_per_sec / 1e6,
              result.batch_upd_per_sec / 1e6, result.speedup,
              result.state_identical ? "identical" : "DIVERGED");
  return result;
}

template <typename T>
bool BlobsEqual(const T& a, const T& b) {
  return state::ToBlob(a) == state::ToBlob(b);
}

std::vector<KernelResult> RunAll(bool quick) {
  const uint64_t n = quick ? 200000u : 4000000u;
  const int reps = quick ? 2 : 3;
  Rng rng(20260809);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Next();
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; i++) values[i] = keys[i] & 0xffff;
  const std::span<const uint64_t> ks(keys);

  std::printf("E-kernel-simd — backend: %s, lanes: %zu, keys: %llu\n",
              simd::BackendName(), simd::kLanes,
              static_cast<unsigned long long>(n));

  std::vector<KernelResult> out;
  // Canonical geometry 8192x4 (256 KiB, cache-resident): the compute-bound
  // regime, where one KM step + mask per row is what's measured. The
  // count_min_large row below covers the memory-bound regime.
  out.push_back(BenchKernel(
      "count_min", n, reps, [] { return CountMinSketch(8192, 4); },
      [&](CountMinSketch& s) { for (uint64_t k : keys) s.Add(k); },
      [&](CountMinSketch& s) { s.AddBatch(ks); },
      [](const CountMinSketch& a, const CountMinSketch& b) {
        return BlobsEqual(a, b);
      }));
  // 65536x4 = 2 MiB: larger than L2, so every key costs `depth` scattered
  // cache lines and the batch path's win is prefetch overlap, not ALU.
  out.push_back(BenchKernel(
      "count_min_large", n, reps, [] { return CountMinSketch(65536, 4); },
      [&](CountMinSketch& s) { for (uint64_t k : keys) s.Add(k); },
      [&](CountMinSketch& s) { s.AddBatch(ks); },
      [](const CountMinSketch& a, const CountMinSketch& b) {
        return BlobsEqual(a, b);
      }));
  out.push_back(BenchKernel(
      "dyadic_count_min", n, reps,
      [] { return DyadicCountMin(16, 4096, 3); },
      [&](DyadicCountMin& s) { for (uint32_t v : values) s.Add(v); },
      [&](DyadicCountMin& s) {
        s.AddBatch(std::span<const uint32_t>(values));
      },
      [](const DyadicCountMin& a, const DyadicCountMin& b) {
        return BlobsEqual(a, b);
      }));
  out.push_back(BenchKernel(
      "hyperloglog", n, reps,
      [] { return HyperLogLog(14, /*sparse=*/false); },
      [&](HyperLogLog& s) { for (uint64_t k : keys) s.Add(k); },
      [&](HyperLogLog& s) { s.AddBatch(ks); },
      [](const HyperLogLog& a, const HyperLogLog& b) {
        return BlobsEqual(a, b) && a.Estimate() == b.Estimate();
      }));
  out.push_back(BenchKernel(
      "blocked_bloom_filter", n, reps,
      [&] { return BlockedBloomFilter(n * 10, 6); },
      [&](BlockedBloomFilter& s) { for (uint64_t k : keys) s.Add(k); },
      [&](BlockedBloomFilter& s) { s.AddBatch(ks); },
      [&](const BlockedBloomFilter& a, const BlockedBloomFilter& b) {
        for (size_t i = 0; i < 100000; i++) {
          if (a.Contains(keys[i]) != b.Contains(keys[i])) return false;
          if (a.Contains(~keys[i]) != b.Contains(~keys[i])) return false;
        }
        return true;
      }));
  return out;
}

bool WriteJson(const std::string& path, bool quick,
               const std::vector<KernelResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n"
      << "  \"bench\": \"kernels\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"provenance\": " << bench::ProvenanceJson() << ",\n"
      << "  \"simd_backend\": \"" << simd::BackendName() << "\",\n"
      << "  \"lanes\": " << simd::kLanes << ",\n"
      << "  \"kernels\": [\n";
  for (size_t i = 0; i < results.size(); i++) {
    const KernelResult& r = results[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"keys\": " << r.keys
        << ", \"scalar_upd_per_sec\": " << r.scalar_upd_per_sec
        << ", \"batch_upd_per_sec\": " << r.batch_upd_per_sec
        << ", \"speedup\": " << r.speedup
        << ", \"state_identical\": " << (r.state_identical ? "true" : "false")
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace streamlib

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  const auto results = streamlib::RunAll(quick);
  if (!streamlib::WriteJson(out_path, quick, results)) return 1;
  bool ok = true;
  for (const auto& r : results) {
    if (!r.state_identical) {
      std::fprintf(stderr, "ESTIMATE DIVERGENCE: %s batched state differs "
                   "from scalar state\n", r.kernel.c_str());
      ok = false;
    }
  }
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
