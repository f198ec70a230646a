#ifndef STREAMLIB_BENCH_BENCH_UTIL_H_
#define STREAMLIB_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

// Build provenance, set by bench/CMakeLists.txt at configure time.
#ifndef STREAMLIB_BENCH_COMMIT
#define STREAMLIB_BENCH_COMMIT "unknown"
#endif
#ifndef STREAMLIB_BENCH_BUILD_TYPE
#define STREAMLIB_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef STREAMLIB_BENCH_OPTIONS
#define STREAMLIB_BENCH_OPTIONS "unknown"
#endif

namespace streamlib::bench {

/// Prints the header of a reproduction table (the paper-artifact section
/// each bench binary emits after its google-benchmark timing section).
inline void TableTitle(const char* experiment_id, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("REPRODUCTION %s — %s\n", experiment_id, description);
  std::printf("================================================================\n");
}

/// printf-style row helper so tables align.
inline void Row(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

/// Provenance of a repo-root BENCH_*.json, as a JSON object: host, CPU
/// model and the ISA flags the kernels use, build type and CMake options,
/// and the commit the build tree was configured from ("unknown" outside a
/// git checkout, such as a `git archive` export).
inline std::string ProvenanceJson() {
  auto quoted = [](const std::string& raw) {
    std::string out(1, '"');
    for (char c : raw) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    out.push_back('"');
    return out;
  };
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) continue;
    if (line.rfind("model name", 0) == 0 && model == "unknown") {
      model = line.substr(colon + 2);
    } else if (line.rfind("flags", 0) == 0 && flags.empty()) {
      flags = line.substr(colon + 2);
    }
  }
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::ostringstream o;
  o << "{\"host\": " << quoted(host) << ", \"cpu_model\": " << quoted(model)
    << ", \"cpu_flags\": {";
  const char* isa[] = {"avx2", "bmi1", "bmi2", "abm"};
  for (size_t i = 0; i < std::size(isa); i++) {
    std::istringstream words(flags);
    bool has = false;
    for (std::string w; !has && words >> w;) has = w == isa[i];
    o << (i > 0 ? ", " : "") << quoted(isa[i]) << ": "
      << (has ? "true" : "false");
  }
  o << "}, \"build_type\": " << quoted(STREAMLIB_BENCH_BUILD_TYPE)
    << ", \"build_options\": " << quoted(STREAMLIB_BENCH_OPTIONS)
    << ", \"commit\": " << quoted(STREAMLIB_BENCH_COMMIT) << "}";
  return o.str();
}

/// Standard main body: run the registered google-benchmark timings, then
/// the caller's reproduction tables.
#define STREAMLIB_BENCH_MAIN(print_tables_fn)                          \
  int main(int argc, char** argv) {                                    \
    ::benchmark::Initialize(&argc, argv);                              \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                             \
    print_tables_fn();                                                 \
    return 0;                                                          \
  }

}  // namespace streamlib::bench

#endif  // STREAMLIB_BENCH_BENCH_UTIL_H_
