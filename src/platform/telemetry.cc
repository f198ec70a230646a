#include "platform/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "platform/recorder.h"

namespace streamlib::platform {

namespace {

/// Formats a double for JSON: finite, fixed precision, no locale surprises.
std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Escapes a string for a JSON literal (component names are identifiers,
/// but defensive escaping keeps the writer safe for any name).
std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace

TelemetryReport Telemetry::BuildReport() const {
  TelemetryReport report;
  report.sample_interval_ms = sample_interval_ms_;
  report.trace_sample_every = trace_sample_every_;
  if (registry_ != nullptr) {
    report.tasks.reserve(registry_->task_count());
    for (size_t i = 0; i < registry_->task_count(); i++) {
      const TaskMetrics& m = registry_->task(i);
      TelemetryReport::TaskRow row;
      row.component = m.component();
      row.task_index = m.task_index();
      row.emitted = m.emitted();
      row.executed = m.executed();
      row.acked = m.acked();
      row.failed = m.failed();
      row.backpressure_stalls = m.backpressure_stalls();
      row.faults_injected = m.faults_injected();
      row.bolt_exceptions = m.bolt_exceptions();
      row.flushes = m.flushes();
      row.flushed_tuples = m.flushed_tuples();
      row.max_queue_depth = m.max_queue_depth();
      row.avg_flush_size = m.AvgFlushSize();
      row.p50_latency_us = m.LatencyPercentileNanos(0.5) / 1000.0;
      row.p99_latency_us = m.LatencyPercentileNanos(0.99) / 1000.0;
      report.tasks.push_back(std::move(row));
    }
  }
  if (fault_plan_ != nullptr) {
    report.faults.enabled = true;
    report.faults.seed = fault_plan_->spec().seed;
    report.faults.by_kind = fault_plan_->Snapshot();
    report.faults.total_injected = fault_plan_->total_injected();
  }
  if (recorder_ != nullptr) {
    report.recording.enabled = true;
    report.recording.path = recorder_->path();
    report.recording.records = recorder_->records_written();
    report.recording.bytes = recorder_->bytes_written();
    report.recording.dropped = recorder_->dropped_records();
  }
  report.time_series = TimeSeries();
  report.trace_trees = traces_.trees();
  report.hop_stats = traces_.ComponentHopStats();
  report.trace_events_dropped = traces_.dropped_events();
  report.complete_trace_trees = traces_.complete_tree_count();
  return report;
}

void TelemetryReport::WriteJson(std::ostream& out,
                                size_t max_json_trees) const {
  out << "{\n  \"schema_version\": 1,\n"
      << "  \"sample_interval_ms\": " << sample_interval_ms << ",\n"
      << "  \"trace_sample_every\": " << trace_sample_every << ",\n";

  out << "  \"fault_injection\": {\"enabled\": "
      << (faults.enabled ? "true" : "false") << ", \"seed\": " << faults.seed
      << ", \"total_injected\": " << faults.total_injected
      << ", \"by_kind\": {";
  for (size_t k = 0; k < kNumFaultKinds; k++) {
    out << JsonStr(FaultKindName(static_cast<FaultKind>(k))) << ": "
        << faults.by_kind[k] << (k + 1 < kNumFaultKinds ? ", " : "");
  }
  out << "}},\n";

  out << "  \"recording\": {\"enabled\": "
      << (recording.enabled ? "true" : "false")
      << ", \"path\": " << JsonStr(recording.path)
      << ", \"records\": " << recording.records
      << ", \"bytes\": " << recording.bytes
      << ", \"dropped\": " << recording.dropped << "},\n";

  out << "  \"serving\": ";
  WriteServingJson(out, serving, "  ");
  out << ",\n";

  out << "  \"tasks\": [\n";
  for (size_t i = 0; i < tasks.size(); i++) {
    const TaskRow& t = tasks[i];
    out << "    {\"task\": " << i << ", \"component\": "
        << JsonStr(t.component) << ", \"task_index\": " << t.task_index
        << ", \"emitted\": " << t.emitted << ", \"executed\": " << t.executed
        << ", \"acked\": " << t.acked << ", \"failed\": " << t.failed
        << ", \"backpressure_stalls\": " << t.backpressure_stalls
        << ", \"faults_injected\": " << t.faults_injected
        << ", \"bolt_exceptions\": " << t.bolt_exceptions
        << ", \"flushes\": " << t.flushes
        << ", \"flushed_tuples\": " << t.flushed_tuples
        << ", \"avg_flush_size\": " << JsonNum(t.avg_flush_size)
        << ", \"max_queue_depth\": " << t.max_queue_depth
        << ", \"p50_latency_us\": " << JsonNum(t.p50_latency_us)
        << ", \"p99_latency_us\": " << JsonNum(t.p99_latency_us) << "}"
        << (i + 1 < tasks.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"time_series\": {\n    \"samples\": [\n";
  for (size_t i = 0; i < time_series.size(); i++) {
    const TelemetrySample& s = time_series[i];
    out << "      {\"t_ms\": " << s.t_ms << ", \"interval_ms\": "
        << s.interval_ms << ", \"tasks\": [";
    for (size_t j = 0; j < s.tasks.size(); j++) {
      const TaskSampleDelta& d = s.tasks[j];
      out << "{\"task\": " << d.task << ", \"emitted\": " << d.emitted
          << ", \"executed\": " << d.executed << ", \"acked\": " << d.acked
          << ", \"failed\": " << d.failed
          << ", \"backpressure_stalls\": " << d.backpressure_stalls
          << ", \"faults_injected\": " << d.faults_injected
          << ", \"flushes\": " << d.flushes
          << ", \"flushed_tuples\": " << d.flushed_tuples
          << ", \"queue_depth\": " << d.queue_depth << "}"
          << (j + 1 < s.tasks.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < time_series.size() ? "," : "") << "\n";
  }
  out << "    ]\n  },\n";

  out << "  \"traces\": {\n"
      << "    \"tree_count\": " << trace_trees.size() << ",\n"
      << "    \"complete_trees\": " << complete_trace_trees << ",\n"
      << "    \"dropped_events\": " << trace_events_dropped << ",\n"
      << "    \"hop_stats\": [\n";
  for (size_t i = 0; i < hop_stats.size(); i++) {
    const TraceStore::HopStats& h = hop_stats[i];
    out << "      {\"component\": " << JsonStr(h.component)
        << ", \"hops\": " << h.hops
        << ", \"wait_p50_us\": " << JsonNum(h.wait_p50_us)
        << ", \"wait_p99_us\": " << JsonNum(h.wait_p99_us)
        << ", \"execute_p50_us\": " << JsonNum(h.execute_p50_us)
        << ", \"execute_p99_us\": " << JsonNum(h.execute_p99_us) << "}"
        << (i + 1 < hop_stats.size() ? "," : "") << "\n";
  }
  out << "    ],\n    \"trees\": [\n";
  // Prefer complete trees for the capped example set.
  std::vector<const TraceTree*> chosen;
  for (const TraceTree& tree : trace_trees) {
    if (tree.complete && chosen.size() < max_json_trees) {
      chosen.push_back(&tree);
    }
  }
  for (const TraceTree& tree : trace_trees) {
    if (chosen.size() >= max_json_trees) break;
    if (!tree.complete) chosen.push_back(&tree);
  }
  for (size_t i = 0; i < chosen.size(); i++) {
    const TraceTree& tree = *chosen[i];
    out << "      {\"trace_id\": " << tree.trace_id << ", \"complete\": "
        << (tree.complete ? "true" : "false") << ", \"end_to_end_us\": "
        << JsonNum(static_cast<double>(tree.end_to_end_nanos) / 1000.0)
        << ", \"spans\": [";
    for (size_t j = 0; j < tree.spans.size(); j++) {
      const TraceTree::Span& span = tree.spans[j];
      out << "{\"span\": " << span.event.span_id
          << ", \"parent\": " << span.event.parent_span
          << ", \"task\": " << span.event.task << ", \"component\": "
          << JsonStr(span.component) << ", \"wait_us\": "
          << JsonNum(static_cast<double>(span.event.wait_nanos) / 1000.0)
          << ", \"execute_us\": "
          << JsonNum(static_cast<double>(span.event.execute_nanos) / 1000.0)
          << "}" << (j + 1 < tree.spans.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < chosen.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }\n}\n";
}

void TelemetryReport::WriteServingJson(std::ostream& out,
                                       const ServingSummary& serving,
                                       const char* line_indent) {
  out << "{\"enabled\": " << (serving.enabled ? "true" : "false")
      << ", \"snapshot_version\": " << serving.snapshot_version
      << ", \"served\": " << serving.served
      << ", \"rejected_quota\": " << serving.rejected_quota
      << ", \"rejected_queue\": " << serving.rejected_queue
      << ", \"cache_hits\": " << serving.cache_hits
      << ", \"cache_misses\": " << serving.cache_misses
      << ",\n" << line_indent << "  \"tenants\": [";
  for (size_t i = 0; i < serving.tenants.size(); i++) {
    const ServingTenantRow& t = serving.tenants[i];
    out << "\n" << line_indent << "    {\"tenant\": " << JsonStr(t.tenant)
        << ", \"served\": " << t.served
        << ", \"rejected_quota\": " << t.rejected_quota
        << ", \"rejected_queue\": " << t.rejected_queue
        << ", \"cache_hits\": " << t.cache_hits
        << ", \"cache_misses\": " << t.cache_misses << "}"
        << (i + 1 < serving.tenants.size() ? "," : "");
  }
  if (!serving.tenants.empty()) out << "\n" << line_indent << "  ";
  out << "]}";
}

void TelemetryReport::WriteTable(std::ostream& out) const {
  char line[256];
  if (serving.enabled) {
    std::snprintf(line, sizeof(line),
                  "== telemetry: query serving (snapshot v%llu, %llu served, "
                  "%llu rejected) ==\n",
                  static_cast<unsigned long long>(serving.snapshot_version),
                  static_cast<unsigned long long>(serving.served),
                  static_cast<unsigned long long>(serving.rejected_quota +
                                                  serving.rejected_queue));
    out << line;
    std::snprintf(line, sizeof(line), "  %-16s %10s %10s %10s %10s %10s\n",
                  "tenant", "served", "rej-quota", "rej-queue", "cache-hit",
                  "cache-miss");
    out << line;
    for (const ServingTenantRow& t : serving.tenants) {
      std::snprintf(line, sizeof(line),
                    "  %-16s %10llu %10llu %10llu %10llu %10llu\n",
                    t.tenant.c_str(),
                    static_cast<unsigned long long>(t.served),
                    static_cast<unsigned long long>(t.rejected_quota),
                    static_cast<unsigned long long>(t.rejected_queue),
                    static_cast<unsigned long long>(t.cache_hits),
                    static_cast<unsigned long long>(t.cache_misses));
      out << line;
    }
  }
  if (faults.enabled) {
    std::snprintf(line, sizeof(line),
                  "== telemetry: fault injection (seed 0x%llx, %llu "
                  "injected) ==\n",
                  static_cast<unsigned long long>(faults.seed),
                  static_cast<unsigned long long>(faults.total_injected));
    out << line;
    for (size_t k = 0; k < kNumFaultKinds; k++) {
      if (faults.by_kind[k] == 0) continue;
      std::snprintf(line, sizeof(line), "  %-16s %8llu\n",
                    FaultKindName(static_cast<FaultKind>(k)),
                    static_cast<unsigned long long>(faults.by_kind[k]));
      out << line;
    }
  }
  out << "== telemetry: per-task counters ==\n";
  std::snprintf(line, sizeof(line),
                "  %-12s %4s %10s %10s %8s %8s %9s %9s %8s %8s\n",
                "component", "task", "emitted", "executed", "stalls",
                "maxdepth", "avgflush", "p50us", "p99us", "acked");
  out << line;
  for (const TaskRow& t : tasks) {
    std::snprintf(
        line, sizeof(line),
        "  %-12s %4u %10llu %10llu %8llu %8llu %9.1f %9.1f %8.1f %8llu\n",
        t.component.c_str(), t.task_index,
        static_cast<unsigned long long>(t.emitted),
        static_cast<unsigned long long>(t.executed),
        static_cast<unsigned long long>(t.backpressure_stalls),
        static_cast<unsigned long long>(t.max_queue_depth), t.avg_flush_size,
        t.p50_latency_us, t.p99_latency_us,
        static_cast<unsigned long long>(t.acked));
    out << line;
  }

  if (!time_series.empty()) {
    std::snprintf(line, sizeof(line),
                  "== telemetry: time series (%zu samples @ %u ms) ==\n",
                  time_series.size(), sample_interval_ms);
    out << line;
    // Engine-wide per-interval roll-up; cap rows to keep logs readable.
    const size_t kMaxRows = 12;
    const size_t step =
        time_series.size() > kMaxRows ? time_series.size() / kMaxRows : 1;
    std::snprintf(line, sizeof(line), "  %8s %12s %12s %10s %8s\n", "t_ms",
                  "emitted/s", "executed/s", "max depth", "stalls");
    out << line;
    for (size_t i = 0; i < time_series.size(); i += step) {
      const TelemetrySample& s = time_series[i];
      uint64_t emitted = 0, executed = 0, stalls = 0, depth = 0;
      for (const TaskSampleDelta& d : s.tasks) {
        emitted += d.emitted;
        executed += d.executed;
        stalls += d.backpressure_stalls;
        depth = std::max(depth, d.queue_depth);
      }
      const double secs =
          s.interval_ms > 0 ? static_cast<double>(s.interval_ms) / 1000.0 : 0;
      std::snprintf(line, sizeof(line),
                    "  %8llu %12.0f %12.0f %10llu %8llu\n",
                    static_cast<unsigned long long>(s.t_ms),
                    secs > 0 ? static_cast<double>(emitted) / secs : 0.0,
                    secs > 0 ? static_cast<double>(executed) / secs : 0.0,
                    static_cast<unsigned long long>(depth),
                    static_cast<unsigned long long>(stalls));
      out << line;
    }
  }

  if (!hop_stats.empty()) {
    std::snprintf(
        line, sizeof(line),
        "== telemetry: trace hops (%zu trees, %llu complete, 1/%u roots) ==\n",
        trace_trees.size(),
        static_cast<unsigned long long>(complete_trace_trees),
        trace_sample_every);
    out << line;
    std::snprintf(line, sizeof(line), "  %-12s %8s %10s %10s %10s %10s\n",
                  "component", "hops", "wait p50", "wait p99", "exec p50",
                  "exec p99");
    out << line;
    for (const TraceStore::HopStats& h : hop_stats) {
      std::snprintf(line, sizeof(line),
                    "  %-12s %8llu %9.1fus %9.1fus %9.2fus %9.2fus\n",
                    h.component.c_str(),
                    static_cast<unsigned long long>(h.hops), h.wait_p50_us,
                    h.wait_p99_us, h.execute_p50_us, h.execute_p99_us);
      out << line;
    }
    // One example span tree, rendered as an indented hop list.
    for (const TraceTree& tree : trace_trees) {
      if (!tree.complete || tree.spans.empty()) continue;
      std::snprintf(
          line, sizeof(line),
          "  example tree (trace %llu, end-to-end %.1f us):\n",
          static_cast<unsigned long long>(tree.trace_id),
          static_cast<double>(tree.end_to_end_nanos) / 1000.0);
      out << line;
      // Depth-first from the root (span index 0).
      std::vector<std::pair<size_t, int>> stack{{0, 0}};
      while (!stack.empty()) {
        auto [idx, depth] = stack.back();
        stack.pop_back();
        const TraceTree::Span& span = tree.spans[idx];
        std::snprintf(line, sizeof(line),
                      "    %*s%s[%u] wait=%.1fus exec=%.2fus\n", depth * 2,
                      "", span.component.c_str(), span.event.task,
                      static_cast<double>(span.event.wait_nanos) / 1000.0,
                      static_cast<double>(span.event.execute_nanos) / 1000.0);
        out << line;
        for (auto it = span.children.rbegin(); it != span.children.rend();
             ++it) {
          stack.push_back({*it, depth + 1});
        }
      }
      break;
    }
  }
}

}  // namespace streamlib::platform
