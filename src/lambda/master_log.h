#ifndef STREAMLIB_LAMBDA_MASTER_LOG_H_
#define STREAMLIB_LAMBDA_MASTER_LOG_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace streamlib::lambda {

/// One immutable event in the master dataset.
struct LogRecord {
  uint64_t offset = 0;     ///< position in the log (assigned on append)
  int64_t timestamp = 0;   ///< event time supplied by the producer
  std::string key;         ///< event key (hashtag, user id, sensor id, ...)
  double value = 0.0;      ///< event payload (count increment, reading, ...)
};

/// The Lambda Architecture's *master dataset* (Figure 1, step 2): an
/// immutable, append-only record log. The batch layer folds each new range
/// of it in place; the speed layer tails new appends. Thread-safe.
///
/// Substitution note (DESIGN.md §2): stands in for the HDFS/Kafka-backed
/// master dataset of production Lambda deployments; append-only + offset
/// semantics are what the batch/speed layers rely on, and both are preserved.
class MasterLog {
 public:
  MasterLog() = default;

  MasterLog(const MasterLog&) = delete;
  MasterLog& operator=(const MasterLog&) = delete;

  /// Appends a record; returns its offset.
  uint64_t Append(int64_t timestamp, std::string key, double value);

  /// Number of records currently in the log.
  uint64_t size() const;

  /// Copies records with offsets in [from, to) into `out`. `to` may exceed
  /// size(); reads are bounded to the current end.
  void Read(uint64_t from, uint64_t to, std::vector<LogRecord>* out) const;

  /// Calls `visit(record)` for each record with offset in [from, to), in
  /// offset order, reading the log in place: no record is copied. `to` may
  /// exceed size(). Runs under the log's mutex, so `visit` must not call
  /// back into this log, and appends wait until the visit returns.
  template <typename Visit>
  void ForEach(uint64_t from, uint64_t to, Visit&& visit) const {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t end = std::min<uint64_t>(to, records_.size());
    for (uint64_t i = from; i < end; i++) visit(records_[i]);
  }

  /// Reads a single record.
  Result<LogRecord> Get(uint64_t offset) const;

 private:
  mutable std::mutex mu_;
  std::vector<LogRecord> records_;
};

}  // namespace streamlib::lambda

#endif  // STREAMLIB_LAMBDA_MASTER_LOG_H_
