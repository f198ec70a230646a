#include "lambda/master_log.h"

namespace streamlib::lambda {

uint64_t MasterLog::Append(int64_t timestamp, std::string key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t offset = records_.size();
  records_.push_back(LogRecord{offset, timestamp, std::move(key), value});
  return offset;
}

uint64_t MasterLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void MasterLog::Read(uint64_t from, uint64_t to,
                     std::vector<LogRecord>* out) const {
  ForEach(from, to, [out](const LogRecord& record) { out->push_back(record); });
}

Result<LogRecord> MasterLog::Get(uint64_t offset) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (offset >= records_.size()) {
    return Status::OutOfRange("offset beyond log end");
  }
  return records_[offset];
}

}  // namespace streamlib::lambda
