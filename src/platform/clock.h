#ifndef STREAMLIB_PLATFORM_CLOCK_H_
#define STREAMLIB_PLATFORM_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace streamlib::platform {

/// Injectable time source for everything in the engine that compares "now"
/// against a deadline or stamps a timestamp: epoch-alignment timeouts, the
/// acker's ack-timeout scan, end-to-end latency samples, and trace
/// timestamps — and the one place injected delays and stalls sleep.
/// Production runs use the process steady clock; tests and the replayer
/// inject a ManualClock so timeout paths fire deterministically instead of
/// depending on wall time on a loaded host.
///
/// Implementations must be monotone (reads never decrease) and thread-safe
/// (the engine reads from spout, executor, and acker threads).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds on this clock's monotone timeline. The absolute origin is
  /// implementation-defined; only differences are meaningful.
  virtual uint64_t NowNanos() = 0;

  /// Holds the calling thread for `micros` of this clock's time (injected
  /// transport delays, queue stalls, barrier delays).
  virtual void SleepMicros(uint32_t micros) = 0;

  /// Process-wide steady_clock-backed instance — the default time source.
  static Clock* Steady();
};

inline Clock* Clock::Steady() {
  class SteadyClock final : public Clock {
   public:
    uint64_t NowNanos() override {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    }
    void SleepMicros(uint32_t micros) override {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
    }
  };
  static SteadyClock instance;
  return &instance;
}

/// Test clock: time moves only when told to. Two modes compose:
///  - AdvanceNanos() steps time explicitly from the test body;
///  - a nonzero `advance_per_read_nanos` makes every NowNanos() read step
///    time forward, so engine-internal deadline checks (which a test cannot
///    reach between) still make progress deterministically — each check
///    costs a fixed amount of virtual time, independent of host load.
/// Sleeps return at once without advancing time. All operations are
/// atomic; reads are monotone by construction.
class ManualClock : public Clock {
 public:
  explicit ManualClock(uint64_t start_nanos = 1,
                       uint64_t advance_per_read_nanos = 0)
      : now_(start_nanos), advance_per_read_(advance_per_read_nanos) {}

  uint64_t NowNanos() override {
    if (advance_per_read_ == 0) {
      return now_.load(std::memory_order_relaxed);
    }
    return now_.fetch_add(advance_per_read_, std::memory_order_relaxed) +
           advance_per_read_;
  }

  void SleepMicros(uint32_t) override {}

  /// Steps time forward by `delta_nanos`.
  void AdvanceNanos(uint64_t delta_nanos) {
    now_.fetch_add(delta_nanos, std::memory_order_relaxed);
  }

  /// Current time without advancing (even in auto-advance mode).
  uint64_t PeekNanos() const { return now_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> now_;
  const uint64_t advance_per_read_;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_CLOCK_H_
