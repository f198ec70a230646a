#ifndef STREAMLIB_COMMON_RCU_PTR_H_
#define STREAMLIB_COMMON_RCU_PTR_H_

#include <memory>
#include <mutex>
#include <utility>

/// \file rcu_ptr.h
/// RCU-style publication pointer: writers swap in whole immutable objects,
/// readers copy out a shared_ptr and hold the object alive through shared
/// ownership. This is the publication primitive behind the
/// snapshot-isolated Lambda read path (DESIGN.md §14).
///
/// One implementation for every build, so the ThreadSanitizer build checks
/// the code that ships. A mutex guards the pointer copy: libstdc++ 12's
/// `std::atomic<std::shared_ptr>` is itself lock-based (`_Sp_atomic`, an
/// embedded spinlock), so it is not lock-free either, and its reader-side
/// unlock is relaxed, which TSan reports as a race. The critical section
/// is a refcount increment. Against the atomic form, the mutex reads 2-3x
/// the front-end qps with four or more readers (the spinlock busy-waits),
/// overlaps it with one or two, and leaves perfbench `dashboard_reads`
/// unchanged (EXPERIMENTS.md I-serving-qps, P-perfbench).

namespace streamlib {

/// Publication point for immutable, shared-ownership snapshots of T.
/// `load()` copies the current snapshot out (one uncontended lock plus a
/// refcount increment); `store()` publishes a replacement, and the old
/// snapshot is released outside the lock. Writers are expected to
/// serialize externally (publication order is the caller's contract).
template <typename T>
class RcuPtr {
 public:
  RcuPtr() = default;
  RcuPtr(const RcuPtr&) = delete;
  RcuPtr& operator=(const RcuPtr&) = delete;

  std::shared_ptr<const T> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }

  void store(std::shared_ptr<const T> next) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ptr_.swap(next);
    }
    // `next` now holds the previous snapshot; its destructor (possibly the
    // last owner) runs here, outside the lock.
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> ptr_;
};

}  // namespace streamlib

#endif  // STREAMLIB_COMMON_RCU_PTR_H_
