// Admission control: a counting semaphore and its RAII permit.
//
// The library's concurrency model (see ARCHITECTURE.md): the Engine's
// shared state — the catalog, the plan cache and its counters — sits behind
// one shared_mutex and one mutex, and the semaphore below bounds how many
// queries run the expensive pipeline sections at once. Plan search state
// (PlanInterner, DerivationCache) is local to one query and never shared.
#ifndef TQP_CORE_SYNC_H_
#define TQP_CORE_SYNC_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace tqp {

/// A counting semaphore (C++17 predates std::counting_semaphore). Backs the
/// Engine's admission control: at most `permits` holders at once; excess
/// Acquire calls block until a Release frees a permit.
class Semaphore {
 public:
  explicit Semaphore(size_t permits) : permits_(permits) {}

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return permits_ > 0; });
    --permits_;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++permits_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t permits_;
};

/// RAII permit holder; no-ops on nullptr (admission control disabled).
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore* sem) : sem_(sem) {
    if (sem_ != nullptr) sem_->Acquire();
  }
  ~SemaphoreGuard() {
    if (sem_ != nullptr) sem_->Release();
  }

  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;

 private:
  Semaphore* sem_;
};

}  // namespace tqp

#endif  // TQP_CORE_SYNC_H_
