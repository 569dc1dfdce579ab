// A work-stealing morsel scheduler for data-parallel loops.
//
// WorkStealingPool runs ParallelFor(count, grain, body): the index range
// [0, count) is cut into morsels of `grain` indices, contiguous morsel
// blocks are pre-assigned to per-worker deques, and every worker drains its
// own queue front-first while idle workers steal from the back of a
// victim's queue. The calling thread participates as worker 0, so a pool
// constructed for N threads spawns only N-1.
//
// The scheduler moves work, never results: a morsel is identified by its
// index, so callers that stitch per-morsel outputs by morsel index get
// results that are byte-identical regardless of thread count, stealing
// order, or timing. That property is what lets the vectorized executor
// (src/vexec) keep its list-identity contract under parallelism — see the
// determinism notes in ARCHITECTURE.md.
//
// Built on plain standard primitives: one mutex per queue, one condition
// variable pair for job publication/completion. Morsel bodies must not call
// back into the pool (no nested ParallelFor).
#ifndef TQP_CORE_TASK_POOL_H_
#define TQP_CORE_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tqp {

class WorkStealingPool {
 public:
  /// A pool executing loops over `threads` workers total (the caller counts
  /// as one; `threads - 1` std::threads are spawned). threads <= 1 spawns
  /// nothing and every ParallelFor runs inline.
  explicit WorkStealingPool(size_t threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Total worker count, including the calling thread.
  size_t workers() const { return threads_.size() + 1; }

  /// Runs body(begin, end) over every morsel [m*grain, min((m+1)*grain,
  /// count)) of [0, count), in parallel, and returns when all morsels are
  /// done. Morsel execution order is unspecified; bodies for different
  /// morsels run concurrently and must only touch disjoint state. Must be
  /// called from the owning thread only, and bodies must not re-enter the
  /// pool.
  void ParallelFor(size_t count, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Morsels executed / morsels obtained by stealing, over the pool's
  /// lifetime. Telemetry only: steals depend on timing and are not
  /// deterministic.
  uint64_t morsels_executed() const {
    return morsels_.load(std::memory_order_relaxed);
  }
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  /// One ParallelFor invocation: the morsel queues plus completion state.
  /// Held by shared_ptr so a straggler worker waking after the caller moved
  /// on still sees a live (drained) job, never a dangling pointer.
  struct Job {
    size_t grain = 0;
    size_t count = 0;
    const std::function<void(size_t, size_t)>* body = nullptr;
    struct Queue {
      std::mutex mu;
      std::deque<size_t> morsels;  // morsel indices, front = next to run
    };
    std::deque<Queue> queues;  // one per worker; deque: Queue is immovable
    std::atomic<size_t> remaining{0};
  };

  void WorkerLoop(size_t worker_id);
  /// Drains `job` as worker `worker_id`: own queue first, then steals.
  void RunWorker(Job& job, size_t worker_id);

  std::vector<std::thread> threads_;

  std::mutex job_mu_;
  std::condition_variable job_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;  // the caller waits for remaining == 0
  std::shared_ptr<Job> job_;         // null between ParallelFor calls
  uint64_t generation_ = 0;
  bool stop_ = false;

  std::atomic<uint64_t> morsels_{0};
  std::atomic<uint64_t> steals_{0};
};

}  // namespace tqp

#endif  // TQP_CORE_TASK_POOL_H_
