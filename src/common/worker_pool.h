// A small fixed-size thread pool: a task queue, `threads` workers, FIFO
// dispatch. Submit() never blocks; callers synchronize completion
// themselves (the parallel executor claims morsels from a shared atomic
// cursor and always works the queue from the submitting thread too, so
// a saturated pool degrades to sequential execution instead of
// deadlocking).
//
// Lives in common/ so the api/ engine can own the pool the exec/
// morsel-parallel executor borrows, without a layering cycle. The
// server runs its admitted requests on one too.
#ifndef SQOPT_COMMON_WORKER_POOL_H_
#define SQOPT_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sqopt {

class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();  // drains the queue, then joins

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  void Submit(std::function<void()> task);

  // A requested thread count resolved against the hardware:
  // 0 = hardware concurrency, clamped to [1, 16].
  static int ResolveThreads(int requested);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sqopt

#endif  // SQOPT_COMMON_WORKER_POOL_H_
