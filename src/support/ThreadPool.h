//===- ThreadPool.h - fixed-size worker pool --------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines ThreadPool, a fixed set of T workers draining one shared task
/// queue. The planner's trial merges and probes, the input-parallel
/// executors' chunk rounds and the scan service's request handlers run on
/// it. (runParallel, the paper's §VI-C2 one-MFSA-at-a-time scheduler in
/// engine/Parallel.h, spawns its own threads per call.)
///
/// Locking protocol (verified by the Sync.h capability annotations): every
/// queue/bookkeeping field is guarded by PoolMutex (rank 70); the mutex is
/// never held while a task body runs, so tasks may freely acquire
/// higher-rank locks (metrics, reply framing) or submit follow-up work.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_SUPPORT_THREADPOOL_H
#define MFSA_SUPPORT_THREADPOOL_H

#include "support/Sync.h"

#include <functional>
#include <queue>
#include <thread>
#include <vector>

namespace mfsa {

/// A fixed-size pool executing queued tasks; wait() blocks until the queue is
/// drained and all workers are idle. The pool is reusable across batches.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers. NumThreads may exceed the hardware
  /// concurrency (the paper scales T to 128 on an 8-thread CPU).
  explicit ThreadPool(unsigned NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task for execution by any worker. Safe to call from task
  /// bodies: PoolMutex is never held while a task runs.
  void submit(std::function<void()> Task) MFSA_EXCLUDES(PoolMutex);

  /// Blocks until every submitted task has finished.
  void wait() MFSA_EXCLUDES(PoolMutex);

private:
  void workerLoop() MFSA_EXCLUDES(PoolMutex);

  std::vector<std::thread> Workers;

  /// Rank 70 (see the Sync.h table): acquired by task bodies holding a
  /// Session::QueueMutex (30); never held while running a task.
  sync::Mutex PoolMutex MFSA_LOCK_RANK(70);
  std::queue<std::function<void()>> Tasks MFSA_GUARDED_BY(PoolMutex);
  sync::CondVar TaskAvailable;
  sync::CondVar AllDone;
  unsigned ActiveTasks MFSA_GUARDED_BY(PoolMutex) = 0;
  bool ShuttingDown MFSA_GUARDED_BY(PoolMutex) = false;
};

} // namespace mfsa

#endif // MFSA_SUPPORT_THREADPOOL_H
