// Fixed-size worker pool for the deterministic execution runtime.
//
// The pool owns `num_threads - 1` worker threads; the calling thread always
// participates as lane 0, so `ThreadPool(1)` spawns nothing and runs every
// task inline. There is deliberately no task queue or future machinery: the
// single primitive is run_on_all(), a fork-join batch where every lane runs
// the same callable with its lane index. The sharded parallel-for layer
// (exec/parallel.hpp) builds deterministic work distribution on top of this;
// consumers use lane indices only to address worker-owned scratch state
// (simulator clones, per-worker SAT solvers), never to influence results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace satdiag::exec {

class ThreadPool {
 public:
  /// `num_threads` lanes in total (clamped to >= 1). Lane 0 is the caller;
  /// lanes 1..num_threads-1 are dedicated workers spawned here and joined in
  /// the destructor.
  explicit ThreadPool(std::size_t num_threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return lanes_; }

  /// Fork-join batch: invoke `task(lane)` once per lane in [0, num_threads())
  /// and block until every lane returned. The caller runs lane 0. When lanes
  /// throw, the exception of the lowest-numbered throwing lane is rethrown
  /// after the join (the batch always completes; no lane is torn down).
  /// Not reentrant: run_on_all must not be called from inside a task.
  void run_on_all(const std::function<void(std::size_t)>& task);

 private:
  void worker_main(std::size_t lane);

  const std::size_t lanes_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for a new batch
  std::condition_variable done_cv_;   // run_on_all waits for the join
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped per batch; wakes the workers
  std::size_t outstanding_ = 0;   // workers still inside the current batch
  std::vector<std::exception_ptr> errors_;  // per lane, reset per batch
  bool shutdown_ = false;
};

}  // namespace satdiag::exec
