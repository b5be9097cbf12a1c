// JobScheduler: prioritized flush/compaction job execution — the one
// maintenance executor the engine runs (DESIGN.md §2.1).
//
// Flush jobs always dispatch before compaction jobs: a full immutable
// memtable blocks writers directly, while a pending compaction only degrades
// read amplification, so the scheduler drains the flush queue first (the
// same discipline as RocksDB's HIGH/LOW pool split). Each scheduled job gets
// an id whose state can be polled, errors are latched for the owner to
// surface, and Shutdown() completes every queued job before returning so DB
// teardown never abandons a half-installed flush.
//
// Who runs a job is the scheduler's only degree of freedom:
//  * With a ThreadPool, the scheduler submits one pool task per scheduled
//    job; each task pops and runs the highest-priority job available, so a
//    task may execute a different job than the one whose Schedule() call
//    created it. Tasks capture the scheduler's internal core by shared_ptr,
//    so a task that outlives the JobScheduler object (e.g. drained by
//    ThreadPool::Shutdown afterwards) finds empty queues instead of freed
//    memory.
//  * Without one (caller-run), jobs wait in the queues until a thread calls
//    RunPending(), WaitIdle() or Shutdown(), which run them on that thread in
//    the same priority order. A single-threaded caller therefore sees every
//    job run at a fixed point of its own op stream: deterministic.
#ifndef TALUS_EXEC_JOB_SCHEDULER_H_
#define TALUS_EXEC_JOB_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "exec/thread_pool.h"
#include "metrics/background_stats.h"
#include "util/status.h"

namespace talus {
namespace exec {

enum class JobType : int { kFlush = 0, kCompaction = 1 };

enum class JobState { kQueued, kRunning, kDone, kFailed, kDropped };

class JobScheduler {
 public:
  using JobId = uint64_t;

  /// The pool is borrowed and must outlive the scheduler; nullptr makes the
  /// scheduler caller-run.
  explicit JobScheduler(ThreadPool* pool);
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job and returns its id. Returns kInvalidJobId when the job
  /// was dropped without running: after Shutdown() began, or when the
  /// borrowed pool refused the dispatch (pool shutdown) — the latter also
  /// drops every still-queued job, since no dispatch will ever arrive.
  JobId Schedule(JobType type, std::function<Status()> job);
  static constexpr JobId kInvalidJobId = 0;

  /// True when no pool is attached: jobs run only inside RunPending(),
  /// WaitIdle() or Shutdown(), on the calling thread.
  bool caller_run() const { return pool_ == nullptr; }

  /// State of a job by id; kDropped for ids that are invalid or so old that
  /// their record has been pruned.
  JobState GetState(JobId id) const;

  /// Caller-run only: runs queued jobs on the calling thread, highest
  /// priority first, until the queues are empty (jobs scheduled meanwhile
  /// run too). Returns at once when a pool is attached. *ran counts the
  /// jobs this call executed; the result is the first of their failures.
  /// Callers must not hold locks that jobs acquire.
  Status RunPending(size_t* ran = nullptr);

  /// Blocks until no job is queued or running; caller-run, it first runs
  /// the queued jobs itself. Callers must not hold locks that running jobs
  /// acquire.
  void WaitIdle();

  /// Stops accepting new jobs and waits for every accepted job to finish
  /// (caller-run, by running them). Idempotent. Does not shut down the
  /// borrowed pool.
  void Shutdown();

  /// First job failure since construction, latched (OK if none).
  Status first_error() const;

  metrics::BackgroundJobStats GetStats() const;

 private:
  struct Core;

  ThreadPool* pool_;
  std::shared_ptr<Core> core_;
};

}  // namespace exec
}  // namespace talus

#endif  // TALUS_EXEC_JOB_SCHEDULER_H_
