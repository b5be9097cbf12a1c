// Merge stage of the compaction pipeline (DESIGN.md §2.8). Executes a
// CompactionPlan with NO DB mutex: the plan's FileMetaPtr references pin the
// input SSTs, readers come from the table cache, and file numbers come from
// the shared atomic counter, so nothing here touches engine state.
//
// The key space is split at the plan's boundaries into key-range
// subcompactions. With a thread pool attached (the kBackground executor)
// the coordinator fans the ranges out over the pool and joins them; without
// one (the caller-run executor) the ranges run serially on the calling
// thread, in key order, so the merge stays deterministic.
#ifndef TALUS_COMPACTION_COMPACTION_EXECUTOR_H_
#define TALUS_COMPACTION_COMPACTION_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compaction/compaction_plan.h"
#include "compaction/sorted_output.h"
#include "exec/thread_pool.h"
#include "metrics/subcompaction_stats.h"
#include "read/table_cache.h"
#include "util/histogram.h"
#include "util/status.h"

namespace talus {
namespace compaction {

class CompactionExecutor {
 public:
  /// Optional newest merge input built fresh per subcompaction — the
  /// immutable memtable of a leveling flush merge. Must produce iterators
  /// that stay valid for the executor's whole Run() call.
  using ExtraInputFactory = std::function<std::unique_ptr<Iterator>()>;

  struct Result {
    /// Output files in global key order (subcompaction ranges concatenated).
    /// On failure this still lists every finished file so the caller can
    /// delete the orphans.
    std::vector<FileMetaPtr> outputs;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    /// Subcompactions the plan was split into.
    size_t fanout = 1;
  };

  CompactionExecutor(OutputShape shape, read::TableCache* table_cache);

  /// Attaches the background pool used for fan-out. nullptr (the default)
  /// runs every subcompaction serially on the caller's thread.
  void SetPool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Executes the plan's merge stage. `extra` (may be null) contributes the
  /// newest input to every subcompaction's merge. Thread-safe; does not
  /// take the DB mutex.
  Status Run(const CompactionPlan& plan, const ExtraInputFactory& extra,
             Result* result);

  metrics::SubcompactionStats GetStats() const;

 private:
  struct Subcompaction {
    bool has_begin = false, has_end = false;
    std::string begin, end;  // User-key range [begin, end).
    std::vector<FileMetaPtr> outputs;
    uint64_t bytes_read = 0;
    Status status;
  };

  void RunSubcompaction(const CompactionPlan& plan,
                        const ExtraInputFactory& extra, Subcompaction* sub);

  const OutputShape shape_;
  read::TableCache* table_cache_;
  exec::ThreadPool* pool_ = nullptr;

  // ---- Observability (talus.exec) ----
  std::atomic<uint64_t> subs_scheduled_{0};
  std::atomic<uint64_t> subs_completed_{0};
  std::atomic<size_t> subs_active_{0};
  // Runs with an extra input are leveling flush merges, counted apart from
  // compactions so the fanout histogram measures compaction parallelism
  // only (under leveling policies flush merges would otherwise dominate).
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> flush_merges_{0};
  mutable std::mutex fanout_mu_;
  Histogram fanout_hist_;
};

}  // namespace compaction
}  // namespace talus

#endif  // TALUS_COMPACTION_COMPACTION_EXECUTOR_H_
