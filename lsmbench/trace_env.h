// Tracing for the benchmark's traced run: an Env decorator that times every
// file call the engine makes, plus per-thread span buffers for sampled
// client operations. Everything here sits at boundaries the benchmark owns
// (its own API calls and the Env it passes in through DbOptions::env); the
// engine itself is not instrumented.
//
// Span model: a sampled op opens a span on its calling thread; Env calls on
// that thread become its children. Env calls on a thread with no open span
// (flush/compaction threads, server workers) are aggregated under the
// `maintenance` root as counts and busy time only.
#ifndef LSMBENCH_TRACE_ENV_H_
#define LSMBENCH_TRACE_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/env.h"

namespace lsmbench {

/// What kind of client call is running on this thread; Env calls are
/// counted by it.
enum class OpKind : int { kNone = 0, kGet, kPut, kScan, kNumKinds };
const char* OpKindName(OpKind kind);

/// Which file an Env call touched, and how.
enum class IoKind : int {
  kWalAppend = 0,
  kWalSync,
  kSstRead,
  kSstWrite,
  kOther,  // SST syncs, MANIFEST, SHARD manifest, CURRENT.
  kNumKinds
};
const char* IoKindName(IoKind kind);

/// Cumulative call counters, per (calling-op kind, io kind). Plain values
/// so lsmbench.cc can subtract a before-snapshot from an after-snapshot.
struct IoCounters {
  struct Cell {
    uint64_t calls = 0;
    uint64_t bytes = 0;
    uint64_t busy_ns = 0;
  };
  Cell cells[static_cast<int>(OpKind::kNumKinds)]
            [static_cast<int>(IoKind::kNumKinds)];

  const Cell& at(OpKind op, IoKind io) const {
    return cells[static_cast<int>(op)][static_cast<int>(io)];
  }
  /// Sum over every calling-op kind.
  Cell Total(IoKind io) const;
  /// Sum over the client-op kinds only (kNone is the maintenance root).
  Cell Foreground(IoKind io) const;
  IoCounters Minus(const IoCounters& base) const;
};

/// One sampled client operation and the Env calls it made on its thread.
struct OpSpan {
  uint64_t id = 0;
  OpKind kind = OpKind::kNone;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};
struct EnvSpan {
  uint64_t parent = 0;
  IoKind kind = IoKind::kOther;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t bytes = 0;
};

/// Process-wide span recorder. Spans go to per-thread buffers (no shared
/// writes on the hot path) and are written out once, at the end of the run.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans are recorded only while enabled (the measured phase).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Marks the calling thread as running `kind` (counted by the Env) and,
  /// when `sampled` and enabled, opens a span that Env calls on this
  /// thread attach to.
  void BeginOp(OpKind kind, bool sampled);
  void EndOp();
  /// Records an already-finished op span with no children (pipelined
  /// client requests, whose engine work runs on server threads).
  void RecordOp(OpKind kind, uint64_t start_ns, uint64_t end_ns);

  /// Called by the Env decorator after each file call.
  void OnIo(IoKind kind, uint64_t start_ns, uint64_t end_ns, uint64_t bytes);

  IoCounters Counters() const;

  /// Writes every buffered span as tab-separated lines:
  ///   op <id> <kind> <start_ns> <end_ns>
  ///   io <parent_id> <kind> <start_ns> <end_ns> <bytes>
  bool Dump(const std::string& path) const;

 private:
  struct ThreadBuffer {
    uint64_t thread_index = 0;
    uint64_t next_span = 0;
    std::vector<OpSpan> ops;
    std::vector<EnvSpan> ios;
  };
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> cells_[static_cast<int>(OpKind::kNumKinds)]
                              [static_cast<int>(IoKind::kNumKinds)][3] = {};
  mutable std::mutex mu_;  // Guards buffers_.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Wraps `base`, forwarding every call and reporting file I/O to `tracer`.
/// io_stats() is the base Env's, so engine accounting is unchanged.
std::unique_ptr<talus::Env> NewTracingEnv(talus::Env* base, Tracer* tracer);

uint64_t NowNanos();

}  // namespace lsmbench

#endif  // LSMBENCH_TRACE_ENV_H_
