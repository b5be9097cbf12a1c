#include "trace_env.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace lsmbench {

using talus::Env;
using talus::IoStats;
using talus::RandomAccessFile;
using talus::SequentialFile;
using talus::Slice;
using talus::Status;
using talus::WritableFile;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kNone: return "maintenance";
    case OpKind::kGet: return "get";
    case OpKind::kPut: return "put";
    case OpKind::kScan: return "scan";
    case OpKind::kNumKinds: break;
  }
  return "unknown";
}

const char* IoKindName(IoKind kind) {
  switch (kind) {
    case IoKind::kWalAppend: return "wal_append";
    case IoKind::kWalSync: return "wal_sync";
    case IoKind::kSstRead: return "sst_read";
    case IoKind::kSstWrite: return "sst_write";
    case IoKind::kOther: return "other";
    case IoKind::kNumKinds: break;
  }
  return "unknown";
}

IoCounters::Cell IoCounters::Total(IoKind io) const {
  Cell sum;
  for (int op = 0; op < static_cast<int>(OpKind::kNumKinds); op++) {
    const Cell& c = cells[op][static_cast<int>(io)];
    sum.calls += c.calls;
    sum.bytes += c.bytes;
    sum.busy_ns += c.busy_ns;
  }
  return sum;
}

IoCounters::Cell IoCounters::Foreground(IoKind io) const {
  Cell sum = Total(io);
  const Cell& bg = at(OpKind::kNone, io);
  sum.calls -= bg.calls;
  sum.bytes -= bg.bytes;
  sum.busy_ns -= bg.busy_ns;
  return sum;
}

IoCounters IoCounters::Minus(const IoCounters& base) const {
  IoCounters out;
  for (int op = 0; op < static_cast<int>(OpKind::kNumKinds); op++) {
    for (int io = 0; io < static_cast<int>(IoKind::kNumKinds); io++) {
      out.cells[op][io].calls = cells[op][io].calls - base.cells[op][io].calls;
      out.cells[op][io].bytes = cells[op][io].bytes - base.cells[op][io].bytes;
      out.cells[op][io].busy_ns =
          cells[op][io].busy_ns - base.cells[op][io].busy_ns;
    }
  }
  return out;
}

namespace {

// Per-thread tracing state. The process has one Tracer, so a thread-local
// cache of its buffer is safe.
thread_local OpKind tl_kind = OpKind::kNone;
thread_local int64_t tl_open = -1;  // Index into the buffer's ops, or -1.
thread_local void* tl_buffer = nullptr;

}  // namespace

Tracer::ThreadBuffer* Tracer::Local() {
  if (tl_buffer == nullptr) {
    auto buf = std::make_unique<ThreadBuffer>();
    buf->ops.reserve(1 << 16);
    buf->ios.reserve(1 << 16);
    std::lock_guard<std::mutex> l(mu_);
    buf->thread_index = buffers_.size();
    tl_buffer = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return static_cast<ThreadBuffer*>(tl_buffer);
}

void Tracer::BeginOp(OpKind kind, bool sampled) {
  tl_kind = kind;
  if (!sampled || !enabled()) return;
  ThreadBuffer* buf = Local();
  OpSpan span;
  span.id = (buf->thread_index << 40) | buf->next_span++;
  span.kind = kind;
  span.start_ns = NowNanos();
  tl_open = static_cast<int64_t>(buf->ops.size());
  buf->ops.push_back(span);
}

void Tracer::EndOp() {
  if (tl_open >= 0) {
    static_cast<ThreadBuffer*>(tl_buffer)->ops[tl_open].end_ns = NowNanos();
    tl_open = -1;
  }
  tl_kind = OpKind::kNone;
}

void Tracer::RecordOp(OpKind kind, uint64_t start_ns, uint64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer* buf = Local();
  OpSpan span;
  span.id = (buf->thread_index << 40) | buf->next_span++;
  span.kind = kind;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  buf->ops.push_back(span);
}

void Tracer::OnIo(IoKind kind, uint64_t start_ns, uint64_t end_ns,
                  uint64_t bytes) {
  std::atomic<uint64_t>* cell =
      cells_[static_cast<int>(tl_kind)][static_cast<int>(kind)];
  cell[0].fetch_add(1, std::memory_order_relaxed);
  cell[1].fetch_add(bytes, std::memory_order_relaxed);
  cell[2].fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  if (tl_open >= 0) {
    ThreadBuffer* buf = static_cast<ThreadBuffer*>(tl_buffer);
    EnvSpan span;
    span.parent = buf->ops[tl_open].id;
    span.kind = kind;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.bytes = bytes;
    buf->ios.push_back(span);
  }
}

IoCounters Tracer::Counters() const {
  IoCounters out;
  for (int op = 0; op < static_cast<int>(OpKind::kNumKinds); op++) {
    for (int io = 0; io < static_cast<int>(IoKind::kNumKinds); io++) {
      out.cells[op][io].calls =
          cells_[op][io][0].load(std::memory_order_relaxed);
      out.cells[op][io].bytes =
          cells_[op][io][1].load(std::memory_order_relaxed);
      out.cells[op][io].busy_ns =
          cells_[op][io][2].load(std::memory_order_relaxed);
    }
  }
  return out;
}

bool Tracer::Dump(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& buf : buffers_) {
    for (const OpSpan& s : buf->ops) {
      std::fprintf(f, "op\t%llu\t%s\t%llu\t%llu\n",
                   static_cast<unsigned long long>(s.id), OpKindName(s.kind),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    for (const EnvSpan& s : buf->ios) {
      std::fprintf(f, "io\t%llu\t%s\t%llu\t%llu\t%llu\n",
                   static_cast<unsigned long long>(s.parent),
                   IoKindName(s.kind),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.bytes));
    }
  }
  return std::fclose(f) == 0;
}

namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string tail(suffix);
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

class TracingWritableFile final : public WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<WritableFile> base, Tracer* tracer,
                      IoKind append_kind, IoKind sync_kind)
      : base_(std::move(base)),
        tracer_(tracer),
        append_kind_(append_kind),
        sync_kind_(sync_kind) {}

  Status Append(const Slice& data) override {
    const uint64_t t0 = NowNanos();
    Status s = base_->Append(data);
    tracer_->OnIo(append_kind_, t0, NowNanos(), data.size());
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    const uint64_t t0 = NowNanos();
    Status s = base_->Sync();
    tracer_->OnIo(sync_kind_, t0, NowNanos(), 0);
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  Tracer* tracer_;
  IoKind append_kind_;
  IoKind sync_kind_;
};

class TracingRandomAccessFile final : public RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                          Tracer* tracer, IoKind kind)
      : base_(std::move(base)), tracer_(tracer), kind_(kind) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const uint64_t t0 = NowNanos();
    Status s = base_->Read(offset, n, result, scratch);
    tracer_->OnIo(kind_, t0, NowNanos(), s.ok() ? result->size() : 0);
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  Tracer* tracer_;
  IoKind kind_;
};

class TracingEnv final : public Env {
 public:
  TracingEnv(Env* base, Tracer* tracer) : base_(base), tracer_(tracer) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    if (!s.ok()) return s;
    IoKind append = IoKind::kOther;
    IoKind sync = IoKind::kOther;
    if (EndsWith(fname, ".wal")) {
      append = IoKind::kWalAppend;
      sync = IoKind::kWalSync;
    } else if (EndsWith(fname, ".sst")) {
      append = IoKind::kSstWrite;
    }
    *result = std::make_unique<TracingWritableFile>(std::move(file), tracer_,
                                                    append, sync);
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(fname, &file);
    if (!s.ok()) return s;
    *result = std::make_unique<TracingRandomAccessFile>(
        std::move(file), tracer_,
        EndsWith(fname, ".sst") ? IoKind::kSstRead : IoKind::kOther);
    return s;
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  IoStats* io_stats() override { return base_->io_stats(); }
  uint64_t TotalFileBytes(const std::string& dir) override {
    return base_->TotalFileBytes(dir);
  }

 private:
  Env* base_;
  Tracer* tracer_;
};

}  // namespace

std::unique_ptr<Env> NewTracingEnv(Env* base, Tracer* tracer) {
  return std::make_unique<TracingEnv>(base, tracer);
}

}  // namespace lsmbench
