// lsmbench: runs one benchmark workload against a 4-shard
// talus::shard::ShardedDB and prints one JSON object describing the run.
//
//   lsmbench --workload NAME --seed N --seconds S --dir DIR
//                   [--setups K] [--trace-dir DIR]
//   lsmbench --selftest
//
// Every input (keys, values, op choices, arrival schedule) is generated
// from --seed. It checks every answer it gets, audits every key
// after the run, and exits non-zero when any check failed. With
// --trace-dir it wraps the POSIX Env in the tracing decorator, samples op
// spans and writes spans.tsv plus the engine's JSONL event trace there;
// run.py and summarize.py turn those into the per-layer table.
//
// The workloads and why each exists are documented in README.md.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "lsm/write_batch.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_db.h"
#include "trace_env.h"
#include "util/random.h"
#include "util/wall_clock.h"
#include "workload/generator.h"

namespace lsmbench {
namespace {

namespace fs = std::filesystem;
using talus::DbOptions;
using talus::Env;
using talus::Random;
using talus::Status;
using talus::shard::ShardedDB;

// ---- Store configuration: identical for every workload ----------------
constexpr int kShards = 4;
constexpr int kClients = 4;  // Client threads or connections (= nproc).
constexpr size_t kKeyBytes = 24;
constexpr size_t kValueBytes = 1000;
constexpr size_t kScanLength = 32;
constexpr size_t kPreloadBatch = 100;

// ---- Measurement ------------------------------------------------------
// The measured phase is cut into windows; latency, throughput and CPU are
// computed per window and reported as the median window.
constexpr int kWindows = 15;
// Before the measured phase the clients run the same mix unmeasured for
// this long, so the tree leaves the shape CompactAll gave it (one run per
// shard, empty memtables) and reaches the shape the mix keeps it in.
constexpr double kRampSeconds = 5;
constexpr uint64_t kSloMicros = 2000;
// Traced run: one op in this many gets a span (keeps spans in memory).
constexpr uint64_t kSpanSampleEvery = 64;
// A shard taking more than this multiple of the mean op count fails the
// run: it means the split points do not match the key space.
constexpr double kMaxShardImbalance = 2.0;

// Open-loop aggregate request rate for server-balanced-open: about half of
// what 4 pipelined connections sustain closed-loop at the commit that
// introduced the benchmark (see README.md). Fixed, so later commits are
// compared at the same offered load.
constexpr double kServerRatePerSec = 12000;

struct Workload {
  const char* name;
  uint64_t keys;
  double get_share;
  double put_share;  // The rest are scans.
  bool zipfian;
  size_t block_cache_per_shard;
  bool warm_cache;  // Read every key once before timing.
  bool server;      // Open loop through server::Server; else embedded.
  // Set-ups per run; setup_s is their median. More where one is cheap and
  // its time varies most.
  int setups;
};

const Workload kWorkloads[] = {
    {"read-zipf-cached", 50000, 0.95, 0.05, true, 32 << 20, true, false, 5},
    {"write-uniform-uncached", 150000, 0.05, 0.90, false, 8 << 20, false,
     false, 3},
    {"server-balanced-open", 100000, 0.50, 0.50, false, 8 << 20, false, true,
     3},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string dir;
  int setups = 0;  // 0: the workload's own count.
  std::string trace_dir;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: lsmbench --workload NAME --seed N "
               "--seconds S --dir DIR [--setups K] [--trace-dir DIR]\n"
               "       lsmbench --selftest\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) {
        Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--setups") {
      args.setups = std::atoi(value.c_str());
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr || args.dir.empty()) {
    Usage("--workload and --dir are required");
  }
  if (args.seconds <= 0 || args.setups < 0) {
    Usage("--seconds must be > 0 and --setups >= 0");
  }
  if (args.setups == 0) args.setups = args.workload->setups;
  return args;
}

std::string Key(uint64_t index) {
  return talus::workload::FormatKey(index, kKeyBytes);
}

// Values written by this benchmark always start with "v<index>." (see
// workload::MakeValue) and are kValueBytes long.
bool ValueOk(uint64_t index, const std::string& value) {
  if (value.size() != kValueBytes) return false;
  char prefix[32];
  const int n = std::snprintf(prefix, sizeof(prefix), "v%llu.",
                              static_cast<unsigned long long>(index));
  return value.compare(0, static_cast<size_t>(n), prefix) == 0;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ull + stream;
  return Random::SplitMix(&state);
}

double CpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

void SleepUntil(uint64_t deadline_ns) {
  const uint64_t now = NowNanos();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

// Runs fn(t) on kClients threads and joins them.
template <typename Fn>
void OnClients(Fn fn) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; t++) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

// ---- Failure accounting ------------------------------------------------

enum Failure {
  kGetMissing = 0,
  kGetBadValue,
  kGetError,
  kPutError,
  kScanBad,
  kScanError,
  kAuditBad,
  kNumFailures
};
const char* const kFailureNames[kNumFailures] = {
    "get_missing", "get_bad_value", "get_error", "put_error",
    "scan_bad",    "scan_error",    "audit_bad"};

struct Failures {
  std::atomic<uint64_t> counts[kNumFailures] = {};
  void Add(Failure f) { counts[f].fetch_add(1, std::memory_order_relaxed); }
  uint64_t Total() const {
    uint64_t sum = 0;
    for (const auto& c : counts) sum += c.load();
    return sum;
  }
};

// Classifies a get's outcome; returns true when it is correct.
bool CheckGet(const Status& s, uint64_t index, const std::string& value,
              Failures* failures) {
  if (s.IsNotFound()) {
    failures->Add(kGetMissing);
  } else if (!s.ok()) {
    failures->Add(kGetError);
  } else if (!ValueOk(index, value)) {
    failures->Add(kGetBadValue);
  } else {
    return true;
  }
  return false;
}

// A scan from key `index` must return the next min(kScanLength, remaining)
// keys in order (no key is ever deleted), each with its own value.
void CheckScan(const Status& s, uint64_t index, uint64_t keys,
               const std::vector<std::pair<std::string, std::string>>& out,
               Failures* failures) {
  if (!s.ok()) {
    failures->Add(kScanError);
    return;
  }
  const size_t expect = static_cast<size_t>(
      std::min<uint64_t>(kScanLength, keys - index));
  bool ok = out.size() == expect;
  for (size_t j = 0; ok && j < out.size(); j++) {
    ok = out[j].first == Key(index + j) && ValueOk(index + j, out[j].second);
  }
  if (!ok) failures->Add(kScanBad);
}

// ---- Counter snapshots --------------------------------------------------

// Every cumulative counter source the per-layer metrics use, read at one
// point. The measured phase reports Minus(after, before), so set-up and
// the ramp never leak into a ratio.
struct Counters {
  talus::EngineStats engine;
  std::vector<uint64_t> shard_ops;
  uint64_t group_commits = 0;
  uint64_t batches_committed = 0;
  uint64_t wal_syncs = 0;
  uint64_t queue_wait_us = 0;
  talus::obs::AmpSnapshot amp;
  uint64_t bc_hits = 0, bc_misses = 0, bc_evictions = 0;
  uint64_t tc_hits = 0, tc_misses = 0, tc_opens = 0;
  talus::server::ServerStats server;
  uint64_t io_bytes_written = 0;
  IoCounters io;
};

Counters Snapshot(ShardedDB* db, Env* env, const Tracer& tracer,
                  const talus::server::Server* server) {
  Counters c;
  c.engine = db->AggregatedStats();
  for (size_t i = 0; i < db->shard_count(); i++) {
    talus::DB* shard = db->shard(i);
    const talus::EngineStats& st = shard->stats();
    c.shard_ops.push_back(st.puts + st.gets.load());
    const auto gc = shard->GetGroupCommitStats();
    c.group_commits += gc.group_commits;
    c.batches_committed += gc.batches_committed;
    c.wal_syncs += gc.wal_syncs;
    c.queue_wait_us += gc.write_queue_wait_micros;
    c.bc_hits += shard->block_cache()->hits();
    c.bc_misses += shard->block_cache()->misses();
    c.bc_evictions += shard->block_cache()->evictions();
    const auto tc = shard->table_cache()->GetStats();
    c.tc_hits += tc.hits;
    c.tc_misses += tc.misses;
    c.tc_opens += tc.opens;
  }
  c.amp = db->AggregatedAmpSnapshot();
  if (server != nullptr) c.server = server->stats();
  c.io_bytes_written = env->io_stats()->bytes_written();
  c.io = tracer.Counters();
  return c;
}

// The measured phase's share of every counter the per-layer metrics use.
Counters Minus(const Counters& after, const Counters& before) {
  Counters d = after;
  talus::EngineStats& e = d.engine;
  const talus::EngineStats& b = before.engine;
  e.gets.store(after.engine.gets - b.gets);
  e.memtable_switches -= b.memtable_switches;
  e.compaction_bytes_written -= b.compaction_bytes_written;
  e.compactions -= b.compactions;
  e.compaction_conflicts -= b.compaction_conflicts;
  e.stall_micros -= b.stall_micros;
  e.stall_slowdowns -= b.stall_slowdowns;
  e.stall_stops -= b.stall_stops;
  e.stall_slowdowns_l0 -= b.stall_slowdowns_l0;
  e.stall_stops_l0 -= b.stall_stops_l0;
  e.user_payload_written -= b.user_payload_written;
  for (size_t i = 0; i < d.shard_ops.size(); i++) {
    d.shard_ops[i] -= before.shard_ops[i];
  }
  d.group_commits -= before.group_commits;
  d.batches_committed -= before.batches_committed;
  d.wal_syncs -= before.wal_syncs;
  d.queue_wait_us -= before.queue_wait_us;
  d.amp.Subtract(before.amp);
  d.bc_hits -= before.bc_hits;
  d.bc_misses -= before.bc_misses;
  d.bc_evictions -= before.bc_evictions;
  d.tc_hits -= before.tc_hits;
  d.tc_misses -= before.tc_misses;
  d.tc_opens -= before.tc_opens;
  d.server.requests_total -= before.server.requests_total;
  d.server.request_errors -= before.server.request_errors;
  d.server.coalesced_ops -= before.server.coalesced_ops;
  d.server.coalesced_batches -= before.server.coalesced_batches;
  d.server.bytes_in -= before.server.bytes_in;
  d.server.bytes_out -= before.server.bytes_out;
  d.io_bytes_written -= before.io_bytes_written;
  d.io = after.io.Minus(before.io);
  return d;
}

// ---- JSON output --------------------------------------------------------

class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "" : ", ") << "\"" << key << "\": " << json;
    first_ = false;
    return *this;
  }
  std::string str() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

// ---- The run ------------------------------------------------------------

// Latency samples of one client thread, split by op kind and window.
struct Samples {
  std::vector<uint32_t> lat_ns[3][kWindows];  // get, put, scan.
  uint64_t done[kWindows] = {};  // Ops completed in each window.
  std::vector<uint32_t> late_ns;              // Open loop only.
  uint64_t slo_misses = 0;
};

int KindIndex(OpKind kind) { return static_cast<int>(kind) - 1; }

uint32_t Clamp32(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

std::unique_ptr<talus::workload::KeyPicker> NewPicker(const Workload& w) {
  talus::workload::KeySpaceSpec spec;
  spec.num_keys = w.keys;
  spec.key_size = kKeyBytes;
  spec.value_size = kValueBytes;
  spec.distribution = w.zipfian ? talus::workload::Distribution::kZipfian
                                : talus::workload::Distribution::kUniform;
  return talus::workload::NewKeyPicker(spec);
}

// Process CPU time and store size at one window boundary.
struct WindowMark {
  double cpu_s;
  uint64_t store_bytes;
};

// One client's generator state. It lives across the ramp and the measured
// phase, so the two are one continuous seeded stream.
struct ClientState {
  ClientState(const Workload& w, uint64_t seed, int t)
      : rnd(MixSeed(seed, 100 + t)),
        picker(NewPicker(w)),
        version((static_cast<uint64_t>(t) << 40) + 1) {}
  Random rnd;
  std::unique_ptr<talus::workload::KeyPicker> picker;
  uint64_t version;  // Distinct per client, so values never repeat.
  uint64_t ops = 0;  // Ops issued, for 1-in-N span sampling.
  talus::server::Client conn;  // Open loop only.
};

class Run {
 public:
  explicit Run(const Args& args) : args_(args), w_(*args.workload) {}

  int Main();

 private:
  DbOptions StoreOptions() const;
  Status SetUp();
  Status Preload();
  void Warm();
  OpKind PickOp(Random* rnd) const;
  /// Runs every client from `start` to `end`, checking every answer.
  /// Latencies go to `samples` unless it is null (the ramp); when `marks`
  /// is non-null it receives the process CPU time and the store's file
  /// bytes at each window boundary.
  void Phase(uint64_t start, uint64_t end, std::vector<Samples>* samples,
             std::vector<WindowMark>* marks);
  void ClosedLoopClient(ClientState* c, uint64_t start, uint64_t end,
                        Samples* out);
  void OpenLoopClient(ClientState* c, int t, uint64_t start, uint64_t end,
                      Samples* out);
  void Audit();
  void PolicyShape(uint64_t* levels, uint64_t* runs);
  std::string LayerJson(const Counters& d, const std::vector<Samples>& s);

  const Args args_;
  const Workload& w_;
  Tracer tracer_;
  std::unique_ptr<Env> tracing_env_;
  Env* env_ = nullptr;
  std::string path_;  // The store being set up or measured.
  std::unique_ptr<ShardedDB> db_;
  std::vector<std::unique_ptr<ClientState>> clients_;
  Failures failures_;
  std::atomic<uint64_t> attempted_{0};
};

DbOptions Run::StoreOptions() const {
  DbOptions o;
  o.env = env_;
  o.path = path_;
  o.execution_mode = talus::ExecutionMode::kBackground;
  o.shard_count = kShards;
  o.block_cache_bytes = w_.block_cache_per_shard;
  // Explicit split points from the generated key space: the default split
  // is on the 8-byte prefix, which would put every "user..." key in one
  // shard.
  for (int i = 1; i < kShards; i++) {
    o.shard_split_points.push_back(Key(w_.keys * i / kShards));
  }
  if (!args_.trace_dir.empty()) {
    o.trace_file_path = args_.trace_dir + "/engine.jsonl";
  }
  return o;
}

Status Run::Preload() {
  std::vector<Status> results(kClients);
  OnClients([this, &results](int t) {
    const uint64_t lo = w_.keys * t / kClients;
    const uint64_t hi = w_.keys * (t + 1) / kClients;
    talus::WriteBatch batch;
    for (uint64_t i = lo; i < hi && results[t].ok(); i++) {
      batch.Put(Key(i), talus::workload::MakeValue(i, 0, kValueBytes));
      if (batch.Count() == kPreloadBatch || i + 1 == hi) {
        results[t] = db_->Write(batch);
        batch.Clear();
      }
    }
  });
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void Run::Warm() {
  OnClients([this](int t) {
    std::string value;
    for (uint64_t i = t; i < w_.keys; i += kClients) {
      Status s = db_->Get(Key(i), &value);
      attempted_.fetch_add(1, std::memory_order_relaxed);
      if (!CheckGet(s, i, value, &failures_)) {
        std::fprintf(stderr, "warm-up: key %llu failed: %s\n",
                     static_cast<unsigned long long>(i),
                     s.ToString().c_str());
      }
    }
  });
}

Status Run::SetUp() {
  std::error_code ec;
  fs::remove_all(path_, ec);
  Status s = ShardedDB::Open(StoreOptions(), &db_);
  if (s.ok()) s = Preload();
  if (s.ok()) s = db_->CompactAll();
  if (s.ok() && w_.warm_cache) Warm();
  return s;
}

OpKind Run::PickOp(Random* rnd) const {
  const double r = rnd->NextDouble();
  if (r < w_.get_share) return OpKind::kGet;
  if (r < w_.get_share + w_.put_share) return OpKind::kPut;
  return OpKind::kScan;
}

void Run::Phase(uint64_t start, uint64_t end, std::vector<Samples>* samples,
                std::vector<WindowMark>* marks) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back([this, t, start, end, samples] {
      ClientState* c = clients_[t].get();
      Samples* out = samples == nullptr ? nullptr : &(*samples)[t];
      if (w_.server) {
        OpenLoopClient(c, t, start, end, out);
      } else {
        ClosedLoopClient(c, start, end, out);
      }
    });
  }
  for (int w = 0; marks != nullptr && w <= kWindows; w++) {
    SleepUntil(start + (end - start) * w / kWindows);
    marks->push_back({CpuSeconds(), DirBytes(path_)});
  }
  for (auto& th : threads) th.join();
}

void Run::ClosedLoopClient(ClientState* c, uint64_t start, uint64_t end,
                           Samples* out) {
  const bool traced = tracing_env_ != nullptr;
  const uint64_t span = end - start;
  std::string value;
  std::vector<std::pair<std::string, std::string>> scan_out;
  SleepUntil(start);
  for (;;) {
    const OpKind kind = PickOp(&c->rnd);
    const uint64_t index = c->picker->Next(&c->rnd);
    const std::string key = Key(index);
    if (kind == OpKind::kPut) {
      value = talus::workload::MakeValue(index, c->version++, kValueBytes);
    }
    const uint64_t t0 = NowNanos();
    if (t0 >= end) break;
    if (traced) tracer_.BeginOp(kind, c->ops++ % kSpanSampleEvery == 0);
    Status s;
    switch (kind) {
      case OpKind::kGet: s = db_->Get(key, &value); break;
      case OpKind::kPut: s = db_->Put(key, value); break;
      default: s = db_->Scan(key, kScanLength, &scan_out); break;
    }
    const uint64_t t1 = NowNanos();
    if (traced) tracer_.EndOp();
    attempted_.fetch_add(1, std::memory_order_relaxed);
    switch (kind) {
      case OpKind::kGet: CheckGet(s, index, value, &failures_); break;
      case OpKind::kPut:
        if (!s.ok()) failures_.Add(kPutError);
        break;
      default: CheckScan(s, index, w_.keys, scan_out, &failures_); break;
    }
    if (out == nullptr) continue;
    const int window = static_cast<int>((t0 - start) * kWindows / span);
    out->lat_ns[KindIndex(kind)][window].push_back(Clamp32(t1 - t0));
    if (t1 < end) out->done[(t1 - start) * kWindows / span]++;
  }
}

// One pipelined connection of the open loop. Requests are due on a fixed
// schedule (the aggregate rate split evenly over the connections) and are
// sent when due whatever is still outstanding; each is timed from when it
// was due, so a stall also charges the requests queued behind it. When the
// thread is blocked collecting a response, requests that fall due meanwhile
// are sent late; that lateness is reported as loadgen.late_us.
void Run::OpenLoopClient(ClientState* c, int t, uint64_t start, uint64_t end,
                         Samples* out) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // Wake close to the due time.
  const bool traced = tracing_env_ != nullptr;
  const uint64_t span = end - start;
  const uint64_t interval =
      static_cast<uint64_t>(1e9 * kClients / kServerRatePerSec);
  uint64_t due = start + interval * t / kClients;
  talus::server::Client& client = c->conn;
  Status s;
  struct Pending {
    uint64_t id, due, sent, index;
    OpKind kind;
    bool sampled;
  };
  std::deque<Pending> pending;
  talus::server::Client::Result result;
  for (;;) {
    uint64_t now = NowNanos();
    while (due <= now && due < end) {
      Pending p;
      p.kind = PickOp(&c->rnd);
      p.index = c->picker->Next(&c->rnd);
      p.due = due;
      p.sampled = traced && c->ops++ % kSpanSampleEvery == 0;
      const std::string key = Key(p.index);
      const std::string value =
          p.kind == OpKind::kGet
              ? std::string()
              : talus::workload::MakeValue(p.index, c->version++, kValueBytes);
      p.sent = NowNanos();
      p.id = p.kind == OpKind::kGet ? client.SendGet(key)
                                    : client.SendPut(key, value);
      if (out != nullptr) out->late_ns.push_back(Clamp32(p.sent - due));
      pending.push_back(p);
      due += interval;
    }
    if (pending.empty()) {
      if (due >= end) break;
      SleepUntil(due);
      continue;
    }
    const Pending p = pending.front();
    pending.pop_front();
    s = client.Wait(p.id, &result);
    const uint64_t done = NowNanos();
    attempted_.fetch_add(1, std::memory_order_relaxed);
    bool ok = true;
    if (p.kind == OpKind::kGet) {
      ok = CheckGet(s, p.index, result.value, &failures_);
    } else if (!s.ok()) {
      failures_.Add(kPutError);
      ok = false;
    }
    if (p.sampled) tracer_.RecordOp(p.kind, p.sent, done);
    if (out == nullptr) continue;
    const uint64_t latency = done - p.due;
    if (!ok || latency > kSloMicros * 1000) out->slo_misses++;
    const int window = static_cast<int>((p.due - start) * kWindows / span);
    out->lat_ns[KindIndex(p.kind)][window].push_back(Clamp32(latency));
    if (done < end) out->done[(done - start) * kWindows / span]++;
  }
}

void Run::Audit() {
  OnClients([this](int t) {
    std::string value;
    for (uint64_t i = t; i < w_.keys; i += kClients) {
      Status s = db_->Get(Key(i), &value);
      attempted_.fetch_add(1, std::memory_order_relaxed);
      if (!s.ok() || !ValueOk(i, value)) failures_.Add(kAuditBad);
    }
  });
}

void Run::PolicyShape(uint64_t* levels, uint64_t* runs) {
  *levels = 0;
  *runs = 0;
  for (size_t i = 0; i < db_->shard_count(); i++) {
    std::string text;
    uint64_t nonempty = 0;
    if (db_->shard(i)->GetProperty("talus.levels", &text)) {
      std::istringstream in(text);
      std::string line;
      while (std::getline(in, line)) {
        if (line.size() > 1 && line[0] == 'L' &&
            line.find("(empty)") == std::string::npos) {
          nonempty++;
        }
      }
    }
    *levels = std::max(*levels, nonempty);
    if (db_->shard(i)->GetProperty("talus.num-runs", &text)) {
      *runs += std::strtoull(text.c_str(), nullptr, 10);
    }
  }
}

// Measured-phase counter deltas for the per-layer table. Ratios are formed
// by summarize.py so that each is printed with its numerator and base.
std::string Run::LayerJson(const Counters& d, const std::vector<Samples>& s) {
  Json j;
  const talus::EngineStats& e = d.engine;
  uint64_t max_ops = 0, sum_ops = 0;
  for (uint64_t ops : d.shard_ops) {
    max_ops = std::max(max_ops, ops);
    sum_ops += ops;
  }
  j.Int("shard.ops_max", max_ops).Int("shard.ops_sum", sum_ops);
  j.Int("shard.count", d.shard_ops.size());
  j.Int("engine.gets", e.gets.load());
  j.Int("write.group_commits", d.group_commits);
  j.Int("write.batches_committed", d.batches_committed);
  j.Int("write.wal_syncs", d.wal_syncs);
  j.Int("write.queue_wait_us", d.queue_wait_us);
  j.Int("mem.lookups", d.amp.lookups);
  j.Int("mem.memtable_hits", d.amp.memtable_hits);
  j.Int("mem.switches", e.memtable_switches);
  uint64_t probes = 0, negatives = 0, false_pos = 0, blocks = 0;
  for (int l = 0; l < talus::obs::kAmpMaxLevels; l++) {
    probes += d.amp.levels[l].files_probed;
    negatives += d.amp.levels[l].filter_negatives;
    false_pos += d.amp.levels[l].bloom_false_positives;
    blocks += d.amp.levels[l].block_reads;
  }
  j.Int("filter.probes", probes).Int("filter.negatives", negatives);
  j.Int("filter.false_positives", false_pos);
  j.Int("table.block_reads", blocks);
  j.Int("cache.block_hits", d.bc_hits).Int("cache.block_misses", d.bc_misses);
  j.Int("cache.block_evictions", d.bc_evictions);
  j.Int("read.table_cache_hits", d.tc_hits);
  j.Int("read.table_cache_misses", d.tc_misses);
  j.Int("read.table_opens", d.tc_opens);
  j.Int("compaction.bytes_written", e.compaction_bytes_written);
  j.Int("compaction.compactions", e.compactions);
  j.Int("compaction.conflicts", e.compaction_conflicts);
  j.Int("exec.stall_us", e.stall_micros);
  j.Int("exec.slowdowns", e.stall_slowdowns);
  j.Int("exec.stops", e.stall_stops);
  j.Int("exec.stalls_l0", e.stall_slowdowns_l0 + e.stall_stops_l0);
  j.Int("server.requests", d.server.requests_total);
  j.Int("server.request_errors", d.server.request_errors);
  j.Int("server.coalesced_ops", d.server.coalesced_ops);
  j.Int("server.coalesced_batches", d.server.coalesced_batches);
  j.Int("server.bytes", d.server.bytes_in + d.server.bytes_out);
  // Env decorator counts; all zero in an untraced run.
  const IoCounters::Cell wal = d.io.Total(IoKind::kWalAppend);
  j.Int("wal.append_count", wal.calls).Int("wal.append_bytes", wal.bytes);
  j.Num("wal.append_busy_us", wal.busy_ns / 1e3);
  j.Int("wal.sync_count", d.io.Total(IoKind::kWalSync).calls);
  const IoCounters::Cell fg_read = d.io.Foreground(IoKind::kSstRead);
  const IoCounters::Cell get_read = d.io.at(OpKind::kGet, IoKind::kSstRead);
  j.Num("env.sst_read_busy_us", fg_read.busy_ns / 1e3);
  j.Int("env.sst_reads_get", get_read.calls);
  j.Int("env.sst_write_bytes", d.io.Total(IoKind::kSstWrite).bytes);
  const IoCounters::Cell bg_read = d.io.at(OpKind::kNone, IoKind::kSstRead);
  const IoCounters::Cell bg_write = d.io.at(OpKind::kNone, IoKind::kSstWrite);
  const IoCounters::Cell bg_wal = d.io.at(OpKind::kNone, IoKind::kWalAppend);
  j.Int("maintenance.io_calls", bg_read.calls + bg_write.calls + bg_wal.calls);
  j.Num("maintenance.io_busy_us",
        (bg_read.busy_ns + bg_write.busy_ns + bg_wal.busy_ns) / 1e3);
  uint64_t levels = 0, runs = 0;
  PolicyShape(&levels, &runs);
  j.Int("policy.levels", levels).Int("policy.runs", runs);
  std::vector<uint32_t> late;
  for (const Samples& x : s) late.insert(late.end(), x.late_ns.begin(),
                                         x.late_ns.end());
  size_t beyond = 0;
  j.Num("loadgen.late_us.p99", Percentile(&late, 99, &beyond) / 1e3);
  return j.str();
}

int Run::Main() {
  env_ = Env::Default();
  if (!args_.trace_dir.empty()) {
    fs::create_directories(args_.trace_dir);
    tracing_env_ = NewTracingEnv(env_, &tracer_);
    env_ = tracing_env_.get();
  }
  fs::create_directories(args_.dir);

  // Set-up: open + preload + CompactAll (+ warm-up), --setups times on a
  // fresh directory each; the last store is the one measured.
  std::vector<double> setup_s;
  for (int i = 0; i < args_.setups; i++) {
    if (db_ != nullptr) {
      db_.reset();
      std::error_code ec;
      fs::remove_all(path_, ec);
    }
    path_ = args_.dir + "/store-" + std::to_string(i);
    const uint64_t t0 = NowNanos();
    Status s = SetUp();
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back((NowNanos() - t0) / 1e9);
  }

  std::unique_ptr<talus::server::Server> server;
  if (w_.server) {
    server = std::make_unique<talus::server::Server>(
        db_.get(), talus::server::ServerOptions());
    Status s = server->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  for (int t = 0; t < kClients; t++) {
    clients_.push_back(std::make_unique<ClientState>(w_, args_.seed, t));
    if (server != nullptr) {
      Status s = clients_[t]->conn.Connect("127.0.0.1", server->port());
      if (!s.ok()) {
        std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }

  // ---- Ramp (checked, not measured) ----
  {
    const uint64_t start = NowNanos() + 1000000;  // Let the clients spawn.
    Phase(start, start + static_cast<uint64_t>(kRampSeconds * 1e9), nullptr,
          nullptr);
  }
  // The engine's footprint after set-up and the ramp, taken before the
  // measured phase fills this program's own latency buffers.
  const double peak_rss_mb = PeakRssMb();

  // ---- Measured phase ----
  const Counters before = Snapshot(db_.get(), env_, tracer_, server.get());
  const uint64_t phase_start_us = talus::NowMicros();
  tracer_.set_enabled(true);
  const uint64_t start = NowNanos() + 1000000;
  const uint64_t end = start + static_cast<uint64_t>(args_.seconds * 1e9);
  std::vector<Samples> samples(kClients);
  std::vector<WindowMark> marks;
  Phase(start, end, &samples, &marks);
  const uint64_t phase_end = NowNanos();
  tracer_.set_enabled(false);
  const uint64_t phase_end_us = talus::NowMicros();
  const Counters after = Snapshot(db_.get(), env_, tracer_, server.get());

  // ---- Metrics ----
  const Counters delta = Minus(after, before);

  // Per-window throughput, CPU/op and latency percentiles; the reported
  // value is the median window.
  const double window_s = args_.seconds / kWindows;
  const uint64_t logical_bytes = w_.keys * (kKeyBytes + kValueBytes);
  std::vector<double> kops, cpu_ns, space_amp;
  std::vector<double> pct[3][2];
  std::vector<uint32_t> whole[3];
  uint64_t count[3] = {0, 0, 0};
  uint64_t slo_misses = 0;
  for (int w = 0; w < kWindows; w++) {
    uint64_t ops = 0;
    for (Samples& s : samples) ops += s.done[w];
    for (int k = 0; k < 3; k++) {
      std::vector<uint32_t> all;
      for (Samples& s : samples) {
        all.insert(all.end(), s.lat_ns[k][w].begin(), s.lat_ns[k][w].end());
      }
      count[k] += all.size();
      whole[k].insert(whole[k].end(), all.begin(), all.end());
      if (all.empty()) continue;
      pct[k][0].push_back(Percentile(&all, 50, nullptr) / 1e3);
      pct[k][1].push_back(Percentile(&all, 99, nullptr) / 1e3);
    }
    kops.push_back(ops / window_s / 1e3);
    cpu_ns.push_back(ops == 0 ? 0
                              : (marks[w + 1].cpu_s - marks[w].cpu_s) * 1e9 /
                                    ops);
    space_amp.push_back(static_cast<double>(marks[w + 1].store_bytes) /
                        logical_bytes);
  }
  for (const Samples& s : samples) slo_misses += s.slo_misses;
  const uint64_t phase_ops = count[0] + count[1] + count[2];

  // Shard balance check.
  uint64_t max_ops = 0, sum_ops = 0;
  for (uint64_t ops : delta.shard_ops) {
    max_ops = std::max(max_ops, ops);
    sum_ops += ops;
  }
  const double imbalance =
      sum_ops == 0 ? 0 : max_ops * static_cast<double>(kShards) / sum_ops;
  const bool balanced = imbalance <= kMaxShardImbalance;

  if (server != nullptr) server->Stop();
  Audit();

  const uint64_t failed = failures_.Total();
  Json e2e;
  // The open loop's per-window completions only echo the fixed offered
  // rate; its throughput is the rate achieved over the phase, drain
  // included.
  e2e.Num("throughput_kops",
          w_.server ? phase_ops / ((phase_end - start) / 1e9) / 1e3
                    : Median(kops));
  const char* const kind_names[3] = {"get", "put", "scan"};
  for (int k = 0; k < 3; k++) {
    if (count[k] == 0) continue;
    e2e.Num(std::string(kind_names[k]) + "_p50_us", Median(pct[k][0]));
    e2e.Num(std::string(kind_names[k]) + "_p99_us", Median(pct[k][1]));
  }
  e2e.Num("cpu_ns_per_op", Median(cpu_ns));
  e2e.Num("write_amp", delta.engine.user_payload_written == 0
                           ? 0
                           : static_cast<double>(delta.io_bytes_written) /
                                 delta.engine.user_payload_written);
  e2e.Num("space_amp", Median(space_amp));
  e2e.Num("failed_op_frac",
          attempted_ == 0 ? 0 : static_cast<double>(failed) / attempted_);
  if (w_.server) {
    e2e.Num("slo_miss_frac",
            phase_ops == 0 ? 0 : static_cast<double>(slo_misses) / phase_ops);
  }
  e2e.Num("setup_s", Median(setup_s));
  e2e.Num("peak_rss_mb", peak_rss_mb);

  Json samples_json;
  for (int k = 0; k < 3; k++) samples_json.Int(kind_names[k], count[k]);
  // Per-window values behind each median, and whole-phase percentiles with
  // the number of samples beyond them.
  auto list = [](const std::vector<double>& v) {
    std::ostringstream o;
    for (size_t i = 0; i < v.size(); i++) o << (i ? ", " : "") << v[i];
    return "[" + o.str() + "]";
  };
  Json windows;
  windows.Raw("throughput_kops", list(kops));
  windows.Raw("cpu_ns_per_op", list(cpu_ns));
  windows.Raw("space_amp", list(space_amp));
  Json whole_json;
  for (int k = 0; k < 3; k++) {
    if (count[k] == 0) continue;
    const std::string name = kind_names[k];
    windows.Raw(name + "_p50_us", list(pct[k][0]));
    windows.Raw(name + "_p99_us", list(pct[k][1]));
    size_t beyond = 0;
    whole_json.Num(name + "_p50_us",
                   Percentile(&whole[k], 50, &beyond) / 1e3);
    whole_json.Num(name + "_p99_us",
                   Percentile(&whole[k], 99, &beyond) / 1e3);
    whole_json.Int(name + "_p99_beyond", beyond);
  }
  Json failures_json;
  for (int f = 0; f < kNumFailures; f++) {
    failures_json.Int(kFailureNames[f], failures_.counts[f].load());
  }
  std::ostringstream setups;
  for (size_t i = 0; i < setup_s.size(); i++) {
    setups << (i ? ", " : "") << setup_s[i];
  }
  char mix[64];
  std::snprintf(mix, sizeof(mix), "%.0f%% get / %.0f%% put / %.0f%% scan",
                100 * w_.get_share, 100 * w_.put_share,
                100 * (1 - w_.get_share - w_.put_share));
  Json config;
  config.Int("shards", kShards)
      .Str("execution_mode", "background")
      .Str("env", "posix")
      .Str("wal_sync_mode", "none")
      .Str("growth_policy", "vt-level-partial T=6 (default)")
      .Int("keys", w_.keys)
      .Int("key_bytes", kKeyBytes)
      .Int("value_bytes", kValueBytes)
      .Num("block_cache_mb_total",
           w_.block_cache_per_shard * kShards / 1048576.0)
      .Int("clients", kClients)
      .Str("loop", w_.server ? "open" : "closed")
      .Num("rate_per_s", w_.server ? kServerRatePerSec : 0)
      .Str("mix", mix)
      .Str("keys_dist", w_.zipfian ? "zipfian 0.99" : "uniform");

  Json out;
  out.Str("workload", w_.name)
      .Int("seed", args_.seed)
      .Num("seconds", args_.seconds)
      .Raw("traced", tracing_env_ ? "true" : "false")
      .Raw("config", config.str())
      .Raw("correct", failed == 0 && balanced ? "true" : "false")
      .Int("attempted", attempted_.load())
      .Int("failed", failed)
      .Raw("failures", failures_json.str())
      .Num("shard_imbalance", imbalance)
      .Raw("e2e", e2e.str())
      .Raw("samples", samples_json.str())
      .Raw("windows", windows.str())
      .Raw("whole_phase", whole_json.str())
      .Raw("setup_runs_s", "[" + setups.str() + "]")
      .Int("phase_ops", phase_ops)
      .Num("phase_seconds", (phase_end - start) / 1e9)
      .Int("phase_start_us", phase_start_us)
      .Int("phase_end_us", phase_end_us)
      .Raw("layers", LayerJson(delta, samples));
  if (!args_.trace_dir.empty() &&
      !tracer_.Dump(args_.trace_dir + "/spans.tsv")) {
    std::fprintf(stderr, "cannot write spans.tsv\n");
    return 1;
  }
  server.reset();
  db_.reset();
  std::error_code ec;
  fs::remove_all(path_, ec);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  if (!balanced) {
    std::fprintf(stderr, "shard imbalance %.2f > %.1f: split points do not "
                 "match the key space\n", imbalance, kMaxShardImbalance);
  }
  return failed == 0 && balanced ? 0 : 1;
}

}  // namespace
}  // namespace lsmbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    const int failed = lsmbench::SelfTest();
    std::printf("bench_stats selftest: %d failed\n", failed);
    return failed == 0 ? 0 : 1;
  }
  lsmbench::Run run(lsmbench::ParseArgs(argc, argv));
  return run.Main();
}
