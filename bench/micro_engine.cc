// Engine micro-benchmarks (google-benchmark): substrate hot paths.
//
// Keys are formatted before each timed loop (KeyPool): workload::FormatKey's
// snprintf costs more than a Bloom probe, so formatting inside the loop
// measured the harness instead of the structure. Structures are sized as
// the engine sizes them (the memtable resets at the default
// write_buffer_size, the point at which the engine switches it out).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "env/env.h"
#include "filter/bloom.h"
#include "format/block.h"
#include "format/block_builder.h"
#include "lsm/db.h"
#include "mem/memtable.h"
#include "theory/binomial.h"
#include "theory/optimal_dp.h"
#include "theory/schemes.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

// 2^16 keys drawn uniformly from [0, range), formatted up front. The timed
// loops cycle through the pool with a mask.
constexpr size_t kKeyPoolMask = (1 << 16) - 1;
std::vector<std::string> KeyPool(uint64_t range, size_t key_size,
                                 uint32_t seed) {
  Random rnd(seed);
  std::vector<std::string> keys(kKeyPoolMask + 1);
  for (auto& k : keys) k = workload::FormatKey(rnd.Uniform(range), key_size);
  return keys;
}

void BM_MemTableAdd(benchmark::State& state) {
  const std::vector<std::string> keys = KeyPool(100000, 16, 1);
  const uint64_t capacity = DbOptions{}.write_buffer_size;
  auto mem = std::make_unique<MemTable>();
  SequenceNumber seq = 0;
  std::string value(100, 'v');
  size_t i = 0;
  for (auto _ : state) {
    mem->Add(++seq, kTypeValue, keys[i++ & kKeyPoolMask], value);
    if (mem->payload_bytes() >= capacity) {
      state.PauseTiming();
      mem = std::make_unique<MemTable>();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MemTableAdd);

void BM_MemTableGet(benchmark::State& state) {
  MemTable mem;
  std::string value(100, 'v');
  for (uint64_t i = 0; i < 100000; i++) {
    mem.Add(i + 1, kTypeValue, workload::FormatKey(i, 16), value);
  }
  const std::vector<std::string> keys = KeyPool(100000, 16, 2);
  std::string out;
  Status s;
  size_t i = 0;
  for (auto _ : state) {
    LookupKey lkey(keys[i++ & kKeyPoolMask], kMaxSequenceNumber);
    benchmark::DoNotOptimize(mem.Get(lkey, &out, &s));
  }
}
BENCHMARK(BM_MemTableGet);

void BM_BloomBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BloomFilterBuilder builder(10.0);
    for (int i = 0; i < n; i++) {
      builder.AddKey(workload::FormatKey(i, 16));
    }
    std::string data = builder.Finish();
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BloomBuild)->Arg(1024)->Arg(16384);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilterBuilder builder(10.0);
  for (int i = 0; i < 100000; i++) builder.AddKey(workload::FormatKey(i, 16));
  std::string data = builder.Finish();
  BloomFilterReader reader{Slice(data)};
  const std::vector<std::string> keys = KeyPool(200000, 16, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.KeyMayMatch(keys[i++ & kKeyPoolMask]));
  }
}
BENCHMARK(BM_BloomProbe);

void BM_BlockSeek(benchmark::State& state) {
  BlockBuilder builder(16);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; i++) {
    keys.push_back(workload::FormatKey(i * 7, 16));
  }
  for (const auto& k : keys) builder.Add(k, "value");
  Block block(builder.Finish().ToString());
  Random rnd(4);
  auto iter = block.NewIterator();
  for (auto _ : state) {
    iter->Seek(keys[rnd.Uniform(keys.size())]);
    benchmark::DoNotOptimize(iter->Valid());
  }
}
BENCHMARK(BM_BlockSeek);

void BM_LruCache(benchmark::State& state) {
  LruCache cache(1 << 20);
  const std::vector<std::string> keys = KeyPool(2000, 16, 5);
  size_t i = 0;
  for (auto _ : state) {
    const std::string& key = keys[i++ & kKeyPoolMask];
    auto hit = cache.Lookup(key);
    if (hit == nullptr) {
      cache.Insert(key, std::make_shared<std::string>(1024, 'x'), 1024);
    }
  }
}
BENCHMARK(BM_LruCache);

void BM_DbPut(benchmark::State& state) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/bm";
  opts.write_buffer_size = 256 << 10;
  opts.target_file_size = 256 << 10;
  opts.policy = GrowthPolicyConfig::Vertiorizon(6.0);
  std::unique_ptr<DB> db;
  if (!DB::Open(opts, &db).ok()) {
    state.SkipWithError("open failed");
    return;
  }
  const std::vector<std::string> keys = KeyPool(50000, 128, 6);
  std::string value(896, 'v');
  size_t i = 0;
  for (auto _ : state) {
    Status s = db->Put(keys[i++ & kKeyPoolMask], value);
    if (!s.ok()) state.SkipWithError("put failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbPut);

void BM_DbGet(benchmark::State& state) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/bm";
  opts.write_buffer_size = 256 << 10;
  opts.target_file_size = 256 << 10;
  opts.policy = GrowthPolicyConfig::VTLevelPart(6.0);
  std::unique_ptr<DB> db;
  if (!DB::Open(opts, &db).ok()) {
    state.SkipWithError("open failed");
    return;
  }
  std::string value(896, 'v');
  for (uint64_t i = 0; i < 10000; i++) {
    db->Put(workload::FormatKey(i, 128), value);
  }
  const std::vector<std::string> keys = KeyPool(10000, 128, 7);
  std::string out;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(keys[i++ & kKeyPoolMask], &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbGet);

void BM_TieringSimulator(benchmark::State& state) {
  const uint64_t n = state.range(0);
  for (auto _ : state) {
    auto r = theory::SimulateHorizontalTiering(
        n, 4, theory::FindK(n, 4));
    benchmark::DoNotOptimize(r.read_cost);
  }
}
BENCHMARK(BM_TieringSimulator)->Arg(1000)->Arg(10000);

void BM_ClosedFormReadCost(benchmark::State& state) {
  Random rnd(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        theory::TieringReadCostClosedForm(rnd.Uniform(1 << 20) + 2, 4));
  }
}
BENCHMARK(BM_ClosedFormReadCost);

}  // namespace
}  // namespace talus

BENCHMARK_MAIN();
