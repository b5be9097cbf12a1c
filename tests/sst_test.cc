#include "table/sst_builder.h"
#include "table/sst_reader.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "env/env.h"
#include "lsm/dbformat.h"
#include "util/random.h"

namespace talus {
namespace {

struct SstFixture {
  std::unique_ptr<Env> env = NewMemEnv();
  std::map<std::string, std::string> model;  // user key -> value
  std::unique_ptr<SstReader> reader;
  LruCache cache{1 << 20};

  void Build(int num_keys, double bpk = 10.0, size_t block_size = 4096,
             FilterVariant variant = FilterVariant::kLegacy) {
    Random rnd(17);
    SequenceNumber seq = 1;
    for (int i = 0; i < num_keys; i++) {
      char key[32];
      snprintf(key, sizeof(key), "user%08d", i * 3);
      model[key] = "value-" + std::to_string(rnd.Next());
    }
    SstBuilderOptions opts;
    opts.bits_per_key = bpk;
    opts.block_size = block_size;
    opts.filter_variant = variant;
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile("/sst/000001.sst", &file).ok());
    SstBuilder builder(opts, std::move(file));
    for (const auto& [k, v] : model) {
      InternalKey ikey(k, seq++, kTypeValue);
      builder.Add(ikey.Encode(), v);
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(
        SstReader::Open(env.get(), "/sst/000001.sst", 1, &cache, &reader)
            .ok());
  }
};

TEST(Sst, PointLookupsFindEverything) {
  SstFixture fx;
  fx.Build(2000);
  for (const auto& [k, v] : fx.model) {
    std::string value;
    Status s;
    LookupKey lkey(k, kMaxSequenceNumber);
    ASSERT_TRUE(fx.reader->Get(lkey, &value, &s)) << k;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(value, v);
  }
}

TEST(Sst, MissingKeysUndecided) {
  SstFixture fx;
  fx.Build(1000);
  int decided = 0;
  for (int i = 0; i < 1000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%08d", i * 3 + 1);  // Gaps.
    std::string value;
    Status s;
    if (fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s)) {
      decided++;
    }
  }
  EXPECT_EQ(decided, 0);
}

TEST(Sst, FilterSkipsMostMissingKeys) {
  SstFixture fx;
  fx.Build(5000, 10.0);
  int filter_negative = 0;
  const int probes = 2000;
  for (int i = 0; i < probes; i++) {
    char key[32];
    snprintf(key, sizeof(key), "zzzz%08d", i);
    std::string value;
    Status s;
    SstReader::GetStats stats;
    fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s, &stats);
    if (stats.filter_negative) filter_negative++;
  }
  EXPECT_GT(filter_negative, probes * 9 / 10);
}

TEST(Sst, IteratorFullScan) {
  SstFixture fx;
  fx.Build(3000);
  auto iter = fx.reader->NewIterator();
  iter->SeekToFirst();
  auto it = fx.model.begin();
  while (iter->Valid()) {
    ASSERT_NE(it, fx.model.end());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), it->first);
    EXPECT_EQ(iter->value().ToString(), it->second);
    iter->Next();
    ++it;
  }
  EXPECT_EQ(it, fx.model.end());
}

TEST(Sst, IteratorSeek) {
  SstFixture fx;
  fx.Build(1000);
  auto iter = fx.reader->NewIterator();
  for (const auto& [k, v] : fx.model) {
    LookupKey lkey(k, kMaxSequenceNumber);
    iter->Seek(lkey.internal_key());
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), k);
  }
  // Seek past the end.
  LookupKey past("zzzzzzzz", kMaxSequenceNumber);
  iter->Seek(past.internal_key());
  EXPECT_FALSE(iter->Valid());
}

TEST(Sst, BlockCacheServesRepeatedReads) {
  SstFixture fx;
  fx.Build(2000);
  const std::string key = fx.model.begin()->first;
  std::string value;
  Status s;
  SstReader::GetStats first, second;
  fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s, &first);
  fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s, &second);
  EXPECT_TRUE(first.block_read);
  EXPECT_TRUE(second.cache_hit);
}

TEST(Sst, SmallBlocksRoundTrip) {
  SstFixture fx;
  fx.Build(500, 10.0, /*block_size=*/256);
  for (const auto& [k, v] : fx.model) {
    std::string value;
    Status s;
    ASSERT_TRUE(fx.reader->Get(LookupKey(k, kMaxSequenceNumber), &value, &s));
    EXPECT_EQ(value, v);
  }
}

TEST(Sst, PosixEnvRoundTrip) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "talus_sst_test";
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  const std::string fname = dir + "/000007.sst";

  SstBuilderOptions opts;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  SstBuilder builder(opts, std::move(file));
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    char key[32];
    snprintf(key, sizeof(key), "posix%06d", i);
    model[key] = "val" + std::to_string(i);
  }
  SequenceNumber seq = 1;
  for (const auto& [k, v] : model) {
    builder.Add(InternalKey(k, seq++, kTypeValue).Encode(), v);
  }
  ASSERT_TRUE(builder.Finish().ok());

  LruCache cache(1 << 20);
  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(SstReader::Open(env, fname, 7, &cache, &reader).ok());
  for (const auto& [k, v] : model) {
    std::string value;
    Status s;
    ASSERT_TRUE(reader->Get(LookupKey(k, kMaxSequenceNumber), &value, &s));
    EXPECT_EQ(value, v);
  }
  env->RemoveFile(fname);
}

// Compatibility matrix: SSTs written with either filter variant must read
// back correctly — one reader handles any mix of file vintages.
TEST(Sst, FilterVariantMatrix) {
  for (const FilterVariant variant :
       {FilterVariant::kLegacy, FilterVariant::kBlocked}) {
    SstFixture fx;
    fx.Build(2000, 10.0, 4096, variant);
    SCOPED_TRACE("variant=" + std::to_string(static_cast<int>(variant)));
    for (const auto& [k, v] : fx.model) {
      std::string value;
      Status s;
      LookupKey lkey(k, kMaxSequenceNumber);
      ASSERT_TRUE(fx.reader->Get(lkey, &value, &s)) << k;
      EXPECT_TRUE(s.ok());
      EXPECT_EQ(value, v);
    }
    // Missing keys stay undecided and the filter still fires.
    int decided = 0, filter_negative = 0;
    for (int i = 0; i < 1000; i++) {
      char key[32];
      snprintf(key, sizeof(key), "zzzz%08d", i);
      std::string value;
      Status s;
      SstReader::GetStats stats;
      if (fx.reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s,
                         &stats)) {
        decided++;
      }
      if (stats.filter_negative) filter_negative++;
    }
    EXPECT_EQ(decided, 0);
    EXPECT_GT(filter_negative, 900);
  }
}

// Get must decide exactly the keys a seek through the reader's own
// iterator (the oracle) lands on, and its per-lookup stats must be
// coherent: the amp counters built from them feed the cost model.
TEST(Sst, GetMatchesIteratorOracle) {
  SstFixture fx;
  fx.Build(3000);
  std::unique_ptr<Iterator> oracle = fx.reader->NewIterator();
  for (int i = 0; i < 3000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%08d", i);  // Mix of hits and misses.
    const LookupKey lkey(key, kMaxSequenceNumber);
    oracle->Seek(lkey.internal_key());
    const bool want =
        oracle->Valid() && ExtractUserKey(oracle->key()) == Slice(key);
    std::string value;
    Status s;
    SstReader::GetStats g;
    const bool decided = fx.reader->Get(lkey, &value, &s, &g);
    ASSERT_EQ(decided, want) << key;
    if (decided) {
      EXPECT_TRUE(s.ok()) << key;
      EXPECT_EQ(value, oracle->value().ToString()) << key;
    }
    if (g.filter_negative) {
      EXPECT_FALSE(g.block_read || g.cache_hit) << key;
    } else {
      EXPECT_NE(g.block_read, g.cache_hit) << key;  // Exactly one block.
    }
  }
}

TEST(Sst, TombstonesDecideLookups) {
  auto env = NewMemEnv();
  SstBuilderOptions opts;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/t.sst", &file).ok());
  SstBuilder builder(opts, std::move(file));
  builder.Add(InternalKey("dead", 5, kTypeDeletion).Encode(), "");
  builder.Add(InternalKey("live", 6, kTypeValue).Encode(), "v");
  ASSERT_TRUE(builder.Finish().ok());

  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(SstReader::Open(env.get(), "/t.sst", 1, nullptr, &reader).ok());
  std::string value;
  Status s;
  ASSERT_TRUE(reader->Get(LookupKey("dead", 100), &value, &s));
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_TRUE(reader->Get(LookupKey("live", 100), &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "v");
}

}  // namespace
}  // namespace talus
