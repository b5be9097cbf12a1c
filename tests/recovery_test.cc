// Crash-consistency tests: the WAL + manifest protocol must never lose
// acknowledged-durable writes or leave the store unopenable, under injected
// write failures and simulated power loss (FaultInjectionEnv).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "env/fault_env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "workload/generator.h"

namespace talus {
namespace {

DbOptions Opts(Env* env, bool wal_sync) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/crash";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  if (wal_sync) opts.wal_sync_mode = WalSyncMode::kPerGroup;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  return opts;
}

std::string Key(int i) { return workload::FormatKey(i, 16); }

TEST(CrashRecovery, SyncedWalLosesNothing) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, /*wal_sync=*/true), &db).ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db->Put(Key(i), "value" + std::to_string(i)).ok());
    }
    // Power loss: drop everything unsynced, abandon the DB object.
    env.DropUnsyncedWrites();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
  for (int i = 0; i < 500; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(Key(i), &value).ok()) << "lost key " << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
}

TEST(CrashRecovery, UnsyncedWalKeepsFlushedPrefix) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  int durable_upto = -1;  // Last key written before the last flush.
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, /*wal_sync=*/false), &db).ok());
    uint64_t flushes_seen = 0;
    for (int i = 0; i < 800; i++) {
      ASSERT_TRUE(db->Put(Key(i), std::string(200, 'v')).ok());
      if (db->stats().flushes > flushes_seen) {
        flushes_seen = db->stats().flushes;
        durable_upto = i;  // Everything up to i is now in synced SSTs.
      }
    }
    ASSERT_GE(durable_upto, 0);
    env.DropUnsyncedWrites();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, false), &db).ok());
  for (int i = 0; i <= durable_upto; i++) {
    std::string value;
    EXPECT_TRUE(db->Get(Key(i), &value).ok()) << "lost flushed key " << i;
  }
}

TEST(CrashRecovery, WriteFailuresSurfaceAndStoreStaysOpenable) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put(Key(i), std::string(200, 'v')).ok());
    }
    env.FailAfterWrites(50);
    // Keep writing until the injected failure surfaces.
    bool failed = false;
    for (int i = 100; i < 2000; i++) {
      if (!db->Put(Key(i), std::string(200, 'v')).ok()) {
        failed = true;
        break;
      }
    }
    EXPECT_TRUE(failed);
    env.Disarm();
    env.DropUnsyncedWrites();
  }
  // The store must reopen cleanly after the failure + crash.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
  std::string value;
  // Everything acknowledged before the failure window is present (synced
  // WAL mode).
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(db->Get(Key(i), &value).ok()) << "lost key " << i;
  }
  // And the store accepts new writes.
  EXPECT_TRUE(db->Put(Key(9999), "after-recovery").ok());
  EXPECT_TRUE(db->Get(Key(9999), &value).ok());
}

// A crash between a manifest install and the removal of the WALs it
// retired leaves WALs older than the oldest one the manifest names. Their
// data is in the manifest's version, so Open deletes them.
TEST(CrashRecovery, OpenSweepsWalsOlderThanTheManifestNames) {
  auto env = NewMemEnv();
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(env.get(), false), &db).ok());
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(db->Put(Key(i), std::string(200, 'v')).ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  // WAL 1 belonged to the first memtable, long since flushed.
  const std::string stale = WalFileName("/crash", 1);
  ASSERT_FALSE(env->FileExists(stale));
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(stale, &file).ok());
    ASSERT_TRUE(file->Append("stale").ok());
    ASSERT_TRUE(file->Close().ok());
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get(), false), &db).ok());
  EXPECT_FALSE(env->FileExists(stale));
  std::string value;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db->Get(Key(i), &value).ok()) << "lost key " << i;
  }
}

class CrashPointTest : public ::testing::TestWithParam<int> {};

// Sweep the failure point across the write stream: whatever the crash
// position, reopening must succeed and recovered contents must be a
// prefix-consistent subset of acknowledged writes.
TEST_P(CrashPointTest, RecoversConsistentState) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  std::map<std::string, std::string> acked;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, /*wal_sync=*/true), &db).ok());
    env.FailAfterWrites(GetParam());
    for (int i = 0; i < 600; i++) {
      const std::string key = Key(i % 150);
      const std::string value = "v" + std::to_string(i);
      if (db->Put(key, value).ok()) {
        acked[key] = value;
      } else {
        break;  // Engine reported the failure: stop like a client would.
      }
    }
    env.Disarm();
    env.DropUnsyncedWrites();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok())
      << "crash point " << GetParam();
  // With synced WAL, acknowledged implies durable. (The converse need not
  // hold: a failed op may still have reached the log.)
  for (const auto& [key, value] : acked) {
    std::string got;
    Status s = db->Get(key, &got);
    ASSERT_TRUE(s.ok()) << "crash point " << GetParam() << " lost " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashPointTest,
                         ::testing::Values(10, 60, 150, 400, 900, 2000,
                                           5000));

}  // namespace
}  // namespace talus
