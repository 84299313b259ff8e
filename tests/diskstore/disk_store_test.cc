#include "src/diskstore/disk_store.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "tests/diskstore/flaky_env.h"
#include "tests/diskstore/temp_dir.h"

namespace past {
namespace {

U160 KeyOf(uint32_t i) {
  std::array<uint8_t, U160::kBytes> raw{};
  raw[0] = static_cast<uint8_t>(i);
  raw[1] = static_cast<uint8_t>(i >> 8);
  raw[2] = static_cast<uint8_t>(i >> 16);
  raw[3] = static_cast<uint8_t>(i >> 24);
  raw[19] = 0x5a;
  return U160::FromBytes(ByteSpan(raw.data(), raw.size()));
}

Bytes ValueOf(uint32_t i, size_t len) {
  Bytes out(len);
  for (size_t j = 0; j < len; ++j) {
    out[j] = static_cast<uint8_t>(i * 31 + j);
  }
  return out;
}

ByteSpan Span(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

// A store opened without a registry counts into its own.
uint64_t Count(const DiskStore& store, const char* name) {
  return store.metrics().FindCounter(name)->value();
}

std::unique_ptr<DiskStore> MustOpen(const std::string& dir,
                                    const DiskStoreOptions& options = {}) {
  Result<std::unique_ptr<DiskStore>> store = DiskStore::Open(dir, options);
  EXPECT_TRUE(store.ok()) << StatusCodeName(store.status());
  return std::move(store).value();
}

TEST(DiskStoreTest, PutGetRemoveRoundTrip) {
  TempDir tmp;
  auto store = MustOpen(tmp.Sub("db"));
  EXPECT_FALSE(store->Has(KeyOf(1)));
  EXPECT_EQ(store->Get(KeyOf(1)).status(), StatusCode::kNotFound);
  EXPECT_EQ(store->Remove(KeyOf(1)), StatusCode::kNotFound);

  EXPECT_EQ(store->Put(KeyOf(1), Span(ValueOf(1, 100))), StatusCode::kOk);
  EXPECT_EQ(store->Put(KeyOf(2), ByteSpan()), StatusCode::kOk);  // empty value
  EXPECT_TRUE(store->Has(KeyOf(1)));
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(1, 100));
  EXPECT_EQ(store->Get(KeyOf(2)).value(), Bytes{});
  EXPECT_EQ(store->key_count(), 2u);

  EXPECT_EQ(store->Remove(KeyOf(1)), StatusCode::kOk);
  EXPECT_FALSE(store->Has(KeyOf(1)));
  EXPECT_EQ(store->key_count(), 1u);
}

TEST(DiskStoreTest, OverwriteIsLastWriteWins) {
  TempDir tmp;
  auto store = MustOpen(tmp.Sub("db"));
  EXPECT_EQ(store->Put(KeyOf(1), Span(ValueOf(1, 40))), StatusCode::kOk);
  EXPECT_EQ(store->Put(KeyOf(1), Span(ValueOf(2, 17))), StatusCode::kOk);
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(2, 17));
  EXPECT_EQ(store->key_count(), 1u);
  EXPECT_GT(store->garbage_bytes(), 0u);
}

TEST(DiskStoreTest, PointerKeyspaceIsIndependent) {
  TempDir tmp;
  auto store = MustOpen(tmp.Sub("db"));
  EXPECT_EQ(store->Put(KeyOf(1), Span(ValueOf(1, 10))), StatusCode::kOk);
  EXPECT_EQ(store->PutPointer(KeyOf(1), Span(ValueOf(9, 6))), StatusCode::kOk);
  EXPECT_TRUE(store->Has(KeyOf(1)));
  EXPECT_TRUE(store->HasPointer(KeyOf(1)));
  EXPECT_EQ(store->GetPointer(KeyOf(1)).value(), ValueOf(9, 6));

  EXPECT_EQ(store->RemovePointer(KeyOf(1)), StatusCode::kOk);
  EXPECT_FALSE(store->HasPointer(KeyOf(1)));
  EXPECT_TRUE(store->Has(KeyOf(1)));  // file untouched
  EXPECT_EQ(store->RemovePointer(KeyOf(2)), StatusCode::kNotFound);
}

TEST(DiskStoreTest, ReopenRecoversEverything) {
  TempDir tmp;
  const std::string dir = tmp.Sub("db");
  {
    auto store = MustOpen(dir);
    for (uint32_t i = 0; i < 50; ++i) {
      EXPECT_EQ(store->Put(KeyOf(i), Span(ValueOf(i, i % 37))), StatusCode::kOk);
    }
    for (uint32_t i = 0; i < 50; i += 3) {
      EXPECT_EQ(store->Remove(KeyOf(i)), StatusCode::kOk);
    }
    EXPECT_EQ(store->PutPointer(KeyOf(1000), Span(ValueOf(7, 8))), StatusCode::kOk);
  }
  auto store = MustOpen(dir);
  EXPECT_GT(Count(*store, "disk.recovery_replayed"), 0u);
  for (uint32_t i = 0; i < 50; ++i) {
    if (i % 3 == 0) {
      EXPECT_FALSE(store->Has(KeyOf(i)));
    } else {
      ASSERT_TRUE(store->Has(KeyOf(i)));
      EXPECT_EQ(store->Get(KeyOf(i)).value(), ValueOf(i, i % 37));
    }
  }
  EXPECT_EQ(store->GetPointer(KeyOf(1000)).value(), ValueOf(7, 8));
}

TEST(DiskStoreTest, ActiveSegmentRollsOverAtTarget) {
  TempDir tmp;
  DiskStoreOptions options;
  options.segment_target_bytes = 256;
  options.compact_min_bytes = 1ULL << 30;  // keep compaction out of this test
  auto store = MustOpen(tmp.Sub("db"), options);
  for (uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(store->Put(KeyOf(i), Span(ValueOf(i, 50))), StatusCode::kOk);
  }
  EXPECT_GT(store->segment_count(), 3u);

  // Everything survives a reopen across many segments.
  store.reset();
  store = MustOpen(tmp.Sub("db"), options);
  EXPECT_EQ(store->key_count(), 40u);
}

TEST(DiskStoreTest, CompactionReclaimsGarbageAndPreservesState) {
  TempDir tmp;
  DiskStoreOptions options;
  options.segment_target_bytes = 512;
  options.compact_min_bytes = 1ULL << 30;  // only explicit Compact()
  const std::string dir = tmp.Sub("db");
  auto store = MustOpen(dir, options);
  for (uint32_t round = 0; round < 10; ++round) {
    for (uint32_t i = 0; i < 8; ++i) {
      EXPECT_EQ(store->Put(KeyOf(i), Span(ValueOf(round * 8 + i, 60))),
                StatusCode::kOk);
    }
  }
  EXPECT_EQ(store->Remove(KeyOf(0)), StatusCode::kOk);
  EXPECT_EQ(store->PutPointer(KeyOf(99), Span(ValueOf(3, 9))), StatusCode::kOk);
  const uint64_t garbage_before = store->garbage_bytes();
  EXPECT_GT(garbage_before, 0u);

  EXPECT_EQ(store->Compact(), StatusCode::kOk);
  EXPECT_EQ(store->garbage_bytes(), 0u);
  EXPECT_EQ(Count(*store, "disk.compactions"), 1u);
  EXPECT_EQ(store->segment_count(), 2u);  // compacted + fresh active
  for (uint32_t i = 1; i < 8; ++i) {
    EXPECT_EQ(store->Get(KeyOf(i)).value(), ValueOf(72 + i, 60));
  }
  EXPECT_FALSE(store->Has(KeyOf(0)));
  EXPECT_EQ(store->GetPointer(KeyOf(99)).value(), ValueOf(3, 9));

  // And the compacted log still replays.
  store.reset();
  store = MustOpen(dir, options);
  EXPECT_EQ(store->key_count(), 7u);
  EXPECT_EQ(store->pointer_count(), 1u);
  EXPECT_EQ(store->Get(KeyOf(5)).value(), ValueOf(77, 60));
}

TEST(DiskStoreTest, CompactionTriggersFromGarbageThresholds) {
  TempDir tmp;
  DiskStoreOptions options;
  options.segment_target_bytes = 512;
  options.compact_min_bytes = 512;
  options.compact_garbage_ratio = 0.5;
  auto store = MustOpen(tmp.Sub("db"), options);
  // Hammer one key: almost everything becomes garbage.
  for (uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(store->Put(KeyOf(1), Span(ValueOf(i, 40))), StatusCode::kOk);
  }
  EXPECT_GT(Count(*store, "disk.compactions"), 0u);
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(199, 40));
}

TEST(DiskStoreTest, SyncPolicyControlsFsyncCadence) {
  TempDir tmp;
  DiskStoreOptions write_through;
  write_through.sync_every = 1;
  {
    auto store = MustOpen(tmp.Sub("wt"), write_through);
    for (uint32_t i = 0; i < 10; ++i) {
      EXPECT_EQ(store->Put(KeyOf(i), Span(ValueOf(i, 10))), StatusCode::kOk);
    }
    EXPECT_GE(Count(*store, "disk.fsyncs"), 10u);
  }
  DiskStoreOptions lazy;
  lazy.sync_every = 0;
  {
    auto store = MustOpen(tmp.Sub("lazy"), lazy);
    for (uint32_t i = 0; i < 10; ++i) {
      EXPECT_EQ(store->Put(KeyOf(i), Span(ValueOf(i, 10))), StatusCode::kOk);
    }
    EXPECT_EQ(Count(*store, "disk.fsyncs"), 0u);
    EXPECT_EQ(store->Sync(), StatusCode::kOk);
    EXPECT_EQ(Count(*store, "disk.fsyncs"), 1u);
  }
}

TEST(DiskStoreTest, TornTailIsTruncatedOnReopen) {
  TempDir tmp;
  const std::string dir = tmp.Sub("db");
  {
    auto store = MustOpen(dir);
    EXPECT_EQ(store->Put(KeyOf(1), Span(ValueOf(1, 30))), StatusCode::kOk);
    EXPECT_EQ(store->Put(KeyOf(2), Span(ValueOf(2, 30))), StatusCode::kOk);
  }
  // Simulate a crash mid-append: garbage half-record at the end of the only
  // segment.
  {
    std::ofstream f(dir + "/" + SegmentFileName(1),
                    std::ios::binary | std::ios::app);
    const char torn[] = {0x12, 0x34, 0x56};
    f.write(torn, sizeof(torn));
  }
  auto store = MustOpen(dir);
  EXPECT_EQ(Count(*store, "disk.torn_tails"), 1u);
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(1, 30));
  EXPECT_EQ(store->Get(KeyOf(2)).value(), ValueOf(2, 30));

  // After truncation the log is clean again: appends and reopen still work.
  EXPECT_EQ(store->Put(KeyOf(3), Span(ValueOf(3, 30))), StatusCode::kOk);
  store.reset();
  store = MustOpen(dir);
  EXPECT_EQ(Count(*store, "disk.torn_tails"), 0u);
  EXPECT_EQ(store->key_count(), 3u);
}

TEST(DiskStoreTest, MidLogCorruptionIsReportedNotDropped) {
  TempDir tmp;
  DiskStoreOptions options;
  options.segment_target_bytes = 128;  // force several segments
  options.compact_min_bytes = 1ULL << 30;
  const std::string dir = tmp.Sub("db");
  {
    auto store = MustOpen(dir, options);
    for (uint32_t i = 0; i < 12; ++i) {
      EXPECT_EQ(store->Put(KeyOf(i), Span(ValueOf(i, 40))), StatusCode::kOk);
    }
    EXPECT_GT(store->segment_count(), 2u);
  }
  // Flip one byte of a record in the FIRST segment: valid data follows it,
  // so this is corruption, not a torn tail.
  {
    std::fstream f(dir + "/" + SegmentFileName(1),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(kSegmentHeaderSize + 12));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(kSegmentHeaderSize + 12));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(kSegmentHeaderSize + 12));
    f.write(&byte, 1);
  }
  Result<std::unique_ptr<DiskStore>> reopened = DiskStore::Open(dir, options);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status(), StatusCode::kCorruption);
}

TEST(DiskStoreTest, BadSegmentHeaderIsCorruption) {
  TempDir tmp;
  const std::string dir = tmp.Sub("db");
  {
    auto store = MustOpen(dir);
    EXPECT_EQ(store->Put(KeyOf(1), Span(ValueOf(1, 10))), StatusCode::kOk);
  }
  {
    std::fstream f(dir + "/" + SegmentFileName(1),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XXXX", 4);  // destroy the magic
  }
  // Even in the last segment a wrong magic is corruption: the header was
  // written and synced before any record was acknowledged.
  EXPECT_EQ(DiskStore::Open(dir, {}).status(), StatusCode::kCorruption);
}

TEST(DiskStoreTest, MetricsMirrorIntoSharedRegistry) {
  TempDir tmp;
  MetricsRegistry metrics;
  DiskStoreOptions options;
  options.metrics = &metrics;
  options.sync_every = 2;
  const std::string dir = tmp.Sub("db");
  {
    auto store = MustOpen(dir, options);
    for (uint32_t i = 0; i < 6; ++i) {
      EXPECT_EQ(store->Put(KeyOf(i), Span(ValueOf(i, 20))), StatusCode::kOk);
    }
    EXPECT_GT(metrics.GetCounter("disk.bytes_written")->value(), 0u);
    EXPECT_GE(metrics.GetCounter("disk.fsyncs")->value(), 3u);
    EXPECT_EQ(metrics.GetGauge("disk.segments")->value(), 1.0);
  }
  // The destructor hands back the gauge; reopening replays into the counter.
  EXPECT_EQ(metrics.GetGauge("disk.segments")->value(), 0.0);
  auto store = MustOpen(dir, options);
  EXPECT_EQ(metrics.GetCounter("disk.recovery_replayed")->value(), 6u);
  EXPECT_EQ(metrics.GetGauge("disk.segments")->value(), 1.0);
}

// --- write failures --------------------------------------------------------
// A full or failing disk (FlakyEnv) costs only the write that hit it: the
// store keeps serving, later records land where the index says they are,
// and a reopen recovers every acknowledged record.

size_t RecordSize(size_t value_len) {
  return kRecordPrefixSize + kRecordBodyMinSize + value_len;
}

TEST(DiskStoreTest, TornAppendIsCutOffSoLaterRecordsStayReadable) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  const std::string dir = tmp.Sub("db");
  auto store = MustOpen(dir, options);
  ASSERT_EQ(store->Put(KeyOf(1), Span(ValueOf(1, 100))), StatusCode::kOk);
  // The disk fills halfway through the next record.
  env.space_left = static_cast<int64_t>(RecordSize(100) / 2);
  EXPECT_EQ(store->Put(KeyOf(2), Span(ValueOf(2, 100))),
            StatusCode::kUnavailable);
  EXPECT_FALSE(store->Has(KeyOf(2)));

  env.space_left = FlakyEnv::kUnlimited;
  ASSERT_EQ(store->Put(KeyOf(3), Span(ValueOf(3, 100))), StatusCode::kOk);
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(1, 100));
  EXPECT_EQ(store->Get(KeyOf(3)).value(), ValueOf(3, 100));

  store.reset();
  store = MustOpen(dir, options);
  EXPECT_EQ(Count(*store, "disk.torn_tails"), 0u);
  EXPECT_EQ(store->key_count(), 2u);
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(1, 100));
  EXPECT_EQ(store->Get(KeyOf(3)).value(), ValueOf(3, 100));
}

TEST(DiskStoreTest, TornSegmentHeaderIsDiscarded) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  options.segment_target_bytes = 1;  // every append starts a new segment
  const std::string dir = tmp.Sub("db");
  auto store = MustOpen(dir, options);
  ASSERT_EQ(store->Put(KeyOf(1), Span(ValueOf(1, 40))), StatusCode::kOk);
  // The next segment's header tears.
  env.space_left = static_cast<int64_t>(kSegmentHeaderSize / 2);
  EXPECT_EQ(store->Put(KeyOf(2), Span(ValueOf(2, 40))),
            StatusCode::kUnavailable);

  env.space_left = FlakyEnv::kUnlimited;
  ASSERT_EQ(store->Put(KeyOf(3), Span(ValueOf(3, 40))), StatusCode::kOk);
  EXPECT_EQ(store->Get(KeyOf(3)).value(), ValueOf(3, 40));

  // A headerless segment between two good ones would read as corruption.
  store.reset();
  store = MustOpen(dir, options);
  EXPECT_EQ(store->key_count(), 2u);
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(1, 40));
  EXPECT_EQ(store->Get(KeyOf(3)).value(), ValueOf(3, 40));
}

TEST(DiskStoreTest, FailedCompactionKeepsServingAndReopens) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  options.compact_min_bytes = 1;  // the 0.5 garbage ratio alone decides
  const std::string dir = tmp.Sub("db");
  auto store = MustOpen(dir, options);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(store->Put(KeyOf(i), Span(ValueOf(i, 200))), StatusCode::kOk);
  }
  // Each overwrite turns a record into garbage; the fourth brings garbage to
  // half the log and compacts.
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_EQ(store->Put(KeyOf(i), Span(ValueOf(10 + i, 200))), StatusCode::kOk);
  }
  ASSERT_EQ(Count(*store, "disk.compactions"), 0u);
  // Room for the record, the new segment's header and one and a half live
  // records: the compaction runs out of space partway through its segment.
  env.space_left =
      static_cast<int64_t>(kSegmentHeaderSize + RecordSize(200) * 5 / 2);
  EXPECT_EQ(store->Put(KeyOf(3), Span(ValueOf(13, 200))),
            StatusCode::kUnavailable);
  EXPECT_EQ(Count(*store, "disk.compactions"), 0u);

  // The store serves from its old segments (the overwrite's record landed
  // before the compaction failed) and takes new writes.
  env.space_left = FlakyEnv::kUnlimited;
  ASSERT_EQ(store->Put(KeyOf(4), Span(ValueOf(4, 200))), StatusCode::kOk);
  const Bytes expected[] = {ValueOf(10, 200), ValueOf(11, 200), ValueOf(12, 200),
                            ValueOf(13, 200), ValueOf(4, 200)};
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(store->Get(KeyOf(i)).value(), expected[i]) << i;
  }

  // The partial compaction segment is gone, so the log reopens whole, and a
  // compaction with space succeeds.
  store.reset();
  store = MustOpen(dir, options);
  EXPECT_EQ(store->Compact(), StatusCode::kOk);
  store.reset();
  store = MustOpen(dir, options);
  EXPECT_EQ(store->key_count(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(store->Get(KeyOf(i)).value(), expected[i]) << i;
  }
}

TEST(DiskStoreTest, FailedSyncStopsWritesButNotReads) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  options.sync_every = 1;
  const std::string dir = tmp.Sub("db");
  auto store = MustOpen(dir, options);
  ASSERT_EQ(store->Put(KeyOf(1), Span(ValueOf(1, 50))), StatusCode::kOk);
  env.syncs_left = 0;
  EXPECT_EQ(store->Put(KeyOf(2), Span(ValueOf(2, 50))),
            StatusCode::kUnavailable);

  // A retried fsync may report success for pages the kernel already
  // dropped, so every later write is refused, even once syncs work again.
  env.syncs_left = FlakyEnv::kUnlimited;
  EXPECT_EQ(store->Put(KeyOf(3), Span(ValueOf(3, 50))),
            StatusCode::kUnavailable);
  EXPECT_EQ(store->PutPointer(KeyOf(4), Span(ValueOf(4, 6))),
            StatusCode::kUnavailable);
  EXPECT_EQ(store->Remove(KeyOf(1)), StatusCode::kUnavailable);
  EXPECT_EQ(store->Sync(), StatusCode::kUnavailable);
  EXPECT_EQ(store->Compact(), StatusCode::kUnavailable);
  EXPECT_FALSE(store->Has(KeyOf(3)));
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(1, 50));

  // Reopened, the store holds every acknowledged record and takes writes.
  store.reset();
  store = MustOpen(dir, options);
  EXPECT_EQ(store->Get(KeyOf(1)).value(), ValueOf(1, 50));
  EXPECT_EQ(store->Put(KeyOf(3), Span(ValueOf(3, 50))), StatusCode::kOk);
}

}  // namespace
}  // namespace past
