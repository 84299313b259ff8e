// Backend parity: FileStore must behave identically — same status codes,
// same accounting invariants, same round-tripped contents — whether its
// replicas live in a MemoryBackend or go through the durable DiskBackend,
// which keeps only metadata in memory and reads content back from disk.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/storage/disk_backend.h"
#include "src/storage/file_store.h"
#include "tests/diskstore/flaky_env.h"
#include "tests/diskstore/temp_dir.h"

namespace past {
namespace {

FileCertificate CertOfSize(uint64_t size, uint64_t tag) {
  FileCertificate cert;
  Bytes raw(20, 0);
  for (int i = 0; i < 8; ++i) {
    raw[static_cast<size_t>(i)] = static_cast<uint8_t>(tag >> (8 * i));
  }
  cert.file_id = U160::FromBytes(raw);
  cert.file_size = size;
  cert.replication_factor = 3;
  // A syntactically valid (nonzero) key: the disk backend re-decodes stored
  // certificates on reopen, and the key decoder rejects n = 0 / e = 0.
  cert.owner.public_key.n = BigNum::FromU64(0xD00000000000000DULL);
  cert.owner.public_key.e = BigNum::FromU64(65537);
  return cert;
}

StoredFile FileOfSize(uint64_t size, uint64_t tag) {
  StoredFile f;
  f.cert = CertOfSize(size, tag);
  return f;
}

class BackendParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<FileStore> MakeStore(uint64_t capacity) {
    return std::make_unique<FileStore>(capacity, MakeBackend(), metrics_);
  }

  std::unique_ptr<StoreBackend> MakeBackend() {
    if (GetParam() == "memory") {
      return std::make_unique<MemoryBackend>();
    }
    // A distinct directory per backend keeps reopen semantics out of the
    // shared tests (covered separately below).
    auto backend = DiskBackend::Open(
        tmp_.Sub("db-" + std::to_string(next_dir_++)), {});
    EXPECT_TRUE(backend.ok()) << StatusCodeName(backend.status());
    return std::move(backend).value();
  }

  MetricsRegistry metrics_;
  TempDir tmp_;
  int next_dir_ = 0;
};

TEST_P(BackendParityTest, AccountingInvariantUnderMixedWorkload) {
  auto store = MakeStore(100000);
  Rng rng(17);
  uint64_t expected_used = 0;
  for (int op = 0; op < 300; ++op) {
    const uint64_t tag = rng.UniformU64(40);
    if (rng.UniformU64(3) != 0) {
      const uint64_t size = 1 + rng.UniformU64(900);
      StoredFile f = FileOfSize(size, tag);
      Bytes content = rng.RandomBytes(16);
      f.diverted = (tag % 2) == 0;
      StatusCode status = store->Put(std::move(f), std::move(content));
      if (status == StatusCode::kOk) {
        expected_used += size;
      } else {
        EXPECT_TRUE(status == StatusCode::kAlreadyExists ||
                    status == StatusCode::kInsufficientStorage);
      }
    } else {
      auto freed = store->Remove(CertOfSize(0, tag).file_id);
      if (freed.has_value()) {
        expected_used -= *freed;
      }
    }
    ASSERT_EQ(store->used(), expected_used);
    ASSERT_EQ(store->used() + store->free_space(), store->capacity());
  }
  EXPECT_GT(store->file_count(), 0u);
}

TEST_P(BackendParityTest, DuplicateAndCapacityRejects) {
  auto store = MakeStore(1000);
  EXPECT_EQ(store->Put(FileOfSize(600, 1)), StatusCode::kOk);
  EXPECT_EQ(store->Put(FileOfSize(600, 1)), StatusCode::kAlreadyExists);
  EXPECT_EQ(store->Put(FileOfSize(600, 2)), StatusCode::kInsufficientStorage);
  EXPECT_EQ(store->used(), 600u);
  EXPECT_EQ(store->Put(FileOfSize(400, 3)), StatusCode::kOk);  // exact fit
  EXPECT_EQ(store->free_space(), 0u);
}

TEST_P(BackendParityTest, StoredFileRoundTripsAllFields) {
  auto store = MakeStore(1000);
  StoredFile f = FileOfSize(50, 3);
  f.cert.salt = 1234;
  f.cert.insertion_date = -7;
  f.diverted = true;
  f.diverted_from = NodeDescriptor{U128(1, 2), 9};
  const FileId id = f.cert.file_id;
  ASSERT_EQ(store->Put(std::move(f), ToBytes("diverted payload")), StatusCode::kOk);

  const StoredFile* got = store->Get(id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(store->ReadContent(id).value(), ToBytes("diverted payload"));
  EXPECT_EQ(got->cert.salt, 1234u);
  EXPECT_EQ(got->cert.insertion_date, -7);
  EXPECT_TRUE(got->diverted);
  EXPECT_EQ(got->diverted_from.addr, 9u);
  EXPECT_EQ(got->diverted_from.id, U128(1, 2));
}

TEST_P(BackendParityTest, ContentRoundTripsThroughReadContent) {
  auto store = MakeStore(100000);
  Rng rng(23);
  const Bytes real = rng.RandomBytes(5000);
  ASSERT_EQ(store->Put(FileOfSize(5000, 1), real), StatusCode::kOk);
  ASSERT_EQ(store->Put(FileOfSize(700, 2)), StatusCode::kOk);  // synthetic

  Result<Bytes> got = store->ReadContent(CertOfSize(0, 1).file_id);
  ASSERT_TRUE(got.ok()) << StatusCodeName(got.status());
  EXPECT_EQ(got.value(), real);
  Result<Bytes> empty = store->ReadContent(CertOfSize(0, 2).file_id);
  ASSERT_TRUE(empty.ok()) << StatusCodeName(empty.status());
  EXPECT_TRUE(empty.value().empty());
  EXPECT_EQ(store->ReadContent(CertOfSize(0, 3).file_id).status(),
            StatusCode::kNotFound);

  ASSERT_TRUE(store->Remove(CertOfSize(0, 1).file_id).has_value());
  EXPECT_EQ(store->ReadContent(CertOfSize(0, 1).file_id).status(),
            StatusCode::kNotFound);
}

TEST_P(BackendParityTest, PointerRoundTripAndRemoval) {
  auto store = MakeStore(1000);
  const FileId id = CertOfSize(1, 5).file_id;
  EXPECT_FALSE(store->GetPointer(id).has_value());
  EXPECT_EQ(store->PutPointer(id, NodeDescriptor{U128(3, 4), 17}), StatusCode::kOk);
  auto ptr = store->GetPointer(id);
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(ptr->addr, 17u);
  EXPECT_EQ(store->pointer_count(), 1u);
  EXPECT_EQ(store->used(), 0u);  // pointers use no replica space
  EXPECT_TRUE(store->RemovePointer(id));
  EXPECT_FALSE(store->RemovePointer(id));
}

TEST_P(BackendParityTest, RemoveReleasesSpace) {
  auto store = MakeStore(1000);
  StoredFile f = FileOfSize(100, 1);
  const FileId id = f.cert.file_id;
  ASSERT_EQ(store->Put(std::move(f)), StatusCode::kOk);
  auto freed = store->Remove(id);
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(*freed, 100u);
  EXPECT_EQ(store->used(), 0u);
  EXPECT_FALSE(store->Remove(id).has_value());
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendParityTest,
                         ::testing::Values("memory", "disk"),
                         [](const auto& info) { return info.param; });

// Disk-only: a FileStore rebuilt over a reopened DiskBackend recovers the
// replicas, the pointers, AND the used-bytes accounting.
TEST(DiskBackendReopenTest, FileStoreAccountingSurvivesReopen) {
  TempDir tmp;
  MetricsRegistry metrics;
  const std::string dir = tmp.Sub("db");
  {
    auto backend = DiskBackend::Open(dir, {});
    ASSERT_TRUE(backend.ok());
    FileStore store(10000, std::move(backend).value(), metrics);
    for (uint64_t tag = 0; tag < 12; ++tag) {
      ASSERT_EQ(store.Put(FileOfSize(100 + tag, tag), ToBytes("c" + std::to_string(tag))),
                StatusCode::kOk);
    }
    ASSERT_TRUE(store.Remove(CertOfSize(0, 3).file_id).has_value());
    ASSERT_EQ(store.PutPointer(CertOfSize(0, 77).file_id, NodeDescriptor{U128(5, 6), 31}),
              StatusCode::kOk);
    ASSERT_EQ(store.Sync(), StatusCode::kOk);
  }
  auto backend = DiskBackend::Open(dir, {});
  ASSERT_TRUE(backend.ok());
  FileStore store(10000, std::move(backend).value(), metrics);
  EXPECT_EQ(store.file_count(), 11u);
  EXPECT_EQ(store.pointer_count(), 1u);
  uint64_t expected_used = 0;
  for (uint64_t tag = 0; tag < 12; ++tag) {
    if (tag == 3) {
      EXPECT_FALSE(store.Has(CertOfSize(0, tag).file_id));
      continue;
    }
    expected_used += 100 + tag;
    const FileId id = CertOfSize(0, tag).file_id;
    ASSERT_NE(store.Get(id), nullptr);
    EXPECT_EQ(store.ReadContent(id).value(), ToBytes("c" + std::to_string(tag)));
  }
  EXPECT_EQ(store.used(), expected_used);
  EXPECT_EQ(store.GetPointer(CertOfSize(0, 77).file_id)->addr, 31u);
  // Recovered replicas count against free space: a duplicate is still a
  // duplicate after reboot.
  EXPECT_EQ(store.Put(FileOfSize(100, 0)), StatusCode::kAlreadyExists);
}

// Disk-only: content lives on disk, not in memory. With ranged reads
// failing, every content read fails (and is counted), while everything the
// in-memory metadata answers — Has/Get, FileIds, used(), pointers — still
// works.
TEST(DiskBackendFaultTest, FailedContentReadLeavesMetadataServing) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  auto backend = DiskBackend::Open(tmp.Sub("db"), options);
  ASSERT_TRUE(backend.ok());
  MetricsRegistry metrics;
  FileStore store(10000, std::move(backend).value(), metrics);
  StoredFile f = FileOfSize(300, 1);
  f.diverted = true;
  f.diverted_from = NodeDescriptor{U128(1, 2), 9};
  const FileId id = f.cert.file_id;
  ASSERT_EQ(store.Put(std::move(f), ToBytes("on disk only")), StatusCode::kOk);
  ASSERT_EQ(store.PutPointer(CertOfSize(0, 2).file_id, NodeDescriptor{U128(3, 4), 17}),
            StatusCode::kOk);
  ASSERT_EQ(store.ReadContent(id).value(), ToBytes("on disk only"));

  env.fail_reads = true;
  EXPECT_EQ(store.ReadContent(id).status(), StatusCode::kUnavailable);
  EXPECT_EQ(metrics.GetCounter("store.io_errors")->value(), 1u);
  EXPECT_TRUE(store.Has(id));
  const StoredFile* got = store.Get(id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->cert.file_size, 300u);
  EXPECT_TRUE(got->diverted);
  EXPECT_EQ(got->diverted_from.addr, 9u);
  EXPECT_EQ(store.FileIds(), std::vector<FileId>{id});
  EXPECT_EQ(store.used(), 300u);
  EXPECT_EQ(store.GetPointer(CertOfSize(0, 2).file_id)->addr, 17u);
  // An absent replica is not an I/O error.
  EXPECT_EQ(store.ReadContent(CertOfSize(0, 3).file_id).status(),
            StatusCode::kNotFound);
  EXPECT_EQ(metrics.GetCounter("store.io_errors")->value(), 1u);
}

// Disk-only: with write-through syncs (sync_every = 1), a Put whose record
// reached the log but whose fsync failed is refused, and the replica is
// absent everywhere the node looks, though the engine indexes the record.
// Removes cannot sync either, so the held replica stays held and readable.
TEST(DiskBackendFaultTest, FailedSyncLeavesNoReplicaToServe) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  options.sync_every = 1;
  auto backend = DiskBackend::Open(tmp.Sub("db"), options);
  ASSERT_TRUE(backend.ok());
  MetricsRegistry metrics;
  FileStore store(10000, std::move(backend).value(), metrics);
  const FileId kept = CertOfSize(0, 1).file_id;
  ASSERT_EQ(store.Put(FileOfSize(100, 1), ToBytes("kept")), StatusCode::kOk);

  env.syncs_left = 0;
  const FileId lost = CertOfSize(0, 2).file_id;
  EXPECT_EQ(store.Put(FileOfSize(200, 2), ToBytes("lost")),
            StatusCode::kUnavailable);
  EXPECT_EQ(store.Get(lost), nullptr);
  EXPECT_EQ(store.ReadContent(lost).status(), StatusCode::kNotFound);
  EXPECT_EQ(store.FileIds(), std::vector<FileId>{kept});
  EXPECT_EQ(store.used(), 100u);
  EXPECT_EQ(metrics.GetCounter("store.io_errors")->value(), 1u);

  EXPECT_EQ(store.Remove(kept), std::nullopt);
  EXPECT_EQ(store.used(), 100u);
  EXPECT_EQ(store.ReadContent(kept).value(), ToBytes("kept"));
}

// Disk-only: a Remove whose record reaches the log but cannot sync fails and
// keeps the accounting. The engine has dropped the replica, so it is not
// served, and a retry, with nothing left to append, completes the removal.
TEST(DiskBackendFaultTest, RemoveThatFailedToSyncCompletesOnRetry) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  options.sync_every = 1;
  auto backend = DiskBackend::Open(tmp.Sub("db"), options);
  ASSERT_TRUE(backend.ok());
  MetricsRegistry metrics;
  FileStore store(10000, std::move(backend).value(), metrics);
  const FileId id = CertOfSize(0, 1).file_id;
  ASSERT_EQ(store.Put(FileOfSize(100, 1), ToBytes("gone")), StatusCode::kOk);

  env.syncs_left = 0;
  EXPECT_EQ(store.Remove(id), std::nullopt);
  EXPECT_EQ(store.used(), 100u);
  EXPECT_EQ(store.ReadContent(id).status(), StatusCode::kNotFound);
  EXPECT_EQ(store.Remove(id), std::optional<uint64_t>(100));
  EXPECT_EQ(store.used(), 0u);
  EXPECT_FALSE(store.Has(id));
}

}  // namespace
}  // namespace past
