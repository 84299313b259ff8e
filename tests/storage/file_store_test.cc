#include "src/storage/file_store.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
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
  return cert;
}

StoredFile FileOfSize(uint64_t size, uint64_t tag) {
  StoredFile f;
  f.cert = std::make_shared<const FileCertificate>(CertOfSize(size, tag));
  return f;
}

// A store counts only into its registry; the tests read the counts there.
class FileStoreTest : public ::testing::Test {
 protected:
  uint64_t Count(const char* name) const { return metrics_.FindCounter(name)->value(); }

  MetricsRegistry metrics_;
  CertificateTable certs_{metrics_};
};

TEST_F(FileStoreTest, AccountingBasics) {
  FileStore store(1000, metrics_, certs_);
  EXPECT_EQ(store.capacity(), 1000u);
  EXPECT_EQ(store.used(), 0u);
  EXPECT_EQ(store.free_space(), 1000u);
  EXPECT_DOUBLE_EQ(store.utilization(), 0.0);

  EXPECT_EQ(store.Put(FileOfSize(400, 1)), StatusCode::kOk);
  EXPECT_EQ(store.used(), 400u);
  EXPECT_DOUBLE_EQ(store.utilization(), 0.4);
}

TEST_F(FileStoreTest, RejectsOverCapacity) {
  FileStore store(1000, metrics_, certs_);
  EXPECT_EQ(store.Put(FileOfSize(600, 1)), StatusCode::kOk);
  EXPECT_EQ(store.Put(FileOfSize(600, 2)), StatusCode::kInsufficientStorage);
  EXPECT_EQ(store.used(), 600u);
  EXPECT_EQ(store.Put(FileOfSize(400, 3)), StatusCode::kOk);  // exact fit
  EXPECT_EQ(store.free_space(), 0u);
}

TEST_F(FileStoreTest, RejectsDuplicates) {
  FileStore store(1000, metrics_, certs_);
  EXPECT_EQ(store.Put(FileOfSize(100, 1)), StatusCode::kOk);
  EXPECT_EQ(store.Put(FileOfSize(100, 1)), StatusCode::kAlreadyExists);
  EXPECT_EQ(store.used(), 100u);
}

TEST_F(FileStoreTest, GetAndHas) {
  FileStore store(1000, metrics_, certs_);
  StoredFile f = FileOfSize(100, 7);
  FileId id = f.cert->file_id;
  ASSERT_EQ(store.Put(std::move(f), ToBytes("data")), StatusCode::kOk);
  EXPECT_TRUE(store.Has(id));
  const StoredFile* got = store.Get(id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->cert->file_size, 100u);
  EXPECT_EQ(store.ReadContent(id).value(), ToBytes("data"));
  const FileId absent = CertOfSize(1, 999).file_id;
  EXPECT_EQ(store.Get(absent), nullptr);
  EXPECT_EQ(store.ReadContent(absent).status(), StatusCode::kNotFound);
}

TEST_F(FileStoreTest, RemoveReleasesSpace) {
  FileStore store(1000, metrics_, certs_);
  StoredFile f = FileOfSize(100, 1);
  FileId id = f.cert->file_id;
  ASSERT_EQ(store.Put(std::move(f)), StatusCode::kOk);
  auto freed = store.Remove(id);
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(*freed, 100u);
  EXPECT_EQ(store.used(), 0u);
  EXPECT_FALSE(store.Remove(id).has_value());
}

TEST_F(FileStoreTest, DivertedFlagPreserved) {
  FileStore store(1000, metrics_, certs_);
  StoredFile f = FileOfSize(50, 3);
  f.diverted = true;
  f.diverted_from = NodeDescriptor{U128(1, 2), 9};
  FileId id = f.cert->file_id;
  ASSERT_EQ(store.Put(std::move(f)), StatusCode::kOk);
  const StoredFile* got = store.Get(id);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->diverted);
  EXPECT_EQ(got->diverted_from.addr, 9u);
}

TEST_F(FileStoreTest, Pointers) {
  FileStore store(1000, metrics_, certs_);
  FileId id = CertOfSize(1, 5).file_id;
  EXPECT_FALSE(store.GetPointer(id).has_value());
  EXPECT_EQ(store.PutPointer(id, NodeDescriptor{U128(3, 4), 17}), StatusCode::kOk);
  auto ptr = store.GetPointer(id);
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(ptr->addr, 17u);
  EXPECT_EQ(store.pointer_count(), 1u);
  EXPECT_TRUE(store.RemovePointer(id));
  EXPECT_FALSE(store.RemovePointer(id));
}

TEST_F(FileStoreTest, PointersDoNotUseSpace) {
  FileStore store(1000, metrics_, certs_);
  EXPECT_EQ(store.PutPointer(CertOfSize(1, 5).file_id, NodeDescriptor{U128(3, 4), 17}),
            StatusCode::kOk);
  EXPECT_EQ(store.used(), 0u);
}

TEST_F(FileStoreTest, FileIdsEnumeration) {
  FileStore store(10000, metrics_, certs_);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(store.Put(FileOfSize(10, i)), StatusCode::kOk);
  }
  EXPECT_EQ(store.FileIds().size(), 10u);
  EXPECT_EQ(store.file_count(), 10u);
}

TEST_F(FileStoreTest, ZeroCapacityStoresNothing) {
  FileStore store(0, metrics_, certs_);
  EXPECT_EQ(store.Put(FileOfSize(1, 1)), StatusCode::kInsufficientStorage);
}

// A disk that refuses writes (ENOSPC, EIO) fails the Put with the disk's
// status, leaves the accounting alone, and counts one store.io_errors.
TEST_F(FileStoreTest, DiskWriteFailureRejectsPutAndKeepsAccounting) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  auto opened = FileStore::Open(1000, tmp.Sub("db"), options, metrics_, certs_);
  ASSERT_TRUE(opened.ok());
  FileStore& store = *opened.value();
  ASSERT_EQ(store.Put(FileOfSize(100, 1), ToBytes("kept")), StatusCode::kOk);

  env.space_left = 0;  // the disk is full
  EXPECT_EQ(store.Put(FileOfSize(200, 2), ToBytes("lost")),
            StatusCode::kUnavailable);
  EXPECT_EQ(store.used(), 100u);
  EXPECT_FALSE(store.Has(CertOfSize(0, 2).file_id));
  EXPECT_EQ(store.file_count(), 1u);
  EXPECT_EQ(Count("store.io_errors"), 1u);
  EXPECT_EQ(Count("store.rejects"), 1u);

  // Space is freed: the same replica goes in.
  env.space_left = FlakyEnv::kUnlimited;
  EXPECT_EQ(store.Put(FileOfSize(200, 2), ToBytes("lost")), StatusCode::kOk);
  EXPECT_EQ(store.used(), 300u);
}

// A full disk refuses the tombstones of Remove and RemovePointer and a
// pointer write too: each refusal leaves the entry where it was and counts
// one store.io_errors. An absent entry is no error.
TEST_F(FileStoreTest, DiskRefusalsOfRemovesAndPointersCountIoErrors) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  auto opened = FileStore::Open(1000, tmp.Sub("db"), options, metrics_, certs_);
  ASSERT_TRUE(opened.ok());
  FileStore& store = *opened.value();
  const FileId id = CertOfSize(100, 1).file_id;
  const FileId diverted = CertOfSize(1, 2).file_id;
  ASSERT_EQ(store.Put(FileOfSize(100, 1), ToBytes("kept")), StatusCode::kOk);
  ASSERT_EQ(store.PutPointer(diverted, NodeDescriptor{U128(3, 4), 17}), StatusCode::kOk);

  env.space_left = 0;  // the disk is full
  EXPECT_FALSE(store.Remove(id).has_value());
  EXPECT_FALSE(store.RemovePointer(diverted));
  EXPECT_EQ(store.PutPointer(CertOfSize(1, 3).file_id, NodeDescriptor{U128(5, 6), 18}),
            StatusCode::kUnavailable);
  EXPECT_EQ(Count("store.io_errors"), 3u);
  EXPECT_TRUE(store.Has(id));
  EXPECT_EQ(store.used(), 100u);
  EXPECT_TRUE(store.GetPointer(diverted).has_value());
  EXPECT_EQ(store.pointer_count(), 1u);
  EXPECT_FALSE(store.RemovePointer(CertOfSize(1, 9).file_id));  // absent
  EXPECT_EQ(Count("store.io_errors"), 3u);

  // The disk takes writes again: both removals go through.
  env.space_left = FlakyEnv::kUnlimited;
  EXPECT_EQ(store.Remove(id), std::optional<uint64_t>(100));
  EXPECT_TRUE(store.RemovePointer(diverted));
  EXPECT_EQ(store.used(), 0u);
  EXPECT_EQ(Count("store.removes"), 1u);
}

TEST(StoragePolicyTest, PrimaryThreshold) {
  StoragePolicy policy;  // t_pri = 0.1
  EXPECT_TRUE(policy.AcceptPrimary(10, 1000));   // 1% of free
  EXPECT_TRUE(policy.AcceptPrimary(100, 1000));  // exactly 10%
  EXPECT_FALSE(policy.AcceptPrimary(101, 1000));
  EXPECT_FALSE(policy.AcceptPrimary(2000, 1000));  // larger than free
}

TEST(StoragePolicyTest, DivertedThresholdIsStricter) {
  StoragePolicy policy;  // t_div = 0.05
  EXPECT_TRUE(policy.AcceptDiverted(50, 1000));
  EXPECT_FALSE(policy.AcceptDiverted(51, 1000));
  // A file the primary threshold accepts can still be refused as diverted.
  EXPECT_TRUE(policy.AcceptPrimary(80, 1000));
  EXPECT_FALSE(policy.AcceptDiverted(80, 1000));
}

TEST(StoragePolicyTest, ZeroFreeRejectsEverything) {
  StoragePolicy policy;
  EXPECT_FALSE(policy.AcceptPrimary(1, 0));
  EXPECT_FALSE(policy.AcceptDiverted(1, 0));
}

}  // namespace
}  // namespace past
