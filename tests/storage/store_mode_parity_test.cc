// Store-mode parity: a FileStore must behave identically — same status
// codes, same accounting invariants, same round-tripped contents — whether
// it keeps its replicas in memory or writes them through to the log, keeping
// only metadata in memory and reading content back from disk. The durable
// mode must also keep the record format earlier versions wrote, refuse a
// log it cannot decode, and leave a whole PastNetwork run unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/storage/file_store.h"
#include "src/storage/past_network.h"
#include "tests/diskstore/flaky_env.h"
#include "tests/diskstore/temp_dir.h"
#include "tests/storage/past_test_util.h"

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
  // A syntactically valid (nonzero) key: a durable store re-decodes stored
  // certificates on reopen, and the key decoder rejects n = 0 / e = 0.
  cert.owner.public_key.n = BigNum::FromU64(0xD00000000000000DULL);
  cert.owner.public_key.e = BigNum::FromU64(65537);
  return cert;
}

StoredFile FileOf(FileCertificate cert) {
  StoredFile f;
  f.cert = std::make_shared<const FileCertificate>(std::move(cert));
  return f;
}

StoredFile FileOfSize(uint64_t size, uint64_t tag) { return FileOf(CertOfSize(size, tag)); }

// Parameterized over the two store modes, "memory" and "disk".
class BackendParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<FileStore> MakeStore(uint64_t capacity) {
    if (GetParam() == "memory") {
      return std::make_unique<FileStore>(capacity, metrics_, certs_);
    }
    // A distinct directory per store keeps reopen semantics out of the
    // shared tests (covered separately below).
    auto store = FileStore::Open(
        capacity, tmp_.Sub("db-" + std::to_string(next_dir_++)), {}, metrics_, certs_);
    EXPECT_TRUE(store.ok()) << StatusCodeName(store.status());
    return std::move(store).value();
  }

  MetricsRegistry metrics_;
  CertificateTable certs_{metrics_};
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
  FileCertificate cert = CertOfSize(50, 3);
  cert.salt = 1234;
  cert.insertion_date = -7;
  StoredFile f = FileOf(std::move(cert));
  f.diverted = true;
  f.diverted_from = NodeDescriptor{U128(1, 2), 9};
  const FileId id = f.cert->file_id;
  ASSERT_EQ(store->Put(std::move(f), ToBytes("diverted payload")), StatusCode::kOk);

  const StoredFile* got = store->Get(id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(store->ReadContent(id).value(), ToBytes("diverted payload"));
  EXPECT_EQ(got->cert->salt, 1234u);
  EXPECT_EQ(got->cert->insertion_date, -7);
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
  const FileId id = f.cert->file_id;
  ASSERT_EQ(store->Put(std::move(f)), StatusCode::kOk);
  auto freed = store->Remove(id);
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(*freed, 100u);
  EXPECT_EQ(store->used(), 0u);
  EXPECT_FALSE(store->Remove(id).has_value());
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendParityTest,
                         ::testing::Values("memory", "disk"),
                         [](const auto& param_info) { return param_info.param; });

// Disk-only: a durable FileStore reopened over its directory recovers the
// replicas, the pointers, AND the used-bytes accounting.
TEST(DurableStoreReopenTest, FileStoreAccountingSurvivesReopen) {
  TempDir tmp;
  MetricsRegistry metrics;
  CertificateTable certs(metrics);
  const std::string dir = tmp.Sub("db");
  {
    auto opened = FileStore::Open(10000, dir, {}, metrics, certs);
    ASSERT_TRUE(opened.ok());
    FileStore& store = *opened.value();
    for (uint64_t tag = 0; tag < 12; ++tag) {
      ASSERT_EQ(store.Put(FileOfSize(100 + tag, tag), ToBytes("c" + std::to_string(tag))),
                StatusCode::kOk);
    }
    ASSERT_TRUE(store.Remove(CertOfSize(0, 3).file_id).has_value());
    ASSERT_EQ(store.PutPointer(CertOfSize(0, 77).file_id, NodeDescriptor{U128(5, 6), 31}),
              StatusCode::kOk);
    ASSERT_EQ(store.Sync(), StatusCode::kOk);
  }
  auto opened = FileStore::Open(10000, dir, {}, metrics, certs);
  ASSERT_TRUE(opened.ok());
  FileStore& store = *opened.value();
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
TEST(DurableStoreFaultTest, FailedContentReadLeavesMetadataServing) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  MetricsRegistry metrics;
  CertificateTable certs(metrics);
  auto opened = FileStore::Open(10000, tmp.Sub("db"), options, metrics, certs);
  ASSERT_TRUE(opened.ok());
  FileStore& store = *opened.value();
  StoredFile f = FileOfSize(300, 1);
  f.diverted = true;
  f.diverted_from = NodeDescriptor{U128(1, 2), 9};
  const FileId id = f.cert->file_id;
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
  EXPECT_EQ(got->cert->file_size, 300u);
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
// absent everywhere the node looks, though the log indexes the record.
// Removes cannot sync either, so the held replica stays held and readable.
TEST(DurableStoreFaultTest, FailedSyncLeavesNoReplicaToServe) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  options.sync_every = 1;
  MetricsRegistry metrics;
  CertificateTable certs(metrics);
  auto opened = FileStore::Open(10000, tmp.Sub("db"), options, metrics, certs);
  ASSERT_TRUE(opened.ok());
  FileStore& store = *opened.value();
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
// keeps the accounting. The log has dropped the replica, so it is not
// served, and a retry, with nothing left to append, completes the removal.
TEST(DurableStoreFaultTest, RemoveThatFailedToSyncCompletesOnRetry) {
  TempDir tmp;
  FlakyEnv env;
  DiskStoreOptions options;
  options.env = &env;
  options.sync_every = 1;
  MetricsRegistry metrics;
  CertificateTable certs(metrics);
  auto opened = FileStore::Open(10000, tmp.Sub("db"), options, metrics, certs);
  ASSERT_TRUE(opened.ok());
  FileStore& store = *opened.value();
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

// A replica with every field set, and a pointer: the durable store's record
// format, pinned below as the bytes earlier versions wrote.
StoredFile GoldenFile() {
  FileCertificate cert = CertOfSize(4242, 0x0102030405060708ULL);
  cert.content_hash = Bytes(32, 0xab);
  cert.salt = 0x1122334455667788ULL;
  cert.insertion_date = -123456789;
  cert.owner.broker_signature = ToBytes("broker-sig");
  cert.signature = ToBytes("owner-sig");
  StoredFile f = FileOf(std::move(cert));
  f.diverted = true;
  f.diverted_from = NodeDescriptor{U128(0x0A0B0C0D, 0x0E0F1011), 77};
  return f;
}
const FileId kGoldenPointerId = CertOfSize(0, 9).file_id;
const NodeDescriptor kGoldenHolder{U128(5, 6), 31};
constexpr char kGoldenContent[] = "golden content";

// Taken from a state directory written before FileStore held the maps.
constexpr char kGoldenReplicaHex[] =
    "080706050403020100000000000000000000000020000000abababababababab"
    "abababababababababababababababababababababababab9210000000000000"
    "030000008877665544332211eb32a4f8ffffffff1300000008000000d0000000"
    "0000000d030000000100010a00000062726f6b65722d736967090000006f776e"
    "65722d7369670e000000676f6c64656e20636f6e74656e7401000000000a0b0c"
    "0d000000000e0f10114d000000";
constexpr char kGoldenPointerHex[] = "000000000000000500000000000000061f000000";

Bytes Unhex(const char* hex) {
  Bytes out;
  EXPECT_TRUE(HexDecode(hex, &out));
  return out;
}

// Written through FileStore, the log holds exactly the bytes earlier versions
// wrote, so a state directory outlives the upgrade.
TEST(DurableStoreFormatTest, RecordsKeepTheirBytes) {
  TempDir tmp;
  MetricsRegistry metrics;
  CertificateTable certs(metrics);
  const std::string dir = tmp.Sub("db");
  const FileId id = GoldenFile().cert->file_id;
  {
    auto opened = FileStore::Open(10000, dir, {}, metrics, certs);
    ASSERT_TRUE(opened.ok());
    FileStore& store = *opened.value();
    ASSERT_EQ(store.Put(GoldenFile(), ToBytes(kGoldenContent)), StatusCode::kOk);
    ASSERT_EQ(store.PutPointer(kGoldenPointerId, kGoldenHolder), StatusCode::kOk);
    ASSERT_EQ(store.Sync(), StatusCode::kOk);
  }
  auto disk = DiskStore::Open(dir, {});
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(HexEncode(disk.value()->Get(id).value()), kGoldenReplicaHex);
  EXPECT_EQ(HexEncode(disk.value()->GetPointer(kGoldenPointerId).value()),
            kGoldenPointerHex);
}

// The other way round: records put raw into a log, as earlier versions wrote
// them, reopen into every field.
TEST(DurableStoreFormatTest, RecordsWrittenEarlierReopen) {
  TempDir tmp;
  MetricsRegistry metrics;
  CertificateTable certs(metrics);
  const std::string dir = tmp.Sub("db");
  const StoredFile want = GoldenFile();
  {
    auto disk = DiskStore::Open(dir, {});
    ASSERT_TRUE(disk.ok());
    ASSERT_EQ(disk.value()->Put(want.cert->file_id, Unhex(kGoldenReplicaHex)),
              StatusCode::kOk);
    ASSERT_EQ(disk.value()->PutPointer(kGoldenPointerId, Unhex(kGoldenPointerHex)),
              StatusCode::kOk);
  }
  auto opened = FileStore::Open(10000, dir, {}, metrics, certs);
  ASSERT_TRUE(opened.ok()) << StatusCodeName(opened.status());
  FileStore& store = *opened.value();
  const StoredFile* got = store.Get(want.cert->file_id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->cert->content_hash, want.cert->content_hash);
  EXPECT_EQ(got->cert->file_size, want.cert->file_size);
  EXPECT_EQ(got->cert->replication_factor, want.cert->replication_factor);
  EXPECT_EQ(got->cert->salt, want.cert->salt);
  EXPECT_EQ(got->cert->insertion_date, want.cert->insertion_date);
  EXPECT_EQ(got->cert->owner, want.cert->owner);
  EXPECT_EQ(got->cert->signature, want.cert->signature);
  EXPECT_TRUE(got->diverted);
  EXPECT_EQ(got->diverted_from, want.diverted_from);
  EXPECT_EQ(store.ReadContent(want.cert->file_id).value(), ToBytes(kGoldenContent));
  EXPECT_EQ(store.used(), want.cert->file_size);
  EXPECT_EQ(store.GetPointer(kGoldenPointerId), kGoldenHolder);
}

// A log whose records do not decode is refused rather than served: a replica
// or pointer value that is not a record, or a replica filed under another
// file's id.
TEST(DurableStoreFormatTest, UndecodableRecordsFailOpen) {
  TempDir tmp;
  MetricsRegistry metrics;
  CertificateTable certs(metrics);
  const FileId id = GoldenFile().cert->file_id;
  const struct {
    const char* name;
    bool pointer;
    U160 key;
    Bytes value;
  } cases[] = {
      {"garbage-replica", false, id, ToBytes("not a record")},
      {"garbage-pointer", true, kGoldenPointerId, ToBytes("not a descriptor")},
      {"misfiled-replica", false, CertOfSize(0, 77).file_id,
       Unhex(kGoldenReplicaHex)},
  };
  for (const auto& c : cases) {
    const std::string dir = tmp.Sub(c.name);
    {
      auto disk = DiskStore::Open(dir, {});
      ASSERT_TRUE(disk.ok());
      ASSERT_EQ(c.pointer ? disk.value()->PutPointer(c.key, c.value)
                          : disk.value()->Put(c.key, c.value),
                StatusCode::kOk);
    }
    EXPECT_EQ(FileStore::Open(10000, dir, {}, metrics, certs).status(),
              StatusCode::kCorruption)
        << c.name;
  }
  // Each failed open gave back what it counted.
  EXPECT_EQ(metrics.FindGauge("store.used_bytes")->value(), 0.0);
  EXPECT_EQ(metrics.FindGauge("store.capacity_bytes")->value(), 0.0);
}

// The registry's dump without the disk.* instruments, which only a durable
// run has.
std::string DumpWithoutDisk(const MetricsRegistry& metrics) {
  const JsonValue dump = metrics.ToJson();
  JsonValue out = JsonValue::Object();
  for (const auto& [kind, instruments] : dump.members()) {
    JsonValue kept = JsonValue::Object();
    for (const auto& [name, value] : instruments.members()) {
      if (name.rfind("disk.", 0) != 0) {
        kept.Set(name, value);
      }
    }
    out.Set(kind, std::move(kept));
  }
  return out.Dump(1);
}

struct ModeRun {
  std::string metrics;
  std::vector<std::vector<FileId>> file_ids;  // per node, in store order
  std::vector<Bytes> looked_up;               // per file, empty when lost
};

// One seeded workload: real-content inserts onto small, uneven disks (so
// replicas get diverted and inserts rejected), crashes, joins, a settle
// during which maintenance re-replicates, and a lookup of every file.
ModeRun RunWorkload(const std::string& state_dir) {
  PastNetworkOptions options = SmallNetOptions(2024);
  options.past.state_dir = state_dir;
  options.past.default_replication = 3;
  PastNetwork net(options);
  for (int i = 0; i < 24; ++i) {
    PAST_CHECK(net.AddNode(i % 3 == 0 ? 200 << 10 : 600 << 10, 64 << 20) != nullptr);
  }
  net.Run(2 * kMicrosPerSecond);
  Rng rng(77);
  std::vector<FileId> files;
  for (int i = 0; i < 30; ++i) {
    Bytes content = rng.RandomBytes(1 + rng.UniformU64(60000));
    auto inserted = net.InsertSync(net.RandomLiveNode(), "f" + std::to_string(i),
                                   std::move(content), 3);
    if (inserted.ok()) {
      files.push_back(inserted.value());
    }
    if (i % 10 == 9) {
      net.CrashNode(static_cast<size_t>(i * 7 % 24));
      PAST_CHECK(net.AddNode(600 << 10, 64 << 20) != nullptr);
    }
  }
  PAST_CHECK(net.AddNode(600 << 10, 64 << 20) != nullptr);
  net.Run(20 * kMicrosPerSecond);

  ModeRun run;
  for (const FileId& id : files) {
    auto looked = net.LookupSync(net.RandomLiveNode(), id);
    run.looked_up.push_back(looked.ok() ? looked.value().content : Bytes());
  }
  for (size_t i = 0; i < net.size(); ++i) {
    run.file_ids.push_back(net.node(i)->store().FileIds());
  }
  run.metrics = DumpWithoutDisk(net.overlay().network().metrics());
  return run;
}

// The same PastNetwork run in memory and on disk: every count, gauge and
// histogram but disk.* agrees, every node holds the same replicas in the
// same order (replica maintenance walks that order), and every lookup
// returns the same bytes.
TEST(StoreModeParityTest, NetworkRunIsTheSameInMemoryAndOnDisk) {
  TempDir tmp;
  const ModeRun memory = RunWorkload("");
  const ModeRun disk = RunWorkload(tmp.Sub("state"));
  EXPECT_EQ(memory.metrics, disk.metrics);
  EXPECT_EQ(memory.file_ids, disk.file_ids);
  EXPECT_EQ(memory.looked_up, disk.looked_up);

  // The workload reaches every store path the modes could disagree on.
  JsonValue metrics;
  ASSERT_TRUE(JsonValue::Parse(disk.metrics, &metrics));
  for (const char* counter :
       {"counters/past.maintenance_fetches", "counters/past.demotions",
        "counters/past.diversions_ok", "counters/past.store_rejects",
        "counters/past.lookups_served_store"}) {
    const JsonValue* value = metrics.FindPath(counter);
    ASSERT_NE(value, nullptr) << counter;
    EXPECT_GT(value->AsDouble(), 0.0) << counter;
  }
}

}  // namespace
}  // namespace past
