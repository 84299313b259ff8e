// Durable node state: a PAST network run with a state_dir keeps every
// node's replica store on disk, so a crashed-and-rebooted node comes back
// already holding its replicas — serving lookups without re-fetching them
// through maintenance.
#include <gtest/gtest.h>

#include "src/diskstore/disk_store.h"
#include "src/storage/past_network.h"
#include "tests/diskstore/temp_dir.h"
#include "tests/storage/past_test_util.h"

namespace past {
namespace {

PastNetworkOptions DurableNetOptions(uint64_t seed, const std::string& state_dir) {
  PastNetworkOptions options = SmallNetOptions(seed);
  options.past.state_dir = state_dir;
  options.past.disk.sync_every = 1;  // write-through: nothing acked is lost
  return options;
}

TEST(PastPersistenceTest, RebootedNodeRecoversReplicasFromDisk) {
  TempDir tmp;
  PastNetwork net(DurableNetOptions(401, tmp.Sub("state")));
  net.Build(16);
  PastNode* client = net.node(1);

  std::vector<FileId> ids;
  for (int i = 0; i < 6; ++i) {
    auto inserted = net.InsertSync(client, "file-" + std::to_string(i),
                                   ToBytes("payload-" + std::to_string(i)), 3);
    ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
    ids.push_back(inserted.value());
  }

  // Crash some replica holder of the first file (not the client).
  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i) != client && net.node(i)->store().Has(ids[0])) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  std::vector<FileId> held;
  for (const FileId& id : ids) {
    if (net.node(victim)->store().Has(id)) {
      held.push_back(id);
    }
  }
  net.CrashNode(victim);
  net.Run(2 * kMicrosPerSecond);  // crash detected, but well before repair

  // Maintenance fetches anywhere in the network from the reboot on: none of
  // them may be the rebooted node's.
  const Counter* fetches =
      net.overlay().network().metrics().FindCounter("past.maintenance_fetches");
  const uint64_t fetches_before_boot = fetches->value();
  PastNode* rebooted = net.RestartNode(victim);
  // Recovery happens at construction, before any network traffic: the store
  // is already populated.
  for (const FileId& id : held) {
    EXPECT_TRUE(rebooted->store().Has(id));
  }
  EXPECT_EQ(fetches->value(), fetches_before_boot);

  // Let the overlay re-admit the node, then verify it still holds the
  // replicas WITHOUT having fetched them over the network.
  net.Run(30 * kMicrosPerSecond);
  for (const FileId& id : held) {
    EXPECT_TRUE(rebooted->store().Has(id));
  }
  EXPECT_EQ(fetches->value(), fetches_before_boot)
      << "recovered replicas must not be re-fetched";

  // And every file is still readable from an unrelated node.
  for (size_t i = 0; i < ids.size(); ++i) {
    auto looked = net.LookupSync(net.node(3), ids[i]);
    ASSERT_TRUE(looked.ok()) << StatusCodeName(looked.status());
    EXPECT_EQ(looked.value().content, ToBytes("payload-" + std::to_string(i)));
  }
}

TEST(PastPersistenceTest, WithoutStateDirRebootLosesTheStore) {
  PastNetwork net(SmallNetOptions(403));
  net.Build(16);
  PastNode* client = net.node(1);
  auto inserted = net.InsertSync(client, "volatile", ToBytes("gone"), 3);
  ASSERT_TRUE(inserted.ok());
  const FileId id = inserted.value();

  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i) != client && net.node(i)->store().Has(id)) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  net.CrashNode(victim);
  PastNode* rebooted = net.RestartNode(victim);
  EXPECT_FALSE(rebooted->store().Has(id));
  EXPECT_EQ(rebooted->store().used(), 0u);
}

// A crash takes the client requests a node has in flight with it: the
// reboot replaces the PastNode, so no timeout or late answer may reach the
// old node's callbacks. (Under ASan, a timer left armed is a
// heap-use-after-free.)
TEST(PastRestartTest, RequestsInFlightDieWithTheNode) {
  PastNetwork net(SmallNetOptions(407));
  net.Build(16);
  const size_t victim = 5;
  PastNode* node = net.node(victim);
  auto owned = net.InsertSync(node, "owned", ToBytes("reclaim me"), 3);
  ASSERT_TRUE(owned.ok());
  const FileId id = owned.value();
  // The reclaim must wait on the network, not finish at once on this node.
  ASSERT_FALSE(node->store().Has(id));
  const FileCertificate cert = *node->OwnedFileCert(id);
  NodeAddr holder = kInvalidAddr;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->store().Has(id)) {
      holder = net.node(i)->overlay()->addr();
    }
  }
  ASSERT_NE(holder, kInvalidAddr);
  Bytes raw(20, 0xab);
  const FileId absent = U160::FromBytes(ByteSpan(raw.data(), raw.size()));

  int fired = 0;
  node->Insert("in-flight", ToBytes("never acknowledged"), 3,
               [&](Result<FileId>) { ++fired; });
  node->Lookup(absent, [&](Result<PastNode::LookupOutcome>) { ++fired; });
  node->Reclaim(id, [&](StatusCode) { ++fired; });
  node->Audit(holder, id, cert, [&](bool) { ++fired; });
  ASSERT_EQ(fired, 0);

  net.CrashNode(victim);
  net.RestartNode(victim);
  net.Run(90 * kMicrosPerSecond);
  EXPECT_EQ(fired, 0);
}

TEST(PastPersistenceTest, PointersSurviveReboot) {
  TempDir tmp;
  PastNetwork net(DurableNetOptions(405, tmp.Sub("state")));
  net.Build(12);
  // Plant a pointer directly (the network paths for diversion are exercised
  // elsewhere; here we only care that it survives the reboot).
  const size_t victim = 4;
  PastNode* node = net.node(victim);
  Bytes raw(20, 0xcd);
  const FileId id = U160::FromBytes(ByteSpan(raw.data(), raw.size()));
  const NodeDescriptor holder{U128(7, 8), 3};
  ASSERT_EQ(node->store().PutPointer(id, holder), StatusCode::kOk);
  ASSERT_EQ(node->store().Sync(), StatusCode::kOk);

  net.CrashNode(victim);
  PastNode* rebooted = net.RestartNode(victim);
  auto recovered = rebooted->store().GetPointer(id);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->addr, holder.addr);
  EXPECT_EQ(recovered->id, holder.id);
}

// A node whose state directory no longer decodes logs a warning, comes up
// with an empty in-memory store, leaves the directory as it found it, and is
// refilled by replica maintenance like any fresh node.
TEST(PastPersistenceTest, RestartOverCorruptStoreRunsInMemory) {
  TempDir tmp;
  const std::string state_dir = tmp.Sub("state");
  PastNetwork net(DurableNetOptions(407, state_dir));
  net.Build(16);
  PastNode* client = net.node(1);
  std::vector<FileId> ids;
  for (int i = 0; i < 6; ++i) {
    auto inserted = net.InsertSync(client, "file-" + std::to_string(i),
                                   ToBytes("payload-" + std::to_string(i)), 3);
    ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
    ids.push_back(inserted.value());
  }
  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i) != client && net.node(i)->store().Has(ids[0])) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  std::vector<FileId> held;
  for (const FileId& id : ids) {
    if (net.node(victim)->store().Has(id)) {
      held.push_back(id);
    }
  }
  const std::string dir = state_dir + "/" + net.node(victim)->overlay()->id().ToHex();
  net.CrashNode(victim);
  net.Run(10 * kMicrosPerSecond);  // the others detect the crash and re-replicate
  {
    auto disk = DiskStore::Open(dir, {});
    ASSERT_TRUE(disk.ok());
    ASSERT_EQ(disk.value()->Put(held[0], ToBytes("not a record")), StatusCode::kOk);
  }

  const Counter* fetches =
      net.overlay().network().metrics().FindCounter("past.maintenance_fetches");
  const uint64_t fetches_before_boot = fetches->value();
  ::testing::internal::CaptureStderr();
  PastNode* rebooted = net.RestartNode(victim);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("cannot open durable store"), std::string::npos) << log;
  EXPECT_EQ(rebooted->store().file_count(), 0u);
  EXPECT_EQ(rebooted->store().used(), 0u);

  net.Run(30 * kMicrosPerSecond);
  for (const FileId& id : held) {
    EXPECT_TRUE(rebooted->store().Has(id));
  }
  EXPECT_GE(fetches->value(), fetches_before_boot + held.size());
  MetricsRegistry metrics;
  CertificateTable certs(metrics);
  EXPECT_EQ(FileStore::Open(0, dir, {}, metrics, certs).status(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace past
