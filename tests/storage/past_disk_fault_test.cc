// Disk faults at the PAST layer: a durable node whose disk refuses a write
// or its fsync NACKs the replica (no receipt, no abort) and never serves it,
// and one whose disk refuses a read treats the replica as not held here and
// falls back to the other ways of answering. A reclaim whose removal the disk
// refuses sends no receipt, so the owner's quota is never credited for
// storage still in use, and a refused demotion keeps the replica. Every kind
// of failure is counted in store.io_errors.
#include <gtest/gtest.h>

#include "src/storage/past_network.h"
#include "tests/diskstore/flaky_env.h"
#include "tests/diskstore/temp_dir.h"
#include "tests/storage/past_test_util.h"

namespace past {
namespace {

PastNetworkOptions FlakyDiskNetOptions(uint64_t seed, const std::string& state_dir,
                                       FlakyEnv* env) {
  PastNetworkOptions options = SmallNetOptions(seed);
  options.past.state_dir = state_dir;
  options.past.disk.env = env;
  return options;
}

uint64_t Count(PastNetwork* net, const char* name) {
  return net->overlay().network().metrics().FindCounter(name)->value();
}

uint64_t IoErrors(PastNetwork* net) { return Count(net, "store.io_errors"); }

uint64_t ReplicasStored(PastNetwork* net) { return Count(net, "past.replicas_stored"); }

TEST(PastDiskFaultTest, FailedReplicaWritesAreNackedNotFatal) {
  TempDir tmp;
  FlakyEnv env;
  PastNetwork net(FlakyDiskNetOptions(411, tmp.Sub("state"), &env));
  net.Build(12);
  PastNode* client = net.node(2);

  env.space_left = 0;  // every node's disk is full
  auto refused = net.InsertSync(client, "doomed", ToBytes("never stored"), 3);
  EXPECT_FALSE(refused.ok());
  EXPECT_GT(IoErrors(&net), 0u);
  EXPECT_EQ(ReplicasStored(&net), 0u);
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i)->store().file_count(), 0u) << "node " << i;
  }

  // Once the disks take writes again the same node stores normally.
  env.space_left = FlakyEnv::kUnlimited;
  auto stored = net.InsertSync(client, "fine", ToBytes("stored"), 3);
  ASSERT_TRUE(stored.ok()) << StatusCodeName(stored.status());
  EXPECT_EQ(net.CountReplicas(stored.value()), 3);
}

TEST(PastDiskFaultTest, FailedContentReadsFallBackInsteadOfServing) {
  TempDir tmp;
  FlakyEnv env;
  PastNetworkOptions options = FlakyDiskNetOptions(413, tmp.Sub("state"), &env);
  // No cached copies: a replica holder is the only possible server.
  options.past.cache_policy = CachePolicy::kNone;
  PastNetwork net(options);
  net.Build(12);
  auto inserted = net.InsertSync(net.node(2), "file", ToBytes("payload"), 3);
  ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
  PastNode* reader = nullptr;
  for (size_t i = 0; i < net.size() && reader == nullptr; ++i) {
    if (!net.node(i)->store().Has(inserted.value())) {
      reader = net.node(i);
    }
  }
  ASSERT_NE(reader, nullptr);

  env.fail_reads = true;
  auto failed = net.LookupSync(reader, inserted.value());
  EXPECT_EQ(failed.status(), StatusCode::kNotFound);
  EXPECT_GT(IoErrors(&net), 0u);
  // The metadata still says the replicas are held.
  EXPECT_EQ(net.CountReplicas(inserted.value()), 3);

  env.fail_reads = false;
  auto looked = net.LookupSync(reader, inserted.value());
  ASSERT_TRUE(looked.ok()) << StatusCodeName(looked.status());
  EXPECT_EQ(looked.value().content, ToBytes("payload"));
}

// With write-through syncs (sync_every = 1) a replica whose fsync fails is
// already in its node's log. That node must not count or serve it: lookups
// from every live node, the one whose engine indexes the record included,
// are answered by the replicas that were stored.
TEST(PastDiskFaultTest, ReplicasWhoseSyncFailedAreNeverServed) {
  TempDir tmp;
  FlakyEnv env;
  PastNetworkOptions options = FlakyDiskNetOptions(417, tmp.Sub("state"), &env);
  options.past.disk.sync_every = 1;
  options.past.cache_policy = CachePolicy::kNone;
  PastNetwork net(options);
  net.Build(12);
  auto inserted = net.InsertSync(net.node(2), "file", ToBytes("payload"), 3);
  ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
  const FileId id = inserted.value();

  // Every fsync fails from now on. Crashing a holder makes maintenance copy
  // the file to the next-closest node, where the write reaches the log and
  // its sync fails.
  env.syncs_left = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->store().Has(id)) {
      net.CrashNode(i);
      break;
    }
  }
  net.Run(40 * kMicrosPerSecond);
  EXPECT_GT(IoErrors(&net), 0u);
  EXPECT_EQ(net.CountReplicas(id), 2);
  for (size_t i = 0; i < net.size(); ++i) {
    if (!net.node(i)->overlay()->active()) {
      continue;
    }
    auto looked = net.LookupSync(net.node(i), id);
    ASSERT_TRUE(looked.ok()) << "node " << i << ": "
                             << StatusCodeName(looked.status());
    EXPECT_EQ(looked.value().content, ToBytes("payload"));
  }
}

// A full disk refuses the removal record of a reclaim. The holders keep the
// replicas, so they sign no receipt: one receipt would credit the owner's
// quota for storage that is still in use. The reclaim fails with a timeout
// and, once the disks take writes again, the same reclaim succeeds.
TEST(PastDiskFaultTest, ReclaimRefusedByDiskSendsNoReceipt) {
  TempDir tmp;
  FlakyEnv env;
  PastNetwork net(FlakyDiskNetOptions(421, tmp.Sub("state"), &env));
  net.Build(12);
  PastNode* client = net.node(2);
  auto inserted = net.InsertSync(client, "file", ToBytes("payload"), 3);
  ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
  const FileId id = inserted.value();
  const uint64_t quota_used = client->card().quota_used();

  env.space_left = 0;  // every node's disk is full
  EXPECT_EQ(net.ReclaimSync(client, id), StatusCode::kTimeout);
  EXPECT_EQ(net.CountReplicas(id), 3);
  EXPECT_EQ(client->card().quota_used(), quota_used);
  EXPECT_EQ(Count(&net, "past.reclaims_processed"), 0u);
  EXPECT_GE(IoErrors(&net), 3u);

  env.space_left = FlakyEnv::kUnlimited;
  EXPECT_EQ(net.ReclaimSync(client, id), StatusCode::kOk);
  net.Run(5 * kMicrosPerSecond);  // the receipts after the first one
  EXPECT_EQ(net.CountReplicas(id), 0);
  EXPECT_LT(client->card().quota_used(), quota_used);
}

// Replica diversion with durable stores: a node that diverted a replica holds
// only a pointer to it. When the disk refuses the pointer's tombstone, the
// node keeps the pointer and does not forward the reclaim, so the pointer
// never names a replica that is gone; it does not abort either.
TEST(PastDiskFaultTest, ReclaimOfDivertedReplicaSurvivesRefusedPointerRemoval) {
  TempDir tmp;
  FlakyEnv env;
  PastNetworkOptions options = FlakyDiskNetOptions(201, tmp.Sub("state"), &env);
  options.default_node_capacity = 2000;
  options.past.policy.t_pri = 0.2;
  options.past.policy.t_div = 0.6;
  options.past.default_replication = 2;
  PastNetwork net(options);
  net.Build(25);
  PastNode* client = net.node(0);
  // The first inserted file whose replica some node diverted.
  FileId id;
  PastNode* primary = nullptr;
  for (int i = 0; i < 60 && primary == nullptr; ++i) {
    auto r = net.InsertSyntheticSync(client, "rd-" + std::to_string(i), 390, 2);
    for (size_t j = 0; r.ok() && j < net.size() && primary == nullptr; ++j) {
      if (net.node(j)->store().GetPointer(r.value()).has_value()) {
        id = r.value();
        primary = net.node(j);
      }
    }
  }
  ASSERT_NE(primary, nullptr) << "workload produced no diversions";
  PastNode* target = net.NodeByAddr(primary->store().GetPointer(id)->addr);
  ASSERT_NE(target, nullptr);
  ASSERT_TRUE(target->store().Has(id));

  env.space_left = 0;  // every node's disk is full
  EXPECT_EQ(net.ReclaimSync(client, id), StatusCode::kTimeout);
  EXPECT_TRUE(primary->store().GetPointer(id).has_value());
  EXPECT_TRUE(target->store().Has(id));
  EXPECT_GT(IoErrors(&net), 0u);

  env.space_left = FlakyEnv::kUnlimited;
  EXPECT_EQ(net.ReclaimSync(client, id), StatusCode::kOk);
  net.Run(5 * kMicrosPerSecond);  // the forwarded reclaim reaches the target
  EXPECT_FALSE(primary->store().GetPointer(id).has_value());
  EXPECT_FALSE(target->store().Has(id));
  EXPECT_EQ(net.CountReplicas(id), 0);
}

// A crashed holder's files are re-replicated on the next-closest nodes. When
// the holder reboots with its store intact, those nodes fall out of the k
// closest and demote their copies. A demotion the disk refuses keeps the
// replica held and is not counted; store.io_errors records the refusal.
TEST(PastDiskFaultTest, DemotionRefusedByDiskKeepsReplicaUncounted) {
  TempDir tmp;
  FlakyEnv env;
  PastNetwork net(FlakyDiskNetOptions(423, tmp.Sub("state"), &env));
  net.Build(12);
  PastNode* client = net.node(2);
  std::vector<FileId> ids;
  for (int i = 0; i < 6; ++i) {
    auto inserted =
        net.InsertSync(client, "file-" + std::to_string(i), ToBytes("payload"), 3);
    ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
    ids.push_back(inserted.value());
  }
  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < net.size() && victim == SIZE_MAX; ++i) {
    if (net.node(i) != client && net.node(i)->store().Has(ids[0])) {
      victim = i;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  net.CrashNode(victim);
  net.Run(20 * kMicrosPerSecond);  // declared dead, files back at k
  ASSERT_EQ(net.CountReplicas(ids[0]), 3);

  env.space_left = 0;  // every node's disk is full; the reboot only reads
  net.RestartNode(victim);
  net.Run(20 * kMicrosPerSecond);
  EXPECT_GT(IoErrors(&net), 0u);
  EXPECT_EQ(Count(&net, "past.demotions"), 0u);
  EXPECT_EQ(net.CountReplicas(ids[0]), 4);  // the demoted copy is still held
}

}  // namespace
}  // namespace past
