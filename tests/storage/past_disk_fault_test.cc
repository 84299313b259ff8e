// Disk faults at the PAST layer: a durable node whose disk refuses a write
// or its fsync NACKs the replica (no receipt, no abort) and never serves it,
// and one whose disk refuses a read treats the replica as not held here and
// falls back to the other ways of answering. Both kinds of failure are
// counted in store.io_errors.
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

uint64_t IoErrors(PastNetwork* net) {
  return net->node(0)->metrics().GetCounter("store.io_errors")->value();
}

uint64_t ReplicasStored(PastNetwork* net) {
  uint64_t total = 0;
  for (size_t i = 0; i < net->size(); ++i) {
    total += net->node(i)->stats().replicas_stored;
  }
  return total;
}

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

}  // namespace
}  // namespace past
