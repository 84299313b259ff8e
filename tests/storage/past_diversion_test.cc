// Storage-management behavior: replica diversion, file diversion and the
// admission policy under constrained capacities (SOSP scheme, ref [12]).
#include <gtest/gtest.h>

#include "tests/storage/past_test_util.h"

namespace past {
namespace {

TEST(PastDiversionTest, ReplicaDiversionCreatesConsistentPointers) {
  // Small capacities with a lenient diverted threshold: as the system fills,
  // overloaded replica-set members divert replicas into their leaf sets and
  // keep pointers.
  PastNetworkOptions options = SmallNetOptions(201);
  options.default_node_capacity = 2000;
  options.past.policy.t_pri = 0.2;
  options.past.policy.t_div = 0.6;
  options.past.default_replication = 2;
  PastNetwork net(options);
  net.Build(25);
  PastNode* client = net.node(0);
  for (int i = 0; i < 60; ++i) {
    (void)net.InsertSyntheticSync(client, "rd-" + std::to_string(i), 390, 2);
  }
  const MetricsRegistry& metrics = net.overlay().network().metrics();
  const uint64_t diversions_ok = metrics.FindCounter("past.diversions_ok")->value();
  const uint64_t diverted_accepted = metrics.FindCounter("past.diverted_accepted")->value();
  uint64_t pointers = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    pointers += net.node(i)->store().pointer_count();
  }
  ASSERT_GT(diversions_ok, 0u);
  // Each diversion left a pointer; some were since removed by the reclaim
  // cleanup of failed insert attempts, so pointers <= diversions.
  EXPECT_GT(pointers, 0u);
  EXPECT_LE(pointers, diversions_ok);
  EXPECT_GE(diverted_accepted, diversions_ok);

  // Follow each pointer: the target must hold the file, marked diverted.
  int checked = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    for (const FileId& id : net.node(i)->store().FileIds()) {
      (void)id;
    }
    // Walk pointers via the public accessors.
    PastNode* primary = net.node(i);
    for (size_t j = 0; j < net.size(); ++j) {
      PastNode* target = net.node(j);
      for (const FileId& id : target->store().FileIds()) {
        const StoredFile* f = target->store().Get(id);
        if (f->diverted) {
          auto ptr = f->diverted_from;
          PastNode* holder = net.NodeByAddr(ptr.addr);
          ASSERT_NE(holder, nullptr);
          auto pointer = holder->store().GetPointer(id);
          ASSERT_TRUE(pointer.has_value());
          EXPECT_EQ(pointer->addr, target->overlay()->addr());
          ++checked;
        }
      }
    }
    (void)primary;
    break;  // the j-loop already covered every node
  }
  EXPECT_GT(checked, 0);
}

TEST(PastDiversionTest, DivertedLookupThroughPointer) {
  // Lookup must succeed when the responsible node holds only a pointer.
  PastNetworkOptions options = SmallNetOptions(203);
  options.default_node_capacity = 2000;
  options.past.policy.t_pri = 0.2;
  options.past.policy.t_div = 0.6;
  options.past.default_replication = 2;
  PastNetwork net(options);
  net.Build(25);
  PastNode* client = net.node(0);

  std::vector<FileId> files;
  for (int i = 0; i < 60; ++i) {
    auto r = net.InsertSyntheticSync(client, "d-" + std::to_string(i), 390, 2);
    if (r.ok()) {
      files.push_back(r.value());
    }
  }
  ASSERT_GT(net.overlay().network().metrics().FindCounter("past.diverted_accepted")->value(),
            0u)
      << "workload produced no diversions";
  // Every successfully inserted file must still resolve.
  int found = 0;
  for (const FileId& id : files) {
    if (net.LookupSync(net.node(11), id).ok()) {
      ++found;
    }
  }
  EXPECT_EQ(found, static_cast<int>(files.size()));
}

TEST(PastDiversionTest, FileDiversionRescuesInsertsRetryVsNoRetry) {
  // Half the nodes have no usable storage. With k=1, an insert fails whenever
  // the fileId lands on a broke node; the salt retry (file diversion) remaps
  // the file to a new region. Compare success with and without retries.
  auto run = [](int retries, uint64_t seed) {
    PastNetworkOptions options = SmallNetOptions(seed);
    options.past.enable_replica_diversion = false;
    options.past.file_diversion_retries = retries;
    options.past.default_replication = 1;
    options.past.policy.t_pri = 1.0;
    options.past.request_timeout = 5 * kMicrosPerSecond;
    PastNetwork net(options);
    for (int i = 0; i < 20; ++i) {
      // Alternate roomy and broke nodes.
      net.AddNode(i % 2 == 0 ? 200000 : 10, 1ULL << 30);
    }
    PastNode* client = net.node(0);
    int ok = 0;
    for (int i = 0; i < 40; ++i) {
      auto r = net.InsertSyntheticSync(client, "fd-" + std::to_string(i), 120, 1);
      ok += r.ok() ? 1 : 0;
    }
    return ok;
  };
  int with_retries = run(5, 205);
  int without_retries = run(0, 205);
  EXPECT_GT(with_retries, 35);  // 1 - 0.5^6 ~ 98% per insert
  EXPECT_GT(with_retries, without_retries + 5);
}

TEST(PastDiversionTest, InsertRejectedWhenSystemTrulyFull) {
  PastNetworkOptions options = SmallNetOptions(207);
  options.default_node_capacity = 500;
  options.past.default_replication = 2;
  options.past.policy.t_pri = 1.0;
  options.past.policy.t_div = 1.0;
  options.past.request_timeout = 5 * kMicrosPerSecond;
  PastNetwork net(options);
  net.Build(10);
  PastNode* client = net.node(0);
  // Total capacity 5000 bytes; pour in 24000 bytes of replicas.
  int rejected = 0;
  for (int i = 0; i < 60; ++i) {
    auto r = net.InsertSyntheticSync(client, "full-" + std::to_string(i), 200, 2);
    if (!r.ok()) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 10);
  auto summary = net.Summary();
  EXPECT_GT(summary.utilization(), 0.5);
}

TEST(PastDiversionTest, RejectionsBiasedTowardLargeFiles) {
  // The paper: "failed insertions are heavily biased towards large files".
  PastNetworkOptions options = SmallNetOptions(209);
  options.default_node_capacity = 4000;
  options.past.default_replication = 2;
  options.past.policy.t_pri = 1.0;
  options.past.policy.t_div = 1.0;
  options.past.request_timeout = 5 * kMicrosPerSecond;
  PastNetwork net(options);
  net.Build(15);
  PastNode* client = net.node(0);
  Rng rng(5);
  uint64_t accepted_size_sum = 0, rejected_size_sum = 0;
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 120; ++i) {
    uint64_t size = rng.Bernoulli(0.3) ? 1500 : 60;
    auto r = net.InsertSyntheticSync(client, "bias-" + std::to_string(i), size, 2);
    if (r.ok()) {
      accepted_size_sum += size;
      ++accepted;
    } else {
      rejected_size_sum += size;
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0);
  ASSERT_GT(accepted, 0);
  double avg_accepted = static_cast<double>(accepted_size_sum) / accepted;
  double avg_rejected = static_cast<double>(rejected_size_sum) / rejected;
  EXPECT_GT(avg_rejected, avg_accepted);
}

// A refused insert attempt leaves nothing behind: when a member's NACK fails
// the attempt, the replicas the other members stored are reclaimed, even if
// no receipt reached the client first. After the network settles, every
// replica a live node holds belongs to a file its owner acknowledged.
TEST(PastInsertTest, FailedAttemptLeavesNoOrphans) {
  PastNetworkOptions options = SmallNetOptions(207);
  options.past.enable_replica_diversion = false;
  options.past.default_replication = 3;
  PastNetwork net(options);
  Rng rng(207);
  for (int i = 0; i < 24; ++i) {
    ASSERT_NE(net.AddNode(500 + rng.UniformU64(3500), 1ULL << 30), nullptr);
  }
  int refused = 0;
  for (int i = 0; i < 80; ++i) {
    PastNode* client = net.node(static_cast<size_t>(i) % net.size());
    const uint64_t size = 20 + rng.UniformU64(300);
    if (!net.InsertSyntheticSync(client, "orphan-" + std::to_string(i), size).ok()) {
      ++refused;
    }
  }
  const uint64_t rejects =
      net.overlay().network().metrics().FindCounter("past.store_rejects")->value();
  ASSERT_GT(rejects, 0u);
  net.Run(60 * kMicrosPerSecond);

  int orphans = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    for (const FileId& id : net.node(i)->store().FileIds()) {
      bool acknowledged = false;
      for (size_t j = 0; j < net.size() && !acknowledged; ++j) {
        acknowledged = net.node(j)->OwnedFileCert(id) != nullptr;
      }
      orphans += acknowledged ? 0 : 1;
    }
  }
  EXPECT_EQ(orphans, 0) << "refused inserts: " << refused << ", store rejects: " << rejects;
}

}  // namespace
}  // namespace past
