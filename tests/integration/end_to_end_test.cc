// Full-system integration tests: realistic mixed workloads over a complete
// PAST deployment — joins, inserts, lookups, reclaims, churn, caching and
// quota accounting all interacting.
#include <gtest/gtest.h>

#include "src/workload/workload.h"
#include "tests/storage/past_test_util.h"

namespace past {
namespace {

TEST(EndToEndTest, MixedWorkloadWithChurn) {
  PastNetworkOptions options = SmallNetOptions(501);
  options.default_node_capacity = 1ULL << 20;
  PastNetwork net(options);
  net.Build(50);
  Rng rng(21);

  struct LiveFile {
    FileId id;
    Bytes content;
    PastNode* owner;
  };
  std::vector<LiveFile> live;
  int inserts = 0, insert_fail = 0;
  int lookups = 0, lookup_fail = 0;
  int reclaims = 0;
  int churn_events = 0;

  for (int step = 0; step < 120; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.35 || live.empty()) {
      Bytes content = rng.RandomBytes(64 + rng.UniformU64(512));
      PastNode* owner = net.RandomLiveNode();
      auto r = net.InsertSync(owner, "e2e-" + std::to_string(step), content, 3);
      ++inserts;
      if (r.ok()) {
        live.push_back({r.value(), content, owner});
      } else {
        ++insert_fail;
      }
    } else if (dice < 0.75) {
      const LiveFile& f = live[rng.PickIndex(live.size())];
      auto r = net.LookupSync(net.RandomLiveNode(), f.id);
      ++lookups;
      if (!r.ok() || r.value().content != f.content) {
        ++lookup_fail;
      }
    } else if (dice < 0.85 && live.size() > 3) {
      size_t idx = rng.PickIndex(live.size());
      if (live[idx].owner->overlay()->active()) {
        if (net.ReclaimSync(live[idx].owner, live[idx].id) == StatusCode::kOk) {
          ++reclaims;
          live.erase(live.begin() + static_cast<long>(idx));
        }
      }
    } else {
      // Churn: fail one node or add one.
      if (rng.Bernoulli(0.5)) {
        size_t victim = rng.UniformU64(net.size());
        if (net.node(victim)->overlay()->active() &&
            net.node(victim) != net.node(0)) {
          net.CrashNode(victim);
          ++churn_events;
        }
      } else {
        net.AddNode();
        ++churn_events;
      }
      net.Run(15 * kMicrosPerSecond);  // repair window
    }
  }

  EXPECT_GT(inserts, 20);
  EXPECT_GT(lookups, 20);
  EXPECT_GT(churn_events, 3);
  EXPECT_EQ(lookup_fail, 0) << "all lookups of live files must succeed";
  EXPECT_LT(insert_fail, inserts / 4);

  // Final audit: every live file still has full replication after settling.
  net.Run(60 * kMicrosPerSecond);
  int under_replicated = 0;
  for (const auto& f : live) {
    if (net.CountReplicas(f.id) < 3) {
      ++under_replicated;
    }
  }
  EXPECT_LE(under_replicated, static_cast<int>(live.size()) / 10);
}

TEST(EndToEndTest, RealisticWorkloadModelsDriveSystem) {
  PastNetworkOptions options = SmallNetOptions(503);
  options.default_node_capacity = 0;  // per-node capacities from the model
  PastNetwork net(options);
  Rng rng(31);
  CapacityModel capacities;
  capacities.base = 1 << 16;
  for (int i = 0; i < 40; ++i) {
    ASSERT_NE(net.AddNode(capacities.Sample(&rng), 1ULL << 30), nullptr);
  }

  FileSizeModel sizes;
  sizes.max_size = 1 << 15;  // keep test runtime bounded
  auto files = GenerateFiles(80, sizes, &rng);
  std::vector<FileId> stored;
  for (const auto& f : files) {
    auto r = net.InsertSyntheticSync(net.RandomLiveNode(), f.name, f.size, 3);
    if (r.ok()) {
      stored.push_back(r.value());
    }
  }
  EXPECT_GT(stored.size(), files.size() / 2);

  LookupTrace trace(stored.size(), 1.0);
  int ok = 0;
  for (int i = 0; i < 100; ++i) {
    const FileId& id = stored[trace.Next(&rng)];
    ok += net.LookupSync(net.RandomLiveNode(), id).ok() ? 1 : 0;
  }
  EXPECT_EQ(ok, 100);
}

TEST(EndToEndTest, StorageAccountingConsistentAcrossSystem) {
  PastNetwork net(SmallNetOptions(505));
  net.Build(25);
  PastNode* client = net.node(0);
  uint64_t expected_bytes = 0;
  for (int i = 0; i < 30; ++i) {
    uint64_t size = 100 + static_cast<uint64_t>(i) * 37;
    auto r = net.InsertSyntheticSync(client, "acct-" + std::to_string(i), size, 2);
    if (r.ok()) {
      expected_bytes += size * 2;
    }
  }
  auto summary = net.Summary();
  EXPECT_EQ(summary.primary_used, expected_bytes);
  EXPECT_EQ(client->card().quota_used(), expected_bytes);
}

TEST(EndToEndTest, WireSerializationCoversAllTraffic) {
  // Sanity check: a full workload runs entirely over encoded bytes; message
  // and byte counters grow accordingly.
  PastNetwork net(SmallNetOptions(507));
  net.Build(20);
  const MetricsRegistry& metrics = net.overlay().network().metrics();
  uint64_t sent_before = metrics.FindCounter("net.sent")->value();
  auto r = net.InsertSync(net.node(1), "wired", Bytes(1000, 7), 3);
  ASSERT_TRUE(r.ok());
  uint64_t sent_after = metrics.FindCounter("net.sent")->value();
  EXPECT_GT(sent_after, sent_before + 5);
  EXPECT_GT(metrics.FindCounter("net.bytes_sent")->value(), 3000u);
}

}  // namespace
}  // namespace past
