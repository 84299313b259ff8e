// Tests of Pastry's self-organization: join cost and invariants, failure
// detection and leaf-set repair, routing around failed and malicious nodes,
// and node recovery via the last known leaf set.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/pastry/overlay.h"

namespace past {
namespace {

struct CountingApp : public PastryApp {
  int delivered = 0;
  int leaf_changes = 0;
  void Deliver(const DeliverContext&, ByteSpan) override { ++delivered; }
  void OnLeafSetChanged() override { ++leaf_changes; }
};

OverlayOptions FailureOptions(uint64_t seed) {
  OverlayOptions opts;
  opts.seed = seed;
  // Heartbeats on, tightened for test speed.
  opts.pastry.keep_alive_period = 1 * kMicrosPerSecond;
  opts.pastry.failure_timeout = 3 * kMicrosPerSecond;
  opts.pastry.death_quarantine = 6 * kMicrosPerSecond;
  opts.pastry.ack_timeout = 800 * kMicrosPerMilli;
  return opts;
}

uint64_t CounterValue(Overlay& overlay, const char* name) {
  return overlay.network().metrics().GetCounter(name)->value();
}

uint64_t FailuresDetected(Overlay& overlay) {
  return CounterValue(overlay, "pastry.failures_detected");
}

TEST(JoinTest, JoinCostScalesLogarithmically) {
  OverlayOptions opts;
  opts.seed = 5;
  opts.pastry.keep_alive_period = 0;
  Overlay overlay(opts);
  overlay.Build(20);

  // Measure network messages for joins into a small vs larger overlay; the
  // per-join cost should grow slowly (O(log N)), not linearly.
  const Counter* sent = overlay.network().metrics().FindCounter("net.sent");
  uint64_t before_small = sent->value();
  overlay.AddNode();
  uint64_t cost_small = sent->value() - before_small;

  overlay.Build(200);
  uint64_t before_large = sent->value();
  overlay.AddNode();
  uint64_t cost_large = sent->value() - before_large;

  EXPECT_GT(cost_small, 0u);
  // 10x more nodes must cost far less than 10x more messages.
  EXPECT_LT(cost_large, cost_small * 5);
}

TEST(JoinTest, NewNodeIsImmediatelyRoutable) {
  OverlayOptions opts;
  opts.seed = 7;
  opts.pastry.keep_alive_period = 0;
  Overlay overlay(opts);
  overlay.Build(100);

  PastryNode* fresh = overlay.AddNode();
  CountingApp app;
  fresh->SetApp(&app);
  // Routing to the new node's own id from anywhere must reach it.
  for (int i = 0; i < 10; ++i) {
    overlay.RandomLiveNode()->Route(fresh->id(), 1, {});
  }
  overlay.RunAll();
  EXPECT_EQ(app.delivered, 10);
}

TEST(JoinTest, JoinNotifiesExistingNodesLeafSets) {
  OverlayOptions opts;
  opts.seed = 9;
  opts.pastry.keep_alive_period = 0;
  Overlay overlay(opts);
  overlay.Build(50);
  PastryNode* fresh = overlay.AddNode();
  // The l/2 true ring neighbors on each side must have folded the new node
  // into their leaf sets.
  std::vector<std::pair<U128, size_t>> by_offset;  // up-offset from fresh
  for (size_t i = 0; i + 1 < overlay.size(); ++i) {
    by_offset.emplace_back(overlay.node(i)->id().Sub(fresh->id()), i);
  }
  std::sort(by_offset.begin(), by_offset.end());
  const int half = fresh->config().leaf_set_size / 2;
  int missing = 0;
  for (int s = 0; s < half; ++s) {
    // s-th successor and s-th predecessor of the fresh node.
    size_t succ = by_offset[static_cast<size_t>(s)].second;
    size_t pred = by_offset[by_offset.size() - 1 - static_cast<size_t>(s)].second;
    missing += overlay.node(succ)->leaf_set().Contains(fresh->id()) ? 0 : 1;
    missing += overlay.node(pred)->leaf_set().Contains(fresh->id()) ? 0 : 1;
  }
  EXPECT_LE(missing, 1);
}

TEST(JoinTest, JoinRetriesAfterLostRequest) {
  OverlayOptions opts;
  opts.seed = 11;
  opts.network.loss_rate = 0.2;  // lossy network
  opts.pastry.keep_alive_period = 0;
  Overlay overlay(opts);
  overlay.Build(40);  // joins must all complete despite loss (via retry)
  for (size_t i = 0; i < overlay.size(); ++i) {
    EXPECT_TRUE(overlay.node(i)->active());
  }
}

TEST(JoinTest, JoinReroutesAroundSilentlyDeadHop) {
  // With keep-alives off no node notices a crash, so every node that knew
  // the dead node still lists it. A joiner whose id sits right next to the
  // dead node's id is routed straight at it; the hop before it gets no ack,
  // declares it failed and sends the join on. The join completes well
  // before the joiner's own retry timer (PastryNode::kJoinRetryTimeout)
  // could rescue it.
  OverlayOptions opts;
  opts.seed = 31;
  opts.pastry.keep_alive_period = 0;
  Overlay overlay(opts);
  overlay.Build(12);
  PastryNode* dead = overlay.node(5);
  dead->Fail();
  const uint64_t reroutes = CounterValue(overlay, "pastry.reroutes");

  PastryNode joiner(overlay.context(), dead->id().Add(U128(0, 1)), /*seed=*/99);
  joiner.Join(overlay.NearestLiveNode(joiner.addr())->addr());
  overlay.Run(PastryNode::kJoinRetryTimeout / 2);
  EXPECT_GT(CounterValue(overlay, "pastry.reroutes"), reroutes);
  EXPECT_TRUE(joiner.active());
}

TEST(FailureTest, LeafSetsHealAfterCrash) {
  Overlay overlay(FailureOptions(13));
  overlay.Build(60);
  // Pick a victim and snapshot who holds it.
  PastryNode* victim = overlay.node(30);
  NodeId victim_id = victim->id();
  victim->Fail();
  overlay.Run(30 * kMicrosPerSecond);
  for (size_t i = 0; i < overlay.size(); ++i) {
    PastryNode* node = overlay.node(i);
    if (node->active()) {
      EXPECT_FALSE(node->leaf_set().Contains(victim_id))
          << "node " << i << " still holds the failed node";
    }
  }
}

TEST(FailureTest, LeafSetsRefillAfterCrash) {
  Overlay overlay(FailureOptions(17));
  overlay.Build(80);
  overlay.node(10)->Fail();
  overlay.node(20)->Fail();
  overlay.Run(40 * kMicrosPerSecond);
  PastryConfig config;
  // Leaf sets must be full again (N-3 >> l/2 per side).
  for (size_t i = 0; i < overlay.size(); ++i) {
    PastryNode* node = overlay.node(i);
    if (node->active()) {
      EXPECT_TRUE(node->leaf_set().Complete()) << "node " << i;
      (void)config;
    }
  }
}

TEST(FailureTest, RoutingSurvivesFailures) {
  Overlay overlay(FailureOptions(19));
  overlay.Build(100);
  // Kill 10% of nodes.
  for (int i = 0; i < 10; ++i) {
    overlay.node(static_cast<size_t>(i * 7 + 3))->Fail();
  }
  overlay.Run(40 * kMicrosPerSecond);  // allow detection + repair

  std::vector<CountingApp> apps(overlay.size());
  for (size_t i = 0; i < overlay.size(); ++i) {
    overlay.node(i)->SetApp(&apps[i]);
  }
  int correct = 0;
  const int lookups = 60;
  for (int t = 0; t < lookups; ++t) {
    U128 key = overlay.RandomKey();
    PastryNode* expected = overlay.GloballyClosestLiveNode(key);
    int before = apps[expected->addr()].delivered;
    overlay.RandomLiveNode()->Route(key, 1, {});
    overlay.Run(10 * kMicrosPerSecond);
    if (apps[expected->addr()].delivered > before) {
      ++correct;
    }
  }
  EXPECT_GE(correct, lookups - 2);
}

TEST(FailureTest, PerHopAcksRerouteAroundSilentlyDeadHop) {
  // Fail nodes *without* giving the overlay time to repair; per-hop acks must
  // still get messages through by detecting dead hops inline.
  Overlay overlay(FailureOptions(23));
  overlay.Build(100);
  std::vector<CountingApp> apps(overlay.size());
  for (size_t i = 0; i < overlay.size(); ++i) {
    overlay.node(i)->SetApp(&apps[i]);
  }
  for (int i = 0; i < 15; ++i) {
    overlay.node(static_cast<size_t>(i * 6 + 1))->Fail();
  }
  // Immediately route (no repair window).
  int correct = 0;
  const int lookups = 40;
  for (int t = 0; t < lookups; ++t) {
    U128 key = overlay.RandomKey();
    PastryNode* expected = overlay.GloballyClosestLiveNode(key);
    int before = apps[expected->addr()].delivered;
    PastryNode* src = overlay.RandomLiveNode();
    src->Route(key, 1, {});
    overlay.Run(15 * kMicrosPerSecond);
    if (apps[expected->addr()].delivered > before) {
      ++correct;
    }
  }
  EXPECT_GE(correct, lookups * 9 / 10);
}

TEST(FailureTest, RandomizedRetryEvadesMaliciousForwarder) {
  OverlayOptions opts = FailureOptions(29);
  opts.pastry.randomized_routing = true;
  opts.pastry.randomize_epsilon = 0.3;
  opts.pastry.per_hop_acks = false;  // the malicious node acks but drops
  Overlay overlay(opts);
  overlay.Build(80);

  std::vector<CountingApp> apps(overlay.size());
  for (size_t i = 0; i < overlay.size(); ++i) {
    overlay.node(i)->SetApp(&apps[i]);
  }
  // Find a (src, key) pair whose deterministic route transits some node, and
  // make that node malicious.
  PastryNode* src = overlay.node(2);
  U128 key = overlay.RandomKey();
  PastryNode* expected = overlay.GloballyClosestLiveNode(key);
  if (expected == src) {
    key = key.Add(U128(1ULL << 60, 0));
    expected = overlay.GloballyClosestLiveNode(key);
  }

  // The client retries the query up to R times; with randomization, some
  // retry should avoid the malicious hop. Mark ALL direct next-hop candidates
  // except the destination as malicious to force mid-route diversity.
  for (size_t i = 0; i < overlay.size(); ++i) {
    if (overlay.node(i) != src && overlay.node(i) != expected &&
        overlay.rng().Bernoulli(0.15)) {
      overlay.node(i)->SetMalicious(true);
    }
  }
  int before = apps[expected->addr()].delivered;
  bool reached = false;
  for (int retry = 0; retry < 20 && !reached; ++retry) {
    src->Route(key, 1, {});
    overlay.Run(10 * kMicrosPerSecond);
    reached = apps[expected->addr()].delivered > before;
  }
  EXPECT_TRUE(reached) << "randomized retries failed to evade malicious nodes";
}

TEST(RecoveryTest, FailedNodeRejoinsViaLastLeafSet) {
  Overlay overlay(FailureOptions(31));
  overlay.Build(50);
  PastryNode* victim = overlay.node(25);
  victim->Fail();
  overlay.Run(20 * kMicrosPerSecond);
  EXPECT_FALSE(victim->active());

  victim->Recover(overlay.node(0)->addr());
  for (int i = 0; i < 100 && !victim->active(); ++i) {
    overlay.Run(1 * kMicrosPerSecond);
  }
  ASSERT_TRUE(victim->active());
  overlay.Run(20 * kMicrosPerSecond);

  // The recovered node must be routable again.
  CountingApp app;
  victim->SetApp(&app);
  overlay.RandomLiveNode()->Route(victim->id(), 1, {});
  overlay.Run(10 * kMicrosPerSecond);
  EXPECT_EQ(app.delivered, 1);
}

TEST(RecoveryTest, MassiveChurnKeepsOverlayCorrect) {
  Overlay overlay(FailureOptions(37));
  overlay.Build(80);
  Rng churn_rng(99);
  // Alternate failures and joins.
  for (int round = 0; round < 5; ++round) {
    size_t victim = churn_rng.UniformU64(overlay.size());
    if (overlay.node(victim)->active()) {
      overlay.node(victim)->Fail();
    }
    overlay.AddNode();
    overlay.Run(10 * kMicrosPerSecond);
  }
  overlay.Run(40 * kMicrosPerSecond);

  std::vector<CountingApp> apps(overlay.size());
  for (size_t i = 0; i < overlay.size(); ++i) {
    overlay.node(i)->SetApp(&apps[i]);
  }
  int correct = 0;
  const int lookups = 40;
  for (int t = 0; t < lookups; ++t) {
    U128 key = overlay.RandomKey();
    PastryNode* expected = overlay.GloballyClosestLiveNode(key);
    int before = apps[expected->addr()].delivered;
    overlay.RandomLiveNode()->Route(key, 1, {});
    overlay.Run(10 * kMicrosPerSecond);
    if (apps[expected->addr()].delivered > before) {
      ++correct;
    }
  }
  EXPECT_GE(correct, lookups - 2);
}

TEST(FailureTest, ChurnKeepsLeafSetsExact) {
  // Crash/recover cycles: every holder drops each victim within 5 s, each
  // crash is declared at most once per holder (l of them), and the views end
  // exact. Declaring neighbours dead without ever pinging them, or losing
  // the refill of a leaf slot, fails one of the three.
  OverlayOptions opts = FailureOptions(43);
  Overlay overlay(opts);
  overlay.Build(60);
  Rng pick(7);
  for (int cycle = 0; cycle < 10; ++cycle) {
    PastryNode* victim = overlay.node(1 + pick.UniformU64(overlay.size() - 1));
    const NodeId victim_id = victim->id();
    const uint64_t failures_before = FailuresDetected(overlay);
    victim->Fail();
    overlay.Run(5 * kMicrosPerSecond);
    for (size_t i = 0; i < overlay.size(); ++i) {
      PastryNode* node = overlay.node(i);
      if (node->active()) {
        EXPECT_FALSE(node->leaf_set().Contains(victim_id))
            << "cycle " << cycle << ": node " << i << " still holds the victim";
      }
    }
    overlay.Run(5 * kMicrosPerSecond);
    victim->Recover(overlay.node(0)->addr());
    overlay.Run(20 * kMicrosPerSecond);
    ASSERT_TRUE(victim->active()) << "cycle " << cycle;
    EXPECT_LE(FailuresDetected(overlay) - failures_before,
              static_cast<uint64_t>(opts.pastry.leaf_set_size))
        << "cycle " << cycle;
  }
  overlay.Run(10 * kMicrosPerSecond);
  LeafSetAudit audit = overlay.AuditLeafSets();
  EXPECT_EQ(audit.dead_members, 0);
  EXPECT_EQ(audit.missing_neighbours, 0);
}

TEST(FailureTest, MassFailureLeafSetsHealExactly) {
  // The exp_fault_tolerance shape: crash a fraction of a 200-node overlay at
  // once. Runs of adjacent victims are detected one neighbour at a time and
  // every gap must refill from leaf-set overlap.
  for (double frac : {0.05, 0.10, 0.20, 0.30}) {
    Overlay overlay(FailureOptions(60 + static_cast<uint64_t>(frac * 100)));
    overlay.Build(200);
    Rng rng(5);
    const int to_kill = static_cast<int>(200 * frac);
    for (int killed = 0; killed < to_kill;) {
      PastryNode* victim = overlay.node(rng.UniformU64(overlay.size()));
      if (victim->active()) {
        victim->Fail();
        ++killed;
      }
    }
    overlay.Run(30 * kMicrosPerSecond);
    LeafSetAudit audit = overlay.AuditLeafSets();
    EXPECT_EQ(audit.dead_members, 0) << "failed fraction " << frac;
    EXPECT_EQ(audit.missing_neighbours, 0) << "failed fraction " << frac;
  }
}

TEST(FailureTest, IdleOverlaySendsOneKeepAlivePerNodePerPeriod) {
  // Once the joins have settled, leaf-set upkeep is one KeepAlive per node
  // per period, to its nearest smaller member, and nothing else.
  OverlayOptions opts = FailureOptions(47);
  Overlay overlay(opts);
  overlay.Build(60);
  overlay.Run(30 * kMicrosPerSecond);
  const uint64_t before = CounterValue(overlay, "pastry.maintenance_msgs_sent");
  const uint64_t periods = 10;
  overlay.Run(static_cast<SimTime>(periods) * opts.pastry.keep_alive_period);
  EXPECT_EQ(CounterValue(overlay, "pastry.maintenance_msgs_sent") - before,
            overlay.size() * periods);
}

TEST(FailureTest, IsolatedCrashCostsLinearNotices) {
  // A lone crash is declared by its watcher, which tells its leaf set and the
  // crashed node; only the holder past the watcher's reach needs a relay.
  // Every holder drops the node within 5 s for at most 2l + 2 notices, where
  // relaying to whole leaf sets costs about l * l / 2.
  OverlayOptions opts = FailureOptions(53);
  Overlay overlay(opts);
  overlay.Build(150);
  overlay.Run(20 * kMicrosPerSecond);
  const uint64_t l = static_cast<uint64_t>(opts.pastry.leaf_set_size);
  for (size_t victim_index : {20, 75, 130}) {
    PastryNode* victim = overlay.node(victim_index);
    const NodeId victim_id = victim->id();
    uint64_t holders = 0;
    for (size_t i = 0; i < overlay.size(); ++i) {
      holders += overlay.node(i)->active() &&
                         overlay.node(i)->leaf_set().Contains(victim_id)
                     ? 1
                     : 0;
    }
    EXPECT_EQ(holders, l) << "victim " << victim_index;
    const uint64_t notices_before = CounterValue(overlay, "pastry.failure_notices_sent");
    victim->Fail();
    overlay.Run(5 * kMicrosPerSecond);
    for (size_t i = 0; i < overlay.size(); ++i) {
      PastryNode* node = overlay.node(i);
      if (node->active()) {
        EXPECT_FALSE(node->leaf_set().Contains(victim_id))
            << "victim " << victim_index << ": node " << i << " still holds it";
      }
    }
    EXPECT_LE(CounterValue(overlay, "pastry.failure_notices_sent") - notices_before,
              2 * l + 2)
        << "victim " << victim_index;
    overlay.Run(20 * kMicrosPerSecond);
  }
}

TEST(FailureTest, RoutedMessageToRejoiningNodeIsRerouted) {
  // A node rejoining after a crash has its endpoint up before its join
  // completes, and its neighbours may not have dropped it yet. It must not
  // ack routed messages it cannot handle: the forwarder's hop timeout then
  // reroutes them instead of losing them.
  Overlay overlay(FailureOptions(59));
  overlay.Build(40);
  std::vector<CountingApp> apps(overlay.size());
  for (size_t i = 0; i < overlay.size(); ++i) {
    overlay.node(i)->SetApp(&apps[i]);
  }
  PastryNode* victim = overlay.node(20);
  victim->Fail();
  victim->Recover(overlay.node(0)->addr());
  ASSERT_FALSE(victim->active());
  const int kMessages = 20;
  for (int m = 0; m < kMessages; ++m) {
    overlay.RandomLiveNode()->Route(victim->id(), 1, {});
  }
  overlay.Run(10 * kMicrosPerSecond);
  ASSERT_TRUE(victim->active());
  int delivered = 0;
  for (const CountingApp& app : apps) {
    delivered += app.delivered;
  }
  EXPECT_EQ(delivered, kMessages);
}

TEST(FailureTest, EventualDeliveryBoundFromPaper) {
  // Delivery is guaranteed unless floor(l/2) nodes with adjacent ids fail
  // simultaneously. Kill floor(l/2) - 1 = 7 adjacent nodes (l=16 here) and
  // verify keys in that region still resolve.
  OverlayOptions opts = FailureOptions(41);
  opts.pastry.leaf_set_size = 16;
  Overlay overlay(opts);
  overlay.Build(60);

  // Sort nodes by id and kill 7 adjacent ones.
  std::vector<std::pair<U128, size_t>> by_id;
  for (size_t i = 0; i < overlay.size(); ++i) {
    by_id.emplace_back(overlay.node(i)->id(), i);
  }
  std::sort(by_id.begin(), by_id.end());
  const size_t start = 20;
  for (size_t i = 0; i < 7; ++i) {
    overlay.node(by_id[start + i].second)->Fail();
  }
  overlay.Run(40 * kMicrosPerSecond);

  std::vector<CountingApp> apps(overlay.size());
  for (size_t i = 0; i < overlay.size(); ++i) {
    overlay.node(i)->SetApp(&apps[i]);
  }
  // Keys in the dead region must route to the surviving closest node.
  int correct = 0;
  for (int t = 0; t < 20; ++t) {
    U128 key = by_id[start + static_cast<size_t>(t) % 7].first.Add(U128(0, 12345));
    PastryNode* expected = overlay.GloballyClosestLiveNode(key);
    int before = apps[expected->addr()].delivered;
    overlay.RandomLiveNode()->Route(key, 1, {});
    overlay.Run(10 * kMicrosPerSecond);
    if (apps[expected->addr()].delivered > before) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 19);
}

}  // namespace
}  // namespace past
