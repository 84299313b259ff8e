// Focused PastryNode behavior tests: replica-aware routing, per-hop ack
// re-routing, death quarantine, the liveness rules behind one-way
// heartbeats, statistics, and the maintenance timers.
#include <gtest/gtest.h>

#include "src/pastry/overlay.h"

namespace past {
namespace {

struct RecApp : public PastryApp {
  std::vector<DeliverContext> delivered;
  void Deliver(const DeliverContext& ctx, ByteSpan) override {
    delivered.push_back(ctx);
  }
};

struct Net {
  explicit Net(int n, uint64_t seed, SimTime keep_alive = 0) {
    OverlayOptions opts;
    opts.seed = seed;
    opts.pastry.keep_alive_period = keep_alive;
    opts.pastry.failure_timeout = 3 * kMicrosPerSecond;
    opts.pastry.death_quarantine = 6 * kMicrosPerSecond;
    overlay = std::make_unique<Overlay>(opts);
    overlay->Build(n);
    apps.resize(overlay->size());
    for (size_t i = 0; i < overlay->size(); ++i) {
      overlay->node(i)->SetApp(&apps[i]);
    }
  }

  // Returns the single node that delivered, or nullptr.
  PastryNode* WhoDelivered() {
    PastryNode* result = nullptr;
    for (size_t i = 0; i < apps.size(); ++i) {
      if (!apps[i].delivered.empty()) {
        EXPECT_EQ(result, nullptr) << "duplicate delivery";
        result = overlay->node(i);
        apps[i].delivered.clear();
      }
    }
    return result;
  }

  std::unique_ptr<Overlay> overlay;
  std::vector<RecApp> apps;
};

// The nodes count only into the network's registry, summed over all of them.
uint64_t CounterValue(Net& net, const char* name) {
  return net.overlay->network().metrics().GetCounter(name)->value();
}

// Routed messages delivered: one hop-count sample each.
uint64_t RoutesDelivered(Net& net) {
  return net.overlay->network().metrics().FindHistogram("pastry.route.hops")->count();
}

TEST(ReplicaRoutingTest, DeliversAtOneOfKClosest) {
  Net net(200, 71);
  for (int trial = 0; trial < 100; ++trial) {
    U128 key = net.overlay->RandomKey();
    // Global truth: the 5 ring-closest nodes.
    std::vector<std::pair<U128, PastryNode*>> ranked;
    for (size_t i = 0; i < net.overlay->size(); ++i) {
      ranked.emplace_back(net.overlay->node(i)->id().RingDistance(key),
                          net.overlay->node(i));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    net.overlay->RandomLiveNode()->Route(key, 1, {}, /*replica_k=*/5);
    net.overlay->RunAll();
    PastryNode* deliverer = net.WhoDelivered();
    ASSERT_NE(deliverer, nullptr);
    bool in_top5 = false;
    for (int i = 0; i < 5; ++i) {
      in_top5 |= ranked[static_cast<size_t>(i)].second == deliverer;
    }
    EXPECT_TRUE(in_top5) << "delivered outside the replica set, key "
                         << key.ToHex();
  }
}

TEST(ReplicaRoutingTest, ReplicaKOneMatchesExactRouting) {
  Net net(150, 73);
  for (int trial = 0; trial < 50; ++trial) {
    U128 key = net.overlay->RandomKey();
    PastryNode* expected = net.overlay->GloballyClosestLiveNode(key);
    net.overlay->RandomLiveNode()->Route(key, 1, {}, /*replica_k=*/1);
    net.overlay->RunAll();
    EXPECT_EQ(net.WhoDelivered(), expected);
  }
}

TEST(ReplicaRoutingTest, PrefersProximallyCloseReplica) {
  Net net(400, 79);
  // Statistically, replica-aware delivery should land on the client-nearest
  // replica much more often than 1/5 of the time.
  int nearest_hits = 0, classified = 0;
  Rng rng(5);
  for (int trial = 0; trial < 150; ++trial) {
    U128 key = net.overlay->RandomKey();
    PastryNode* client = net.overlay->node(rng.PickIndex(net.overlay->size()));
    std::vector<std::pair<U128, PastryNode*>> ranked;
    for (size_t i = 0; i < net.overlay->size(); ++i) {
      ranked.emplace_back(net.overlay->node(i)->id().RingDistance(key),
                          net.overlay->node(i));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<PastryNode*> replicas;
    for (int i = 0; i < 5; ++i) {
      replicas.push_back(ranked[static_cast<size_t>(i)].second);
    }
    client->Route(key, 1, {}, 5);
    net.overlay->RunAll();
    PastryNode* deliverer = net.WhoDelivered();
    if (deliverer == nullptr) {
      continue;
    }
    PastryNode* proximally_nearest = nullptr;
    double best = 0;
    for (PastryNode* r : replicas) {
      double d = net.overlay->network().Proximity(client->addr(), r->addr());
      if (proximally_nearest == nullptr || d < best) {
        proximally_nearest = r;
        best = d;
      }
    }
    ++classified;
    nearest_hits += deliverer == proximally_nearest ? 1 : 0;
  }
  ASSERT_GT(classified, 100);
  EXPECT_GT(static_cast<double>(nearest_hits) / classified, 0.45);
}

TEST(PerHopAckTest, ReroutesAroundSilentlyDeadHop) {
  Net net(150, 83);
  // Fail a set of nodes with NO repair time and NO heartbeats: only the
  // per-hop ack timeout can save messages that would transit them.
  for (int i = 0; i < 20; ++i) {
    net.overlay->node(static_cast<size_t>(3 + i * 7))->Fail();
  }
  int delivered = 0;
  const uint64_t reroutes_before = CounterValue(net, "pastry.reroutes");
  const int kQueries = 50;
  for (int q = 0; q < kQueries; ++q) {
    U128 key = net.overlay->RandomKey();
    PastryNode* expected = net.overlay->GloballyClosestLiveNode(key);
    net.overlay->RandomLiveNode()->Route(key, 1, {});
    net.overlay->Run(20 * kMicrosPerSecond);
    for (size_t i = 0; i < net.apps.size(); ++i) {
      for (auto& ctx : net.apps[i].delivered) {
        if (ctx.key == key && net.overlay->node(i) == expected) {
          ++delivered;
        }
      }
      net.apps[i].delivered.clear();
    }
  }
  EXPECT_GE(delivered, kQueries - 2);
  EXPECT_GT(CounterValue(net, "pastry.reroutes"), reroutes_before)
      << "some hops must have re-routed";
}

TEST(DeathQuarantineTest, StaleGossipCannotResurrectFailedNode) {
  Net net(60, 89, /*keep_alive=*/1 * kMicrosPerSecond);
  PastryNode* victim = net.overlay->node(30);
  NodeId victim_id = victim->id();
  victim->Fail();
  net.overlay->Run(30 * kMicrosPerSecond);
  // Converged: nobody holds the victim.
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    PastryNode* node = net.overlay->node(i);
    if (node->active()) {
      ASSERT_FALSE(node->leaf_set().Contains(victim_id));
    }
  }
  // A genuine rejoin (which announces itself) IS accepted again.
  victim->Recover(net.overlay->node(0)->addr());
  net.overlay->Run(30 * kMicrosPerSecond);
  ASSERT_TRUE(victim->active());
  int holders = 0;
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    PastryNode* node = net.overlay->node(i);
    if (node != victim && node->active() && node->leaf_set().Contains(victim_id)) {
      ++holders;
    }
  }
  EXPECT_GT(holders, 10);
}

// The node that bootstrapped the overlay never learned its leaf set from a
// join, and with keep-alives off nothing else refreshes it; a recovery must
// still find the live members it held at the crash instead of retrying a
// dead fallback forever.
TEST(RecoverTest, RejoinsThroughLeafSetHeldAtCrash) {
  Net net(20, 97);
  PastryNode* node0 = net.overlay->node(0);
  PastryNode* node1 = net.overlay->node(1);
  node1->Fail();
  node0->Fail();
  node0->Recover(node1->addr());
  net.overlay->Run(30 * kMicrosPerSecond);
  EXPECT_TRUE(node0->active());
}

// --- liveness rules ------------------------------------------------------------
//
// Each node heartbeats only its nearest smaller leaf member. These tests plant
// a phantom member (an id nobody else knows, at a dead node's address) in one
// node's leaf set, or hand-deliver failure notices, to exercise each rule
// that keeps one-way heartbeats from declaring live nodes dead.

// A crashed node outside `near`'s leaf set, whose address can back phantoms.
NodeAddr DeadAddressAwayFrom(Net& net, PastryNode* near) {
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    PastryNode* node = net.overlay->node(i);
    if (node != near && !near->leaf_set().Contains(node->id()) &&
        !node->leaf_set().Contains(near->id())) {
      node->Fail();
      return node->addr();
    }
  }
  ADD_FAILURE() << "no node outside the leaf set";
  return kInvalidAddr;
}

void SendNotice(Net& net, const NodeDescriptor& sender, PastryNode* to,
                const NodeDescriptor& failed, bool hearsay) {
  FailureNoticeMsg notice;
  notice.sender = sender;
  notice.failed = failed;
  notice.hearsay = hearsay;
  net.overlay->network().Send(sender.addr, to->addr(), EncodeMessage(notice));
}

// Runs `duration` in 50 ms steps; returns false if `holder` ever lacks `id`.
bool HoldsThroughout(Net& net, PastryNode* holder, const NodeId& id, SimTime duration) {
  bool held = true;
  for (SimTime t = 0; t < duration; t += 50 * kMicrosPerMilli) {
    net.overlay->Run(50 * kMicrosPerMilli);
    held = held && holder->leaf_set().Contains(id);
  }
  return held;
}

TEST(LivenessRulesTest, SuspicionProbeSparesNodeHeartbeatingDeadMember) {
  // `live` lists a phantom just below itself, so its heartbeats go to the
  // phantom and its watcher hears nothing. The watcher's probe one period
  // before the timeout is answered, so `live` is never declared dead; the
  // reply teaches the watcher the phantom, which it then declares and
  // announces, and `live` drops it.
  Net net(60, 107, /*keep_alive=*/1 * kMicrosPerSecond);
  net.overlay->Run(10 * kMicrosPerSecond);
  PastryNode* watcher = net.overlay->node(10);
  PastryNode* live = net.overlay->node(0);
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    if (net.overlay->node(i)->id() == watcher->leaf_set().NearestLarger().id) {
      live = net.overlay->node(i);
    }
  }
  ASSERT_NE(live, net.overlay->node(0));
  const NodeDescriptor phantom{watcher->id().Add(U128(0, 1)),
                               DeadAddressAwayFrom(net, watcher)};
  live->SeedState(phantom);
  ASSERT_EQ(live->leaf_set().NearestSmaller().id, phantom.id);
  const uint64_t answered = CounterValue(net, "pastry.suspicion_probes_answered");
  EXPECT_TRUE(HoldsThroughout(net, watcher, live->id(), 10 * kMicrosPerSecond));
  EXPECT_GT(CounterValue(net, "pastry.suspicion_probes_answered"), answered);
  EXPECT_FALSE(live->leaf_set().Contains(phantom.id));
  EXPECT_EQ(live->leaf_set().NearestSmaller().id, watcher->id());
}

TEST(LivenessRulesTest, ReplyListingDeclaredDeadMemberDrawsHearsayNotice) {
  // `asker` has declared a phantom dead; `replier` still lists it, and no
  // other rule would ever drop it there. The reply to asker's leaf-set
  // request draws a hearsay notice, and `replier` drops the phantom once its
  // own probe goes unanswered.
  Net net(60, 109, /*keep_alive=*/1 * kMicrosPerSecond);
  net.overlay->Run(10 * kMicrosPerSecond);
  PastryNode* asker = net.overlay->node(20);
  PastryNode* replier = nullptr;
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    if (net.overlay->node(i)->id() == asker->leaf_set().NearestLarger().id) {
      replier = net.overlay->node(i);
    }
  }
  ASSERT_NE(replier, nullptr);
  const NodeDescriptor phantom{asker->leaf_set().FarthestLarger().id.Sub(U128(0, 1)),
                               DeadAddressAwayFrom(net, asker)};
  asker->SeedState(phantom);
  ASSERT_TRUE(asker->leaf_set().Contains(phantom.id));
  SendNotice(net, asker->leaf_set().NearestSmaller(), asker, phantom, /*hearsay=*/false);
  net.overlay->Run(200 * kMicrosPerMilli);
  ASSERT_FALSE(asker->leaf_set().Contains(phantom.id));
  replier->SeedState(phantom);
  ASSERT_TRUE(replier->leaf_set().Contains(phantom.id));
  const uint64_t stale = CounterValue(net, "pastry.stale_member_notices");
  const uint64_t verified = CounterValue(net, "pastry.hearsay_verifications");
  LeafSetRequestMsg request;
  request.sender = asker->descriptor();
  net.overlay->network().Send(asker->addr(), replier->addr(), EncodeMessage(request));
  net.overlay->Run(3 * kMicrosPerSecond);
  EXPECT_EQ(CounterValue(net, "pastry.stale_member_notices"), stale + 1);
  EXPECT_EQ(CounterValue(net, "pastry.hearsay_verifications"), verified + 1);
  EXPECT_FALSE(replier->leaf_set().Contains(phantom.id));
}

TEST(LivenessRulesTest, MemberUnderHearsayCheckIsNotPassedOn) {
  // While a node checks a hearsay notice about a member, its leaf-set
  // replies leave that member out, so other nodes that declared it dead do
  // not answer with more notices (and nobody learns it second-hand).
  Net net(60, 131, /*keep_alive=*/1 * kMicrosPerSecond);
  net.overlay->Run(10 * kMicrosPerSecond);
  struct Spy : public NetReceiver {
    std::vector<LeafSetReplyMsg> replies;
    void OnMessage(NodeAddr, ByteSpan wire) override {
      Reader r(wire);
      PastryMsgType type;
      LeafSetReplyMsg reply;
      if (DecodeHeader(&r, &type) && type == PastryMsgType::kLeafSetReply &&
          DecodeBodyStrict(&r, &reply)) {
        replies.push_back(reply);
      }
    }
  } spy;
  const NodeDescriptor spy_desc{net.overlay->RandomKey(), net.overlay->network().Register(&spy)};
  PastryNode* node = net.overlay->node(30);
  const NodeDescriptor phantom{node->leaf_set().FarthestLarger().id.Sub(U128(0, 1)),
                               DeadAddressAwayFrom(net, node)};
  node->SeedState(phantom);
  auto listed_in_reply = [&]() {
    spy.replies.clear();
    LeafSetRequestMsg request;
    request.sender = spy_desc;
    net.overlay->network().Send(spy_desc.addr, node->addr(), EncodeMessage(request));
    net.overlay->Run(300 * kMicrosPerMilli);
    EXPECT_EQ(spy.replies.size(), 1u);
    for (const LeafSetReplyMsg& reply : spy.replies) {
      for (const NodeDescriptor& d : reply.leaves) {
        if (d.id == phantom.id) {
          return true;
        }
      }
    }
    return false;
  };
  EXPECT_TRUE(listed_in_reply());
  SendNotice(net, node->leaf_set().NearestSmaller(), node, phantom, /*hearsay=*/true);
  net.overlay->Run(300 * kMicrosPerMilli);
  ASSERT_TRUE(node->leaf_set().Contains(phantom.id));
  EXPECT_FALSE(listed_in_reply());
}

TEST(LivenessRulesTest, HearsayAboutLiveMemberIsDisproved) {
  // A hearsay notice is checked, not trusted: a member that answers the
  // probe stays, where a plain notice drops it at once.
  Net net(60, 113, /*keep_alive=*/1 * kMicrosPerSecond);
  net.overlay->Run(10 * kMicrosPerSecond);
  PastryNode* node = net.overlay->node(30);
  const NodeDescriptor member = node->leaf_set().FarthestLarger();
  const NodeDescriptor notifier = node->leaf_set().NearestSmaller();
  const uint64_t verified = CounterValue(net, "pastry.hearsay_verifications");
  SendNotice(net, notifier, node, member, /*hearsay=*/true);
  EXPECT_TRUE(HoldsThroughout(net, node, member.id, 3 * kMicrosPerSecond));
  EXPECT_EQ(CounterValue(net, "pastry.hearsay_verifications"), verified + 1);
  SendNotice(net, notifier, node, member, /*hearsay=*/false);
  net.overlay->Run(200 * kMicrosPerMilli);
  EXPECT_FALSE(node->leaf_set().Contains(member.id));
}

TEST(LivenessRulesTest, NodeNamedInNoticeReannouncesOncePerTimeout) {
  // Two holders drop a live node on false notices. The node hears of only
  // one of them, re-announces itself to its whole leaf set, and so is back
  // at both; a second notice within failure_timeout sends nothing more.
  Net net(60, 127, /*keep_alive=*/1 * kMicrosPerSecond);
  net.overlay->Run(10 * kMicrosPerSecond);
  PastryNode* accused = net.overlay->node(40);
  const std::vector<NodeDescriptor> smaller = accused->leaf_set().Smaller();
  ASSERT_GE(smaller.size(), 6u);
  PastryNode* holders[2] = {nullptr, nullptr};
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    PastryNode* node = net.overlay->node(i);
    holders[0] = node->id() == smaller[4].id ? node : holders[0];
    holders[1] = node->id() == smaller[5].id ? node : holders[1];
  }
  ASSERT_NE(holders[0], nullptr);
  ASSERT_NE(holders[1], nullptr);
  for (PastryNode* holder : holders) {
    SendNotice(net, holder->leaf_set().NearestSmaller(), holder, accused->descriptor(),
               /*hearsay=*/false);
  }
  net.overlay->Run(500 * kMicrosPerMilli);
  for (PastryNode* holder : holders) {
    ASSERT_FALSE(holder->leaf_set().Contains(accused->id()));
  }
  const uint64_t reannounces = CounterValue(net, "pastry.reannounces");
  SendNotice(net, holders[0]->descriptor(), accused, accused->descriptor(),
             /*hearsay=*/false);
  SendNotice(net, holders[0]->descriptor(), accused, accused->descriptor(),
             /*hearsay=*/false);
  net.overlay->Run(1 * kMicrosPerSecond);
  EXPECT_EQ(CounterValue(net, "pastry.reannounces"), reannounces + 1);
  for (PastryNode* holder : holders) {
    EXPECT_TRUE(holder->leaf_set().Contains(accused->id()));
  }
}

TEST(StatsTest, CountersTrackActivity) {
  Net net(50, 97);
  PastryNode* src = net.overlay->node(5);
  const uint64_t sent_before = CounterValue(net, "pastry.msgs_sent");
  const uint64_t routed_before = CounterValue(net, "pastry.routed_seen");
  const uint64_t forwarded_before = CounterValue(net, "pastry.forwarded");
  const uint64_t delivered_before = RoutesDelivered(net);
  for (int i = 0; i < 10; ++i) {
    src->Route(net.overlay->RandomKey(), 1, {});
    net.overlay->RunAll();
  }
  const uint64_t routed = CounterValue(net, "pastry.routed_seen") - routed_before;
  const uint64_t forwarded = CounterValue(net, "pastry.forwarded") - forwarded_before;
  const uint64_t delivered = RoutesDelivered(net) - delivered_before;
  EXPECT_EQ(delivered, 10u);
  EXPECT_GE(routed, 10u);
  // Every routed message a node handles is delivered there or forwarded.
  EXPECT_EQ(routed, delivered + forwarded);
  // Each forward is one message sent, plus the hop's ack.
  EXPECT_GE(CounterValue(net, "pastry.msgs_sent") - sent_before, forwarded);
}

TEST(MaxHopGuardTest, HopCountsStayWellBelowCap) {
  Net net(300, 101);
  for (int i = 0; i < 100; ++i) {
    net.overlay->RandomLiveNode()->Route(net.overlay->RandomKey(), 1, {});
    net.overlay->RunAll();
  }
  for (auto& app : net.apps) {
    for (auto& ctx : app.delivered) {
      EXPECT_LT(ctx.trace.size(), 10u);
    }
  }
}

// --- maintenance timers --------------------------------------------------------
//
// The keep-alive tick and the join retry are events in the queue's
// maintenance band: one pending event per armed timer, none after a crash.

TEST(MaintenanceTimerTest, FailCancelsEveryMaintenanceTimer) {
  Net net(1, 103, /*keep_alive=*/1 * kMicrosPerSecond);
  EventQueue& queue = net.overlay->queue();
  PastryNode* lone = net.overlay->node(0);
  EXPECT_EQ(queue.PendingCount(), 1u);  // its keep-alive tick
  lone->Fail();
  EXPECT_EQ(queue.PendingCount(), 0u);

  // A join through the crashed node cannot complete: once the request is
  // dropped, only the join retry is left.
  PastryNode joiner(net.overlay->context(), net.overlay->RandomKey(), 7);
  const SimTime joined_at = queue.Now();
  joiner.Join(lone->addr());
  net.overlay->Run(1 * kMicrosPerSecond);
  EXPECT_EQ(queue.PendingCount(), 1u);
  EXPECT_EQ(queue.NextDeadline(), joined_at + PastryNode::kJoinRetryTimeout);
  joiner.Fail();
  EXPECT_EQ(queue.PendingCount(), 0u);
}

TEST(MaintenanceTimerTest, KeepAliveTickFiresAfterSameInstantEvents) {
  Net net(1, 107, /*keep_alive=*/1 * kMicrosPerSecond);
  EventQueue& queue = net.overlay->queue();
  const SimTime tick = queue.NextDeadline();
  ASSERT_NE(tick, EventQueue::kNoDeadline);
  // Scheduled after the tick at the same instant, yet it runs first: inside
  // it the tick is still the next deadline.
  SimTime next_inside = EventQueue::kNoDeadline;
  queue.At(tick, [&] { next_inside = queue.NextDeadline(); });
  queue.RunUntil(tick);
  EXPECT_EQ(next_inside, tick);
  EXPECT_EQ(queue.NextDeadline(),
            tick + net.overlay->options().pastry.keep_alive_period);
}

// --- known replica sets --------------------------------------------------------
//
// KnownReplicaSet decides whether a node may fan an insert out to the file's
// replica set itself. The first two tests give a node outside any overlay a
// leaf set by hand: members whole multiples of 2^64 above or below it, all at
// one registered address (with keep-alives off nothing is sent to them).

const NodeId kSelf(1ULL << 63, 0);

// The id `steps` x 2^64 above kSelf, or below it when `steps` is negative.
NodeId StepsFromSelf(int64_t steps) {
  return steps >= 0 ? kSelf.Add(U128(static_cast<uint64_t>(steps), 0))
                    : kSelf.Sub(U128(static_cast<uint64_t>(-steps), 0));
}

TEST(KnownReplicaSetTest, FullLeafSetKnowsSetsClearOfItsEdges) {
  Net net(1, 151);
  PastryNode node(net.overlay->context(), kSelf, 1);
  const NodeAddr addr = net.overlay->node(0)->addr();
  for (int64_t i = 1; i <= 16; ++i) {
    node.SeedState(NodeDescriptor{StepsFromSelf(i), addr});
    node.SeedState(NodeDescriptor{StepsFromSelf(-i), addr});
  }
  ASSERT_EQ(node.leaf_set().size(), 32u);
  // 14 steps down the 3 closest are members 13-15 down.
  const std::optional<std::vector<NodeDescriptor>> inner =
      node.KnownReplicaSet(StepsFromSelf(-14), 3);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(*inner, node.ReplicaSet(StepsFromSelf(-14), 3));
  EXPECT_TRUE(node.KnownReplicaSet(kSelf, 3).has_value());
  // 15.5 steps down they take in the edge, 16 down: a node this one does not
  // know, 16.2 down say, would be closer than the member 14 down. Likewise
  // on the larger side.
  EXPECT_FALSE(node.KnownReplicaSet(kSelf.Sub(U128(15, 1ULL << 63)), 3).has_value());
  EXPECT_TRUE(node.KnownReplicaSet(StepsFromSelf(14), 3).has_value());
  EXPECT_FALSE(node.KnownReplicaSet(kSelf.Add(U128(15, 1ULL << 63)), 3).has_value());
  EXPECT_FALSE(node.KnownReplicaSet(StepsFromSelf(16), 1).has_value());
  // A k beyond the leaf set always takes in an edge.
  EXPECT_FALSE(node.KnownReplicaSet(kSelf, 33).has_value());
}

TEST(KnownReplicaSetTest, FarSideNodeOnShortSideProvesNothing) {
  Net net(1, 153);
  PastryNode node(net.overlay->context(), kSelf, 1);
  const NodeAddr addr = net.overlay->node(0)->addr();
  // The larger members also fill the empty smaller side; the 15 smaller ones
  // then push out all of them but the farthest, 16 steps up.
  for (int64_t i = 1; i <= 16; ++i) {
    node.SeedState(NodeDescriptor{StepsFromSelf(i), addr});
  }
  for (int64_t i = 1; i <= 15; ++i) {
    node.SeedState(NodeDescriptor{StepsFromSelf(-i), addr});
  }
  ASSERT_TRUE(node.leaf_set().Complete());
  EXPECT_EQ(node.leaf_set().FarthestSmaller().id, StepsFromSelf(16));
  EXPECT_EQ(node.leaf_set().size(), 31u);
  // Complete() reads true, so CoversKey() claims the whole arc from 16 steps
  // above the node down and round to it: a key a quarter ring below is
  // "covered".
  EXPECT_TRUE(node.leaf_set().CoversKey(kSelf.Sub(U128(1ULL << 62, 0))));
  EXPECT_FALSE(node.KnownReplicaSet(kSelf, 3).has_value());
  EXPECT_FALSE(node.KnownReplicaSet(StepsFromSelf(-14), 3).has_value());
  // The true 16th smaller member displaces it.
  node.SeedState(NodeDescriptor{StepsFromSelf(-16), addr});
  EXPECT_EQ(node.leaf_set().size(), 32u);
  EXPECT_TRUE(node.KnownReplicaSet(StepsFromSelf(-14), 3).has_value());
}

TEST(KnownReplicaSetTest, UnansweredProbeProvesNothing) {
  // A member learned second-hand is probed. Until it answers or is dropped,
  // the leaf set may list a dead node, so it proves no replica set.
  Net net(60, 157, /*keep_alive=*/1 * kMicrosPerSecond);
  net.overlay->Run(10 * kMicrosPerSecond);
  PastryNode* node = net.overlay->node(30);
  const U128 key = node->id().Add(U128(0, 1));
  ASSERT_FALSE(node->LeafSetUnconfirmed());
  ASSERT_TRUE(node->KnownReplicaSet(key, 3).has_value());
  const NodeDescriptor phantom{node->leaf_set().FarthestLarger().id.Sub(U128(0, 1)),
                               DeadAddressAwayFrom(net, node)};
  LeafSetReplyMsg reply;
  reply.sender = node->leaf_set().NearestSmaller();
  reply.leaves = {phantom};
  net.overlay->network().Send(reply.sender.addr, node->addr(), EncodeMessage(reply));
  net.overlay->Run(1 * kMicrosPerSecond);  // the probe's deadline is 3 s away
  ASSERT_TRUE(node->leaf_set().Contains(phantom.id));
  EXPECT_TRUE(node->LeafSetUnconfirmed());
  EXPECT_FALSE(node->KnownReplicaSet(key, 3).has_value());
  // Dropped as silent, and the repair around it answered.
  net.overlay->Run(10 * kMicrosPerSecond);
  EXPECT_FALSE(node->leaf_set().Contains(phantom.id));
  EXPECT_FALSE(node->LeafSetUnconfirmed());
  EXPECT_TRUE(node->KnownReplicaSet(key, 3).has_value());
}

}  // namespace
}  // namespace past
