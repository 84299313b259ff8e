#include "src/sim/network.h"

#include <gtest/gtest.h>

namespace past {
namespace {

class Recorder : public NetReceiver {
 public:
  struct Received {
    NodeAddr from;
    Bytes data;
  };
  void OnMessage(NodeAddr from, ByteSpan wire) override {
    received.push_back({from, Bytes(wire.begin(), wire.end())});
  }
  std::vector<Received> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : rng_(1), topo_(TopologyKind::kPlane, 100.0, &rng_) {}

  Network MakeNetwork(const NetworkConfig& config) {
    return Network(&queue_, &topo_, config, 7);
  }

  // The network counts only into its registry's net.* counters.
  static uint64_t Count(const Network& net, const char* name) {
    return net.metrics().FindCounter(name)->value();
  }

  Rng rng_;
  EventQueue queue_;
  Topology topo_;
};

TEST_F(NetworkTest, DeliversPayloadAndSender) {
  Network net = MakeNetwork({});
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  net.Send(addr_a, addr_b, Bytes{1, 2, 3});
  queue_.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, addr_a);
  EXPECT_EQ(b.received[0].data, (Bytes{1, 2, 3}));
  EXPECT_TRUE(a.received.empty());
}

TEST_F(NetworkTest, LatencyIsPositiveAndDistanceDependent) {
  NetworkConfig config;
  config.base_latency = 100;
  config.latency_per_unit = 1000.0;
  config.jitter_frac = 0.0;
  Network net = MakeNetwork(config);
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  net.Send(addr_a, addr_b, Bytes{1});
  queue_.RunAll();
  SimTime expected = 100 + static_cast<SimTime>(net.Proximity(addr_a, addr_b) * 1000.0);
  EXPECT_EQ(queue_.Now(), expected);
}

TEST_F(NetworkTest, MessagesToDownNodesAreDropped) {
  Network net = MakeNetwork({});
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  net.SetUp(addr_b, false);
  net.Send(addr_a, addr_b, Bytes{1});
  queue_.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(Count(net, "net.dropped_down"), 1u);
}

TEST_F(NetworkTest, InFlightMessagesDropWhenDestinationDies) {
  Network net = MakeNetwork({});
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  net.Send(addr_a, addr_b, Bytes{1});
  net.SetUp(addr_b, false);  // dies while the message is in flight
  queue_.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(Count(net, "net.dropped_down"), 1u);
}

TEST_F(NetworkTest, NodeCanComeBackUp) {
  Network net = MakeNetwork({});
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  net.SetUp(addr_b, false);
  net.SetUp(addr_b, true);
  net.Send(addr_a, addr_b, Bytes{1});
  queue_.RunAll();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, LossRateDropsRoughlyThatFraction) {
  NetworkConfig config;
  config.loss_rate = 0.3;
  Network net = MakeNetwork(config);
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    net.Send(addr_a, addr_b, Bytes{1});
  }
  queue_.RunAll();
  double delivered = static_cast<double>(b.received.size()) / n;
  EXPECT_NEAR(delivered, 0.7, 0.05);
  EXPECT_EQ(Count(net, "net.dropped_loss") + Count(net, "net.delivered"),
            static_cast<uint64_t>(n));
}

TEST_F(NetworkTest, StatsCountBytes) {
  Network net = MakeNetwork({});
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  net.Send(addr_a, addr_b, Bytes(100, 0));
  net.Send(addr_a, addr_b, Bytes(50, 0));
  EXPECT_EQ(Count(net, "net.sent"), 2u);
  EXPECT_EQ(Count(net, "net.bytes_sent"), 150u);
}

TEST_F(NetworkTest, ProximityIsSymmetricAndZeroToSelf) {
  Network net = MakeNetwork({});
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  EXPECT_DOUBLE_EQ(net.Proximity(addr_a, addr_b), net.Proximity(addr_b, addr_a));
  EXPECT_DOUBLE_EQ(net.Proximity(addr_a, addr_a), 0.0);
}

TEST_F(NetworkTest, SelfSendDelivers) {
  Network net = MakeNetwork({});
  Recorder a;
  NodeAddr addr_a = net.Register(&a);
  net.Send(addr_a, addr_a, Bytes{9});
  queue_.RunAll();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].from, addr_a);
}

// Self-sends are loopback: zero-distance latency, never lost, and pinned
// metric counts (counted as sent + delivered + self_sends, nothing else).
TEST_F(NetworkTest, SelfSendMetricCountsArePinned) {
  NetworkConfig config;
  config.loss_rate = 1.0;  // every wire message is lost...
  Network net = MakeNetwork(config);
  Recorder a, b;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  net.Send(addr_a, addr_a, Bytes{1, 2});  // ...but loopback never is
  net.Send(addr_a, addr_b, Bytes{3});
  queue_.RunAll();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(Count(net, "net.sent"), 2u);
  EXPECT_EQ(Count(net, "net.self_sends"), 1u);
  EXPECT_EQ(Count(net, "net.delivered"), 1u);
  EXPECT_EQ(Count(net, "net.dropped_loss"), 1u);
  EXPECT_EQ(Count(net, "net.dropped_down"), 0u);
  EXPECT_EQ(Count(net, "net.bytes_sent"), 3u);
}

TEST_F(NetworkTest, SelfSendUsesBaseLatencyOnly) {
  NetworkConfig config;
  config.base_latency = 250;
  config.latency_per_unit = 1e9;  // would be astronomical if distance counted
  config.jitter_frac = 0.5;
  Network net = MakeNetwork(config);
  Recorder a;
  NodeAddr addr_a = net.Register(&a);
  net.Send(addr_a, addr_a, Bytes{1});
  queue_.RunAll();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(queue_.Now(), 250);
}

// Loopback traffic must not perturb the latency/loss RNG stream of real
// sends: a wire send behaves identically whether or not self-sends preceded
// it.
TEST(NetworkSelfSendTest, SelfSendsConsumeNoRng) {
  NetworkConfig config;
  config.jitter_frac = 0.5;
  SimTime arrival[2] = {0, 0};
  int idx = 0;
  for (int self_sends : {0, 100}) {
    Rng rng(9);
    EventQueue queue;
    Topology topo(TopologyKind::kPlane, 100.0, &rng);
    Network net(&queue, &topo, config, 42);
    Recorder a, b;
    NodeAddr addr_a = net.Register(&a);
    NodeAddr addr_b = net.Register(&b);
    for (int i = 0; i < self_sends; ++i) {
      net.Send(addr_a, addr_a, Bytes{1});
    }
    net.Send(addr_a, addr_b, Bytes{2});
    queue.RunAll();
    ASSERT_EQ(b.received.size(), 1u);
    // The a->b delivery is the last event (self-sends land at base latency).
    arrival[idx++] = queue.Now();
  }
  EXPECT_EQ(arrival[0], arrival[1]);
}

// Zero-copy delivery: all in-flight closures and the caller share one buffer.
TEST_F(NetworkTest, MultiRecipientSendsShareOneBuffer) {
  Network net = MakeNetwork({});
  Recorder a, b, c;
  NodeAddr addr_a = net.Register(&a);
  NodeAddr addr_b = net.Register(&b);
  NodeAddr addr_c = net.Register(&c);
  SharedBytes wire(Bytes{5, 6, 7});
  EXPECT_EQ(wire.use_count(), 1);
  net.Send(addr_a, addr_b, wire);
  net.Send(addr_a, addr_c, wire);
  net.Send(addr_a, addr_a, wire);
  // Caller's handle + three in-flight closures, zero buffer copies.
  EXPECT_EQ(wire.use_count(), 4);
  queue_.RunAll();
  EXPECT_EQ(wire.use_count(), 1);
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(c.received.size(), 1u);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received[0].data, (Bytes{5, 6, 7}));
  EXPECT_EQ(c.received[0].data, (Bytes{5, 6, 7}));
}

TEST_F(NetworkTest, ManyEndpointsDistinctAddresses) {
  Network net = MakeNetwork({});
  std::vector<std::unique_ptr<Recorder>> receivers;
  std::set<NodeAddr> addrs;
  for (int i = 0; i < 100; ++i) {
    receivers.push_back(std::make_unique<Recorder>());
    addrs.insert(net.Register(receivers.back().get()));
  }
  EXPECT_EQ(addrs.size(), 100u);
  EXPECT_EQ(net.endpoint_count(), 100u);
}

TEST_F(NetworkTest, ReserveEndpointsPreallocatesWithoutRegistering) {
  NetworkConfig config;
  config.expected_endpoints = 64;
  Network net = MakeNetwork(config);
  EXPECT_EQ(net.endpoint_count(), 0u);
  Recorder a;
  NodeAddr addr_a = net.Register(&a);
  EXPECT_EQ(addr_a, 0u);
  EXPECT_EQ(net.endpoint_count(), 1u);
  EXPECT_GT(net.EndpointMemoryUsage(), 0u);
}

}  // namespace
}  // namespace past
