// Routing correctness must hold across the whole PastryConfig parameter
// space the paper discusses: digit widths b, leaf-set sizes l, locality and
// randomization switches, and every proximity topology.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "src/pastry/overlay.h"

namespace past {
namespace {

struct VariantApp : public PastryApp {
  int delivered = 0;
  U128 last_key;
  void Deliver(const DeliverContext& ctx, ByteSpan) override {
    ++delivered;
    last_key = ctx.key;
  }
};

// gtest has no printer for this struct, so it names each case after the
// struct's raw bytes. The two bytes after the flags would otherwise be
// padding with whatever the stack held, and the case names would change from
// run to run; they are spelled out as members that are always zero.
struct VariantParams {
  int b;
  int leaf_set_size;
  bool locality;
  bool randomized;
  uint8_t zero[2] = {0, 0};
  TopologyKind topology;
};
static_assert(std::has_unique_object_representations_v<VariantParams>,
              "every byte of VariantParams must be an initialised member");

class ConfigVariants : public ::testing::TestWithParam<VariantParams> {};

TEST_P(ConfigVariants, RoutingCorrectAndStateBounded) {
  const VariantParams& p = GetParam();
  OverlayOptions opts;
  opts.seed = 4000 + static_cast<uint64_t>(p.b * 100 + p.leaf_set_size);
  opts.pastry.b = p.b;
  opts.pastry.leaf_set_size = p.leaf_set_size;
  opts.pastry.locality_aware = p.locality;
  opts.pastry.randomized_routing = p.randomized;
  opts.pastry.keep_alive_period = 0;
  opts.topology = p.topology;
  opts.nearest_bootstrap = p.locality;
  Overlay overlay(opts);
  overlay.Build(120);

  std::vector<VariantApp> apps(overlay.size());
  for (size_t i = 0; i < overlay.size(); ++i) {
    overlay.node(i)->SetApp(&apps[i]);
  }
  for (int t = 0; t < 60; ++t) {
    U128 key = overlay.RandomKey();
    PastryNode* expected = overlay.GloballyClosestLiveNode(key);
    int before = apps[expected->addr()].delivered;
    overlay.RandomLiveNode()->Route(key, 1, {});
    overlay.RunAll();
    ASSERT_EQ(apps[expected->addr()].delivered, before + 1)
        << "b=" << p.b << " l=" << p.leaf_set_size << " key=" << key.ToHex();
  }
  // Per-node state respects the configured shapes.
  for (size_t i = 0; i < overlay.size(); ++i) {
    PastryNode* node = overlay.node(i);
    EXPECT_LE(node->leaf_set().size(),
              static_cast<size_t>(p.leaf_set_size));
    EXPECT_EQ(node->routing_table().rows(), 128 / p.b);
    EXPECT_EQ(node->routing_table().cols(), 1 << p.b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigVariants,
    ::testing::Values(
        VariantParams{.b = 2, .leaf_set_size = 16, .locality = true,
                      .randomized = false, .topology = TopologyKind::kSphere},
        VariantParams{.b = 8, .leaf_set_size = 32, .locality = true,
                      .randomized = false, .topology = TopologyKind::kSphere},
        VariantParams{.b = 4, .leaf_set_size = 8, .locality = true,
                      .randomized = false, .topology = TopologyKind::kSphere},
        VariantParams{.b = 4, .leaf_set_size = 32, .locality = false,
                      .randomized = false, .topology = TopologyKind::kSphere},
        VariantParams{.b = 4, .leaf_set_size = 32, .locality = true,
                      .randomized = true, .topology = TopologyKind::kPlane},
        VariantParams{.b = 4, .leaf_set_size = 16, .locality = true,
                      .randomized = false, .topology = TopologyKind::kClustered},
        VariantParams{.b = 1, .leaf_set_size = 8, .locality = true,
                      .randomized = false, .topology = TopologyKind::kPlane}));

TEST(ConfigVariantsTest, DigitWidthControlsHopStateTradeoff) {
  // Larger b -> fewer hops, bigger tables (HotOS: b is the knob).
  double hops_by_b[2];
  double state_by_b[2];
  int idx = 0;
  for (int b : {2, 8}) {
    OverlayOptions opts;
    opts.seed = 4321;
    opts.pastry.b = b;
    opts.pastry.keep_alive_period = 0;
    Overlay overlay(opts);
    overlay.Build(250);
    std::vector<VariantApp> apps(overlay.size());
    for (size_t i = 0; i < overlay.size(); ++i) {
      overlay.node(i)->SetApp(&apps[i]);
    }
    // Hop counts are reported through DeliverContext; sample keys.
    double hops = 0;
    int delivered = 0;
    struct HopApp : public PastryApp {
      double hops = 0;
      int count = 0;
      void Deliver(const DeliverContext& ctx, ByteSpan) override {
        hops += static_cast<double>(ctx.trace.size());
        ++count;
      }
    };
    std::vector<HopApp> hop_apps(overlay.size());
    for (size_t i = 0; i < overlay.size(); ++i) {
      overlay.node(i)->SetApp(&hop_apps[i]);
    }
    for (int t = 0; t < 100; ++t) {
      overlay.RandomLiveNode()->Route(overlay.RandomKey(), 1, {});
      overlay.RunAll();
    }
    for (auto& app : hop_apps) {
      hops += app.hops;
      delivered += app.count;
    }
    double state = 0;
    for (size_t i = 0; i < overlay.size(); ++i) {
      state += static_cast<double>(overlay.node(i)->routing_table().EntryCount());
    }
    hops_by_b[idx] = hops / delivered;
    state_by_b[idx] = state / static_cast<double>(overlay.size());
    ++idx;
  }
  EXPECT_GT(hops_by_b[0], hops_by_b[1]);    // b=2 takes more hops
  EXPECT_LT(state_by_b[0], state_by_b[1]);  // ...with smaller tables
}

}  // namespace
}  // namespace past
