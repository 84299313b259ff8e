#include "src/pastry/routing_table.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace past {
namespace {

NodeId IdFromHex(const std::string& hex32) {
  U128 v;
  EXPECT_TRUE(U128::FromHex(hex32, &v));
  return v;
}

class RoutingTableTest : public ::testing::Test {
 protected:
  RoutingTableTest()
      : self_(IdFromHex("00000000000000000000000000000000")),
        table_(self_, config_, [this](NodeAddr a) {
          return a < proximity_.size() ? proximity_[a] : 1.0;
        }, intern_) {
    proximity_.resize(1000, 1.0);
  }

  NodeDescriptor Desc(const std::string& hex32, NodeAddr addr, double prox = 1.0) {
    if (addr >= proximity_.size()) {
      proximity_.resize(addr + 1, 1.0);
    }
    proximity_[addr] = prox;
    return NodeDescriptor{IdFromHex(hex32), addr};
  }

  PastryConfig config_;
  NodeId self_;
  std::vector<double> proximity_;
  NodeInternTable intern_;
  RoutingTable table_;
};

TEST_F(RoutingTableTest, StartsEmpty) {
  EXPECT_EQ(table_.EntryCount(), 0u);
  EXPECT_EQ(table_.PopulatedRows(), 0);
  EXPECT_EQ(table_.rows(), 32);
  EXPECT_EQ(table_.cols(), 16);
}

TEST_F(RoutingTableTest, AddPlacesInCorrectSlot) {
  // Shares 0 digits with self (all-zero id); first digit is 'a'.
  NodeDescriptor d = Desc("a0000000000000000000000000000000", 1);
  EXPECT_TRUE(table_.MaybeAdd(d));
  auto got = table_.Get(0, 0xa);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, d.id);
}

TEST_F(RoutingTableTest, DeeperPrefixDeeperRow) {
  NodeDescriptor d = Desc("000a0000000000000000000000000000", 2);
  EXPECT_TRUE(table_.MaybeAdd(d));
  EXPECT_TRUE(table_.Get(3, 0xa).has_value());
  EXPECT_EQ(table_.PopulatedRows(), 1);
}

TEST_F(RoutingTableTest, SelfIsIgnored) {
  EXPECT_FALSE(table_.MaybeAdd(NodeDescriptor{self_, 5}));
  EXPECT_EQ(table_.EntryCount(), 0u);
}

TEST_F(RoutingTableTest, InvalidDescriptorIgnored) {
  NodeDescriptor d;
  d.id = IdFromHex("a0000000000000000000000000000000");
  EXPECT_FALSE(table_.MaybeAdd(d));
}

TEST_F(RoutingTableTest, LocalityPrefersCloserNode) {
  NodeDescriptor far = Desc("a0000000000000000000000000000000", 1, /*prox=*/10.0);
  NodeDescriptor near = Desc("a1000000000000000000000000000000", 2, /*prox=*/1.0);
  ASSERT_TRUE(table_.MaybeAdd(far));
  EXPECT_TRUE(table_.MaybeAdd(near));  // replaces: same slot, closer
  EXPECT_EQ(table_.Get(0, 0xa)->id, near.id);
  // A farther candidate does not displace the occupant.
  NodeDescriptor farther = Desc("a2000000000000000000000000000000", 3, /*prox=*/50.0);
  EXPECT_FALSE(table_.MaybeAdd(farther));
  EXPECT_EQ(table_.Get(0, 0xa)->id, near.id);
}

TEST_F(RoutingTableTest, NoLocalityKeepsFirstOccupant) {
  PastryConfig config;
  config.locality_aware = false;
  RoutingTable table(self_, config, nullptr, intern_);
  NodeDescriptor first = Desc("a0000000000000000000000000000000", 1, 10.0);
  NodeDescriptor second = Desc("a1000000000000000000000000000000", 2, 1.0);
  EXPECT_TRUE(table.MaybeAdd(first));
  EXPECT_FALSE(table.MaybeAdd(second));
  EXPECT_EQ(table.Get(0, 0xa)->id, first.id);
}

TEST_F(RoutingTableTest, AddressRefreshForSameId) {
  NodeDescriptor d = Desc("a0000000000000000000000000000000", 1);
  ASSERT_TRUE(table_.MaybeAdd(d));
  d.addr = 42;
  EXPECT_TRUE(table_.MaybeAdd(d));
  EXPECT_EQ(table_.Get(0, 0xa)->addr, 42u);
  EXPECT_EQ(table_.EntryCount(), 1u);
}

TEST_F(RoutingTableTest, EntryForKeyUsesSharedPrefixRow) {
  NodeDescriptor d = Desc("00b00000000000000000000000000000", 1);
  ASSERT_TRUE(table_.MaybeAdd(d));
  // Key shares 2 digits with self, third digit is b.
  NodeId key = IdFromHex("00b12345000000000000000000000000");
  auto hop = table_.EntryForKey(key);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->id, d.id);
}

TEST_F(RoutingTableTest, EntryForKeyOwnIdIsEmpty) {
  EXPECT_FALSE(table_.EntryForKey(self_).has_value());
}

TEST_F(RoutingTableTest, RemoveNodeVacatesSlot) {
  NodeDescriptor d = Desc("a0000000000000000000000000000000", 1);
  ASSERT_TRUE(table_.MaybeAdd(d));
  auto vacated = table_.RemoveNode(d.id);
  ASSERT_EQ(vacated.size(), 1u);
  EXPECT_EQ(vacated[0], std::make_pair(0, 0xa));
  EXPECT_FALSE(table_.Get(0, 0xa).has_value());
  EXPECT_EQ(table_.EntryCount(), 0u);
}

TEST_F(RoutingTableTest, RemoveUnknownNodeIsNoop) {
  EXPECT_TRUE(table_.RemoveNode(IdFromHex("ff000000000000000000000000000000")).empty());
}

TEST_F(RoutingTableTest, EntriesAndRowEnumeration) {
  table_.MaybeAdd(Desc("a0000000000000000000000000000000", 1));
  table_.MaybeAdd(Desc("b0000000000000000000000000000000", 2));
  table_.MaybeAdd(Desc("0c000000000000000000000000000000", 3));
  EXPECT_EQ(table_.Entries().size(), 3u);
  EXPECT_EQ(table_.Row(0).size(), 2u);
  EXPECT_EQ(table_.Row(1).size(), 1u);
  EXPECT_EQ(table_.PopulatedRows(), 2);
}

TEST_F(RoutingTableTest, ClearDropsEverything) {
  table_.MaybeAdd(Desc("a0000000000000000000000000000000", 1));
  table_.Clear();
  EXPECT_EQ(table_.EntryCount(), 0u);
  EXPECT_FALSE(table_.Get(0, 0xa).has_value());
}

TEST_F(RoutingTableTest, RandomFillRespectsCapacityBound) {
  Rng rng(9);
  PastryConfig config;
  for (int i = 0; i < 5000; ++i) {
    NodeDescriptor d{rng.NextU128(), static_cast<NodeAddr>(i + 1)};
    table_.MaybeAdd(d);
  }
  // At most (2^b - 1) entries per populated row.
  for (int r = 0; r < table_.rows(); ++r) {
    EXPECT_LE(table_.Row(r).size(), static_cast<size_t>(config.cols() - 1));
  }
  // With 5000 random ids, rows beyond ~log16(5000)+slack stay empty.
  EXPECT_LE(table_.PopulatedRows(), 8);
}

}  // namespace
}  // namespace past
