#include "src/pastry/leaf_set.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace past {
namespace {

class LeafSetTest : public ::testing::Test {
 protected:
  NodeInternTable intern_;
};

NodeDescriptor Desc(uint64_t id_lo, NodeAddr addr) {
  return NodeDescriptor{U128(0, id_lo), addr};
}

TEST_F(LeafSetTest, StartsEmpty) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  EXPECT_EQ(leaf.size(), 0u);
  EXPECT_FALSE(leaf.Complete());
  EXPECT_EQ(leaf.capacity_per_side(), 4);
}

TEST_F(LeafSetTest, IgnoresSelfAndInvalid) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  EXPECT_FALSE(leaf.MaybeAdd(Desc(100, 1)));
  EXPECT_FALSE(leaf.MaybeAdd(NodeDescriptor{U128(0, 5), kInvalidAddr}));
  EXPECT_EQ(leaf.size(), 0u);
}

TEST_F(LeafSetTest, SidesOrderedByRingOffset) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  leaf.MaybeAdd(Desc(110, 1));
  leaf.MaybeAdd(Desc(105, 2));
  leaf.MaybeAdd(Desc(120, 3));
  ASSERT_EQ(leaf.Larger().size(), 3u);
  EXPECT_EQ(leaf.Larger()[0].id, U128(0, 105));
  EXPECT_EQ(leaf.Larger()[1].id, U128(0, 110));
  EXPECT_EQ(leaf.Larger()[2].id, U128(0, 120));
}

TEST_F(LeafSetTest, KeepsOnlyClosestPerSide) {
  LeafSet leaf(U128(0, 100), 4, intern_);  // 2 per side
  // Populate the smaller side with genuinely close predecessors so distant
  // ids cannot sneak in via ring wraparound.
  leaf.MaybeAdd(Desc(95, 10));
  leaf.MaybeAdd(Desc(98, 11));
  leaf.MaybeAdd(Desc(110, 1));
  leaf.MaybeAdd(Desc(120, 2));
  EXPECT_TRUE(leaf.MaybeAdd(Desc(105, 3)));  // displaces 120 on the larger side
  std::vector<U128> larger_ids;
  for (const auto& d : leaf.Larger()) {
    larger_ids.push_back(d.id);
  }
  EXPECT_EQ(larger_ids, (std::vector<U128>{U128(0, 105), U128(0, 110)}));
  // A farther node no longer fits on either side.
  EXPECT_FALSE(leaf.MaybeAdd(Desc(130, 4)));
}

TEST_F(LeafSetTest, SmallRingNodeAppearsOnBothSides) {
  // With only 2 nodes, the other node is both the closest-larger and the
  // closest-smaller neighbor.
  LeafSet leaf(U128(0, 100), 8, intern_);
  leaf.MaybeAdd(Desc(200, 1));
  EXPECT_EQ(leaf.Larger().size(), 1u);
  EXPECT_EQ(leaf.Smaller().size(), 1u);
  EXPECT_EQ(leaf.Members().size(), 1u);  // deduplicated
}

TEST_F(LeafSetTest, WrapAroundSides) {
  // self near zero: smaller side wraps to large ids.
  LeafSet leaf(U128(0, 10), 4, intern_);
  leaf.MaybeAdd(NodeDescriptor{U128::Max(), 1});  // one below zero
  ASSERT_GE(leaf.Smaller().size(), 1u);
  EXPECT_EQ(leaf.Smaller()[0].id, U128::Max());
}

TEST_F(LeafSetTest, RemoveAndContains) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  leaf.MaybeAdd(Desc(110, 1));
  EXPECT_TRUE(leaf.Contains(U128(0, 110)));
  EXPECT_TRUE(leaf.Remove(U128(0, 110)));
  EXPECT_FALSE(leaf.Contains(U128(0, 110)));
  EXPECT_FALSE(leaf.Remove(U128(0, 110)));
  EXPECT_EQ(leaf.size(), 0u);
}

TEST_F(LeafSetTest, AddressRefresh) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  leaf.MaybeAdd(Desc(110, 1));
  EXPECT_TRUE(leaf.MaybeAdd(Desc(110, 99)));
  EXPECT_EQ(leaf.Larger()[0].addr, 99u);
  EXPECT_EQ(leaf.Members().size(), 1u);
}

TEST_F(LeafSetTest, IncompleteCoversEverything) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  leaf.MaybeAdd(Desc(110, 1));
  EXPECT_TRUE(leaf.CoversKey(U128(1ULL << 63, 12345)));
}

TEST_F(LeafSetTest, CompleteCoversOnlySpannedArc) {
  LeafSet leaf(U128(0, 100), 4, intern_);  // 2 per side
  leaf.MaybeAdd(Desc(110, 1));
  leaf.MaybeAdd(Desc(120, 2));
  leaf.MaybeAdd(Desc(90, 3));
  leaf.MaybeAdd(Desc(80, 4));
  ASSERT_TRUE(leaf.Complete());
  EXPECT_TRUE(leaf.CoversKey(U128(0, 100)));  // self
  EXPECT_TRUE(leaf.CoversKey(U128(0, 115)));
  EXPECT_TRUE(leaf.CoversKey(U128(0, 120)));
  EXPECT_TRUE(leaf.CoversKey(U128(0, 85)));
  EXPECT_FALSE(leaf.CoversKey(U128(0, 121)));
  EXPECT_FALSE(leaf.CoversKey(U128(0, 79)));
  EXPECT_FALSE(leaf.CoversKey(U128(1, 0)));
}

TEST_F(LeafSetTest, ClosestToPrefersRingDistance) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  NodeDescriptor self{U128(0, 100), 0};
  leaf.MaybeAdd(Desc(110, 1));
  leaf.MaybeAdd(Desc(90, 2));
  EXPECT_EQ(leaf.ClosestTo(U128(0, 108), self, true).id, U128(0, 110));
  EXPECT_EQ(leaf.ClosestTo(U128(0, 101), self, true).id, U128(0, 100));  // self
  EXPECT_EQ(leaf.ClosestTo(U128(0, 92), self, false).id, U128(0, 90));
}

TEST_F(LeafSetTest, ClosestToTieBreaksTowardSmallerId) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  NodeDescriptor self{U128(0, 100), 0};
  leaf.MaybeAdd(Desc(104, 1));
  leaf.MaybeAdd(Desc(106, 2));
  // Key 105 is equidistant from 104 and 106.
  EXPECT_EQ(leaf.ClosestTo(U128(0, 105), self, true).id, U128(0, 104));
}

TEST_F(LeafSetTest, ClosestMembersReturnsKSortedByDistance) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  NodeDescriptor self{U128(0, 100), 0};
  leaf.MaybeAdd(Desc(110, 1));
  leaf.MaybeAdd(Desc(120, 2));
  leaf.MaybeAdd(Desc(90, 3));
  leaf.MaybeAdd(Desc(80, 4));
  auto closest = leaf.ClosestMembers(U128(0, 100), self, 3);
  ASSERT_EQ(closest.size(), 3u);
  EXPECT_EQ(closest[0].id, U128(0, 100));  // self is closest to own id
  // Next two: 90 and 110 (distance 10 each).
  std::vector<U128> next = {closest[1].id, closest[2].id};
  std::sort(next.begin(), next.end());
  EXPECT_EQ(next, (std::vector<U128>{U128(0, 90), U128(0, 110)}));
}

TEST_F(LeafSetTest, ClosestMembersCapsAtPopulation) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  NodeDescriptor self{U128(0, 100), 0};
  leaf.MaybeAdd(Desc(110, 1));
  EXPECT_EQ(leaf.ClosestMembers(U128(0, 100), self, 5).size(), 2u);
}

TEST_F(LeafSetTest, FarthestOnSideOf) {
  LeafSet leaf(U128(0, 100), 4, intern_);  // 2 per side
  leaf.MaybeAdd(Desc(110, 1));
  leaf.MaybeAdd(Desc(120, 2));
  leaf.MaybeAdd(Desc(90, 3));
  leaf.MaybeAdd(Desc(80, 4));
  // A failure at 115 (larger side) should point at the farthest larger leaf.
  EXPECT_EQ(leaf.FarthestOnSideOf(U128(0, 115)).id, U128(0, 120));
  EXPECT_EQ(leaf.FarthestOnSideOf(U128(0, 95)).id, U128(0, 80));
}

TEST_F(LeafSetTest, FarthestFallsBackToOtherSide) {
  LeafSet leaf(U128(0, 100), 4, intern_);
  leaf.MaybeAdd(Desc(90, 3));  // only smaller side populated
  NodeDescriptor d = leaf.FarthestOnSideOf(U128(0, 150));
  EXPECT_EQ(d.id, U128(0, 90));
}

TEST_F(LeafSetTest, PropertyMatchesBruteForceNeighbors) {
  // Insert many random ids; the sides must equal the true nearest ring
  // successors/predecessors.
  Rng rng(77);
  const int l = 16;
  U128 self = rng.NextU128();
  LeafSet leaf(self, l, intern_);
  std::vector<U128> ids;
  for (int i = 0; i < 500; ++i) {
    U128 id = rng.NextU128();
    ids.push_back(id);
    leaf.MaybeAdd(NodeDescriptor{id, static_cast<NodeAddr>(i + 1)});
  }
  std::sort(ids.begin(), ids.end(), [&](const U128& a, const U128& b) {
    return a.Sub(self) < b.Sub(self);  // by up-offset from self
  });
  ASSERT_EQ(leaf.Larger().size(), static_cast<size_t>(l / 2));
  for (int i = 0; i < l / 2; ++i) {
    EXPECT_EQ(leaf.Larger()[static_cast<size_t>(i)].id, ids[static_cast<size_t>(i)]);
  }
  ASSERT_EQ(leaf.Smaller().size(), static_cast<size_t>(l / 2));
  for (int i = 0; i < l / 2; ++i) {
    EXPECT_EQ(leaf.Smaller()[static_cast<size_t>(i)].id,
              ids[ids.size() - 1 - static_cast<size_t>(i)]);
  }
}

TEST_F(LeafSetTest, ClearEmptiesBothSides) {
  LeafSet leaf(U128(0, 100), 8, intern_);
  leaf.MaybeAdd(Desc(110, 1));
  leaf.MaybeAdd(Desc(90, 2));
  leaf.Clear();
  EXPECT_EQ(leaf.size(), 0u);
  EXPECT_TRUE(leaf.Larger().empty());
  EXPECT_TRUE(leaf.Smaller().empty());
}

}  // namespace
}  // namespace past
