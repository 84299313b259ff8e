#include "src/pastry/neighborhood_set.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace past {
namespace {

class NeighborhoodSetTest : public ::testing::Test {
 protected:
  NeighborhoodSetTest()
      : set_(U128(0, 1), 4, [this](NodeAddr a) { return proximity_[a]; }, intern_) {
    proximity_.resize(100, 0.0);
  }

  NodeDescriptor Desc(uint64_t id_lo, NodeAddr addr, double prox) {
    proximity_[addr] = prox;
    return NodeDescriptor{U128(0, id_lo), addr};
  }

  std::vector<double> proximity_;
  NodeInternTable intern_;
  NeighborhoodSet set_;
};

TEST_F(NeighborhoodSetTest, OrdersByProximity) {
  set_.MaybeAdd(Desc(10, 1, 5.0));
  set_.MaybeAdd(Desc(20, 2, 1.0));
  set_.MaybeAdd(Desc(30, 3, 3.0));
  ASSERT_EQ(set_.size(), 3u);
  EXPECT_EQ(set_.Members()[0].addr, 2u);
  EXPECT_EQ(set_.Members()[1].addr, 3u);
  EXPECT_EQ(set_.Members()[2].addr, 1u);
}

TEST_F(NeighborhoodSetTest, EvictsFarthestAtCapacity) {
  set_.MaybeAdd(Desc(10, 1, 1.0));
  set_.MaybeAdd(Desc(20, 2, 2.0));
  set_.MaybeAdd(Desc(30, 3, 3.0));
  set_.MaybeAdd(Desc(40, 4, 4.0));
  EXPECT_TRUE(set_.MaybeAdd(Desc(50, 5, 0.5)));  // closer than all
  EXPECT_EQ(set_.size(), 4u);
  EXPECT_FALSE(set_.Contains(U128(0, 40)));
  EXPECT_TRUE(set_.Contains(U128(0, 50)));
}

TEST_F(NeighborhoodSetTest, RejectsFartherWhenFull) {
  for (int i = 1; i <= 4; ++i) {
    set_.MaybeAdd(Desc(static_cast<uint64_t>(i * 10), static_cast<NodeAddr>(i),
                       static_cast<double>(i)));
  }
  EXPECT_FALSE(set_.MaybeAdd(Desc(99, 9, 100.0)));
  EXPECT_EQ(set_.size(), 4u);
}

TEST_F(NeighborhoodSetTest, IgnoresSelfAndDuplicates) {
  EXPECT_FALSE(set_.MaybeAdd(Desc(1, 7, 1.0)));  // self id
  NodeDescriptor d = Desc(10, 1, 1.0);
  EXPECT_TRUE(set_.MaybeAdd(d));
  EXPECT_FALSE(set_.MaybeAdd(d));
  EXPECT_EQ(set_.size(), 1u);
}

TEST_F(NeighborhoodSetTest, AddressRefreshUpdatesDistance) {
  set_.MaybeAdd(Desc(10, 1, 1.0));
  set_.MaybeAdd(Desc(20, 2, 2.0));
  // Node 10 moves to a new address that is farther away.
  proximity_[5] = 9.0;
  EXPECT_TRUE(set_.MaybeAdd(NodeDescriptor{U128(0, 10), 5}));
  EXPECT_EQ(set_.size(), 2u);
  EXPECT_TRUE(set_.Contains(U128(0, 10)));
}

TEST_F(NeighborhoodSetTest, RemoveWorks) {
  set_.MaybeAdd(Desc(10, 1, 1.0));
  EXPECT_TRUE(set_.Remove(U128(0, 10)));
  EXPECT_FALSE(set_.Remove(U128(0, 10)));
  EXPECT_EQ(set_.size(), 0u);
}

TEST_F(NeighborhoodSetTest, ClearEmpties) {
  set_.MaybeAdd(Desc(10, 1, 1.0));
  set_.Clear();
  EXPECT_EQ(set_.size(), 0u);
}

TEST_F(NeighborhoodSetTest, PropertyKeepsClosestSubset) {
  Rng rng(3);
  NeighborhoodSet set(U128(0, 1), 8, [this](NodeAddr a) { return proximity_[a]; },
                      intern_);
  proximity_.resize(300);
  std::vector<double> all;
  for (int i = 2; i < 200; ++i) {
    double prox = rng.UniformDouble() * 100.0;
    proximity_[static_cast<size_t>(i)] = prox;
    all.push_back(prox);
    set.MaybeAdd(NodeDescriptor{U128(1, static_cast<uint64_t>(i)),
                                static_cast<NodeAddr>(i)});
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(set.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(proximity_[set.Members()[i].addr], all[i]);
  }
}

}  // namespace
}  // namespace past
