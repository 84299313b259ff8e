// Property tests of LeafSet against a brute-force reference model, across
// seeds, capacities and churn patterns.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/pastry/leaf_set.h"

namespace past {
namespace {

struct LeafSetCase {
  uint64_t seed;
  int leaf_size;
  int population;
};

class LeafSetProperty : public ::testing::TestWithParam<LeafSetCase> {
 protected:
  NodeInternTable intern_;
};

// Reference: sorted ids by up-offset from self.
std::vector<U128> SortedByUpOffset(const U128& self, const std::vector<U128>& ids) {
  std::vector<U128> sorted = ids;
  std::sort(sorted.begin(), sorted.end(), [&](const U128& a, const U128& b) {
    return a.Sub(self) < b.Sub(self);
  });
  return sorted;
}

TEST_P(LeafSetProperty, MatchesBruteForceUnderInsertAndRemove) {
  const LeafSetCase& c = GetParam();
  Rng rng(c.seed);
  U128 self = rng.NextU128();
  LeafSet leaf(self, c.leaf_size, intern_);
  std::vector<U128> alive;

  for (int op = 0; op < c.population * 3; ++op) {
    if (alive.empty() || rng.Bernoulli(0.7)) {
      U128 id = rng.NextU128();
      if (id == self) {
        continue;
      }
      alive.push_back(id);
      leaf.MaybeAdd(NodeDescriptor{id, static_cast<NodeAddr>(op + 1)});
    } else {
      size_t victim = rng.PickIndex(alive.size());
      leaf.Remove(alive[victim]);
      alive.erase(alive.begin() + static_cast<long>(victim));
      // Removal is allowed to leave the side short (repair refills it in the
      // protocol); re-add everything so the invariant below is about
      // membership selection, not repair.
      for (size_t i = 0; i < alive.size(); ++i) {
        leaf.MaybeAdd(NodeDescriptor{alive[i], static_cast<NodeAddr>(1000 + i)});
      }
    }

    // Invariant: larger side == first min(l/2, n) ids by up-offset,
    // smaller side == last ones (reversed).
    std::vector<U128> sorted = SortedByUpOffset(self, alive);
    size_t half = static_cast<size_t>(c.leaf_size / 2);
    size_t expect_larger = std::min(half, sorted.size());
    ASSERT_EQ(leaf.Larger().size(), expect_larger);
    for (size_t i = 0; i < expect_larger; ++i) {
      ASSERT_EQ(leaf.Larger()[i].id, sorted[i]) << "op " << op;
    }
    size_t expect_smaller = std::min(half, sorted.size());
    ASSERT_EQ(leaf.Smaller().size(), expect_smaller);
    for (size_t i = 0; i < expect_smaller; ++i) {
      ASSERT_EQ(leaf.Smaller()[i].id, sorted[sorted.size() - 1 - i]) << "op " << op;
    }
  }
}

TEST_P(LeafSetProperty, ClosestMembersMatchBruteForce) {
  const LeafSetCase& c = GetParam();
  Rng rng(c.seed ^ 0xfeed);
  U128 self = rng.NextU128();
  NodeDescriptor self_desc{self, 0};
  LeafSet leaf(self, c.leaf_size, intern_);
  std::vector<NodeDescriptor> members;
  for (int i = 0; i < c.population; ++i) {
    NodeDescriptor d{rng.NextU128(), static_cast<NodeAddr>(i + 1)};
    if (leaf.MaybeAdd(d) && leaf.Contains(d.id)) {
      // Track actual membership (insertions can be rejected at capacity).
    }
  }
  members = leaf.Members();
  members.push_back(self_desc);

  for (int trial = 0; trial < 40; ++trial) {
    U128 key = rng.NextU128();
    int k = 1 + static_cast<int>(rng.UniformU64(6));
    auto got = leaf.ClosestMembers(key, self_desc, k);
    // Reference: sort all members+self by ring distance.
    std::vector<NodeDescriptor> ref = members;
    std::sort(ref.begin(), ref.end(), [&](const NodeDescriptor& a, const NodeDescriptor& b) {
      U128 da = a.id.RingDistance(key);
      U128 db = b.id.RingDistance(key);
      if (da != db) {
        return da < db;
      }
      return a.id < b.id;
    });
    ASSERT_EQ(got.size(), std::min(static_cast<size_t>(k), ref.size()));
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, ref[i].id) << "k=" << k << " i=" << i;
    }
  }
}

TEST_P(LeafSetProperty, CoversKeyConsistentWithDeliveryCorrectness) {
  // If a complete leaf set covers a key, the ClosestTo answer must equal the
  // brute-force closest over members+self.
  const LeafSetCase& c = GetParam();
  Rng rng(c.seed ^ 0xcafe);
  U128 self = rng.NextU128();
  NodeDescriptor self_desc{self, 0};
  LeafSet leaf(self, c.leaf_size, intern_);
  for (int i = 0; i < c.population; ++i) {
    leaf.MaybeAdd(NodeDescriptor{rng.NextU128(), static_cast<NodeAddr>(i + 1)});
  }
  for (int trial = 0; trial < 100; ++trial) {
    U128 key = rng.NextU128();
    if (!leaf.CoversKey(key)) {
      continue;
    }
    NodeDescriptor got = leaf.ClosestTo(key, self_desc, true);
    auto ref = leaf.ClosestMembers(key, self_desc, 1);
    ASSERT_EQ(ref.size(), 1u);
    EXPECT_EQ(got.id, ref[0].id);
  }
}

// The linear insertion LeafSet used before its sides were searched, on
// descriptors: walk a side in offset order, stop at the candidate itself
// (refreshing a changed address) or insert before the first member farther
// out, and append only while the side has room.
class LinearLeafSet {
 public:
  LinearLeafSet(const U128& self, int leaf_size)
      : self_(self), capacity_(static_cast<size_t>(leaf_size / 2)) {}

  bool MaybeAdd(const NodeDescriptor& c) {
    if (!c.valid() || c.id == self_) {
      return false;
    }
    bool changed = Insert(&larger_, c, c.id.Sub(self_), /*larger_side=*/true);
    changed |= Insert(&smaller_, c, self_.Sub(c.id), /*larger_side=*/false);
    return changed;
  }

  bool Remove(const U128& id) {
    bool removed = false;
    for (auto* side : {&larger_, &smaller_}) {
      auto it = std::find_if(side->begin(), side->end(),
                             [&id](const NodeDescriptor& d) { return d.id == id; });
      if (it != side->end()) {
        side->erase(it);
        removed = true;
      }
    }
    return removed;
  }

  const std::vector<NodeDescriptor>& Larger() const { return larger_; }
  const std::vector<NodeDescriptor>& Smaller() const { return smaller_; }

 private:
  bool Insert(std::vector<NodeDescriptor>* side, const NodeDescriptor& c,
              const U128& offset, bool larger_side) const {
    for (size_t i = 0; i < side->size(); ++i) {
      NodeDescriptor& member = (*side)[i];
      if (member.id == c.id) {
        if (member.addr != c.addr) {
          member = c;
          return true;
        }
        return false;
      }
      const U128 member_offset = larger_side ? member.id.Sub(self_) : self_.Sub(member.id);
      if (offset < member_offset) {
        side->insert(side->begin() + static_cast<long>(i), c);
        if (side->size() > capacity_) {
          side->pop_back();
        }
        return true;
      }
    }
    if (side->size() < capacity_) {
      side->push_back(c);
      return true;
    }
    return false;
  }

  U128 self_;
  size_t capacity_;
  std::vector<NodeDescriptor> larger_;
  std::vector<NodeDescriptor> smaller_;
};

// LeafSet's searched insertion against the linear reference over a random
// stream of joins, rejoins at a new address, repeats, removals, and
// candidates at or just beside the current edges of each side.
TEST_P(LeafSetProperty, SearchedInsertMatchesLinearReference) {
  const LeafSetCase& c = GetParam();
  Rng rng(c.seed ^ 0xb15ec7);
  const U128 self = rng.NextU128();
  LeafSet leaf(self, c.leaf_size, intern_);
  LinearLeafSet ref(self, c.leaf_size);
  std::vector<NodeDescriptor> known;
  NodeAddr next_addr = 1;
  auto pick_edge = [&]() -> NodeDescriptor {
    const auto& side = rng.Bernoulli(0.5) ? ref.Larger() : ref.Smaller();
    if (side.empty()) {
      return NodeDescriptor{rng.NextU128(), next_addr++};
    }
    return rng.Bernoulli(0.5) ? side.back() : side.front();
  };

  auto candidate = [&](uint64_t kind) -> NodeDescriptor {
    if (known.empty() && kind <= 2) {
      kind = 5;
    }
    NodeDescriptor d;
    switch (kind) {
      case 1:  // a member or former member again, at its last address
        return known[rng.PickIndex(known.size())];
      case 2:  // a rejoin at a new address
        return NodeDescriptor{known[rng.PickIndex(known.size())].id, next_addr++};
      case 3:  // an edge member, at its address or at a new one
        d = pick_edge();
        if (rng.Bernoulli(0.5)) {
          d.addr = next_addr++;
        }
        return d;
      case 4:  // one id step beside an edge member, on either side
        d = pick_edge();
        d.id = rng.Bernoulli(0.5) ? d.id.Add(U128(0, 1)) : d.id.Sub(U128(0, 1));
        d.addr = next_addr++;
        return d;
      default:
        return NodeDescriptor{rng.NextU128(), next_addr++};
    }
  };

  for (int op = 0; op < c.population * 20; ++op) {
    const uint64_t kind = rng.UniformU64(8);
    if (kind == 0 && !known.empty()) {
      const U128 id = known[rng.PickIndex(known.size())].id;
      ASSERT_EQ(leaf.Remove(id), ref.Remove(id)) << "op " << op;
    } else if (const NodeDescriptor d = candidate(kind); d.id != self) {
      known.push_back(d);
      ASSERT_EQ(leaf.MaybeAdd(d), ref.MaybeAdd(d)) << "op " << op;
    }
    ASSERT_EQ(leaf.Larger(), ref.Larger()) << "op " << op;
    ASSERT_EQ(leaf.Smaller(), ref.Smaller()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LeafSetProperty,
    ::testing::Values(LeafSetCase{1, 8, 30}, LeafSetCase{2, 16, 100},
                      LeafSetCase{3, 32, 200}, LeafSetCase{4, 32, 10},
                      LeafSetCase{5, 2, 50}));

}  // namespace
}  // namespace past
