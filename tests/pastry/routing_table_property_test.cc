// Property tests of RoutingTable against its slot-placement contract, across
// seeds and digit widths.
#include <gtest/gtest.h>

#include <type_traits>

#include "src/common/rng.h"
#include "src/pastry/routing_table.h"

namespace past {
namespace {

// gtest has no printer for this struct, so it names each case after the
// struct's raw bytes. The four bytes after `b` would otherwise be tail
// padding with whatever the stack held, and the case names would change from
// run to run; they are spelled out as a member that is always zero.
struct TableCase {
  uint64_t seed;
  int b;
  int zero = 0;
};
static_assert(std::has_unique_object_representations_v<TableCase>,
              "every byte of TableCase must be an initialised member");

class RoutingTableProperty : public ::testing::TestWithParam<TableCase> {
 protected:
  NodeInternTable intern_;
};

TEST_P(RoutingTableProperty, EveryOccupantSatisfiesItsSlotContract) {
  const TableCase& c = GetParam();
  Rng rng(c.seed);
  PastryConfig config;
  config.b = c.b;
  NodeId self = rng.NextU128();
  RoutingTable table(self, config, nullptr, intern_);
  for (int i = 0; i < 2000; ++i) {
    table.MaybeAdd(NodeDescriptor{rng.NextU128(), static_cast<NodeAddr>(i + 1)});
  }
  size_t counted = 0;
  for (int row = 0; row < table.rows(); ++row) {
    for (int col = 0; col < table.cols(); ++col) {
      auto entry = table.Get(row, col);
      if (!entry.has_value()) {
        continue;
      }
      ++counted;
      // Occupant of (row, col) shares exactly `row` digits with self and its
      // next digit is `col` (never self's own digit).
      EXPECT_EQ(entry->id.SharedPrefixLength(self, config.b), row);
      EXPECT_EQ(entry->id.Digit(row, config.b), col);
      EXPECT_NE(col, self.Digit(row, config.b));
    }
  }
  EXPECT_EQ(counted, table.EntryCount());
}

TEST_P(RoutingTableProperty, EntryForKeyAlwaysMakesPrefixProgress) {
  const TableCase& c = GetParam();
  Rng rng(c.seed ^ 0xbeef);
  PastryConfig config;
  config.b = c.b;
  NodeId self = rng.NextU128();
  RoutingTable table(self, config, nullptr, intern_);
  for (int i = 0; i < 3000; ++i) {
    table.MaybeAdd(NodeDescriptor{rng.NextU128(), static_cast<NodeAddr>(i + 1)});
  }
  for (int trial = 0; trial < 300; ++trial) {
    U128 key = rng.NextU128();
    auto hop = table.EntryForKey(key);
    if (!hop.has_value()) {
      continue;
    }
    // The paper's invariant: the next hop shares a strictly longer prefix
    // with the key than this node does.
    EXPECT_GT(hop->id.SharedPrefixLength(key, config.b),
              self.SharedPrefixLength(key, config.b));
  }
}

TEST_P(RoutingTableProperty, RemoveIsExactInverseOfOccupancy) {
  const TableCase& c = GetParam();
  Rng rng(c.seed ^ 0xf00d);
  PastryConfig config;
  config.b = c.b;
  NodeId self = rng.NextU128();
  RoutingTable table(self, config, nullptr, intern_);
  std::vector<NodeDescriptor> added;
  for (int i = 0; i < 500; ++i) {
    NodeDescriptor d{rng.NextU128(), static_cast<NodeAddr>(i + 1)};
    if (table.MaybeAdd(d)) {
      added.push_back(d);
    }
  }
  // Remove everything that still occupies a slot; the table must end empty.
  for (const NodeDescriptor& d : table.Entries()) {
    auto vacated = table.RemoveNode(d.id);
    EXPECT_EQ(vacated.size(), 1u);
  }
  EXPECT_EQ(table.EntryCount(), 0u);
  EXPECT_EQ(table.PopulatedRows(), 0);
}

INSTANTIATE_TEST_SUITE_P(Cases, RoutingTableProperty,
                         ::testing::Values(TableCase{1, 4}, TableCase{2, 4},
                                           TableCase{3, 2}, TableCase{4, 8},
                                           TableCase{5, 1}));

}  // namespace
}  // namespace past
