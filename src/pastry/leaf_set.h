// The Pastry leaf set.
//
// Each node tracks the l/2 nodes with the numerically closest larger nodeIds
// and the l/2 with the closest smaller nodeIds, in the circular 128-bit id
// space. The leaf set anchors the last hop of routing ("numerically closest
// node"), defines the replica set for PAST files (the k members closest to a
// fileId), and is kept current by heartbeats between ring neighbours plus
// failure notices.
//
// When the overlay is small a node can legitimately appear on both sides
// (it is simultaneously among the closest-larger and closest-smaller ids);
// Members() deduplicates.
//
// Sides store 4-byte interned handles (node_intern.h), not descriptors, so a
// full l=32 leaf set costs 128 bytes per node at million-node scale; the
// descriptor-returning accessors materialize on demand.
#pragma once

#include <memory>
#include <vector>

#include "src/pastry/node_id.h"
#include "src/pastry/node_intern.h"

namespace past {

class LeafSet {
 public:
  // `intern` is the network-shared descriptor table; when null the set owns
  // a private one (unit tests, standalone use).
  LeafSet(const NodeId& self, int leaf_set_size, NodeInternTable* intern = nullptr);

  // Considers a node for both sides. Returns true if membership changed.
  bool MaybeAdd(const NodeDescriptor& candidate);
  // Removes from both sides. Returns true if the node was a member.
  bool Remove(const NodeId& id);

  bool Contains(const NodeId& id) const;

  // All members, deduplicated; does not include the local node.
  std::vector<NodeDescriptor> Members() const;
  // Members on one side, ordered by increasing ring offset from self.
  std::vector<NodeDescriptor> Smaller() const { return Resolve(smaller_); }
  std::vector<NodeDescriptor> Larger() const { return Resolve(larger_); }
  // The ring neighbours (nearest member on each side) and the two edges of
  // the set (farthest member on each side). Invalid descriptor if that side
  // is empty.
  NodeDescriptor NearestSmaller() const { return At(smaller_, /*farthest=*/false); }
  NodeDescriptor NearestLarger() const { return At(larger_, /*farthest=*/false); }
  NodeDescriptor FarthestSmaller() const { return At(smaller_, /*farthest=*/true); }
  NodeDescriptor FarthestLarger() const { return At(larger_, /*farthest=*/true); }

  // True when both sides are at capacity. An incomplete leaf set means the
  // node's horizon covers the whole (small) ring, so every key is in range.
  bool Complete() const;

  // Is `key` within the id span covered by this leaf set (so that the
  // closest-node decision can be made locally)?
  bool CoversKey(const NodeId& key) const;

  // The member (or self, when `include_self`) whose id is ring-closest to
  // `key`. Ties broken toward the numerically smaller id.
  NodeDescriptor ClosestTo(const NodeId& key, const NodeDescriptor& self_desc,
                           bool include_self) const;

  // The k members (including self_desc) ring-closest to `key` — PAST's
  // replica set for a file with this routing key. Fewer than k are returned
  // only if the leaf set has fewer members.
  std::vector<NodeDescriptor> ClosestMembers(const NodeId& key,
                                             const NodeDescriptor& self_desc,
                                             int k) const;

  // The farthest member on the side of `failed_id` — the node to ask for its
  // leaf set when repairing after a failure. Invalid descriptor if the side
  // is empty.
  NodeDescriptor FarthestOnSideOf(const NodeId& failed_id) const;

  size_t size() const;
  int capacity_per_side() const { return capacity_per_side_; }

  // Drops all members (used when a failed node rejoins with fresh state).
  void Clear() {
    smaller_.clear();
    larger_.clear();
  }

  // Heap footprint in bytes (plus the private intern table when owned).
  size_t MemoryUsage() const;

 private:
  // Sorted ascending by ring offset from self (direction depends on side).
  bool InsertSide(std::vector<uint32_t>* side, const NodeDescriptor& candidate,
                  const U128& offset, bool larger_side);
  std::vector<NodeDescriptor> Resolve(const std::vector<uint32_t>& side) const;
  NodeDescriptor At(const std::vector<uint32_t>& side, bool farthest) const {
    if (side.empty()) {
      return NodeDescriptor{};
    }
    return intern_->Get(farthest ? side.back() : side.front());
  }

  NodeId self_;
  int capacity_per_side_;
  std::unique_ptr<NodeInternTable> owned_intern_;
  NodeInternTable* intern_;
  std::vector<uint32_t> smaller_;  // interned handles
  std::vector<uint32_t> larger_;
};

}  // namespace past
