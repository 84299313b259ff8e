// NodeInternTable — per-network interning of (nodeId, address) pairs.
//
// At large N the same descriptors appear in thousands of routing tables, leaf
// sets, and neighborhood sets; storing the 20-byte NodeDescriptor in every
// slot dominates per-node memory. The intern table maps each distinct
// descriptor to a dense uint32_t handle and stores the 128-bit ids and
// addresses once, struct-of-arrays, so overlay state holds 4-byte handles and
// resolves them with two indexed loads.
//
// Handles are never recycled: a (id, addr) pair stays valid for the table's
// lifetime, which is the network's lifetime. A node that rejoins at a new
// address interns a NEW handle — the stale pair costs 20 bytes, and the
// protocol's address-refresh logic already replaces handles in place.
// Handle 0 is reserved as "empty slot"; no valid descriptor ever gets it.
//
// Single-threaded, like everything else sharing a simulation stack. Each
// network keeps one table in its PastryContext; unit tests own their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/pastry/node_id.h"

namespace past {

class NodeInternTable {
 public:
  using Handle = uint32_t;
  static constexpr Handle kNoHandle = 0;

  NodeInternTable();
  NodeInternTable(const NodeInternTable&) = delete;
  NodeInternTable& operator=(const NodeInternTable&) = delete;

  // Returns the handle for `d`, interning it on first sight. `d` must be
  // valid (interning the invalid descriptor would alias the empty sentinel).
  Handle Intern(const NodeDescriptor& d);

  const NodeId& id(Handle h) const { return ids_[h]; }
  NodeAddr addr(Handle h) const { return addrs_[h]; }
  NodeDescriptor Get(Handle h) const { return NodeDescriptor{ids_[h], addrs_[h]}; }

  // Distinct descriptors interned (the sentinel excluded).
  size_t size() const { return ids_.size() - 1; }
  void Reserve(size_t n);
  size_t MemoryUsage() const;

 private:
  std::vector<NodeId> ids_;      // [0] is the invalid sentinel
  std::vector<NodeAddr> addrs_;  // parallel to ids_
  std::unordered_map<NodeDescriptor, Handle, NodeDescriptorHash> index_;
};

}  // namespace past
