// The Pastry neighborhood set: the |M| nodes closest to the local node
// according to the *proximity* metric (not the id space). It is not used for
// routing decisions; it seeds locality-aware routing-table maintenance and is
// handed to joining nodes so they start with proximally relevant candidates.
//
// Members are 4-byte interned handles (node_intern.h) paired with cached
// proximity distances; Members() materializes descriptors on demand.
#pragma once

#include <functional>
#include <vector>

#include "src/pastry/node_id.h"
#include "src/pastry/node_intern.h"

namespace past {

class NeighborhoodSet {
 public:
  // `intern` is the network-shared descriptor table; it must outlive the set.
  NeighborhoodSet(const NodeId& self, int capacity,
                  std::function<double(NodeAddr)> proximity, NodeInternTable& intern);

  // Returns true if membership changed.
  bool MaybeAdd(const NodeDescriptor& candidate);
  bool Remove(const NodeId& id);
  bool Contains(const NodeId& id) const;

  // Members ordered by increasing proximity distance.
  std::vector<NodeDescriptor> Members() const;
  size_t size() const { return members_.size(); }

  // Drops all members (used when a failed node rejoins with fresh state).
  void Clear() {
    members_.clear();
    distances_.clear();
  }

  // Heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  NodeId self_;
  size_t capacity_;
  std::function<double(NodeAddr)> proximity_;
  NodeInternTable* intern_;
  std::vector<uint32_t> members_;  // interned handles, sorted by proximity
  std::vector<double> distances_;  // parallel to members_
};

}  // namespace past
