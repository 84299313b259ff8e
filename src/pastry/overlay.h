// Overlay — builds and owns a complete simulated Pastry network.
//
// Bundles the event queue, proximity topology, message network and the node
// set, and drives the real join protocol to grow the overlay one node at a
// time (each join completes before the next starts, as in the Pastry
// evaluation methodology). Experiments and PAST both sit on top of this.
#pragma once

#include <memory>
#include <vector>

#include "src/pastry/pastry_node.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"

namespace past {

struct OverlayOptions {
  PastryConfig pastry;
  NetworkConfig network;
  TopologyKind topology = TopologyKind::kSphere;
  uint64_t seed = 42;
  // Join via the proximally nearest live node (the paper's assumption) or a
  // uniformly random one (the locality ablation).
  bool nearest_bootstrap = true;
};

// Leaf-set defects over the live overlay, judged with global knowledge:
// members that are dead, and true ring neighbours (the l/2 nearest live nodes
// on each side) that are missing. Both zero means every live leaf set is
// exact.
struct LeafSetAudit {
  int dead_members = 0;
  int missing_neighbours = 0;
  bool exact() const { return dead_members == 0 && missing_neighbours == 0; }
};

class Overlay {
 public:
  explicit Overlay(const OverlayOptions& options);

  // Adds one node with a quasi-random nodeId (hash of a random "public key")
  // and runs the join protocol to completion. Returns the new node.
  PastryNode* AddNode();
  PastryNode* AddNodeWithId(const NodeId& id);

  // Adds `n` nodes sequentially.
  void Build(int n);

  // Builds an `n`-node overlay directly from global knowledge instead of
  // running n sequential joins — the only feasible construction at 100k+
  // nodes. Leaf sets are exact (the l/2 ring neighbors per side); routing
  // tables are filled by recursive digit partition of the sorted id ring,
  // sampling a few evenly-spaced candidates per slot (with locality on, the
  // proximally better sample wins, mirroring converged-join quality). All
  // nodes are then activated. Requires an empty overlay.
  void BuildFast(int n);

  // Refreshes sim.mem.total_bytes (all per-node state + shared tables +
  // endpoint/topology/queue storage) and sim.mem.bytes_per_node (total over
  // node count) in the network's registry.
  void RecordMemoryMetrics();

  // Advances the simulation by `duration`.
  void Run(SimTime duration) { queue_.RunUntil(queue_.Now() + duration); }
  // Drains every pending event (only safe when periodic timers are off).
  size_t RunAll(size_t max_events = 100'000'000) { return queue_.RunAll(max_events); }

  EventQueue& queue() { return queue_; }
  Network& network() { return net_; }
  Topology& topology() { return topo_; }
  Rng& rng() { return rng_; }

  size_t size() const { return nodes_.size(); }
  PastryNode* node(size_t i) { return nodes_[i].get(); }
  const std::vector<std::unique_ptr<PastryNode>>& nodes() const { return nodes_; }
  // The context every node of this overlay points at.
  PastryContext& context() { return context_; }

  // A uniformly random live (active) node; nullptr if none.
  PastryNode* RandomLiveNode();
  // The live node proximally nearest to `addr` (excluding `addr` itself).
  PastryNode* NearestLiveNode(NodeAddr addr);
  // The live node whose id is ring-closest to `key` (global knowledge; used
  // by experiments to verify delivery correctness).
  PastryNode* GloballyClosestLiveNode(const U128& key);
  // Audits every live node's leaf set against the true ring.
  LeafSetAudit AuditLeafSets() const;

  U128 RandomKey() { return rng_.NextU128(); }

  const OverlayOptions& options() const { return options_; }

 private:
  void JoinAndSettle(PastryNode* node);
  // BuildFast helper: fills routing-table slots at `depth` for the sorted-id
  // subrange order[begin, end), then recurses into its digit partitions.
  void SeedRoutingRange(const std::vector<uint32_t>& order, int begin, int end,
                        int depth);

  OverlayOptions options_;
  Rng rng_;
  EventQueue queue_;
  Topology topo_;
  Network net_;
  // Shared by every node; declared before nodes_ so it outlives them.
  PastryContext context_;
  std::vector<std::unique_ptr<PastryNode>> nodes_;
};

}  // namespace past

