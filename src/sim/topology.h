// Proximity topologies for the simulated network.
//
// The paper defines network proximity as "a scalar metric, such as the number
// of IP hops, geographic distance, or a combination". We model hosts as
// points in a metric space and use distance as that scalar. Three spaces are
// provided, mirroring the topologies used in the Pastry evaluation:
//   kPlane     — uniform points in a square (Euclidean distance)
//   kSphere    — uniform points on a sphere (great-circle distance)
//   kClustered — Internet-like: dense clusters (sites) joined by long links;
//                intra-cluster distances are small, inter-cluster large.
#pragma once

#include <vector>

#include "src/common/rng.h"

namespace past {

enum class TopologyKind { kPlane, kSphere, kClustered };

class Topology {
 public:
  // `scale` is the edge length (plane), sphere radius, or cluster-spread
  // scale, in abstract proximity units.
  Topology(TopologyKind kind, double scale, Rng* rng);

  // Samples a position for a new host and returns its index.
  int AddHost();

  // Pre-sizes point storage for `n` hosts (no positions are sampled).
  void Reserve(size_t n);

  double Distance(int a, int b) const;
  int host_count() const { return static_cast<int>(points_.size()); }
  TopologyKind kind() const { return kind_; }

  // Largest possible distance between two hosts in this space (used to
  // normalize locality metrics).
  double MaxDistance() const;

  // Heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  struct Point {
    double x, y, z;
  };

  // Samples a fresh position (and, for kClustered, a cluster assignment
  // written to cluster_of_[slot]).
  Point SamplePoint(size_t slot);

  TopologyKind kind_;
  double scale_;
  Rng* rng_;
  std::vector<Point> points_;
  // For kClustered: centers of the clusters, fixed at construction.
  std::vector<Point> cluster_centers_;
  std::vector<int> cluster_of_;
};

}  // namespace past

