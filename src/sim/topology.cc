#include "src/sim/topology.h"

#include <cmath>

#include "src/common/check.h"

namespace past {
namespace {

constexpr int kNumClusters = 20;
// Within a cluster, hosts sit within this fraction of the scale from the
// cluster center; clusters themselves are spread over the full scale.
constexpr double kClusterSpread = 0.02;

}  // namespace

Topology::Topology(TopologyKind kind, double scale, Rng* rng)
    : kind_(kind), scale_(scale), rng_(rng) {
  PAST_CHECK(scale > 0);
  PAST_CHECK(rng != nullptr);
  if (kind_ == TopologyKind::kClustered) {
    for (int i = 0; i < kNumClusters; ++i) {
      cluster_centers_.push_back(
          Point{rng_->UniformDouble() * scale_, rng_->UniformDouble() * scale_, 0.0});
    }
  }
}

Topology::Point Topology::SamplePoint(size_t slot) {
  Point p{0, 0, 0};
  switch (kind_) {
    case TopologyKind::kPlane: {
      p.x = rng_->UniformDouble() * scale_;
      p.y = rng_->UniformDouble() * scale_;
      break;
    }
    case TopologyKind::kSphere: {
      // Uniform on the sphere via normalized Gaussians.
      double x = rng_->Gaussian(), y = rng_->Gaussian(), z = rng_->Gaussian();
      double norm = std::sqrt(x * x + y * y + z * z);
      if (norm < 1e-12) {
        x = 1.0;
        norm = 1.0;
      }
      p.x = scale_ * x / norm;
      p.y = scale_ * y / norm;
      p.z = scale_ * z / norm;
      break;
    }
    case TopologyKind::kClustered: {
      int c = static_cast<int>(rng_->UniformU64(cluster_centers_.size()));
      if (slot < cluster_of_.size()) {
        cluster_of_[slot] = c;
      } else {
        cluster_of_.push_back(c);
      }
      const Point& center = cluster_centers_[c];
      p.x = center.x + (rng_->UniformDouble() - 0.5) * scale_ * kClusterSpread;
      p.y = center.y + (rng_->UniformDouble() - 0.5) * scale_ * kClusterSpread;
      break;
    }
  }
  return p;
}

int Topology::AddHost() {
  points_.push_back(SamplePoint(points_.size()));
  return static_cast<int>(points_.size()) - 1;
}

void Topology::Reserve(size_t n) {
  points_.reserve(n);
  if (kind_ == TopologyKind::kClustered) {
    cluster_of_.reserve(n);
  }
}

double Topology::Distance(int a, int b) const {
  PAST_CHECK(a >= 0 && a < host_count() && b >= 0 && b < host_count());
  if (a == b) {
    return 0.0;  // avoid acos() rounding producing a tiny self-distance
  }
  const Point& pa = points_[a];
  const Point& pb = points_[b];
  if (kind_ == TopologyKind::kSphere) {
    // Great-circle distance.
    double dot = (pa.x * pb.x + pa.y * pb.y + pa.z * pb.z) / (scale_ * scale_);
    dot = std::max(-1.0, std::min(1.0, dot));
    return scale_ * std::acos(dot);
  }
  double dx = pa.x - pb.x;
  double dy = pa.y - pb.y;
  double dz = pa.z - pb.z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

double Topology::MaxDistance() const {
  switch (kind_) {
    case TopologyKind::kPlane:
      return scale_ * std::sqrt(2.0);
    case TopologyKind::kSphere:
      return scale_ * M_PI;
    case TopologyKind::kClustered:
      return scale_ * std::sqrt(2.0) * (1.0 + kClusterSpread);
  }
  return scale_;
}

size_t Topology::MemoryUsage() const {
  return sizeof(*this) + points_.capacity() * sizeof(Point) +
         cluster_centers_.capacity() * sizeof(Point) +
         cluster_of_.capacity() * sizeof(int);
}

}  // namespace past
