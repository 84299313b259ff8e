#include "src/pastry/overlay.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace past {
namespace {

// Proximity-space scale: the default NetworkConfig latencies assume it.
constexpr double kTopologyScale = 1000.0;

}  // namespace

Overlay::Overlay(const OverlayOptions& options)
    : options_(options),
      rng_(options.seed),
      topo_(options.topology, kTopologyScale, &rng_),
      net_(&queue_, &topo_, options.network, rng_.NextU64()),
      context_(&net_, options.pastry) {}

PastryNode* Overlay::AddNode() {
  // nodeId = hash of a fresh "public key" (random bytes stand in for the
  // smartcard key; the PAST layer uses real RSA keys).
  Bytes fake_key = rng_.RandomBytes(64);
  return AddNodeWithId(NodeIdFromPublicKey(fake_key));
}

PastryNode* Overlay::AddNodeWithId(const NodeId& id) {
  auto node = std::make_unique<PastryNode>(context_, id, rng_.NextU64());
  PastryNode* raw = node.get();
  nodes_.push_back(std::move(node));
  JoinAndSettle(raw);
  return raw;
}

void Overlay::JoinAndSettle(PastryNode* node) {
  // First node bootstraps the overlay.
  bool any_live = false;
  for (const auto& n : nodes_) {
    if (n.get() != node && n->active()) {
      any_live = true;
      break;
    }
  }
  if (!any_live) {
    node->Bootstrap();
    return;
  }
  PastryNode* bootstrap = options_.nearest_bootstrap ? NearestLiveNode(node->addr())
                                                     : RandomLiveNode();
  PAST_CHECK(bootstrap != nullptr);
  node->Join(bootstrap->addr());
  // Drive the simulation until the join completes.
  const SimTime chunk = 50 * kMicrosPerMilli;
  for (int i = 0; i < 20000 && !node->active(); ++i) {
    queue_.RunUntil(queue_.Now() + chunk);
  }
  PAST_CHECK_MSG(node->active(), "join did not complete");
  // Let announcements and table updates drain.
  queue_.RunUntil(queue_.Now() + 200 * kMicrosPerMilli);
}

void Overlay::Build(int n) {
  for (int i = 0; i < n; ++i) {
    AddNode();
  }
}

void Overlay::BuildFast(int n) {
  PAST_CHECK_MSG(nodes_.empty(), "BuildFast requires an empty overlay");
  PAST_CHECK(n > 0);
  net_.ReserveEndpoints(static_cast<size_t>(n));
  context_.intern().Reserve(static_cast<size_t>(n));
  nodes_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Same id derivation and per-node RNG draws as AddNode.
    Bytes fake_key = rng_.RandomBytes(64);
    nodes_.push_back(
        std::make_unique<PastryNode>(context_, NodeIdFromPublicKey(fake_key), rng_.NextU64()));
  }
  // Sorted view over the id ring.
  std::vector<uint32_t> order(nodes_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return nodes_[a]->id() < nodes_[b]->id();
  });
  // Exact leaf sets: hand each node its l/2 ring neighbors per side (all
  // other nodes when the ring is smaller than that). SeedState also offers
  // the neighbor to the routing table and neighborhood set, exactly as
  // learning it from a join message would.
  const int count = static_cast<int>(order.size());
  const int half = std::min(context_.config().leaf_set_size / 2, count - 1);
  for (int i = 0; i < count; ++i) {
    PastryNode* node = nodes_[order[static_cast<size_t>(i)]].get();
    for (int off = 1; off <= half; ++off) {
      node->SeedState(nodes_[order[static_cast<size_t>((i + off) % count)]]->descriptor());
      node->SeedState(
          nodes_[order[static_cast<size_t>((i - off + count) % count)]]->descriptor());
    }
  }
  SeedRoutingRange(order, 0, count, 0);
  for (auto& node : nodes_) {
    node->ActivateSeeded();
  }
}

void Overlay::SeedRoutingRange(const std::vector<uint32_t>& order, int begin, int end,
                               int depth) {
  const PastryConfig& config = context_.config();
  if (end - begin <= 1 || depth >= config.digits()) {
    return;
  }
  const int b = config.b;
  const int cols = config.cols();
  // The subrange shares its first `depth` digits and is id-sorted, so digit
  // `depth` partitions it into contiguous runs; find the run boundaries.
  std::vector<int> start(static_cast<size_t>(cols) + 1, end);
  int pos = begin;
  for (int c = 0; c < cols; ++c) {
    start[static_cast<size_t>(c)] = pos;
    while (pos < end &&
           nodes_[order[static_cast<size_t>(pos)]]->id().Digit(depth, b) == c) {
      ++pos;
    }
  }
  start[static_cast<size_t>(cols)] = end;
  // Each node's row `depth` wants, per column c != its own digit, a member of
  // run c. Offer a few evenly-spaced samples; with locality on, the routing
  // table keeps the proximally closest, approximating a converged join.
  constexpr int kSamplesPerSlot = 2;
  for (int i = begin; i < end; ++i) {
    PastryNode* node = nodes_[order[static_cast<size_t>(i)]].get();
    const int own = node->id().Digit(depth, b);
    for (int c = 0; c < cols; ++c) {
      if (c == own) {
        continue;
      }
      const int run_begin = start[static_cast<size_t>(c)];
      const int span = start[static_cast<size_t>(c) + 1] - run_begin;
      if (span <= 0) {
        continue;
      }
      const int samples = std::min(kSamplesPerSlot, span);
      for (int k = 0; k < samples; ++k) {
        const int pick = run_begin + (span * (2 * k + 1)) / (2 * samples);
        node->SeedRoutingEntry(
            nodes_[order[static_cast<size_t>(pick)]]->descriptor());
      }
    }
  }
  for (int c = 0; c < cols; ++c) {
    SeedRoutingRange(order, start[static_cast<size_t>(c)],
                     start[static_cast<size_t>(c) + 1], depth + 1);
  }
}

void Overlay::RecordMemoryMetrics() {
  size_t total = 0;
  for (const auto& n : nodes_) {
    total += n->MemoryUsage();
  }
  total += context_.MemoryUsage();
  total += net_.EndpointMemoryUsage();
  total += topo_.MemoryUsage();
  total += queue_.MemoryUsage();
  net_.metrics().GetGauge("sim.mem.total_bytes")->Set(static_cast<double>(total));
  net_.metrics().GetGauge("sim.mem.bytes_per_node")
      ->Set(nodes_.empty() ? 0.0
                           : static_cast<double>(total) / static_cast<double>(nodes_.size()));
}

PastryNode* Overlay::RandomLiveNode() {
  std::vector<PastryNode*> live;
  live.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (n->active()) {
      live.push_back(n.get());
    }
  }
  if (live.empty()) {
    return nullptr;
  }
  return live[rng_.PickIndex(live.size())];
}

PastryNode* Overlay::NearestLiveNode(NodeAddr addr) {
  PastryNode* best = nullptr;
  double best_dist = 0.0;
  for (const auto& n : nodes_) {
    if (!n->active() || n->addr() == addr) {
      continue;
    }
    double dist = net_.Proximity(addr, n->addr());
    if (best == nullptr || dist < best_dist) {
      best = n.get();
      best_dist = dist;
    }
  }
  return best;
}

PastryNode* Overlay::GloballyClosestLiveNode(const U128& key) {
  PastryNode* best = nullptr;
  U128 best_dist = U128::Max();
  for (const auto& n : nodes_) {
    if (!n->active()) {
      continue;
    }
    U128 dist = n->id().RingDistance(key);
    if (best == nullptr || dist < best_dist ||
        (dist == best_dist && n->id() < best->id())) {
      best = n.get();
      best_dist = dist;
    }
  }
  return best;
}

LeafSetAudit Overlay::AuditLeafSets() const {
  std::vector<std::pair<U128, const PastryNode*>> live;
  for (const auto& n : nodes_) {
    if (n->active()) {
      live.emplace_back(n->id(), n.get());
    }
  }
  std::sort(live.begin(), live.end());
  auto is_live = [&live](const U128& id) {
    auto it = std::lower_bound(live.begin(), live.end(), id,
                               [](const auto& e, const U128& v) { return e.first < v; });
    return it != live.end() && it->first == id;
  };
  LeafSetAudit audit;
  const size_t n = live.size();
  for (size_t i = 0; i < n; ++i) {
    const LeafSet& leaf = live[i].second->leaf_set();
    for (const NodeDescriptor& d : leaf.Members()) {
      audit.dead_members += is_live(d.id) ? 0 : 1;
    }
    const size_t half = std::min(static_cast<size_t>(leaf.capacity_per_side()), n - 1);
    for (size_t off = 1; off <= half; ++off) {
      audit.missing_neighbours += leaf.Contains(live[(i + off) % n].first) ? 0 : 1;
      audit.missing_neighbours += leaf.Contains(live[(i + n - off) % n].first) ? 0 : 1;
    }
  }
  return audit;
}

}  // namespace past
