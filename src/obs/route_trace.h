// Per-message route traces.
//
// Every routed Pastry message carries its trace, which is its route: one
// record per overlay hop, written by the node that made the forwarding
// decision. A record names the decider, which routing rule chose the next
// hop (leaf set, routing table, the rare-case fallback, or the replica-set
// proximity shortcut), and the proximity distance of the hop taken. The
// trace is handed to applications through DeliverContext, so experiments and
// tests can assert not just "<= log N hops" but *which rule* produced each
// hop.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

namespace past {

// Which routing rule selected the next hop (Pastry Section 2.1 terminology).
enum class RouteRule : uint8_t {
  kLeafSet = 0,          // destination within the leaf set's coverage
  kRoutingTable = 1,     // prefix-matching routing-table entry
  kRareCase = 2,         // fallback scan over all known nodes
  kReplicaShortcut = 3,  // final-hop jump to the proximally closest replica
};
constexpr uint8_t kRouteRuleCount = 4;
// The wire codec rejects a rule at or above this count.
constexpr uint8_t EnumCount(RouteRule) { return kRouteRuleCount; }

const char* RouteRuleName(RouteRule rule);

struct RouteHop {
  uint32_t node = 0;       // NodeAddr of the node that chose this hop
  RouteRule rule = RouteRule::kLeafSet;
  double distance = 0.0;   // proximity distance of the hop taken
  int64_t when = 0;        // sim-time (us) the hop was taken, stamped by the
                           // decider — aligns hop traces with span timelines

  bool operator==(const RouteHop& o) const = default;

  // 21 bytes on the wire.
  static auto Fields(auto& h) { return std::tie(h.node, h.rule, h.distance, h.when); }
};

// Total proximity distance travelled along a route: the hop distances summed
// in hop order.
double RouteDistance(const std::vector<RouteHop>& trace);

}  // namespace past

