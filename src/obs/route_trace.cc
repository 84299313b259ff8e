#include "src/obs/route_trace.h"

namespace past {

const char* RouteRuleName(RouteRule rule) {
  switch (rule) {
    case RouteRule::kLeafSet:
      return "leaf_set";
    case RouteRule::kRoutingTable:
      return "routing_table";
    case RouteRule::kRareCase:
      return "rare_case";
    case RouteRule::kReplicaShortcut:
      return "replica_shortcut";
  }
  return "?";
}

double RouteDistance(const std::vector<RouteHop>& trace) {
  double distance = 0.0;
  for (const RouteHop& h : trace) {
    distance += h.distance;
  }
  return distance;
}

}  // namespace past
