// PastryContext — what every node of one Pastry network shares, reached
// through one pointer per node: the transport and its queue, the config, the
// NodeInternTable behind every node's tables, and the pastry.* instruments,
// resolved once per network (DESIGN §6). Overlay owns one; the past_cli
// daemon builds one for its node. It outlives every node that points at it.
#pragma once

#include <cstddef>

#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/route_trace.h"
#include "src/pastry/node_id.h"
#include "src/pastry/node_intern.h"

namespace past {

class PastryContext {
 public:
  // Aggregate instruments in the transport's registry, summed over every
  // node on the network (see DESIGN.md for names).
  struct Instruments {
    Counter* msgs_sent;
    Counter* join_msgs;
    Counter* maintenance_msgs;
    Counter* routed_seen;
    Counter* forwarded;
    Counter* reroutes;
    Counter* failures_detected;
    Counter* failure_notices_sent;
    Counter* view_repairs;       // heartbeats answered with a leaf set
    Counter* probes_unanswered;  // probed leaf members dropped as silent
    Counter* suspicion_probes;   // silent watched neighbours probed
    Counter* suspicion_probes_answered;  // ... that proved alive in time
    Counter* stale_member_notices;  // hearsay notices about listed dead nodes
    Counter* hearsay_verifications;  // hearsay notices checked by a probe
    Counter* reannounces;        // live nodes re-announced after a notice
    Counter* rule_hops[kRouteRuleCount];  // indexed by RouteRule
    Histogram* route_hops;
    Histogram* hop_distance;
    LogHistogram* hop_delay;  // sim-time between a hop's send and its receipt
  };

  PastryContext(Transport* net, const PastryConfig& config);
  PastryContext(const PastryContext&) = delete;
  PastryContext& operator=(const PastryContext&) = delete;

  Transport* net() const { return net_; }
  EventQueue* queue() const { return queue_; }
  const PastryConfig& config() const { return config_; }
  NodeInternTable& intern() { return intern_; }
  const Instruments& obs() const { return obs_; }

  // Footprint of the context, its intern table included; counted once per
  // network by Overlay::RecordMemoryMetrics.
  size_t MemoryUsage() const;

 private:
  Transport* net_;
  EventQueue* queue_;
  PastryConfig config_;
  NodeInternTable intern_;
  Instruments obs_;
};

}  // namespace past
