#include "src/pastry/pastry_context.h"

#include <string>

namespace past {

PastryContext::PastryContext(Transport* net, const PastryConfig& config)
    : net_(net), queue_(net->queue()), config_(config) {
  MetricsRegistry& m = net_->metrics();
  obs_.msgs_sent = m.GetCounter("pastry.msgs_sent");
  obs_.join_msgs = m.GetCounter("pastry.join_msgs_sent");
  obs_.maintenance_msgs = m.GetCounter("pastry.maintenance_msgs_sent");
  obs_.routed_seen = m.GetCounter("pastry.routed_seen");
  obs_.forwarded = m.GetCounter("pastry.forwarded");
  obs_.reroutes = m.GetCounter("pastry.reroutes");
  obs_.failures_detected = m.GetCounter("pastry.failures_detected");
  obs_.failure_notices_sent = m.GetCounter("pastry.failure_notices_sent");
  obs_.view_repairs = m.GetCounter("pastry.view_repairs");
  obs_.probes_unanswered = m.GetCounter("pastry.probes_unanswered");
  obs_.suspicion_probes = m.GetCounter("pastry.suspicion_probes");
  obs_.suspicion_probes_answered = m.GetCounter("pastry.suspicion_probes_answered");
  obs_.stale_member_notices = m.GetCounter("pastry.stale_member_notices");
  obs_.hearsay_verifications = m.GetCounter("pastry.hearsay_verifications");
  obs_.reannounces = m.GetCounter("pastry.reannounces");
  for (uint8_t r = 0; r < kRouteRuleCount; ++r) {
    obs_.rule_hops[r] = m.GetCounter(
        std::string("pastry.route.rule.") + RouteRuleName(static_cast<RouteRule>(r)));
  }
  obs_.route_hops =
      m.GetHistogram("pastry.route.hops", {0, 1, 2, 3, 4, 5, 6, 8, 12, 16, 32});
  obs_.hop_distance = m.GetHistogram(
      "pastry.route.hop_distance", {10, 25, 50, 100, 200, 400, 800, 1600, 3200});
  obs_.hop_delay = m.GetLogHistogram("pastry.hop.delay_us");
}

size_t PastryContext::MemoryUsage() const {
  return sizeof(*this) - sizeof(intern_) + intern_.MemoryUsage();
}

}  // namespace past
