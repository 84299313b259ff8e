#include "src/storage/past_context.h"

#include <utility>

namespace past {

PastContext::PastContext(const PastConfig& config, RsaPublicKey broker_key,
                         MetricsRegistry& metrics)
    : config_(config),
      broker_key_(std::move(broker_key)),
      contents_(metrics),
      certificates_(metrics) {
  obs_.inserts_rooted = metrics.GetCounter("past.inserts_rooted");
  obs_.inserts_fanned_early = metrics.GetCounter("past.inserts_fanned_early");
  obs_.replicas_stored = metrics.GetCounter("past.replicas_stored");
  obs_.diverted_accepted = metrics.GetCounter("past.diverted_accepted");
  obs_.diversions_ok = metrics.GetCounter("past.diversions_ok");
  obs_.store_rejects = metrics.GetCounter("past.store_rejects");
  obs_.lookups_served_store = metrics.GetCounter("past.lookups_served_store");
  obs_.lookups_served_cache = metrics.GetCounter("past.lookups_served_cache");
  obs_.maintenance_fetches = metrics.GetCounter("past.maintenance_fetches");
  obs_.demotions = metrics.GetCounter("past.demotions");
  obs_.replica_offers = metrics.GetCounter("past.replica_offers");
  obs_.replica_offer_msgs = metrics.GetCounter("past.replica_offer_msgs");
  obs_.reclaims_processed = metrics.GetCounter("past.reclaims_processed");
  obs_.bad_certificates = metrics.GetCounter("past.bad_certificates");
  obs_.insert_latency = metrics.GetLogHistogram("past.insert.latency_us");
  obs_.lookup_latency = metrics.GetLogHistogram("past.lookup.latency_us");
  obs_.reclaim_latency = metrics.GetLogHistogram("past.reclaim.latency_us");
}

}  // namespace past
