// PastContext — what every PAST node of one network shares, reached through
// one pointer per node: the PastConfig, the broker key every certificate and
// receipt is checked against, the ContentTable and CertificateTable (DESIGN
// §15), and the past.* instruments, resolved once per network (DESIGN §6).
// PastNetwork owns one; the past_cli daemon builds one for its node. It
// outlives every node that points at it and every handle into its tables.
#pragma once

#include <string>

#include "src/crypto/rsa.h"
#include "src/diskstore/disk_store.h"
#include "src/obs/metrics.h"
#include "src/sim/event_queue.h"
#include "src/storage/cache.h"
#include "src/storage/certificates.h"
#include "src/storage/file_store.h"

namespace past {

struct PastConfig {
  uint32_t default_replication = 5;  // k for files inserted by this client

  StoragePolicy policy;
  bool enable_replica_diversion = true;
  int file_diversion_retries = 3;  // extra salts the client tries (SOSP scheme)

  // Unless kNone, nodes en route cache inserted files and the node serving a
  // lookup pushes copies to the nodes the lookup passed.
  CachePolicy cache_policy = CachePolicy::kGreedyDualSize;
  // Local disk a read-only (cardless) access point dedicates to its cache;
  // card-holding nodes cache in the unused part of their contributed space.
  uint64_t read_only_cache_capacity = 16ULL << 20;

  SimTime request_timeout = 30 * kMicrosPerSecond;

  // A dishonest node returns store receipts without storing (the freeloader
  // the paper's random audits are designed to expose).
  bool honest = true;

  // When non-empty, each node persists its replica store durably under
  // <state_dir>/<nodeId hex> (diskstore engine) and recovers it on restart;
  // when empty, stores are purely in-memory and die with the node.
  std::string state_dir;
  // Engine tuning for the durable store; its disk.* counts always go to the
  // network registry.
  DiskStoreOptions disk;
};

class PastContext {
 public:
  // Aggregate "past.*" instruments in the network's registry, summed over
  // every storage node on the network.
  struct Instruments {
    Counter* inserts_rooted;        // insert requests fanned out at the root
    Counter* inserts_fanned_early;  // ... and by a node the route reached first
    Counter* replicas_stored;      // primary replicas accepted
    Counter* diverted_accepted;    // diverted replicas accepted for others
    Counter* diversions_ok;        // replicas this node diverted away
    Counter* store_rejects;        // replicas refused (incl. failed divert)
    Counter* lookups_served_store;
    Counter* lookups_served_cache;
    Counter* maintenance_fetches;  // replicas re-created by maintenance
    Counter* demotions;            // replicas dropped by maintenance
    Counter* replica_offers;       // (file, member) offers maintenance made
    Counter* replica_offer_msgs;   // ReplicaNotify messages carrying them
    Counter* reclaims_processed;   // replicas removed by a reclaim
    Counter* bad_certificates;     // verification failures observed
    // End-to-end client-op latency quantiles (sim-time, client call to
    // callback), observed only on success.
    LogHistogram* insert_latency;
    LogHistogram* lookup_latency;
    LogHistogram* reclaim_latency;
  };

  // `broker_key` verifies every certificate and receipt the nodes check;
  // `metrics` is the network's registry.
  PastContext(const PastConfig& config, RsaPublicKey broker_key, MetricsRegistry& metrics);
  PastContext(const PastContext&) = delete;
  PastContext& operator=(const PastContext&) = delete;

  const PastConfig& config() const { return config_; }
  const RsaPublicKey& broker_key() const { return broker_key_; }
  // The bytes of every node's cached copies, one buffer per distinct
  // content, and the certificates of every node's replicas, cached copies
  // and owned files, one object per distinct certificate.
  ContentTable& contents() { return contents_; }
  CertificateTable& certificates() { return certificates_; }
  const Instruments& obs() const { return obs_; }

 private:
  PastConfig config_;
  RsaPublicKey broker_key_;
  ContentTable contents_;
  CertificateTable certificates_;
  Instruments obs_;
};

}  // namespace past
