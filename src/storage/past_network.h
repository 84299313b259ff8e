// PastNetwork — a complete simulated PAST deployment.
//
// Owns the broker, issues a smartcard per node (nodeId = hash of the card's
// public key, as the paper specifies), grows the Pastry overlay through the
// real join protocol, and attaches a PastNode to every overlay node. Also
// provides synchronous wrappers over the asynchronous client API for tests
// and experiments.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/pastry/overlay.h"
#include "src/storage/past_node.h"

namespace past {

struct PastNetworkOptions {
  OverlayOptions overlay;
  PastConfig past;
  BrokerOptions broker;
  uint64_t default_node_capacity = 64ULL << 20;  // contributed storage (64 MiB)
  uint64_t default_user_quota = 256ULL << 20;    // per-card usage quota
};

class PastNetwork {
 public:
  explicit PastNetwork(const PastNetworkOptions& options);

  // Adds a node with explicit capacity/quota (capacity may be zero: a pure
  // client access point). Returns nullptr if the broker refuses the card.
  PastNode* AddNode(uint64_t capacity, uint64_t quota);
  PastNode* AddNode() {
    return AddNode(options_.default_node_capacity, options_.default_user_quota);
  }
  // Adds a read-only client access point: no smartcard, no storage, no
  // quota — it can only route and look files up.
  PastNode* AddReadOnlyClient();
  void Build(int n);

  Broker& broker() { return broker_; }
  Overlay& overlay() { return overlay_; }
  EventQueue& queue() { return overlay_.queue(); }

  size_t size() const { return nodes_.size(); }
  PastNode* node(size_t i) { return nodes_[i].get(); }
  PastNode* NodeByAddr(NodeAddr addr);
  PastNode* RandomLiveNode();

  void Run(SimTime duration) { overlay_.Run(duration); }
  void RunAll() { overlay_.RunAll(); }

  // --- synchronous wrappers (drive the event queue until completion) ---------

  Result<FileId> InsertSync(PastNode* client, std::string name, Bytes content,
                            uint32_t k = 0);
  Result<FileId> InsertSyntheticSync(PastNode* client, std::string name, uint64_t size,
                                     uint32_t k = 0);
  Result<PastNode::LookupOutcome> LookupSync(PastNode* client, const FileId& id);
  StatusCode ReclaimSync(PastNode* client, const FileId& id);
  bool AuditSync(PastNode* auditor, NodeAddr target, const FileId& id,
                 const FileCertificate& cert);

  // Kills a node silently (crash) and lets its PAST state die with it.
  void CrashNode(size_t i);

  // Reboots a crashed node: a fresh PastNode (same smartcard, same nodeId)
  // reopens the old node's state directory — recovering its replica store if
  // the network runs with a state_dir — and rejoins the overlay through a
  // live bootstrap node. Returns the replacement node.
  PastNode* RestartNode(size_t i);

  // How many live nodes currently hold a (non-diverted or diverted) replica.
  int CountReplicas(const FileId& id) const;

  struct StorageSummary {
    uint64_t capacity = 0;
    uint64_t primary_used = 0;
    uint64_t cache_used = 0;
    size_t files = 0;
    size_t pointers = 0;
    double utilization() const {
      return capacity == 0 ? 0.0
                           : static_cast<double>(primary_used) / static_cast<double>(capacity);
    }
  };
  StorageSummary Summary() const;

  const PastNetworkOptions& options() const { return options_; }
  Rng& rng() { return overlay_.rng(); }

 private:
  // Starts an operation with `start(callback)` and runs the queue until the
  // callback fires or `timeouts` request timeouts pass; returns what the
  // callback was given, or else `on_expiry`.
  template <typename R, typename Start>
  R Await(R on_expiry, int timeouts, Start start);

  PastNetworkOptions options_;
  Broker broker_;
  Overlay overlay_;
  // Shared by every node; declared before nodes_ so it outlives them.
  PastContext context_;
  std::vector<std::unique_ptr<PastNode>> nodes_;
};

}  // namespace past

