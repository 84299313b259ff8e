// PastNode — a PAST storage node and client access point.
//
// Sits on a PastryNode as its application layer. Implements:
//  * the client operations insert / lookup / reclaim (Section 1-2), with
//    store-receipt collection and file diversion (salt retry) on failure;
//  * the storage-node side: certificate verification, replica storage,
//    replica diversion to leaf-set neighbors, receipts, reclaim handling;
//  * replica maintenance on leaf-set changes (restores k copies after node
//    failures, demotes replicas the node is no longer responsible for);
//  * caching of files that pass through the node (insert forwarding, lookup
//    serving) with GreedyDual-Size eviction;
//  * storage audits (challenge/response over file contents).
//
// Every node is simultaneously a storage node (capacity possibly zero) and a
// client access point — exactly the paper's symmetric peer model.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/diskstore/disk_store.h"
#include "src/pastry/pastry_node.h"
#include "src/storage/cache.h"
#include "src/storage/file_store.h"
#include "src/storage/messages.h"
#include "src/storage/past_context.h"
#include "src/storage/smartcard.h"
#include "src/storage/verify_cache.h"

namespace past {

class PastNode : public PastryApp {
 public:
  // The node's capacity is its smartcard's contributed storage. Without a
  // card the node is a read-only client access point (Section 2.1:
  // "read-only users do not need a smartcard"): it routes and looks up
  // files, but cannot insert, reclaim, audit, or store replicas. Either kind
  // verifies against the context's broker key, runs with the context's
  // config and shares cached bytes and certificates through the context's
  // tables; `context` must outlive the node.
  PastNode(PastryNode* overlay, PastContext& context, std::unique_ptr<Smartcard> card,
           uint64_t seed);
  ~PastNode() override;

  PastNode(const PastNode&) = delete;
  PastNode& operator=(const PastNode&) = delete;

  // --- client API --------------------------------------------------------------

  using InsertCallback = std::function<void(Result<FileId>)>;
  using ReclaimCallback = std::function<void(StatusCode)>;

  struct LookupOutcome {
    FileCertificate cert;
    Bytes content;
    bool from_cache = false;
    NodeDescriptor replier;
  };
  using LookupCallback = std::function<void(Result<LookupOutcome>)>;

  // Inserts a file under `k` replicas (0 = config default). The callback
  // fires with the fileId once k store receipts arrived, or with an error
  // after all file-diversion retries failed.
  void Insert(std::string name, Bytes content, uint32_t k, InsertCallback cb);

  // Insert with metadata only (no content bytes shipped or stored): lets
  // storage-management experiments run far beyond available RAM. The
  // content hash is derived from (name, size).
  void InsertSynthetic(std::string name, uint64_t size, uint32_t k, InsertCallback cb);

  void Lookup(const FileId& file_id, LookupCallback cb);

  // Reclaims a file this client inserted (the file certificate is looked up
  // in the client's local records).
  void Reclaim(const FileId& file_id, ReclaimCallback cb);

  // Audits `target`: challenges it to prove possession of `file_id`.
  // Callback receives true if the node produced a correct proof.
  using AuditCallback = std::function<void(bool passed)>;
  void Audit(NodeAddr target, const FileId& file_id, const FileCertificate& cert,
             AuditCallback cb);

  // --- introspection -------------------------------------------------------------

  PastryNode* overlay() { return overlay_; }
  bool has_card() const { return card_ != nullptr; }
  const Smartcard& card() const {
    PAST_CHECK_MSG(card_ != nullptr, "read-only node has no smartcard");
    return *card_;
  }
  Smartcard& card() {
    PAST_CHECK_MSG(card_ != nullptr, "read-only node has no smartcard");
    return *card_;
  }
  // Surrenders the smartcard (for reuse by a replacement node after a
  // simulated reboot — the card survives the crash, the process does not).
  std::unique_ptr<Smartcard> TakeCard() { return std::move(card_); }

  const RsaPublicKey& broker_key() const { return ctx_->broker_key(); }
  const FileStore& store() const { return *store_; }
  FileStore& store() { return *store_; }
  const Cache& file_cache() const { return cache_; }
  const VerifyCache& verify_cache() const { return verify_cache_; }
  const PastConfig& config() const { return ctx_->config(); }

  // Certificates of files this client successfully inserted.
  const FileCertificate* OwnedFileCert(const FileId& id) const;

  // Bytes free for primary replicas (cached copies are evictable).
  uint64_t primary_free() const { return store_->free_space(); }

  // The simulation-wide metrics registry this node reports into: its past.*
  // counts live only there, summed over every node on the network.
  MetricsRegistry& metrics() { return overlay_->net()->metrics(); }

  // PastryApp:
  void Deliver(const DeliverContext& ctx, ByteSpan payload) override;
  bool Forward(const U128& key, uint32_t app_type, const NodeDescriptor& next,
               Bytes* payload) override;
  void ReceiveDirect(const NodeDescriptor& from, uint32_t app_type,
                     ByteSpan payload) override;
  void OnLeafSetChanged() override;

 private:
  struct PendingInsert {
    std::string name;
    Bytes content;
    Bytes content_hash;
    uint64_t size = 0;
    uint32_t k = 0;
    FileCertificate cert;
    std::unordered_set<U128, U128Hash> receipt_nodes;
    int attempt = 0;
    EventQueue::EventId timer = 0;
    SimTime started = 0;  // client-call time; survives diversion retries so
                          // the latency observed is end-to-end
    uint64_t span = 0;    // tracer span of the whole operation (0 = untraced)
    InsertCallback cb;
  };
  struct PendingLookup {
    EventQueue::EventId timer = 0;
    SimTime started = 0;
    uint64_t span = 0;
    LookupCallback cb;
  };
  struct PendingReclaim {
    FileCertificate cert;
    EventQueue::EventId timer = 0;
    SimTime started = 0;
    uint64_t span = 0;
    ReclaimCallback cb;
  };
  struct PendingDivert {
    FileCertificate cert;
    Bytes content;
    NodeDescriptor client;
    std::vector<NodeDescriptor> candidates;  // remaining targets to try
  };
  struct PendingAudit {
    FileId file_id;
    FileCertificate cert;
    EventQueue::EventId timer = 0;
    AuditCallback cb;
  };

  // Client side. Each request waits in its pending map under one timer:
  // ArmTimeout starts the request_timeout for the entry `key` (already in
  // `pending`), and on expiry hands the request, taken out of its map, to
  // `expire`. TakePending takes a request out and cancels its timer; it
  // returns nullopt once the request is answered or expired.
  template <typename Map, typename Expire>
  void ArmTimeout(Map* pending, const typename Map::key_type& key, Expire expire);
  template <typename Map>
  std::optional<typename Map::mapped_type> TakePending(Map* pending,
                                                       const typename Map::key_type& key);
  void BeginInsert(std::string name, Bytes content, Bytes content_hash, uint64_t size,
                   uint32_t k, InsertCallback cb);
  void StartInsertAttempt(PendingInsert state);
  void FailInsertAttempt(PendingInsert state, StatusCode reason);
  void HandleStoreReceipt(const NodeDescriptor& from, const StoreReceipt& receipt);
  void HandleStoreNack(const StoreNackPayload& nack);
  void HandleLookupReply(const LookupReplyPayload& reply);
  void HandleReclaimReceipt(const ReclaimReceipt& receipt);

  // Storage-node side. An insert fans out from the first node on its route
  // that knows the file's replica set (Forward), or else from the root.
  void HandleInsertAtRoot(const DeliverContext& ctx, InsertRequestPayload req);
  // Verifies the insert's certificate and sends StoreReplica to each of
  // `replicas`; NACKs the client instead if the certificate fails.
  void FanOutInsert(InsertRequestPayload req, const std::vector<NodeDescriptor>& replicas);
  void HandleLookupAtRoot(const DeliverContext& ctx, const LookupRequestPayload& req);
  void HandleReclaimAtRoot(ReclaimRequestPayload req);
  void HandleStoreReplica(const StoreReplicaPayload& req);
  void HandleDivertStore(const NodeDescriptor& from, const DivertStorePayload& req);
  void HandleDivertResult(const NodeDescriptor& from, const DivertResultPayload& res);
  void TryNextDiversion(const FileId& id);
  void HandleFetchRequest(const NodeDescriptor& from, const FetchRequestPayload& req);
  void HandleFetchReply(const FetchReplyPayload& reply);
  void HandleReclaimReplica(const ReclaimReplicaPayload& req);
  void HandleReplicaNotify(const NodeDescriptor& from, const ReplicaNotifyPayload& n);
  void HandleCachePush(const CachePushPayload& push);
  void HandleAuditChallenge(const NodeDescriptor& from,
                            const AuditChallengePayload& challenge);
  void HandleAuditResponse(const AuditResponsePayload& response);

  // Storage helpers. StorePrimary returns the store's status: a disk error
  // refuses the replica like any other rejection.
  StatusCode StorePrimary(const FileCertificate& cert, Bytes content, bool diverted,
                          const NodeDescriptor& diverted_from);
  // The answer this node can give a lookup of `id` from its own storage:
  // its replica, or else a cached copy.
  std::optional<LookupOutcome> ReadLocal(const FileId& id);
  // Answers `client` with `local`. `trace` is the lookup's route; its
  // forwarders get cache pushes.
  void ServeLookup(const NodeDescriptor& client, LookupOutcome local,
                   const std::vector<RouteHop>& trace);
  // The only places a store receipt or a store NACK is built.
  void SendStoreReceipt(const NodeDescriptor& client, const FileId& id, bool diverted);
  void SendStoreNack(const NodeDescriptor& client, const FileId& id, StatusCode reason);
  void MaybeCache(const FileCertificate& cert, ByteSpan content);
  // Proof-of-possession digest: SHA-256(content hash || nonce), computable
  // only by nodes that kept the file's certified record. (Full-content audits
  // would additionally hash the stored bytes; see DESIGN.md.)
  static Bytes AuditDigest(const FileCertificate& cert, uint64_t nonce);

  // Maintenance.
  void ScheduleMaintenance();
  void RunMaintenance();
  // A replica demoted on a view that proved wrong (one listing a crashed
  // member, say) is promoted back from its cached copy once the node is in
  // the file's set again, checked as a fetched replica is: the other
  // holders' views did not change, so no offer would bring it back. Runs
  // first in a pass, so the pass offers it like any other replica. Returns
  // the replicas promoted.
  uint64_t PromoteDemoted();

  // The store this node asks for: an empty one in memory without a card or
  // when the config's state_dir is empty, otherwise a durable one under
  // <state_dir>/<nodeId hex> (falling back to memory, with a warning, if the
  // directory cannot be opened).
  static std::unique_ptr<FileStore> MakeStore(PastContext& context, const NodeId& id,
                                              const Smartcard* card,
                                              MetricsRegistry& metrics);

  // Sends a payload record point to point under its kOp, encoded straight
  // into the wire.
  template <typename Payload>
  void SendOp(NodeAddr to, const Payload& payload) {
    SendOpMulti(std::span<const NodeAddr>(&to, 1), payload);
  }
  // Fan-out to several recipients: encode the wire once and share it, so a
  // bulk payload (file contents to k replicas) is one allocation, not k.
  // This node's own copy, if it is a target, is delivered at once through
  // ReceiveDirect, at its place in the list, as a view into that wire.
  template <typename Payload>
  void SendOpMulti(std::span<const NodeAddr> targets, const Payload& payload);
  // Routes a payload record toward `key` under its kOp; `parent_span` rides
  // the wire so remote hop spans attach under the issuing operation, and
  // replica_k is as in PastryNode::Route.
  template <typename Payload>
  void RouteOp(const U128& key, const Payload& payload, uint64_t parent_span,
               uint8_t replica_k = 0) {
    overlay_->Route(key, static_cast<uint32_t>(Payload::kOp), payload.Encode(), replica_k,
                    parent_span);
  }
  SimTime Now() const { return overlay_->queue()->Now(); }
  Tracer& tracer() { return overlay_->net()->tracer(); }
  // Stamps the op's terminal status and closes its span.
  void FinishOpSpan(uint64_t span, const char* status) {
    tracer().Annotate(span, "status", status);
    tracer().EndSpan(span, Now());
  }

  const PastContext::Instruments& obs() const { return ctx_->obs(); }

  PastryNode* overlay_;
  PastContext* ctx_;
  std::unique_ptr<Smartcard> card_;  // null for read-only client nodes
  Rng rng_;
  std::unique_ptr<FileStore> store_;
  Cache cache_;
  // Memo cache for certificate/receipt verification. Per node, so a restart
  // (new PastNode) starts empty and never serves results from a prior life.
  VerifyCache verify_cache_;

  std::unordered_map<U160, PendingInsert, U160Hash> pending_inserts_;
  std::unordered_map<U160, PendingLookup, U160Hash> pending_lookups_;
  std::unordered_map<U160, PendingReclaim, U160Hash> pending_reclaims_;
  std::unordered_map<U160, PendingDivert, U160Hash> pending_diverts_;
  std::unordered_map<uint64_t, PendingAudit> pending_audits_;  // by nonce
  std::unordered_map<U160, SharedCertificate, U160Hash> owned_files_;
  // This client's failed insert attempts of the last request_timeout, by
  // fileId, with the time each record expires: a late store receipt for one
  // of them is a replica to reclaim, a receipt for any other file is not.
  std::vector<std::pair<FileId, SimTime>> failed_attempts_;
  // Replicas maintenance demoted to cached copies; a later pass promotes one
  // back if the node is in the file's replica set again.
  std::unordered_set<U160, U160Hash> demoted_;

  EventQueue::EventId maintenance_timer_ = 0;
};

}  // namespace past

