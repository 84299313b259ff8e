#include "src/storage/past_node.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/crypto/sha256.h"

namespace past {
namespace {

// Leaf members tried (sequentially) before giving up on a diversion. The
// SOSP scheme targets the leaf node with the most free space; probing the
// members achieves the same acceptance set without a free-space oracle.
constexpr int kDiversionCandidates = 32;

// Only files at most this fraction of the free space are cached.
constexpr double kCacheMaxFrac = 0.5;

// Replica maintenance runs this long after the last leaf-set change, so a
// burst of changes costs one pass.
constexpr SimTime kMaintenanceDelay = 500 * kMicrosPerMilli;

// Bound on each node's verified-signature memo cache (see VerifyCache).
constexpr size_t kVerifyCacheEntries = 4096;

Bytes ContentHashOf(ByteSpan content) {
  auto digest = Sha256::Hash(content);
  return Bytes(digest.begin(), digest.end());
}

// Do `content`'s bytes match the certified content hash? Empty content is a
// synthetic file's and has no bytes to check.
bool ContentMatches(const FileCertificate& cert, const Bytes& content) {
  return content.empty() || cert.MatchesContent(content);
}

// Is `id` one of `nodes`?
bool Lists(const std::vector<NodeDescriptor>& nodes, const NodeId& id) {
  return std::any_of(nodes.begin(), nodes.end(),
                     [&id](const NodeDescriptor& d) { return d.id == id; });
}

// Pseudo content hash for synthetic (metadata-only) files.
Bytes SyntheticContentHash(std::string_view name, uint64_t size) {
  Writer w;
  w.Str(name);
  w.U64(size);
  const Bytes& buf = w.bytes();
  auto digest = Sha256::Hash(ByteSpan(buf.data(), buf.size()));
  return Bytes(digest.begin(), digest.end());
}

}  // namespace

std::unique_ptr<FileStore> PastNode::MakeStore(PastContext& context, const NodeId& id,
                                               const Smartcard* card,
                                               MetricsRegistry& metrics) {
  CertificateTable& certs = context.certificates();
  const uint64_t capacity = card == nullptr ? 0 : card->contributed_storage();
  if (card == nullptr || context.config().state_dir.empty()) {
    return std::make_unique<FileStore>(capacity, metrics, certs);
  }
  const std::string dir = context.config().state_dir + "/" + id.ToHex();
  Result<std::unique_ptr<FileStore>> store =
      FileStore::Open(capacity, dir, context.config().disk, metrics, certs);
  if (!store.ok()) {
    PAST_WARN("node %s: cannot open durable store in %s (%s); running in memory",
              id.ToHex().c_str(), dir.c_str(), StatusCodeName(store.status()));
    return std::make_unique<FileStore>(capacity, metrics, certs);
  }
  return std::move(store).value();
}

PastNode::PastNode(PastryNode* overlay, PastContext& context,
                   std::unique_ptr<Smartcard> card, uint64_t seed)
    : overlay_(overlay),
      ctx_(&context),
      card_(std::move(card)),
      rng_(seed),
      store_(MakeStore(context, overlay->id(), card_.get(), overlay->net()->metrics())),
      cache_(context.config().cache_policy, overlay->net()->metrics(), context.contents(),
             context.certificates()),
      verify_cache_(kVerifyCacheEntries, overlay->net()->metrics()) {
  PAST_CHECK(overlay_ != nullptr);
  overlay_->SetApp(this);
}

PastNode::~PastNode() {
  EventQueue* q = overlay_->queue();
  q->Cancel(maintenance_timer_);
  auto cancel_timers = [q](const auto& pending) {
    for (const auto& entry : pending) {
      q->Cancel(entry.second.timer);
    }
  };
  cancel_timers(pending_inserts_);
  cancel_timers(pending_lookups_);
  cancel_timers(pending_reclaims_);
  cancel_timers(pending_audits_);
}

const FileCertificate* PastNode::OwnedFileCert(const FileId& id) const {
  auto it = owned_files_.find(id);
  return it == owned_files_.end() ? nullptr : it->second.get();
}

// --- client: request timeouts ------------------------------------------------------

template <typename Map, typename Expire>
void PastNode::ArmTimeout(Map* pending, const typename Map::key_type& key,
                          Expire expire) {
  pending->at(key).timer =
      overlay_->queue()->After(config().request_timeout, [this, pending, key, expire] {
        if (auto request = TakePending(pending, key)) {
          expire(std::move(*request));
        }
      });
}

template <typename Map>
std::optional<typename Map::mapped_type> PastNode::TakePending(
    Map* pending, const typename Map::key_type& key) {
  auto it = pending->find(key);
  if (it == pending->end()) {
    return std::nullopt;
  }
  std::optional<typename Map::mapped_type> request(std::move(it->second));
  pending->erase(it);
  overlay_->queue()->Cancel(request->timer);
  return request;
}

// --- direct sends --------------------------------------------------------------

template <typename Payload>
void PastNode::SendOpMulti(std::span<const NodeAddr> targets, const Payload& payload) {
  if (targets.empty()) {
    return;
  }
  const SharedBytes wire = overlay_->EncodeDirect(static_cast<uint32_t>(Payload::kOp), payload);
  for (NodeAddr to : targets) {
    if (to != overlay_->addr()) {
      overlay_->SendDirectWire(to, wire);
      continue;
    }
    // The self copy reads the payload out of the wire, as a receiver would.
    Reader r(wire.span());
    PastryMsgType type;
    AppDirectMsg self;
    PAST_CHECK(DecodeHeader(&r, &type) && DecodeBodyStrict(&r, &self));
    ReceiveDirect(overlay_->descriptor(), self.app_type, self.payload);
  }
}

// --- client: insert ------------------------------------------------------------

void PastNode::Insert(std::string name, Bytes content, uint32_t k, InsertCallback cb) {
  Bytes content_hash = ContentHashOf(ByteSpan(content.data(), content.size()));
  const uint64_t size = content.size();
  BeginInsert(std::move(name), std::move(content), std::move(content_hash), size, k,
              std::move(cb));
}

void PastNode::InsertSynthetic(std::string name, uint64_t size, uint32_t k,
                               InsertCallback cb) {
  Bytes content_hash = SyntheticContentHash(name, size);
  BeginInsert(std::move(name), Bytes{}, std::move(content_hash), size, k, std::move(cb));
}

void PastNode::BeginInsert(std::string name, Bytes content, Bytes content_hash,
                           uint64_t size, uint32_t k, InsertCallback cb) {
  PendingInsert state;
  state.name = std::move(name);
  state.content = std::move(content);
  state.content_hash = std::move(content_hash);
  state.size = size;
  state.k = k == 0 ? config().default_replication : k;
  state.cb = std::move(cb);
  state.started = Now();
  state.span = tracer().StartSpan("past.insert", Now(), overlay_->addr());
  tracer().Annotate(state.span, "file", state.name);
  StartInsertAttempt(std::move(state));
}

void PastNode::StartInsertAttempt(PendingInsert state) {
  if (card_ == nullptr) {
    FinishOpSpan(state.span, "not_authorized");
    state.cb(StatusCode::kNotAuthorized);  // read-only node
    return;
  }
  const uint64_t salt = rng_.NextU64();
  Result<FileCertificate> cert = card_->IssueFileCertificate(
      state.name, state.size, ByteSpan(state.content_hash.data(), state.content_hash.size()),
      state.k, salt, Now());
  if (!cert.ok()) {
    FinishOpSpan(state.span, StatusCodeName(cert.status()));
    state.cb(cert.status());
    return;
  }
  state.cert = std::move(cert).value();
  state.receipt_nodes.clear();
  const FileId id = state.cert.file_id;

  InsertRequestPayload payload;
  payload.cert = state.cert;
  payload.content = state.content;
  payload.client = overlay_->descriptor();

  const uint64_t span = state.span;
  pending_inserts_.emplace(id, std::move(state));
  ArmTimeout(&pending_inserts_, id, [this](PendingInsert request) {
    FailInsertAttempt(std::move(request), StatusCode::kTimeout);
  });
  RouteOp(id.Top128(), payload, span);
}

void PastNode::FailInsertAttempt(PendingInsert state, StatusCode reason) {
  const FileId id = state.cert.file_id;
  // Clean up any replicas that did get stored, receipted or not: a member's
  // NACK may beat every receipt. Then return the quota debit.
  ReclaimRequestPayload cleanup;
  cleanup.cert = card_->IssueReclaimCertificate(id, Now());
  cleanup.client = overlay_->descriptor();
  RouteOp(id.Top128(), cleanup, state.span);
  std::erase_if(failed_attempts_,
                [now = Now()](const auto& failed) { return failed.second <= now; });
  failed_attempts_.emplace_back(id, Now() + config().request_timeout);
  if (StatusCode refund = card_->RefundFileCertificate(state.cert);
      refund != StatusCode::kOk) {
    PAST_WARN("quota refund for '%s' failed: %s", state.name.c_str(),
              StatusCodeName(refund));
  }

  if (state.attempt < config().file_diversion_retries) {
    // File diversion: retry under a fresh salt, which maps the file to an
    // entirely different region of the id space (SOSP scheme).
    state.attempt += 1;
    PAST_DEBUG("file diversion retry %d for '%s'", state.attempt, state.name.c_str());
    StartInsertAttempt(std::move(state));
    return;
  }
  FinishOpSpan(state.span,
               reason == StatusCode::kTimeout ? "timeout" : "insert_rejected");
  state.cb(reason == StatusCode::kTimeout ? StatusCode::kTimeout
                                          : StatusCode::kInsertRejected);
}

void PastNode::HandleStoreReceipt(const NodeDescriptor& from, const StoreReceipt& receipt) {
  auto it = pending_inserts_.find(receipt.file_id);
  if (it == pending_inserts_.end()) {
    // A duplicate, or a late receipt of an attempt this client failed. The
    // attempt's clean-up may have reached the sender before its StoreReplica
    // did (a client that fans its insert out itself and refuses its own
    // replica fails the attempt, and sends the clean-up, before the rest of
    // the fan-out), so ask the sender to drop the replica. Most late receipts
    // are of replicas the routed clean-up reaches as well, and one of their
    // two reclaims frees nothing. A receipt for any other file, one inserted
    // before a restart say, is ignored: the client signs no reclaim for a
    // file it did not already reclaim.
    const bool failed = std::ranges::any_of(failed_attempts_, [&](const auto& attempt) {
      return attempt.first == receipt.file_id && attempt.second > Now();
    });
    if (failed && receipt.Verify(broker_key(), &verify_cache_)) {
      ReclaimReplicaPayload cleanup;
      cleanup.cert = card_->IssueReclaimCertificate(receipt.file_id, Now());
      cleanup.client = overlay_->descriptor();
      SendOp(from.addr, cleanup);
    }
    return;
  }
  PendingInsert& state = it->second;
  if (!receipt.Verify(broker_key(), &verify_cache_)) {
    obs().bad_certificates->Inc();
    return;
  }
  const NodeId node = receipt.node_card.DerivedNodeId();
  if (!state.receipt_nodes.insert(node).second) {
    return;  // duplicate node
  }
  if (state.receipt_nodes.size() < state.k) {
    return;
  }
  const FileId id = receipt.file_id;
  PendingInsert done = *TakePending(&pending_inserts_, id);
  owned_files_.emplace(id, ctx_->certificates().Intern(done.cert));
  obs().insert_latency->Observe(static_cast<double>(Now() - done.started));
  FinishOpSpan(done.span, "ok");
  done.cb(id);
}

void PastNode::HandleStoreNack(const StoreNackPayload& nack) {
  // A single refusal makes k receipts unreachable: fail the attempt now and
  // move on to file diversion.
  if (std::optional<PendingInsert> state = TakePending(&pending_inserts_, nack.file_id)) {
    FailInsertAttempt(std::move(*state), StatusCode::kInsufficientStorage);
  }
}

// --- client: lookup --------------------------------------------------------------

void PastNode::Lookup(const FileId& file_id, LookupCallback cb) {
  // Local fast path: this node may itself hold a replica or a cached copy.
  // Latency is observed (as zero) here too, so the quantiles reflect the
  // client's view, cache hits and all.
  if (std::optional<LookupOutcome> local = ReadLocal(file_id)) {
    (local->from_cache ? obs().lookups_served_cache : obs().lookups_served_store)->Inc();
    obs().lookup_latency->Observe(0.0);
    uint64_t span = tracer().RecordSpan("past.lookup", Now(), Now(), overlay_->addr());
    tracer().Annotate(span, "status", local->from_cache ? "local_cache" : "local_store");
    cb(std::move(*local));
    return;
  }
  if (pending_lookups_.count(file_id) > 0) {
    cb(StatusCode::kAlreadyExists);
    return;
  }
  PendingLookup pending;
  pending.cb = std::move(cb);
  pending.started = Now();
  pending.span = tracer().StartSpan("past.lookup", Now(), overlay_->addr());
  const uint64_t span = pending.span;
  pending_lookups_.emplace(file_id, std::move(pending));
  ArmTimeout(&pending_lookups_, file_id, [this](PendingLookup request) {
    FinishOpSpan(request.span, "timeout");
    request.cb(StatusCode::kNotFound);
  });

  LookupRequestPayload payload;
  payload.file_id = file_id;
  payload.client = overlay_->descriptor();
  // Any of the k replica holders can answer, so let routing deliver at the
  // proximally closest one (Section 2.2 locality: lookups tend to reach the
  // replica nearest the client).
  RouteOp(file_id.Top128(), payload, span, static_cast<uint8_t>(config().default_replication));
}

void PastNode::HandleLookupReply(const LookupReplyPayload& reply) {
  if (pending_lookups_.count(reply.cert.file_id) == 0) {
    return;  // duplicate answer from another replica
  }
  // Verify the certificate, and the content against the owner-signed hash.
  if (!reply.cert.Verify(broker_key(), &verify_cache_) ||
      !ContentMatches(reply.cert, reply.content)) {
    obs().bad_certificates->Inc();
    return;
  }
  PendingLookup done = *TakePending(&pending_lookups_, reply.cert.file_id);
  obs().lookup_latency->Observe(static_cast<double>(Now() - done.started));
  FinishOpSpan(done.span, "ok");
  // The client access point is on the lookup path too: cache the file here so
  // repeated local interest is served without another fetch.
  MaybeCache(reply.cert, reply.content);
  done.cb(LookupOutcome{reply.cert, reply.content, reply.from_cache, reply.replier});
}

// --- client: reclaim ---------------------------------------------------------------

void PastNode::Reclaim(const FileId& file_id, ReclaimCallback cb) {
  if (card_ == nullptr) {
    cb(StatusCode::kNotAuthorized);  // read-only node
    return;
  }
  auto owned = owned_files_.find(file_id);
  if (owned == owned_files_.end()) {
    cb(StatusCode::kNotFound);
    return;
  }
  if (pending_reclaims_.count(file_id) > 0) {
    cb(StatusCode::kAlreadyExists);
    return;
  }
  PendingReclaim pending;
  pending.cert = *owned->second;
  pending.cb = std::move(cb);
  pending.started = Now();
  pending.span = tracer().StartSpan("past.reclaim", Now(), overlay_->addr());
  const uint64_t span = pending.span;
  pending_reclaims_.emplace(file_id, std::move(pending));
  ArmTimeout(&pending_reclaims_, file_id, [this](PendingReclaim request) {
    FinishOpSpan(request.span, "timeout");
    request.cb(StatusCode::kTimeout);
  });

  ReclaimRequestPayload payload;
  payload.cert = card_->IssueReclaimCertificate(file_id, Now());
  payload.client = overlay_->descriptor();
  RouteOp(file_id.Top128(), payload, span);
}

void PastNode::HandleReclaimReceipt(const ReclaimReceipt& receipt) {
  if (pending_reclaims_.count(receipt.file_id) == 0) {
    return;  // receipts from the remaining replicas
  }
  if (!receipt.Verify(broker_key(), &verify_cache_)) {
    obs().bad_certificates->Inc();
    return;
  }
  PendingReclaim done = *TakePending(&pending_reclaims_, receipt.file_id);
  if (StatusCode credit = card_->CreditReclaim(receipt, done.cert);
      credit != StatusCode::kOk) {
    PAST_WARN("reclaim credit failed: %s", StatusCodeName(credit));
  }
  obs().reclaim_latency->Observe(static_cast<double>(Now() - done.started));
  FinishOpSpan(done.span, "ok");
  owned_files_.erase(receipt.file_id);
  done.cb(StatusCode::kOk);
}

// --- audits ------------------------------------------------------------------------

Bytes PastNode::AuditDigest(const FileCertificate& cert, uint64_t nonce) {
  Writer w;
  w.Blob(cert.content_hash);
  w.U64(nonce);
  const Bytes& buf = w.bytes();
  auto digest = Sha256::Hash(ByteSpan(buf.data(), buf.size()));
  return Bytes(digest.begin(), digest.end());
}

void PastNode::Audit(NodeAddr target, const FileId& file_id,
                     const FileCertificate& cert, AuditCallback cb) {
  // Audits are filed by nonce: one file may have several in flight, say one
  // per holder.
  const uint64_t nonce = rng_.NextU64();
  PendingAudit& pending = pending_audits_[nonce];
  pending.file_id = file_id;
  pending.cert = cert;
  pending.cb = std::move(cb);
  ArmTimeout(&pending_audits_, nonce, [](PendingAudit request) {
    request.cb(false);  // no proof within the deadline
  });
  AuditChallengePayload challenge;
  challenge.file_id = file_id;
  challenge.nonce = nonce;
  SendOp(target, challenge);
}

void PastNode::HandleAuditChallenge(const NodeDescriptor& from,
                                    const AuditChallengePayload& challenge) {
  AuditResponsePayload response;
  response.file_id = challenge.file_id;
  response.nonce = challenge.nonce;
  const StoredFile* f = store_->Get(challenge.file_id);
  if (f != nullptr) {
    response.has_file = true;
    response.digest = AuditDigest(*f->cert, challenge.nonce);
  } else {
    response.has_file = false;
  }
  SendOp(from.addr, response);
}

void PastNode::HandleAuditResponse(const AuditResponsePayload& response) {
  auto it = pending_audits_.find(response.nonce);
  if (it == pending_audits_.end() || it->second.file_id != response.file_id) {
    return;
  }
  PendingAudit done = *TakePending(&pending_audits_, response.nonce);
  Bytes expected = AuditDigest(done.cert, response.nonce);
  done.cb(response.has_file && ConstantTimeEqual(response.digest, expected));
}

// --- storage node: insert path -------------------------------------------------------

void PastNode::HandleInsertAtRoot(const DeliverContext& ctx, InsertRequestPayload req) {
  obs().inserts_rooted->Inc();
  const int k = static_cast<int>(req.cert.replication_factor);
  FanOutInsert(std::move(req), overlay_->ReplicaSet(ctx.key, k));
}

void PastNode::FanOutInsert(InsertRequestPayload req,
                            const std::vector<NodeDescriptor>& replicas) {
  if (!req.cert.Verify(broker_key(), &verify_cache_)) {
    obs().bad_certificates->Inc();
    SendStoreNack(req.client, req.cert.file_id, StatusCode::kVerificationFailed);
    return;
  }
  std::vector<NodeAddr> targets;
  for (const NodeDescriptor& d : replicas) {
    targets.push_back(d.addr);
  }
  StoreReplicaPayload replica;
  replica.cert = std::move(req.cert);
  replica.content = std::move(req.content);
  replica.client = req.client;
  replica.divert_allowed = config().enable_replica_diversion;
  SendOpMulti(targets, replica);
}

void PastNode::HandleStoreReplica(const StoreReplicaPayload& req) {
  const FileId id = req.cert.file_id;
  auto reject = [&](StatusCode reason) {
    obs().store_rejects->Inc();
    SendStoreNack(req.client, id, reason);
  };

  if (card_ == nullptr) {
    // Read-only access point: cannot issue store receipts.
    reject(StatusCode::kNotAuthorized);
    return;
  }
  // The content check catches bytes corrupted en route by faulty or
  // malicious intermediate nodes.
  if (!req.cert.Verify(broker_key(), &verify_cache_) ||
      !ContentMatches(req.cert, req.content)) {
    obs().bad_certificates->Inc();
    reject(StatusCode::kVerificationFailed);
    return;
  }
  if (store_->Has(id)) {
    // Idempotent: re-issue the receipt.
    SendStoreReceipt(req.client, id, store_->Get(id)->diverted);
    return;
  }
  if (!config().honest) {
    // Freeloader: issues a receipt but never stores. Random audits expose it.
    SendStoreReceipt(req.client, id, /*diverted=*/false);
    return;
  }

  const uint64_t size = req.cert.file_size;
  if (config().policy.AcceptPrimary(size, primary_free())) {
    if (StatusCode status = StorePrimary(req.cert, req.content, /*diverted=*/false,
                                         NodeDescriptor{});
        status != StatusCode::kOk) {
      reject(status);
      return;
    }
    obs().replicas_stored->Inc();
    SendStoreReceipt(req.client, id, /*diverted=*/false);
    return;
  }

  if (config().enable_replica_diversion && req.divert_allowed) {
    // Replica diversion (SOSP scheme): ask a leaf-set node that is not in the
    // file's replica set to hold the replica; keep a pointer here.
    std::vector<NodeDescriptor> replicas = overlay_->ReplicaSet(
        id.Top128(), static_cast<int>(req.cert.replication_factor));
    std::vector<NodeDescriptor> candidates;
    for (const NodeDescriptor& d : overlay_->leaf_set().Members()) {
      bool in_replica_set = false;
      for (const NodeDescriptor& r : replicas) {
        if (r.id == d.id) {
          in_replica_set = true;
          break;
        }
      }
      if (!in_replica_set) {
        candidates.push_back(d);
      }
    }
    rng_.Shuffle(&candidates);
    if (static_cast<int>(candidates.size()) > kDiversionCandidates) {
      candidates.resize(static_cast<size_t>(kDiversionCandidates));
    }
    if (!candidates.empty()) {
      PendingDivert divert;
      divert.cert = req.cert;
      divert.content = req.content;
      divert.client = req.client;
      divert.candidates = std::move(candidates);
      pending_diverts_[id] = std::move(divert);
      TryNextDiversion(id);
      return;
    }
  }
  reject(StatusCode::kInsufficientStorage);
}

void PastNode::SendStoreReceipt(const NodeDescriptor& client, const FileId& id,
                                bool diverted) {
  StoreReceiptPayload receipt;
  receipt.receipt = card_->IssueStoreReceipt(id, diverted, Now());
  SendOp(client.addr, receipt);
}

void PastNode::SendStoreNack(const NodeDescriptor& client, const FileId& id,
                             StatusCode reason) {
  StoreNackPayload nack;
  nack.file_id = id;
  nack.reason = static_cast<uint8_t>(reason);
  SendOp(client.addr, nack);
}

void PastNode::TryNextDiversion(const FileId& id) {
  auto it = pending_diverts_.find(id);
  if (it == pending_diverts_.end()) {
    return;
  }
  PendingDivert& state = it->second;
  if (state.candidates.empty()) {
    obs().store_rejects->Inc();
    SendStoreNack(state.client, id, StatusCode::kInsufficientStorage);
    pending_diverts_.erase(it);
    return;
  }
  NodeDescriptor target = state.candidates.back();
  state.candidates.pop_back();
  DivertStorePayload payload;
  payload.cert = state.cert;
  payload.content = state.content;
  payload.client = state.client;
  payload.primary = overlay_->descriptor();
  SendOp(target.addr, payload);
}

void PastNode::HandleDivertStore(const NodeDescriptor& from,
                                 const DivertStorePayload& req) {
  const FileId id = req.cert.file_id;
  DivertResultPayload result;
  result.file_id = id;
  result.client = req.client;
  result.accepted = false;
  if (card_ != nullptr && req.cert.Verify(broker_key(), &verify_cache_) &&
      config().honest && !store_->Has(id) &&
      config().policy.AcceptDiverted(req.cert.file_size, primary_free()) &&
      ContentMatches(req.cert, req.content) &&
      StorePrimary(req.cert, req.content, /*diverted=*/true, req.primary) ==
          StatusCode::kOk) {
    obs().diverted_accepted->Inc();
    result.accepted = true;
  }
  SendOp(from.addr, result);
}

void PastNode::HandleDivertResult(const NodeDescriptor& from,
                                  const DivertResultPayload& res) {
  auto it = pending_diverts_.find(res.file_id);
  if (it == pending_diverts_.end()) {
    return;
  }
  if (!res.accepted) {
    TryNextDiversion(res.file_id);
    return;
  }
  if (StatusCode status = store_->PutPointer(res.file_id, from);
      status != StatusCode::kOk) {
    // The replica is already on the diversion target; losing the pointer
    // only costs an indirection (maintenance re-fetches find it), so keep
    // the receipt path going but record the failure.
    PAST_WARN("diverted-pointer write failed: %s", StatusCodeName(status));
  }
  obs().diversions_ok->Inc();
  SendStoreReceipt(it->second.client, res.file_id, /*diverted=*/true);
  pending_diverts_.erase(it);
}

StatusCode PastNode::StorePrimary(const FileCertificate& cert, Bytes content,
                                  bool diverted, const NodeDescriptor& diverted_from) {
  const uint64_t size = cert.file_size;
  PAST_CHECK(size <= store_->free_space());
  // Cached copies yield to real replicas: shrink the cache so that primaries
  // plus cache never exceed the physical capacity.
  const uint64_t max_cache = store_->free_space() - size;
  cache_.ShrinkTo(max_cache);
  cache_.Remove(cert.file_id);
  StoredFile file;
  file.cert = ctx_->certificates().Intern(cert);
  file.diverted = diverted;
  file.diverted_from = diverted_from;
  return store_->Put(std::move(file), std::move(content));
}

// --- storage node: lookup path --------------------------------------------------------

std::optional<PastNode::LookupOutcome> PastNode::ReadLocal(const FileId& id) {
  if (Result<Bytes> content = store_->ReadContent(id); content.ok()) {
    return LookupOutcome{*store_->Get(id)->cert, std::move(content).value(),
                         /*from_cache=*/false, overlay_->descriptor()};
  }
  if (const CachedFile* f = cache_.Get(id)) {
    const ByteSpan bytes = f->content.span();
    return LookupOutcome{*f->cert, Bytes(bytes.begin(), bytes.end()), /*from_cache=*/true,
                         overlay_->descriptor()};
  }
  return std::nullopt;
}

void PastNode::ServeLookup(const NodeDescriptor& client, LookupOutcome local,
                           const std::vector<RouteHop>& trace) {
  LookupReplyPayload reply;
  reply.cert = std::move(local.cert);
  reply.content = std::move(local.content);
  reply.from_cache = local.from_cache;
  reply.replier = overlay_->descriptor();
  SendOp(client.addr, reply);
  (local.from_cache ? obs().lookups_served_cache : obs().lookups_served_store)->Inc();
  // Push cacheable copies to the nodes the lookup traversed (the SOSP scheme
  // caches along the lookup path; by Pastry's locality property the first
  // hops are close to the client). The route is at most O(log N) long;
  // trace[0].node is the source.
  if (cache_.policy() != CachePolicy::kNone) {
    std::vector<NodeAddr> targets;
    for (size_t i = 1; i < trace.size(); ++i) {
      NodeAddr target = trace[i].node;
      if (target == overlay_->addr() || target == client.addr) {
        continue;
      }
      targets.push_back(target);
    }
    if (!targets.empty()) {
      CachePushPayload push;
      push.cert = std::move(reply.cert);
      push.content = std::move(reply.content);
      SendOpMulti(targets, push);
    }
  }
}

void PastNode::HandleLookupAtRoot(const DeliverContext& ctx,
                                  const LookupRequestPayload& req) {
  const FileId id = req.file_id;
  if (Result<Bytes> content = store_->ReadContent(id); content.ok()) {
    ServeLookup(req.client,
                {*store_->Get(id)->cert, std::move(content).value(), /*from_cache=*/false,
                 overlay_->descriptor()},
                ctx.trace);
    return;
  }
  if (std::optional<NodeDescriptor> holder = store_->GetPointer(id)) {
    // Diverted replica: redirect to the node actually holding it.
    FetchRequestPayload fetch;
    fetch.file_id = id;
    fetch.client = req.client;
    fetch.for_lookup = true;
    SendOp(holder->addr, fetch);
    return;
  }
  if (const CachedFile* f = cache_.Get(id)) {
    const ByteSpan bytes = f->content.span();
    ServeLookup(req.client,
                {*f->cert, Bytes(bytes.begin(), bytes.end()), /*from_cache=*/true,
                 overlay_->descriptor()},
                ctx.trace);
    return;
  }
  // Not here (e.g. this node joined after the file was inserted and has not
  // finished fetching it). Ask the other likely replica holders; whoever has
  // the file answers the client directly. No answer -> client times out.
  std::vector<NodeDescriptor> replicas =
      overlay_->ReplicaSet(ctx.key, static_cast<int>(config().default_replication));
  FetchRequestPayload fetch;
  fetch.file_id = id;
  fetch.client = req.client;
  fetch.for_lookup = true;
  std::vector<NodeAddr> targets;
  for (const NodeDescriptor& d : replicas) {
    if (d.id != overlay_->id()) {
      targets.push_back(d.addr);
    }
  }
  SendOpMulti(targets, fetch);
}

void PastNode::HandleFetchRequest(const NodeDescriptor& from,
                                  const FetchRequestPayload& req) {
  std::optional<LookupOutcome> local = ReadLocal(req.file_id);
  if (req.for_lookup) {
    if (local) {
      ServeLookup(req.client, std::move(*local), {});
    }
    return;
  }
  FetchReplyPayload reply;
  reply.found = local.has_value();
  if (local) {
    reply.cert = std::move(local->cert);
    reply.content = std::move(local->content);
  }
  SendOp(from.addr, reply);
}

void PastNode::HandleFetchReply(const FetchReplyPayload& reply) {
  if (!reply.found) {
    return;
  }
  const FileId id = reply.cert.file_id;
  if (store_->Has(id)) {
    return;
  }
  // A fetched replica is checked as a primary one is.
  if (!reply.cert.Verify(broker_key(), &verify_cache_) ||
      !ContentMatches(reply.cert, reply.content)) {
    obs().bad_certificates->Inc();
    return;
  }
  // Maintenance fetch: this node is now among the k closest for the file, so
  // store it if it physically fits (recovery is not subject to t_pri).
  if (reply.cert.file_size <= primary_free() &&
      StorePrimary(reply.cert, reply.content, /*diverted=*/false,
                   NodeDescriptor{}) == StatusCode::kOk) {
    obs().maintenance_fetches->Inc();
  }
}

// --- storage node: reclaim path ----------------------------------------------------------

void PastNode::HandleReclaimAtRoot(ReclaimRequestPayload req) {
  if (!req.cert.Verify(broker_key(), &verify_cache_)) {
    obs().bad_certificates->Inc();
    return;
  }
  const FileId id = req.cert.file_id;
  int k = static_cast<int>(config().default_replication);
  if (const StoredFile* f = store_->Get(id)) {
    k = static_cast<int>(f->cert->replication_factor);
  }
  std::vector<NodeAddr> replicas;
  for (const NodeDescriptor& d : overlay_->ReplicaSet(id.Top128(), k)) {
    replicas.push_back(d.addr);
  }
  ReclaimReplicaPayload replica;
  replica.cert = std::move(req.cert);
  replica.client = req.client;
  SendOpMulti(replicas, replica);
}

void PastNode::HandleReclaimReplica(const ReclaimReplicaPayload& req) {
  const FileId id = req.cert.file_id;
  if (!req.cert.Verify(broker_key(), &verify_cache_)) {
    obs().bad_certificates->Inc();
    return;
  }
  if (const StoredFile* f = store_->Get(id)) {
    PAST_CHECK_MSG(card_ != nullptr, "cardless node cannot hold replicas");
    // Only the owner of the file certificate may reclaim.
    if (!(req.cert.owner.public_key == f->cert->owner.public_key)) {
      obs().bad_certificates->Inc();
      return;
    }
    // A receipt credits the owner's quota, so it certifies storage that is
    // actually freed: a removal the disk refuses sends none, and the
    // client's reclaim times out.
    const std::optional<uint64_t> freed = store_->Remove(id);
    if (!freed.has_value()) {
      return;
    }
    obs().reclaims_processed->Inc();
    ReclaimReceiptPayload receipt;
    receipt.receipt = card_->IssueReclaimReceipt(id, *freed, Now());
    SendOp(req.client.addr, receipt);
    return;
  }
  if (std::optional<NodeDescriptor> holder = store_->GetPointer(id)) {
    // A pointer the disk cannot drop stays, and so does the diverted
    // replica: forwarding the reclaim would leave a pointer to nothing.
    if (store_->RemovePointer(id)) {
      SendOp(holder->addr, req);
    }
    return;
  }
  // Cached copies carry no storage obligation, but reclaim drops them too.
  cache_.Remove(id);
}

// --- caching -------------------------------------------------------------------------------

void PastNode::MaybeCache(const FileCertificate& cert, ByteSpan content) {
  if (cache_.policy() == CachePolicy::kNone || store_->Has(cert.file_id) ||
      cache_.Contains(cert.file_id)) {
    return;
  }
  if (!cert.Verify(broker_key(), &verify_cache_)) {
    return;
  }
  const uint64_t available =
      card_ != nullptr ? primary_free() : config().read_only_cache_capacity;
  if (static_cast<double>(cert.file_size) >
      kCacheMaxFrac * static_cast<double>(available)) {
    return;
  }
  cache_.Insert(cert, content, available);
}

void PastNode::HandleCachePush(const CachePushPayload& push) {
  MaybeCache(push.cert, push.content);
}

// --- replica maintenance ---------------------------------------------------------------------

void PastNode::OnLeafSetChanged() { ScheduleMaintenance(); }

void PastNode::ScheduleMaintenance() {
  overlay_->queue()->Cancel(maintenance_timer_);
  maintenance_timer_ =
      overlay_->queue()->After(kMaintenanceDelay, [this] { RunMaintenance(); });
}

void PastNode::RunMaintenance() {
  if (!overlay_->active()) {
    return;
  }
  if (overlay_->LeafSetUnconfirmed()) {
    // A listed member may be dead: a pass now could place replica sets on
    // it and demote files this node must keep. Wait for the probes.
    ScheduleMaintenance();
    return;
  }
  const uint64_t span =
      tracer().StartSpan("past.maintenance", Now(), overlay_->addr());
  const uint64_t promotions = PromoteDemoted();
  uint64_t demotions = 0;
  uint64_t offers = 0;
  // Each file is offered to every other member of its replica set, and all
  // of one member's offers travel in one message, in first-offered order.
  std::vector<std::pair<NodeAddr, ReplicaNotifyPayload>> notices;
  for (const FileId& id : store_->FileIds()) {
    const StoredFile* f = store_->Get(id);
    if (f == nullptr || f->diverted) {
      continue;  // the pointer-holding primary manages diverted replicas
    }
    bool self_in = false;
    for (const NodeDescriptor& d : overlay_->ReplicaSet(
             id.Top128(), static_cast<int>(f->cert->replication_factor))) {
      if (d.id == overlay_->id()) {
        self_in = true;
        continue;
      }
      auto notice = std::find_if(notices.begin(), notices.end(),
                                 [&d](const auto& n) { return n.first == d.addr; });
      if (notice == notices.end()) {
        notice = notices.emplace(notices.end(), d.addr, ReplicaNotifyPayload{});
      }
      notice->second.offers.push_back({id, f->cert->file_size});
      ++offers;
    }
    // No longer responsible: drop the replica once it is offered to the
    // current replica set above, and keep its bytes as a cached copy, so a
    // member whose only offer came from here can still fetch it. A removal
    // the disk refuses keeps the replica; the next pass retries it.
    if (self_in) {
      continue;
    }
    const SharedCertificate cert = f->cert;
    Result<Bytes> content = store_->ReadContent(id);
    if (store_->Remove(id).has_value()) {
      ++demotions;
      obs().demotions->Inc();
      if (content.ok()) {
        MaybeCache(*cert, content.value());
      }
      if (cache_.Contains(id)) {
        demoted_.insert(id);
      }
    }
  }
  for (const auto& [to, notify] : notices) {
    SendOp(to, notify);
  }
  obs().replica_offers->Inc(offers);
  obs().replica_offer_msgs->Inc(notices.size());
  tracer().Annotate(span, "demotions", std::to_string(demotions));
  tracer().Annotate(span, "promotions", std::to_string(promotions));
  tracer().Annotate(span, "offers", std::to_string(offers));
  tracer().Annotate(span, "offer_msgs", std::to_string(notices.size()));
  tracer().EndSpan(span, Now());
}

uint64_t PastNode::PromoteDemoted() {
  uint64_t promotions = 0;
  for (auto it = demoted_.begin(); it != demoted_.end();) {
    const CachedFile* cached = cache_.Peek(*it);
    if (cached == nullptr) {
      it = demoted_.erase(it);  // evicted, or dropped by a reclaim
      continue;
    }
    if (!Lists(overlay_->ReplicaSet(it->Top128(),
                                    static_cast<int>(cached->cert->replication_factor)),
               overlay_->id())) {
      ++it;
      continue;
    }
    const SharedCertificate cert = cached->cert;
    const ByteSpan bytes = cached->content.span();
    Bytes content(bytes.begin(), bytes.end());
    if (cert->file_size <= primary_free() && cert->Verify(broker_key(), &verify_cache_) &&
        ContentMatches(*cert, content) &&
        StorePrimary(*cert, std::move(content), /*diverted=*/false, NodeDescriptor{}) ==
            StatusCode::kOk) {
      ++promotions;
      obs().maintenance_fetches->Inc();
    }
    it = demoted_.erase(it);
  }
  return promotions;
}

void PastNode::HandleReplicaNotify(const NodeDescriptor& from,
                                   const ReplicaNotifyPayload& n) {
  for (const ReplicaOffer& offer : n.offers) {
    if (store_->Has(offer.file_id) || offer.file_size > primary_free()) {
      continue;
    }
    FetchRequestPayload fetch;
    fetch.file_id = offer.file_id;
    fetch.for_lookup = false;
    SendOp(from.addr, fetch);
  }
}

// --- PastryApp dispatch -------------------------------------------------------------------------

void PastNode::Deliver(const DeliverContext& ctx, ByteSpan payload) {
  Reader r(payload);
  if (!PastPayloads::Visit(
          static_cast<PastOp>(ctx.app_type), &r,
          Overloaded{
              [&](InsertRequestPayload&& req) { HandleInsertAtRoot(ctx, std::move(req)); },
              [&](const LookupRequestPayload& req) { HandleLookupAtRoot(ctx, req); },
              [&](ReclaimRequestPayload&& req) { HandleReclaimAtRoot(std::move(req)); },
          })) {
    PAST_WARN("PAST node %u: unexpected routed op %u", overlay_->addr(), ctx.app_type);
  }
}

bool PastNode::Forward(const U128& key, uint32_t app_type, const NodeDescriptor& next,
                       Bytes* payload) {
  (void)next;
  switch (static_cast<PastOp>(app_type)) {
    case PastOp::kInsertRequest: {
      InsertRequestPayload req;
      if (!InsertRequestPayload::Decode(ByteSpan(payload->data(), payload->size()),
                                        &req)) {
        return true;
      }
      // A node that knows the file's replica set sends the replicas itself
      // and absorbs the request, which saves the root's relay leg. A node
      // outside the set caches the file, as every transit node does.
      const std::optional<std::vector<NodeDescriptor>> replicas =
          overlay_->KnownReplicaSet(key, static_cast<int>(req.cert.replication_factor));
      if (!replicas.has_value() || !Lists(*replicas, overlay_->id())) {
        MaybeCache(req.cert, req.content);
      }
      if (!replicas.has_value()) {
        return true;
      }
      obs().inserts_fanned_early->Inc();
      FanOutInsert(std::move(req), *replicas);
      return false;
    }
    case PastOp::kLookupRequest: {
      LookupRequestPayload req;
      if (!LookupRequestPayload::Decode(ByteSpan(payload->data(), payload->size()),
                                        &req)) {
        return true;
      }
      // A transit node holding the file (replica or cached copy) answers
      // directly and absorbs the request — the paper's query load balancing.
      if (std::optional<LookupOutcome> local = ReadLocal(req.file_id)) {
        ServeLookup(req.client, std::move(*local), {});
        return false;
      }
      return true;
    }
    default:
      return true;
  }
}

void PastNode::ReceiveDirect(const NodeDescriptor& from, uint32_t app_type,
                             ByteSpan payload) {
  Reader r(payload);
  if (!PastPayloads::Visit(
          static_cast<PastOp>(app_type), &r,
          Overloaded{
              [&](const StoreReplicaPayload& req) { HandleStoreReplica(req); },
              [&](const DivertStorePayload& req) { HandleDivertStore(from, req); },
              [&](const DivertResultPayload& res) { HandleDivertResult(from, res); },
              [&](const StoreReceiptPayload& msg) { HandleStoreReceipt(from, msg.receipt); },
              [&](const StoreNackPayload& nack) { HandleStoreNack(nack); },
              [&](const LookupReplyPayload& reply) { HandleLookupReply(reply); },
              [&](const FetchRequestPayload& req) { HandleFetchRequest(from, req); },
              [&](const FetchReplyPayload& reply) { HandleFetchReply(reply); },
              [&](const ReclaimReplicaPayload& req) { HandleReclaimReplica(req); },
              [&](const ReclaimReceiptPayload& msg) { HandleReclaimReceipt(msg.receipt); },
              [&](const CachePushPayload& push) { HandleCachePush(push); },
              [&](const ReplicaNotifyPayload& n) { HandleReplicaNotify(from, n); },
              [&](const AuditChallengePayload& challenge) {
                HandleAuditChallenge(from, challenge);
              },
              [&](const AuditResponsePayload& response) { HandleAuditResponse(response); },
          })) {
    PAST_WARN("PAST node %u: unexpected direct op %u", overlay_->addr(), app_type);
  }
}

}  // namespace past
