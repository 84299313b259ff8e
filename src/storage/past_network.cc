#include "src/storage/past_network.h"

#include "src/common/check.h"

namespace past {

PastNetwork::PastNetwork(const PastNetworkOptions& options)
    : options_(options),
      broker_(options.overlay.seed ^ 0x9e3779b97f4a7c15ULL, options.broker),
      overlay_(options.overlay),
      context_(options.past, broker_.public_key(), overlay_.network().metrics()) {}

PastNode* PastNetwork::AddNode(uint64_t capacity, uint64_t quota) {
  Result<std::unique_ptr<Smartcard>> card = broker_.IssueCard(quota, capacity);
  if (!card.ok()) {
    return nullptr;
  }
  NodeId id = card.value()->DerivedNodeId();
  PastryNode* overlay_node = overlay_.AddNodeWithId(id);
  auto node = std::make_unique<PastNode>(overlay_node, context_, std::move(card).value(),
                                         overlay_.rng().NextU64());
  PastNode* raw = node.get();
  nodes_.push_back(std::move(node));
  return raw;
}

PastNode* PastNetwork::AddReadOnlyClient() {
  // A read-only user holds no card; its access point joins the overlay under
  // an ephemeral id (hash of a throwaway key).
  Bytes ephemeral_key = overlay_.rng().RandomBytes(64);
  PastryNode* overlay_node = overlay_.AddNodeWithId(NodeIdFromPublicKey(ephemeral_key));
  auto node = std::make_unique<PastNode>(overlay_node, context_, nullptr,
                                         overlay_.rng().NextU64());
  PastNode* raw = node.get();
  nodes_.push_back(std::move(node));
  return raw;
}

void PastNetwork::Build(int n) {
  for (int i = 0; i < n; ++i) {
    PastNode* node = AddNode();
    PAST_CHECK_MSG(node != nullptr, "broker refused a default card");
  }
}

PastNode* PastNetwork::NodeByAddr(NodeAddr addr) {
  for (auto& node : nodes_) {
    if (node->overlay()->addr() == addr) {
      return node.get();
    }
  }
  return nullptr;
}

PastNode* PastNetwork::RandomLiveNode() {
  std::vector<PastNode*> live;
  for (auto& node : nodes_) {
    if (node->overlay()->active()) {
      live.push_back(node.get());
    }
  }
  if (live.empty()) {
    return nullptr;
  }
  return live[overlay_.rng().PickIndex(live.size())];
}

template <typename R, typename Start>
R PastNetwork::Await(R on_expiry, int timeouts, Start start) {
  bool done = false;
  R result = std::move(on_expiry);
  start([&](R r) {
    result = std::move(r);
    done = true;
  });
  EventQueue& q = overlay_.queue();
  const SimTime deadline = q.Now() + context_.config().request_timeout * timeouts;
  const SimTime chunk = 100 * kMicrosPerMilli;
  while (!done && q.Now() < deadline) {
    q.RunUntil(std::min(q.Now() + chunk, deadline));
  }
  return result;
}

// An insert may take a request_timeout for each attempt, file diversion
// retries included; it gets one more, and every other operation two.
Result<FileId> PastNetwork::InsertSync(PastNode* client, std::string name,
                                       Bytes content, uint32_t k) {
  const int timeouts = context_.config().file_diversion_retries + 2;
  return Await<Result<FileId>>(StatusCode::kTimeout, timeouts, [&](auto cb) {
    client->Insert(std::move(name), std::move(content), k, std::move(cb));
  });
}

Result<FileId> PastNetwork::InsertSyntheticSync(PastNode* client, std::string name,
                                                uint64_t size, uint32_t k) {
  const int timeouts = context_.config().file_diversion_retries + 2;
  return Await<Result<FileId>>(StatusCode::kTimeout, timeouts, [&](auto cb) {
    client->InsertSynthetic(std::move(name), size, k, std::move(cb));
  });
}

Result<PastNode::LookupOutcome> PastNetwork::LookupSync(PastNode* client,
                                                        const FileId& id) {
  return Await<Result<PastNode::LookupOutcome>>(
      StatusCode::kTimeout, 2, [&](auto cb) { client->Lookup(id, std::move(cb)); });
}

StatusCode PastNetwork::ReclaimSync(PastNode* client, const FileId& id) {
  return Await(StatusCode::kTimeout, 2, [&](auto cb) { client->Reclaim(id, std::move(cb)); });
}

bool PastNetwork::AuditSync(PastNode* auditor, NodeAddr target, const FileId& id,
                            const FileCertificate& cert) {
  return Await(false, 2, [&](auto cb) { auditor->Audit(target, id, cert, std::move(cb)); });
}

void PastNetwork::CrashNode(size_t i) {
  PAST_CHECK(i < nodes_.size());
  nodes_[i]->overlay()->Fail();
}

PastNode* PastNetwork::RestartNode(size_t i) {
  PAST_CHECK(i < nodes_.size());
  PastryNode* overlay_node = nodes_[i]->overlay();
  PAST_CHECK_MSG(!overlay_node->active(), "RestartNode on a live node");
  std::unique_ptr<Smartcard> card = nodes_[i]->TakeCard();
  // Tear the dead application down before its replacement opens the same
  // state directory.
  nodes_[i].reset();
  nodes_[i] = std::make_unique<PastNode>(overlay_node, context_, std::move(card),
                                         overlay_.rng().NextU64());
  PastryNode* bootstrap = overlay_.NearestLiveNode(overlay_node->addr());
  overlay_node->Recover(bootstrap != nullptr ? bootstrap->addr()
                                             : overlay_node->addr());
  return nodes_[i].get();
}

int PastNetwork::CountReplicas(const FileId& id) const {
  int count = 0;
  for (const auto& node : nodes_) {
    if (node->overlay()->active() && node->store().Has(id)) {
      ++count;
    }
  }
  return count;
}

PastNetwork::StorageSummary PastNetwork::Summary() const {
  StorageSummary summary;
  for (const auto& node : nodes_) {
    if (!node->overlay()->active()) {
      continue;
    }
    summary.capacity += node->store().capacity();
    summary.primary_used += node->store().used();
    summary.cache_used += node->file_cache().used();
    summary.files += node->store().file_count();
    summary.pointers += node->store().pointer_count();
  }
  return summary;
}

}  // namespace past
