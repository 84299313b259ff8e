#include "src/pastry/pastry_node.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace past {
namespace {

// Hard cap on overlay hops; generously above ceil(log_16 N) for any feasible
// N, so it only trips on routing loops (a bug) or pathological churn.
constexpr uint16_t kMaxHops = 64;

// A routed message or join whose next hop fails to ack is sent on again at
// most this many times before it is dropped.
constexpr int kMaxRerouteAttempts = 16;

// True when `x` lies strictly inside the shorter ring arc between `a` and `b`.
bool OnShorterArc(const U128& a, const U128& b, const U128& x) {
  const U128 up = b.Sub(a);  // walking upward from a to b
  const U128 down = a.Sub(b);
  const U128 from_low = up <= down ? x.Sub(a) : x.Sub(b);
  return U128::Zero() < from_low && from_low < (up <= down ? up : down);
}

}  // namespace

PastryNode::PastryNode(PastryContext& context, const NodeId& id, uint64_t seed)
    : ctx_(&context),
      id_(id),
      addr_(kInvalidAddr),
      rng_(seed),
      rt_(id, context.config(), [this](NodeAddr a) { return net()->Proximity(addr_, a); },
          context.intern()),
      leaf_(id, context.config().leaf_set_size, context.intern()),
      nb_(id, context.config().neighborhood_size,
          [this](NodeAddr a) { return net()->Proximity(addr_, a); }, context.intern()) {
  addr_ = net()->Register(this);
}

PastryNode::~PastryNode() = default;

void PastryNode::CancelMaintTimer(EventQueue::EventId* timer) {
  if (*timer != 0) {
    queue()->Cancel(*timer);
    *timer = 0;
  }
}

uint64_t PastryNode::NextSeq() {
  return (static_cast<uint64_t>(addr_) << 32) | (++seq_counter_ & 0xffffffffULL);
}

void PastryNode::SendWire(NodeAddr to, SharedBytes wire, bool join_traffic,
                          bool maintenance) {
  obs().msgs_sent->Inc();
  if (join_traffic) {
    obs().join_msgs->Inc();
  }
  if (maintenance) {
    obs().maintenance_msgs->Inc();
  }
  net()->Send(addr_, to, std::move(wire));
}

// --- lifecycle ---------------------------------------------------------------

void PastryNode::Bootstrap() {
  PAST_CHECK(!active_);
  active_ = true;
  joining_ = false;
  ScheduleKeepAlive();
}

void PastryNode::Join(NodeAddr bootstrap) {
  PAST_CHECK(!active_);
  PAST_CHECK(bootstrap != addr_);
  joining_ = true;
  join_bootstrap_ = bootstrap;
  SendJoinRequest();
}

void PastryNode::SendJoinRequest() {
  join_seq_ = NextSeq();
  JoinRequestMsg req;
  req.joiner = descriptor();
  req.hops = 0;
  req.seq = join_seq_;
  SendMsg(join_bootstrap_, req, /*join_traffic=*/true);
  // Retry if the join gets lost (bootstrap died, message dropped).
  CancelMaintTimer(&join_retry_timer_);
  join_retry_timer_ = queue()->AtMaintenance(queue()->Now() + kJoinRetryTimeout, [this] {
    join_retry_timer_ = 0;
    if (joining_) {
      PAST_DEBUG("node %s retrying join", id_.ToHex().substr(0, 8).c_str());
      SendJoinRequest();
    }
  });
}

void PastryNode::Fail() {
  active_ = false;
  joining_ = false;
  malicious_ = false;
  net()->SetUp(addr_, false);
  CancelMaintTimer(&keep_alive_timer_);
  CancelMaintTimer(&join_retry_timer_);
  for (auto& [seq, pending] : pending_acks_) {
    if (pending.timer != 0) {
      queue()->Cancel(pending.timer);
    }
  }
  pending_acks_.clear();
  probes_.clear();
  death_list_.clear();
}

void PastryNode::Recover(NodeAddr fallback_bootstrap) {
  PAST_CHECK(!active_ && !joining_);
  net()->SetUp(addr_, true);
  // Paper: "A recovering node contacts the nodes in its last known leaf set".
  // Fail() leaves the leaf set as it was at the crash.
  NodeAddr bootstrap = fallback_bootstrap;
  for (const auto& member : leaf_.Members()) {
    if (member.valid() && member.addr != addr_ && net()->IsUp(member.addr)) {
      bootstrap = member.addr;
      break;
    }
  }
  rt_.Clear();
  leaf_.Clear();
  nb_.Clear();
  Join(bootstrap);
}

void PastryNode::ActivateSeeded() {
  PAST_CHECK(!active_ && !joining_);
  active_ = true;
  ScheduleKeepAlive();
}

size_t PastryNode::MemoryUsage() const {
  size_t bytes = sizeof(*this);
  bytes += rt_.MemoryUsage() - sizeof(rt_);
  bytes += leaf_.MemoryUsage() - sizeof(leaf_);
  bytes += nb_.MemoryUsage() - sizeof(nb_);
  // Hash maps: node per element plus the bucket pointer array (approximate,
  // the idiom used across the repo's MemoryUsage accounting).
  auto map_bytes = [](size_t elems, size_t buckets, size_t entry_size) {
    return elems * (entry_size + 2 * sizeof(void*)) + buckets * sizeof(void*);
  };
  bytes += map_bytes(pending_acks_.size(), pending_acks_.bucket_count(),
                     sizeof(uint64_t) + sizeof(PendingAck));
  bytes += probes_.capacity() * sizeof(probes_[0]);
  bytes += map_bytes(death_list_.size(), death_list_.bucket_count(),
                     sizeof(U128) + sizeof(SimTime));
  return bytes;
}

std::optional<std::vector<NodeDescriptor>> PastryNode::KnownReplicaSet(const U128& key,
                                                                       int k) const {
  // A side that is not full admits any node, one from the far side of the
  // ring included, so full sides prove the span only with no member on both
  // and once the repair that refills a short side has been answered.
  if (!leaf_.Complete() ||
      leaf_.size() != 2 * static_cast<size_t>(leaf_.capacity_per_side()) ||
      LeafSetUnconfirmed()) {
    return std::nullopt;
  }
  std::vector<NodeDescriptor> set = ReplicaSet(key, k);
  const NodeId smaller_edge = leaf_.FarthestSmaller().id;
  const NodeId larger_edge = leaf_.FarthestLarger().id;
  for (const NodeDescriptor& d : set) {
    if (d.id == smaller_edge || d.id == larger_edge) {
      return std::nullopt;
    }
  }
  return set;
}

bool PastryNode::LeafSetUnconfirmed() const {
  return std::any_of(probes_.begin(), probes_.end(), [this](const PendingProbe& probe) {
    return leaf_.Contains(probe.node.id);
  });
}

// --- routing -----------------------------------------------------------------

uint64_t PastryNode::Route(const U128& key, uint32_t app_type, Bytes payload,
                           uint8_t replica_k, uint64_t parent_span) {
  PAST_CHECK_MSG(active_, "Route() on an inactive node");
  RouteMsg msg;
  msg.key = key;
  msg.source = descriptor();
  msg.app_type = app_type;
  msg.seq = NextSeq();
  msg.parent_span = parent_span;
  msg.replica_k = replica_k;
  msg.payload = std::move(payload);
  uint64_t seq = msg.seq;
  ProcessRouteMsg(std::move(msg), 0);
  return seq;
}

void PastryNode::SendDirectWire(NodeAddr to, SharedBytes wire) {
  PAST_CHECK_MSG(active_, "SendDirectWire() on an inactive node");
  SendWire(to, std::move(wire), /*join_traffic=*/false, /*maintenance=*/false);
}

std::vector<NodeDescriptor> PastryNode::CandidateHops(const U128& key, int min_prefix,
                                                      const U128& self_dist) const {
  std::vector<NodeDescriptor> out;
  auto consider = [&](const NodeDescriptor& d) {
    if (!d.valid() || d.id == id_) {
      return;
    }
    if (d.id.SharedPrefixLength(key, config().b) < min_prefix) {
      return;
    }
    if (!(d.id.RingDistance(key) < self_dist)) {
      return;
    }
    for (const auto& existing : out) {
      if (existing.id == d.id) {
        return;
      }
    }
    out.push_back(d);
  };
  for (const auto& d : leaf_.Members()) {
    consider(d);
  }
  for (const auto& d : rt_.Entries()) {
    consider(d);
  }
  for (const auto& d : nb_.Members()) {
    consider(d);
  }
  std::sort(out.begin(), out.end(),
            [&](const NodeDescriptor& a, const NodeDescriptor& b) {
              int pa = a.id.SharedPrefixLength(key, config().b);
              int pb = b.id.SharedPrefixLength(key, config().b);
              if (pa != pb) {
                return pa > pb;
              }
              U128 da = a.id.RingDistance(key);
              U128 db = b.id.RingDistance(key);
              if (da != db) {
                return da < db;
              }
              return a.id < b.id;
            });
  return out;
}

std::optional<PastryNode::RouteChoice> PastryNode::NextHop(const U128& key,
                                                           uint8_t replica_k) {
  if (key == id_) {
    return std::nullopt;
  }
  const NodeDescriptor self = descriptor();
  const U128 self_dist = id_.RingDistance(key);

  if (leaf_.CoversKey(key)) {
    if (replica_k > 0) {
      // Any of the replica_k ring-closest nodes can deliver. If we are one of
      // them, deliver here; otherwise jump to the proximally closest of them.
      std::vector<NodeDescriptor> members =
          leaf_.ClosestMembers(key, self, replica_k);
      NodeDescriptor nearest;
      double nearest_dist = 0.0;
      for (const NodeDescriptor& d : members) {
        if (d.id == id_) {
          return std::nullopt;  // we hold a replica: deliver here
        }
        double dist = net()->Proximity(addr_, d.addr);
        if (!nearest.valid() || dist < nearest_dist) {
          nearest = d;
          nearest_dist = dist;
        }
      }
      if (nearest.valid()) {
        return RouteChoice{nearest, RouteRule::kReplicaShortcut};
      }
      return std::nullopt;
    }
    NodeDescriptor best = leaf_.ClosestTo(key, self, /*include_self=*/true);
    if (!best.valid() || best.id == id_) {
      return std::nullopt;  // we are the numerically closest node we know
    }
    if (!config().randomized_routing) {
      return RouteChoice{best, RouteRule::kLeafSet};
    }
    // Randomized: any leaf member strictly closer than self preserves
    // progress; bias heavily toward the closest.
    std::vector<NodeDescriptor> alts;
    alts.push_back(best);
    for (const auto& d : leaf_.Members()) {
      if (d.id != best.id && d.id.RingDistance(key) < self_dist) {
        alts.push_back(d);
      }
    }
    if (alts.size() > 1 && rng_.Bernoulli(config().randomize_epsilon)) {
      return RouteChoice{alts[1 + rng_.PickIndex(alts.size() - 1)],
                         RouteRule::kLeafSet};
    }
    return RouteChoice{alts[0], RouteRule::kLeafSet};
  }

  const int row = id_.SharedPrefixLength(key, config().b);
  std::optional<NodeDescriptor> entry = rt_.Get(row, key.Digit(row, config().b));

  if (!config().randomized_routing) {
    if (entry.has_value()) {
      return RouteChoice{*entry, RouteRule::kRoutingTable};
    }
    // Rare case: no routing-table entry. Use any known node with an
    // at-least-as-long prefix that is numerically closer.
    std::vector<NodeDescriptor> cands = CandidateHops(key, row, self_dist);
    if (cands.empty()) {
      return std::nullopt;
    }
    return RouteChoice{cands[0], RouteRule::kRareCase};
  }

  std::vector<NodeDescriptor> cands = CandidateHops(key, row, self_dist);
  if (entry.has_value()) {
    // Put the routing-table entry first (it is the "best" choice: one digit
    // of progress with proximity-optimized selection).
    std::vector<NodeDescriptor> reordered;
    reordered.push_back(*entry);
    for (const auto& d : cands) {
      if (d.id != entry->id) {
        reordered.push_back(d);
      }
    }
    cands = std::move(reordered);
  }
  if (cands.empty()) {
    return std::nullopt;
  }
  // Attribution under randomization: the proper routing-table entry counts
  // as a table hop; any other pick came from the fallback scan.
  NodeDescriptor chosen = cands[0];
  if (cands.size() > 1 && rng_.Bernoulli(config().randomize_epsilon)) {
    chosen = cands[1 + rng_.PickIndex(cands.size() - 1)];
  }
  RouteRule rule = (entry.has_value() && chosen.id == entry->id)
                       ? RouteRule::kRoutingTable
                       : RouteRule::kRareCase;
  return RouteChoice{chosen, rule};
}

void PastryNode::ProcessRouteMsg(RouteMsg msg, int attempts) {
  obs().routed_seen->Inc();
  std::optional<RouteChoice> next = NextHop(msg.key, msg.replica_k);
  if (next.has_value() && msg.replica_k > 0) {
    // Replica-aware final hops jump by proximity, and two nodes with
    // divergent leaf views could bounce a message between them; if the chosen
    // hop was already visited (this node or a decider on the trace), fall
    // back to strict closest-node routing (which provably makes ring
    // progress).
    const NodeAddr hop = next->next.addr;
    if (hop == addr_ || std::any_of(msg.trace.begin(), msg.trace.end(),
                                    [hop](const RouteHop& h) { return h.node == hop; })) {
      next = NextHop(msg.key, 0);
    }
  }
  if (!next.has_value()) {
    obs().route_hops->Observe(static_cast<double>(msg.trace.size()));
    if (app_ != nullptr) {
      DeliverContext ctx;
      ctx.key = msg.key;
      ctx.app_type = msg.app_type;
      ctx.source = msg.source;
      ctx.trace = std::move(msg.trace);
      ctx.delivered_at = addr_;
      app_->Deliver(ctx, ByteSpan(msg.payload.data(), msg.payload.size()));
    }
    return;
  }
  if (app_ != nullptr &&
      !app_->Forward(msg.key, msg.app_type, next->next, &msg.payload)) {
    return;  // absorbed by the application (e.g. answered from cache)
  }
  obs().forwarded->Inc();
  ForwardTo(*next, std::move(msg), attempts);
}

void PastryNode::ForwardTo(const RouteChoice& choice, RouteMsg msg, int attempts) {
  const NodeDescriptor& next = choice.next;
  if (msg.trace.size() >= kMaxHops) {
    PAST_WARN("dropping message %llu: hop limit reached",
              static_cast<unsigned long long>(msg.seq));
    return;
  }
  RouteMsg original = msg;  // pre-hop state, for re-routing on ack timeout
  const double hop_distance = ProximityTo(next.addr);
  msg.trace.push_back(RouteHop{addr_, choice.rule, hop_distance, queue()->Now()});
  obs().rule_hops[static_cast<uint8_t>(choice.rule)]->Inc();
  obs().hop_distance->Observe(hop_distance);

  AwaitHopAck(msg.seq, std::move(original), next, attempts);
  SendMsg(next.addr, msg);
}

void PastryNode::AwaitHopAck(uint64_t seq, std::variant<RouteMsg, JoinRequestMsg> msg,
                             const NodeDescriptor& next, int attempts) {
  if (!config().per_hop_acks) {
    return;
  }
  auto [it, inserted] = pending_acks_.try_emplace(seq);
  if (!inserted && it->second.timer != 0) {
    queue()->Cancel(it->second.timer);
  }
  it->second.msg = std::move(msg);
  it->second.next = next;
  it->second.attempts = attempts;
  it->second.timer = queue()->After(config().ack_timeout, [this, seq] { OnHopTimeout(seq); });
}

void PastryNode::OnHopTimeout(uint64_t seq) {
  // No ack: assume the hop is dead, repair, and send the pre-hop message on
  // again.
  auto it = pending_acks_.find(seq);
  if (it == pending_acks_.end()) {
    return;
  }
  PendingAck pending = std::move(it->second);
  pending_acks_.erase(it);
  obs().reroutes->Inc();
  DeclareFailed(pending.next);
  const int attempts = pending.attempts + 1;
  if (attempts >= kMaxRerouteAttempts || !active_) {
    return;
  }
  if (RouteMsg* route = std::get_if<RouteMsg>(&pending.msg)) {
    ProcessRouteMsg(std::move(*route), attempts);
  } else {
    ForwardJoin(std::move(std::get<JoinRequestMsg>(pending.msg)), attempts);
  }
}

// --- join protocol ------------------------------------------------------------

void PastryNode::HandleJoinRequest(NodeAddr from, JoinRequestMsg msg) {
  if (!active_ || msg.joiner.id == id_) {
    // Not in the overlay (failed, or not yet rejoined), or the join looped
    // back to the joiner itself: stay silent so the forwarder's hop timeout
    // fires.
    return;
  }
  if (config().per_hop_acks && from != msg.joiner.addr) {
    // Ack the forwarder so it can clear its in-flight join-hop record.
    RouteAckMsg ack;
    ack.seq = msg.seq;
    SendMsg(from, ack, /*join_traffic=*/true);
  }
  // Contribute routing-table rows 0..shl to the joiner. Rows below the shared
  // prefix length still contain useful candidates for the joiner because the
  // row constraint is relative to the *shared* prefix.
  const int shl = id_.SharedPrefixLength(msg.joiner.id, config().b);
  JoinRowsMsg rows_msg;
  rows_msg.sender = descriptor();
  for (int r = 0; r <= shl && r < rt_.rows(); ++r) {
    std::vector<NodeDescriptor> row = rt_.Row(r);
    if (!row.empty()) {
      rows_msg.rows.push_back(JoinRow{static_cast<uint16_t>(r), std::move(row)});
    }
  }
  SendMsg(msg.joiner.addr, rows_msg, /*join_traffic=*/true);

  if (msg.hops == 0) {
    // First node on the join path (assumed proximally close to the joiner):
    // hand over the neighborhood set.
    JoinNeighborhoodMsg nb_msg;
    nb_msg.sender = descriptor();
    nb_msg.neighbors = nb_.Members();
    SendMsg(msg.joiner.addr, nb_msg, /*join_traffic=*/true);
  }

  ForwardJoin(std::move(msg), 0);
}

void PastryNode::ForwardJoin(JoinRequestMsg msg, int attempts) {
  std::optional<RouteChoice> next = NextHop(msg.joiner.id, 0);
  if (next.has_value() && next->next.id != msg.joiner.id && msg.hops < kMaxHops) {
    JoinRequestMsg fwd = msg;
    fwd.hops += 1;
    const uint64_t seq = msg.seq;
    AwaitHopAck(seq, std::move(msg), next->next, attempts);
    SendMsg(next->next.addr, fwd, /*join_traffic=*/true);
    return;
  }
  // This node is numerically closest to the joiner: hand over the leaf set.
  JoinLeafSetMsg leaf_msg;
  leaf_msg.sender = descriptor();
  leaf_msg.leaves = leaf_.Members();
  leaf_msg.seq = msg.seq;
  SendMsg(msg.joiner.addr, leaf_msg, /*join_traffic=*/true);
}

void PastryNode::HandleJoinRows(const JoinRowsMsg& msg) {
  Learn(msg.sender);
  for (const JoinRow& row : msg.rows) {
    for (const auto& d : row.entries) {
      LearnSecondHand(d);
    }
  }
}

void PastryNode::HandleJoinNeighborhood(const JoinNeighborhoodMsg& msg) {
  Learn(msg.sender);
  for (const auto& d : msg.neighbors) {
    LearnSecondHand(d);
  }
}

void PastryNode::HandleJoinLeafSet(const JoinLeafSetMsg& msg) {
  Learn(msg.sender);
  for (const auto& d : msg.leaves) {
    LearnSecondHand(d);
  }
  if (joining_) {
    FinalizeJoin();
  }
}

void PastryNode::FinalizeJoin() {
  joining_ = false;
  active_ = true;
  CancelMaintTimer(&join_retry_timer_);
  // Announce arrival to every node now present in our state, so they fold us
  // into their tables (restoring all Pastry invariants).
  AnnounceArrivalMsg announce;
  announce.joiner = descriptor();
  std::vector<NodeDescriptor> targets = rt_.Entries();
  for (const auto& d : leaf_.Members()) {
    targets.push_back(d);
  }
  for (const auto& d : nb_.Members()) {
    targets.push_back(d);
  }
  std::sort(targets.begin(), targets.end(),
            [](const NodeDescriptor& a, const NodeDescriptor& b) { return a.id < b.id; });
  targets.erase(std::unique(targets.begin(), targets.end(),
                            [](const NodeDescriptor& a, const NodeDescriptor& b) {
                              return a.id == b.id;
                            }),
                targets.end());
  // One encode, one buffer, shared by every recipient's in-flight message.
  SharedBytes announce_wire(EncodeMessage(announce));
  for (const auto& d : targets) {
    SendWire(d.addr, announce_wire, /*join_traffic=*/true, /*maintenance=*/false);
  }
  // The whole leaf set was learned second-hand (the closest node's leaf set,
  // routing-table rows that may name dead nodes): probe every member.
  if (heartbeats_on()) {
    for (const auto& d : leaf_.Members()) {
      Probe(d);
    }
  }
  ScheduleKeepAlive();
  if (app_ != nullptr) {
    app_->OnLeafSetChanged();
  }
}

// --- maintenance ---------------------------------------------------------------

void PastryNode::ScheduleKeepAlive() {
  // The node goes live: the watched neighbour gets a full failure_timeout.
  watched_ = Watched{};
  SyncWatched();
  if (!heartbeats_on()) {
    return;
  }
  // Random phase avoids a synchronized heartbeat storm.
  SimTime first = static_cast<SimTime>(
      config().keep_alive_period * (0.5 + 0.5 * rng_.UniformDouble()));
  keep_alive_timer_ =
      queue()->AtMaintenance(queue()->Now() + first, [this] { KeepAliveTick(); });
}

void PastryNode::KeepAliveTick() {
  if (!active_) {
    return;
  }
  const SimTime now = queue()->Now();
  // The watched neighbour is probed one period before its silence reaches
  // failure_timeout: it may be alive but heartbeating a dead node it still
  // lists. Still silent at failure_timeout, it is declared failed and
  // announced to the leaf set; the next larger member takes its place with a
  // fresh clock.
  if (watched_.node.valid()) {
    const SimTime silent = now - watched_.heard;
    if (silent > config().failure_timeout) {
      DeclareFailed(watched_.node);
    } else if (!watched_.suspected &&
               silent > config().failure_timeout - config().keep_alive_period) {
      watched_.suspected = true;
      obs().suspicion_probes->Inc();
      SendLeafSetRequest(watched_.node.addr);
    }
  }
  // Probed members that never answered are dropped.
  std::vector<NodeDescriptor> unanswered;
  std::erase_if(probes_, [&](const PendingProbe& probe) {
    if (!leaf_.Contains(probe.node.id)) {
      return true;  // left the leaf set (or was declared failed) meanwhile
    }
    if (now <= probe.deadline) {
      return false;
    }
    unanswered.push_back(probe.node);
    return true;
  });
  for (const NodeDescriptor& d : unanswered) {
    obs().probes_unanswered->Inc();
    DeclareFailed(d);
  }
  if (leaf_recheck_at_ != 0 && now >= leaf_recheck_at_) {
    // A repair reply can predate the responder's own repair and leave a hole
    // no later event would fill; once the neighbourhood has had
    // failure_timeout to settle, ask both edges of the leaf set again.
    leaf_recheck_at_ = 0;
    const NodeDescriptor smaller_edge = leaf_.FarthestSmaller();
    const NodeDescriptor larger_edge = leaf_.FarthestLarger();
    if (smaller_edge.valid()) {
      Probe(smaller_edge);
    }
    if (larger_edge.valid() && !(larger_edge == smaller_edge)) {
      Probe(larger_edge);
    }
  }
  const NodeDescriptor smaller = leaf_.NearestSmaller();
  if (smaller.valid()) {
    KeepAliveMsg ka;
    ka.sender = descriptor();
    SendMsg(smaller.addr, ka, /*join_traffic=*/false, /*maintenance=*/true);
  }
  keep_alive_timer_ = queue()->AtMaintenance(now + config().keep_alive_period,
                                            [this] { KeepAliveTick(); });
}

void PastryNode::HandleNodeFailure(const NodeDescriptor& failed) {
  if (!failed.valid() || failed.id == id_) {
    return;
  }
  obs().failures_detected->Inc();
  death_list_[failed.id] = queue()->Now();
  bool was_leaf = leaf_.Remove(failed.id);
  std::vector<std::pair<int, int>> vacated = rt_.RemoveNode(failed.id);
  nb_.Remove(failed.id);

  if (was_leaf) {
    leaf_recheck_at_ = queue()->Now() + config().failure_timeout;
    SyncWatched();
    // Repair: ask the farthest live member on the failed node's side for its
    // leaf set; overlap guarantees it knows the replacement.
    NodeDescriptor target = leaf_.FarthestOnSideOf(failed.id);
    if (target.valid()) {
      Probe(target);
    }
    if (app_ != nullptr) {
      app_->OnLeafSetChanged();
    }
  }
  RequestRowRepairs(vacated);
}

void PastryNode::DeclareFailed(NodeDescriptor failed) {
  // By value: the caller's descriptor may be watched_.node, which
  // HandleNodeFailure replaces.
  const bool watched = IsWatched(failed.id);
  HandleNodeFailure(failed);
  if (watched && heartbeats_on()) {
    AnnounceFailure(failed);
  }
}

void PastryNode::AnnounceFailure(const NodeDescriptor& failed) {
  FailureNoticeMsg notice;
  notice.sender = descriptor();
  notice.failed = failed;
  SharedBytes wire(EncodeMessage(notice));
  // The failed node itself gets a copy too: if it is alive after all, it
  // re-announces itself (see HandleFailureNotice).
  std::vector<NodeDescriptor> targets = leaf_.Members();
  targets.push_back(failed);
  for (const NodeDescriptor& d : targets) {
    SendWire(d.addr, wire, /*join_traffic=*/false, /*maintenance=*/true);
    obs().failure_notices_sent->Inc();
  }
}

void PastryNode::SendFailureNotice(NodeAddr to, const NodeDescriptor& failed,
                                   bool hearsay) {
  FailureNoticeMsg notice;
  notice.sender = descriptor();
  notice.failed = failed;
  notice.hearsay = hearsay;
  SendMsg(to, notice, /*join_traffic=*/false, /*maintenance=*/true);
  obs().failure_notices_sent->Inc();
}

void PastryNode::RelayFailure(const NodeDescriptor& failed) {
  // The notifier watched `failed`, so nothing lies between them in its view,
  // and once it dropped `failed` its leaf set reached l/2 - 1 members past
  // `failed` on this side. A node holds `failed` while fewer than l/2 nodes
  // lie between them. So the holders the notice missed are the ones with
  // exactly l/2 - 1 nodes between `failed` and them: count this node and the
  // members between `failed` and it, and pick the far-side member that makes
  // up the rest.
  const bool failed_smaller = id_.Sub(failed.id) < failed.id.Sub(id_);
  const U128 failed_offset = failed_smaller ? id_.Sub(failed.id) : failed.id.Sub(id_);
  int between = 1;  // this node
  for (const NodeDescriptor& d : failed_smaller ? leaf_.Smaller() : leaf_.Larger()) {
    const U128 offset = failed_smaller ? id_.Sub(d.id) : d.id.Sub(id_);
    between += offset < failed_offset ? 1 : 0;
  }
  const std::vector<NodeDescriptor> far = failed_smaller ? leaf_.Larger() : leaf_.Smaller();
  const int index = leaf_.capacity_per_side() - 1 - between;
  if (index >= 0 && index < static_cast<int>(far.size())) {
    SendFailureNotice(far[static_cast<size_t>(index)].addr, failed, /*hearsay=*/false);
  }
}

void PastryNode::Reannounce(const NodeDescriptor& notifier) {
  const SimTime now = queue()->Now();
  if (now < reannounce_after_) {
    return;
  }
  reannounce_after_ = now + config().failure_timeout;
  obs().reannounces->Inc();
  AnnounceArrivalMsg announce;
  announce.joiner = descriptor();
  SharedBytes wire(EncodeMessage(announce));
  std::vector<NodeDescriptor> targets = leaf_.Members();
  if (!leaf_.Contains(notifier.id)) {
    targets.push_back(notifier);
  }
  for (const NodeDescriptor& d : targets) {
    SendWire(d.addr, wire, /*join_traffic=*/false, /*maintenance=*/true);
  }
}

void PastryNode::HandleLeafContact(const NodeDescriptor& sender, bool request) {
  const bool leaf_changed = HeardFrom(sender);
  // A heartbeat comes from a node that takes us for its nearest smaller
  // member. If it is not our nearest larger one, it misses nodes between us:
  // our leaf set corrects its view and, on arrival, proves we are alive.
  const bool view_repair = !request && !IsWatched(sender.id);
  if (request || view_repair) {
    LeafSetReplyMsg reply;
    reply.sender = descriptor();
    reply.leaves = leaf_.Members();
    std::erase_if(reply.leaves, [this](const NodeDescriptor& d) {
      return std::any_of(probes_.begin(), probes_.end(), [&d](const PendingProbe& probe) {
        return probe.hearsay && probe.node.id == d.id;
      });
    });
    SendMsg(sender.addr, reply, /*join_traffic=*/false, /*maintenance=*/true);
  }
  if (view_repair) {
    obs().view_repairs->Inc();
  }
  if (leaf_changed && app_ != nullptr) {
    app_->OnLeafSetChanged();
  }
}

void PastryNode::HandleLeafSetReply(const LeafSetReplyMsg& msg) {
  bool leaf_changed = HeardFrom(msg.sender);
  for (const auto& d : msg.leaves) {
    if (heartbeats_on() && IsQuarantined(d.id)) {
      // The replier still lists a node we declared dead. It may be heartbeating
      // it instead of its live neighbour; tell it, as hearsay to check.
      obs().stale_member_notices->Inc();
      SendFailureNotice(msg.sender.addr, d, /*hearsay=*/true);
      continue;
    }
    leaf_changed |= LearnSecondHand(d);
  }
  if (leaf_changed && app_ != nullptr) {
    app_->OnLeafSetChanged();
  }
}

void PastryNode::HandleFailureNotice(const FailureNoticeMsg& msg) {
  if (!msg.failed.valid()) {
    return;
  }
  TouchLiveness(msg.sender.id);
  if (msg.failed.id == id_) {
    // Reported dead: the announcement lifts the quarantine at the notifier
    // and at every holder the notice reached.
    Reannounce(msg.sender);
    return;
  }
  if (!leaf_.Contains(msg.failed.id)) {
    return;
  }
  if (IsWatched(msg.failed.id) &&
      queue()->Now() - watched_.heard <= config().failure_timeout) {
    return;  // our own watched neighbour, and not silent: the notifier is wrong
  }
  if (msg.hearsay) {
    VerifyHearsay(msg.failed);
    return;
  }
  HandleNodeFailure(msg.failed);
  if (OnShorterArc(msg.sender.id, id_, msg.failed.id)) {
    RelayFailure(msg.failed);
  }
}

void PastryNode::SyncWatched() {
  const NodeDescriptor larger = leaf_.NearestLarger();
  if (!(watched_.node == larger)) {
    watched_ = Watched{larger, queue()->Now(), false};
  }
}

void PastryNode::RequestRowRepairs(const std::vector<std::pair<int, int>>& vacated) {
  for (const auto& [row, col] : vacated) {
    // Lazy repair: ask a peer from the same row (it satisfies the same prefix
    // constraint) for its (row, col) entry; fall back to deeper rows.
    for (int r = row; r < rt_.rows(); ++r) {
      std::vector<NodeDescriptor> peers = rt_.Row(r);
      if (peers.empty()) {
        continue;
      }
      const NodeDescriptor& peer = peers[rng_.PickIndex(peers.size())];
      RepairRequestMsg req;
      req.sender = descriptor();
      req.row = static_cast<uint16_t>(row);
      req.col = static_cast<uint16_t>(col);
      SendMsg(peer.addr, req, /*join_traffic=*/false, /*maintenance=*/true);
      break;
    }
  }
}

bool PastryNode::Learn(const NodeDescriptor& d) {
  if (!d.valid() || d.id == id_ || IsQuarantined(d.id)) {
    return false;
  }
  bool leaf_changed = leaf_.MaybeAdd(d);
  rt_.MaybeAdd(d);
  nb_.MaybeAdd(d);
  if (leaf_changed) {
    SyncWatched();
  }
  return leaf_changed;
}

bool PastryNode::LearnSecondHand(const NodeDescriptor& d) {
  const bool leaf_changed = Learn(d);
  if (leaf_changed && active_ && heartbeats_on()) {
    Probe(d);
  }
  return leaf_changed;
}

void PastryNode::SendLeafSetRequest(NodeAddr to) {
  LeafSetRequestMsg req;
  req.sender = descriptor();
  SendMsg(to, req, /*join_traffic=*/false, /*maintenance=*/true);
}

void PastryNode::Probe(const NodeDescriptor& d) {
  SendLeafSetRequest(d.addr);
  if (heartbeats_on() &&
      std::none_of(probes_.begin(), probes_.end(),
                   [&d](const PendingProbe& probe) { return probe.node.id == d.id; })) {
    probes_.push_back(PendingProbe{d, queue()->Now() + config().failure_timeout});
  }
}

void PastryNode::VerifyHearsay(const NodeDescriptor& d) {
  obs().hearsay_verifications->Inc();
  const SimTime deadline = queue()->Now() + config().ack_timeout;
  for (PendingProbe& probe : probes_) {
    if (probe.node.id == d.id) {
      // A request is already out; an answer to it clears the probe too.
      probe.deadline = std::min(probe.deadline, deadline);
      probe.hearsay = true;
      return;
    }
  }
  SendLeafSetRequest(d.addr);
  probes_.push_back(PendingProbe{d, deadline, /*hearsay=*/true});
}

bool PastryNode::IsQuarantined(const NodeId& node_id) {
  auto it = death_list_.find(node_id);
  if (it == death_list_.end()) {
    return false;
  }
  if (queue()->Now() - it->second >= config().death_quarantine) {
    death_list_.erase(it);
    return false;
  }
  return true;
}

bool PastryNode::HeardFrom(const NodeDescriptor& d) {
  ClearQuarantine(d.id);
  const bool leaf_changed = Learn(d);
  TouchLiveness(d.id);
  return leaf_changed;
}

void PastryNode::TouchLiveness(const NodeId& node_id) {
  if (IsWatched(node_id)) {
    watched_.heard = queue()->Now();
    if (watched_.suspected) {
      watched_.suspected = false;
      obs().suspicion_probes_answered->Inc();
    }
  }
  std::erase_if(probes_,
                [&node_id](const PendingProbe& probe) { return probe.node.id == node_id; });
}

// --- dispatch ------------------------------------------------------------------

void PastryNode::OnMessage(NodeAddr from, ByteSpan wire) {
  Reader r(wire);
  PastryMsgType type;
  if (!DecodeHeader(&r, &type)) {
    PAST_WARN("node %u: undecodable message header from %u", addr_, from);
    return;
  }
  // A node that is not active (joining, or rejoining after a failure) takes
  // only join replies and hop acks, and ignores the rest.
  const bool handled = PastryMessages::Visit(
      type, &r,
      Overloaded{
          [&](RouteMsg&& msg) { HandleRoute(from, std::move(msg)); },
          [&](const RouteAckMsg& msg) { HandleRouteAck(msg); },
          [&](JoinRequestMsg&& msg) { HandleJoinRequest(from, std::move(msg)); },
          [&](const JoinRowsMsg& msg) { HandleJoinRows(msg); },
          [&](const JoinLeafSetMsg& msg) { HandleJoinLeafSet(msg); },
          [&](const JoinNeighborhoodMsg& msg) { HandleJoinNeighborhood(msg); },
          [&](const AnnounceArrivalMsg& msg) {
            // An announce comes from the (re)joining node itself: direct
            // evidence of life.
            if (active_ && HeardFrom(msg.joiner) && app_ != nullptr) {
              app_->OnLeafSetChanged();
            }
          },
          [&](const KeepAliveMsg& msg) {
            if (active_) {
              HandleLeafContact(msg.sender, /*request=*/false);
            }
          },
          [&](const FailureNoticeMsg& msg) {
            if (active_) {
              HandleFailureNotice(msg);
            }
          },
          [&](const LeafSetRequestMsg& msg) {
            if (active_) {
              HandleLeafContact(msg.sender, /*request=*/true);
            }
          },
          [&](const LeafSetReplyMsg& msg) {
            if (active_) {
              HandleLeafSetReply(msg);
            }
          },
          [&](const RepairRequestMsg& msg) {
            if (active_) {
              HandleRepairRequest(msg);
            }
          },
          [&](const RepairReplyMsg& msg) {
            if (active_ && msg.entry.has_value()) {
              LearnSecondHand(*msg.entry);
            }
          },
          [&](const AppDirectMsg& msg) {
            if (!active_) {
              return;
            }
            HeardFrom(msg.source);
            if (app_ != nullptr) {
              app_->ReceiveDirect(msg.source, msg.app_type, msg.payload);
            }
          },
      });
  if (!handled) {
    PAST_WARN("node %u: no handler for message type %u from %u", addr_,
              static_cast<unsigned>(type), from);
  }
}

void PastryNode::HandleRoute(NodeAddr from, RouteMsg msg) {
  if (!active_) {
    // Not (or not yet again) part of the overlay, e.g. rejoining after a
    // failure: stay silent so the forwarder's hop timeout reroutes it.
    return;
  }
  if (config().per_hop_acks) {
    RouteAckMsg ack;
    ack.seq = msg.seq;
    SendMsg(from, ack);
  }
  if (malicious_) {
    // Accepts (and acks) the message but neither forwards nor delivers.
    return;
  }
  TouchLiveness(msg.source.id);
  if (!msg.trace.empty()) {
    // The last trace record was stamped by the node that forwarded to us,
    // so Now() minus its timestamp is this hop's network delay.
    const RouteHop& last = msg.trace.back();
    const int64_t hop_start = last.when;
    obs().hop_delay->Observe(static_cast<double>(queue()->Now() - hop_start));
    Tracer& tracer = net()->tracer();
    if (tracer.enabled()) {
      uint64_t span = tracer.RecordSpan("pastry.hop", hop_start, queue()->Now(), addr_,
                                        msg.parent_span, msg.seq);
      tracer.Annotate(span, "rule", RouteRuleName(last.rule));
    }
  }
  ProcessRouteMsg(std::move(msg), 0);
}

void PastryNode::HandleRouteAck(const RouteAckMsg& msg) {
  auto it = pending_acks_.find(msg.seq);
  if (it != pending_acks_.end()) {
    if (it->second.timer != 0) {
      queue()->Cancel(it->second.timer);
    }
    pending_acks_.erase(it);
  }
}

void PastryNode::HandleRepairRequest(const RepairRequestMsg& msg) {
  if (msg.row >= rt_.rows() || msg.col >= rt_.cols()) {
    return;
  }
  RepairReplyMsg reply;
  reply.sender = descriptor();
  reply.row = msg.row;
  reply.col = msg.col;
  reply.entry = rt_.Get(msg.row, msg.col);
  if (!reply.entry.has_value() && id_.SharedPrefixLength(msg.sender.id, config().b) >= msg.row &&
      id_.Digit(msg.row, config().b) == msg.col) {
    // This node itself fits the requested slot.
    reply.entry = descriptor();
  }
  SendMsg(msg.sender.addr, reply, /*join_traffic=*/false, /*maintenance=*/true);
}

}  // namespace past
