#include "src/pastry/pastry_node.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace past {
namespace {

// Hard cap on overlay hops; generously above ceil(log_16 N) for any feasible
// N, so it only trips on routing loops (a bug) or pathological churn.
constexpr uint16_t kMaxHops = 64;

// True when `x` lies strictly inside the shorter ring arc between `a` and `b`.
bool OnShorterArc(const U128& a, const U128& b, const U128& x) {
  const U128 up = b.Sub(a);  // walking upward from a to b
  const U128 down = a.Sub(b);
  const U128 from_low = up <= down ? x.Sub(a) : x.Sub(b);
  return U128::Zero() < from_low && from_low < (up <= down ? up : down);
}

}  // namespace

PastryNode::PastryNode(Transport* net, const NodeId& id, const PastryConfig& config,
                       uint64_t seed, NodeInternTable* intern)
    : net_(net),
      queue_(net->queue()),
      wheel_(net->wheel()),
      id_(id),
      config_(config),
      addr_(kInvalidAddr),
      rng_(seed),
      owned_intern_(intern == nullptr ? std::make_unique<NodeInternTable>() : nullptr),
      intern_(intern != nullptr ? intern : owned_intern_.get()),
      rt_(id, config, [this](NodeAddr a) { return net_->Proximity(addr_, a); }, intern_),
      leaf_(id, config.leaf_set_size, intern_),
      nb_(id, config.neighborhood_size,
          [this](NodeAddr a) { return net_->Proximity(addr_, a); }, intern_) {
  addr_ = net_->Register(this);
  MetricsRegistry& m = net_->metrics();
  obs_.msgs_sent = m.GetCounter("pastry.msgs_sent");
  obs_.join_msgs = m.GetCounter("pastry.join_msgs_sent");
  obs_.maintenance_msgs = m.GetCounter("pastry.maintenance_msgs_sent");
  obs_.routed_seen = m.GetCounter("pastry.routed_seen");
  obs_.delivered = m.GetCounter("pastry.delivered");
  obs_.forwarded = m.GetCounter("pastry.forwarded");
  obs_.reroutes = m.GetCounter("pastry.reroutes");
  obs_.failures_detected = m.GetCounter("pastry.failures_detected");
  obs_.failure_notices_sent = m.GetCounter("pastry.failure_notices_sent");
  obs_.view_repairs = m.GetCounter("pastry.view_repairs");
  obs_.probes_unanswered = m.GetCounter("pastry.probes_unanswered");
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

PastryNode::~PastryNode() = default;

uint64_t PastryNode::ScheduleMaintTimer(SimTime delay, EventFn fn) {
  if (wheel_ != nullptr) {
    return wheel_->After(delay, std::move(fn));
  }
  return queue_->After(delay, std::move(fn));
}

void PastryNode::CancelMaintTimer(uint64_t* timer) {
  if (*timer == 0) {
    return;
  }
  if (wheel_ != nullptr) {
    wheel_->Cancel(*timer);
  } else {
    queue_->Cancel(*timer);
  }
  *timer = 0;
}

uint64_t PastryNode::NextSeq() {
  return (static_cast<uint64_t>(addr_) << 32) | (++seq_counter_ & 0xffffffffULL);
}

void PastryNode::SendWire(NodeAddr to, SharedBytes wire, bool join_traffic,
                          bool maintenance) {
  ++stats_.msgs_sent;
  obs_.msgs_sent->Inc();
  if (join_traffic) {
    ++stats_.join_msgs_sent;
    obs_.join_msgs->Inc();
  }
  if (maintenance) {
    ++stats_.maintenance_msgs_sent;
    obs_.maintenance_msgs->Inc();
  }
  net_->Send(addr_, to, std::move(wire));
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
  join_retry_timer_ = ScheduleMaintTimer(config_.join_retry_timeout, [this] {
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
  net_->SetUp(addr_, false);
  CancelMaintTimer(&keep_alive_timer_);
  CancelMaintTimer(&join_retry_timer_);
  for (auto& [seq, pending] : pending_acks_) {
    if (pending.timer != 0) {
      queue_->Cancel(pending.timer);
    }
  }
  pending_acks_.clear();
  for (auto& [seq, pending] : pending_join_acks_) {
    if (pending.timer != 0) {
      queue_->Cancel(pending.timer);
    }
  }
  pending_join_acks_.clear();
  probes_.clear();
  death_list_.clear();
}

void PastryNode::Recover(NodeAddr fallback_bootstrap) {
  PAST_CHECK(!active_ && !joining_);
  net_->SetUp(addr_, true);
  rt_.Clear();
  leaf_.Clear();
  nb_.Clear();
  // Paper: "A recovering node contacts the nodes in its last known leaf set".
  NodeAddr bootstrap = fallback_bootstrap;
  for (const auto& member : last_leaf_members_) {
    if (member.valid() && member.addr != addr_ && net_->IsUp(member.addr)) {
      bootstrap = member.addr;
      break;
    }
  }
  Join(bootstrap);
}

void PastryNode::ActivateSeeded() {
  PAST_CHECK(!active_ && !joining_);
  active_ = true;
  last_leaf_members_ = leaf_.Members();
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
  bytes += map_bytes(pending_join_acks_.size(), pending_join_acks_.bucket_count(),
                     sizeof(uint64_t) + sizeof(PendingJoinAck));
  bytes += probes_.capacity() * sizeof(probes_[0]);
  bytes += map_bytes(death_list_.size(), death_list_.bucket_count(),
                     sizeof(U128) + sizeof(SimTime));
  bytes += last_leaf_members_.capacity() * sizeof(NodeDescriptor);
  if (owned_intern_ != nullptr) {
    bytes += owned_intern_->MemoryUsage();
  }
  return bytes;
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
  msg.hops = 0;
  msg.replica_k = replica_k;
  msg.distance = 0.0;
  msg.path.push_back(addr_);
  msg.payload = std::move(payload);
  uint64_t seq = msg.seq;
  ProcessRouteMsg(std::move(msg), 0);
  return seq;
}

void PastryNode::SendDirect(NodeAddr to, uint32_t app_type, SharedBytes payload) {
  PAST_CHECK_MSG(active_, "SendDirect() on an inactive node");
  if (to == addr_) {
    // Local shortcut with identical semantics — and no encode at all.
    if (app_ != nullptr) {
      app_->ReceiveDirect(descriptor(), app_type, payload.span());
    }
    return;
  }
  SendDirectWire(to, EncodeDirect(app_type, payload.span()));
}

SharedBytes PastryNode::EncodeDirect(uint32_t app_type, ByteSpan payload) const {
  return SharedBytes(EncodeAppDirect(descriptor(), app_type, payload));
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
    if (d.id.SharedPrefixLength(key, config_.b) < min_prefix) {
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
              int pa = a.id.SharedPrefixLength(key, config_.b);
              int pb = b.id.SharedPrefixLength(key, config_.b);
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
        double dist = net_->Proximity(addr_, d.addr);
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
    if (!config_.randomized_routing) {
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
    if (alts.size() > 1 && rng_.Bernoulli(config_.randomize_epsilon)) {
      return RouteChoice{alts[1 + rng_.PickIndex(alts.size() - 1)],
                         RouteRule::kLeafSet};
    }
    return RouteChoice{alts[0], RouteRule::kLeafSet};
  }

  const int row = id_.SharedPrefixLength(key, config_.b);
  std::optional<NodeDescriptor> entry = rt_.Get(row, key.Digit(row, config_.b));

  if (!config_.randomized_routing) {
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
  if (cands.size() > 1 && rng_.Bernoulli(config_.randomize_epsilon)) {
    chosen = cands[1 + rng_.PickIndex(cands.size() - 1)];
  }
  RouteRule rule = (entry.has_value() && chosen.id == entry->id)
                       ? RouteRule::kRoutingTable
                       : RouteRule::kRareCase;
  return RouteChoice{chosen, rule};
}

void PastryNode::ProcessRouteMsg(RouteMsg msg, int attempts) {
  ++stats_.routed_seen;
  obs_.routed_seen->Inc();
  std::optional<RouteChoice> next = NextHop(msg.key, msg.replica_k);
  if (next.has_value() && msg.replica_k > 0) {
    // Replica-aware final hops jump by proximity, and two nodes with
    // divergent leaf views could bounce a message between them; if the chosen
    // hop was already visited, fall back to strict closest-node routing
    // (which provably makes ring progress).
    for (NodeAddr visited : msg.path) {
      if (visited == next->next.addr) {
        next = NextHop(msg.key, 0);
        break;
      }
    }
  }
  if (!next.has_value()) {
    ++stats_.delivered;
    obs_.delivered->Inc();
    obs_.route_hops->Observe(static_cast<double>(msg.hops));
    if (app_ != nullptr) {
      DeliverContext ctx;
      ctx.key = msg.key;
      ctx.app_type = msg.app_type;
      ctx.source = msg.source;
      ctx.hops = msg.hops;
      ctx.distance = msg.distance;
      ctx.path = msg.path;
      ctx.trace.trace_id = msg.seq;
      ctx.trace.hops = msg.trace;
      app_->Deliver(ctx, ByteSpan(msg.payload.data(), msg.payload.size()));
    }
    return;
  }
  if (app_ != nullptr &&
      !app_->Forward(msg.key, msg.app_type, next->next, &msg.payload)) {
    return;  // absorbed by the application (e.g. answered from cache)
  }
  ++stats_.forwarded;
  obs_.forwarded->Inc();
  ForwardTo(*next, std::move(msg), attempts);
}

void PastryNode::ForwardTo(const RouteChoice& choice, RouteMsg msg, int attempts) {
  const NodeDescriptor& next = choice.next;
  if (msg.hops >= kMaxHops) {
    PAST_WARN("dropping message %llu: hop limit reached",
              static_cast<unsigned long long>(msg.seq));
    return;
  }
  RouteMsg original = msg;  // pre-hop state, for re-routing on ack timeout
  const double hop_distance = ProximityTo(next.addr);
  msg.hops += 1;
  msg.distance += hop_distance;
  msg.path.push_back(next.addr);
  msg.trace.push_back(RouteHop{addr_, choice.rule, hop_distance, queue_->Now()});
  obs_.rule_hops[static_cast<uint8_t>(choice.rule)]->Inc();
  obs_.hop_distance->Observe(hop_distance);

  if (config_.per_hop_acks) {
    // Track the in-flight hop; if no ack arrives, assume the hop is dead,
    // repair, and re-route the original message.
    uint64_t seq = msg.seq;
    auto [it, inserted] = pending_acks_.try_emplace(seq);
    if (!inserted && it->second.timer != 0) {
      queue_->Cancel(it->second.timer);
    }
    it->second.msg = std::move(original);
    it->second.next = next;
    it->second.attempts = attempts;
    it->second.timer = queue_->After(config_.ack_timeout, [this, seq] {
      auto pit = pending_acks_.find(seq);
      if (pit == pending_acks_.end()) {
        return;
      }
      PendingAck pending = std::move(pit->second);
      pending_acks_.erase(pit);
      ++stats_.reroutes;
      obs_.reroutes->Inc();
      HandleNodeFailure(pending.next);
      if (pending.attempts + 1 < config_.max_reroute_attempts && active_) {
        ProcessRouteMsg(std::move(pending.msg), pending.attempts + 1);
      }
    });
  }
  SendMsg(next.addr, msg);
}

// --- join protocol ------------------------------------------------------------

void PastryNode::HandleJoinRequest(NodeAddr from, JoinRequestMsg msg) {
  if (!active_ || msg.joiner.id == id_) {
    // Misdirected (recycled endpoint slot, or the join looped back to the
    // joiner itself): stay silent so the forwarder's hop timeout fires.
    return;
  }
  if (config_.per_hop_acks && from != msg.joiner.addr) {
    // Ack the forwarder so it can clear its in-flight join-hop record.
    RouteAckMsg ack;
    ack.seq = msg.seq;
    SendMsg(from, ack, /*join_traffic=*/true);
  }
  // Contribute routing-table rows 0..shl to the joiner. Rows below the shared
  // prefix length still contain useful candidates for the joiner because the
  // row constraint is relative to the *shared* prefix.
  const int shl = id_.SharedPrefixLength(msg.joiner.id, config_.b);
  JoinRowsMsg rows_msg;
  rows_msg.sender = descriptor();
  for (int r = 0; r <= shl && r < rt_.rows(); ++r) {
    std::vector<NodeDescriptor> row = rt_.Row(r);
    if (!row.empty()) {
      rows_msg.row_indices.push_back(static_cast<uint16_t>(r));
      rows_msg.rows.push_back(std::move(row));
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
    if (config_.per_hop_acks) {
      // Track the in-flight join hop; a silent next hop is declared failed
      // and the join re-forwarded, mirroring ForwardTo's reroute path.
      const uint64_t seq = msg.seq;
      auto [it, inserted] = pending_join_acks_.try_emplace(seq);
      if (!inserted && it->second.timer != 0) {
        queue_->Cancel(it->second.timer);
      }
      it->second.msg = std::move(msg);
      it->second.next = next->next;
      it->second.attempts = attempts;
      it->second.timer = queue_->After(config_.ack_timeout, [this, seq] {
        auto pit = pending_join_acks_.find(seq);
        if (pit == pending_join_acks_.end()) {
          return;
        }
        PendingJoinAck pending = std::move(pit->second);
        pending_join_acks_.erase(pit);
        ++stats_.reroutes;
        obs_.reroutes->Inc();
        HandleNodeFailure(pending.next);
        if (pending.attempts + 1 < config_.max_reroute_attempts && active_) {
          ForwardJoin(std::move(pending.msg), pending.attempts + 1);
        }
      });
    }
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
  for (const auto& row : msg.rows) {
    for (const auto& d : row) {
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
  last_leaf_members_ = leaf_.Members();
  ScheduleKeepAlive();
  if (app_ != nullptr) {
    app_->OnLeafSetChanged();
  }
}

// --- maintenance ---------------------------------------------------------------

SimTime PastryNode::QuantizeMaintDelay(SimTime delay) const {
  if (config_.keep_alive_quantum <= 0) {
    return delay;
  }
  // Round the ABSOLUTE deadline up to a quantum multiple, so co-located
  // nodes' ticks land on shared instants (one wheel dispatch serves many).
  // A protocol-level adjustment: the scheduled time is identical at every
  // wheel granularity and with no wheel at all.
  const SimTime q = config_.keep_alive_quantum;
  const SimTime deadline = queue_->Now() + delay;
  return ((deadline + q - 1) / q) * q - queue_->Now();
}

void PastryNode::ScheduleKeepAlive() {
  // The node goes live: both ring neighbours get a full failure_timeout.
  ring_[0] = ring_[1] = RingNeighbour{};
  SyncRingNeighbours();
  if (!heartbeats_on()) {
    return;
  }
  // Random phase avoids a synchronized heartbeat storm.
  SimTime first = static_cast<SimTime>(
      config_.keep_alive_period * (0.5 + 0.5 * rng_.UniformDouble()));
  keep_alive_timer_ =
      ScheduleMaintTimer(QuantizeMaintDelay(first), [this] { KeepAliveTick(); });
}

void PastryNode::KeepAliveTick() {
  if (!active_) {
    return;
  }
  const SimTime now = queue_->Now();
  // A ring neighbour silent for failure_timeout is declared failed and
  // announced to the leaf set; the next member on that side takes its place
  // with a fresh clock.
  for (const RingNeighbour& n : ring_) {
    if (n.node.valid() && now - n.heard > config_.failure_timeout) {
      const NodeDescriptor failed = n.node;
      HandleNodeFailure(failed);
      AnnounceFailure(failed);
    }
  }
  // Probed members that never answered are dropped.
  std::vector<NodeDescriptor> unanswered;
  std::erase_if(probes_, [&](const auto& probe) {
    if (!leaf_.Contains(probe.first.id)) {
      return true;  // left the leaf set (or was declared failed) meanwhile
    }
    if (now - probe.second <= config_.failure_timeout) {
      return false;
    }
    unanswered.push_back(probe.first);
    return true;
  });
  for (const NodeDescriptor& d : unanswered) {
    obs_.probes_unanswered->Inc();
    HandleNodeFailure(d);
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
  KeepAliveMsg ka;
  ka.sender = descriptor();
  SharedBytes ka_wire(EncodeMessage(ka));
  for (int side = 0; side < 2; ++side) {
    const NodeDescriptor& n = ring_[side].node;
    // In a two-node ring both neighbours are the same node: one heartbeat.
    if (n.valid() && !(side == 1 && n == ring_[0].node)) {
      SendWire(n.addr, ka_wire, /*join_traffic=*/false, /*maintenance=*/true);
    }
  }
  last_leaf_members_ = leaf_.Members();
  keep_alive_timer_ = ScheduleMaintTimer(QuantizeMaintDelay(config_.keep_alive_period),
                                         [this] { KeepAliveTick(); });
}

void PastryNode::HandleNodeFailure(const NodeDescriptor& failed) {
  if (!failed.valid() || failed.id == id_) {
    return;
  }
  ++stats_.failures_detected;
  obs_.failures_detected->Inc();
  death_list_[failed.id] = queue_->Now();
  bool was_leaf = leaf_.Remove(failed.id);
  std::vector<std::pair<int, int>> vacated = rt_.RemoveNode(failed.id);
  nb_.Remove(failed.id);

  if (was_leaf) {
    leaf_recheck_at_ = queue_->Now() + config_.failure_timeout;
    SyncRingNeighbours();
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

void PastryNode::AnnounceFailure(const NodeDescriptor& failed) {
  FailureNoticeMsg notice;
  notice.sender = descriptor();
  notice.failed = failed;
  SharedBytes wire(EncodeMessage(notice));
  // The failed node itself gets a copy too: if it is alive after all, it
  // answers (see HandleFailureNotice).
  std::vector<NodeDescriptor> targets = leaf_.Members();
  targets.push_back(failed);
  for (const NodeDescriptor& d : targets) {
    SendWire(d.addr, wire, /*join_traffic=*/false, /*maintenance=*/true);
    obs_.failure_notices_sent->Inc();
  }
}

void PastryNode::HandleLeafContact(const NodeDescriptor& sender, bool request) {
  const bool leaf_changed = HeardFrom(sender);
  // A heartbeat from a node that is not our ring neighbour means the sender
  // misses nodes between us: our leaf set corrects its view and, on arrival,
  // proves we are alive.
  const bool view_repair = !request && !IsRingNeighbour(sender.id);
  if (request || view_repair) {
    LeafSetReplyMsg reply;
    reply.sender = descriptor();
    reply.leaves = leaf_.Members();
    SendMsg(sender.addr, reply, /*join_traffic=*/false, /*maintenance=*/true);
  }
  if (view_repair) {
    obs_.view_repairs->Inc();
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
    // Reported dead: a heartbeat proves otherwise and lifts the notifier's
    // quarantine.
    KeepAliveMsg ka;
    ka.sender = descriptor();
    SendMsg(msg.sender.addr, ka, /*join_traffic=*/false, /*maintenance=*/true);
    return;
  }
  if (!leaf_.Contains(msg.failed.id)) {
    return;
  }
  for (const RingNeighbour& n : ring_) {
    if (n.node.valid() && n.node.id == msg.failed.id &&
        queue_->Now() - n.heard <= config_.failure_timeout) {
      return;  // our own neighbour, and not silent: the notifier is wrong
    }
  }
  HandleNodeFailure(msg.failed);
  if (OnShorterArc(msg.sender.id, id_, msg.failed.id)) {
    // The notifier's leaf set reaches only l/2 - 1 members past the failed
    // node on this side; relaying covers the holders beyond.
    AnnounceFailure(msg.failed);
  }
}

void PastryNode::SyncRingNeighbours() {
  const NodeDescriptor current[2] = {leaf_.NearestSmaller(), leaf_.NearestLarger()};
  for (int side = 0; side < 2; ++side) {
    if (!(ring_[side].node == current[side])) {
      ring_[side] = RingNeighbour{current[side], queue_->Now()};
    }
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
    SyncRingNeighbours();
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

void PastryNode::Probe(const NodeDescriptor& d) {
  LeafSetRequestMsg req;
  req.sender = descriptor();
  SendMsg(d.addr, req, /*join_traffic=*/false, /*maintenance=*/true);
  if (heartbeats_on() &&
      std::none_of(probes_.begin(), probes_.end(),
                   [&d](const auto& probe) { return probe.first.id == d.id; })) {
    probes_.emplace_back(d, queue_->Now());
  }
}

bool PastryNode::IsQuarantined(const NodeId& node_id) {
  auto it = death_list_.find(node_id);
  if (it == death_list_.end()) {
    return false;
  }
  if (queue_->Now() - it->second >= config_.death_quarantine) {
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
  for (RingNeighbour& n : ring_) {
    if (n.node.valid() && n.node.id == node_id) {
      n.heard = queue_->Now();
    }
  }
  std::erase_if(probes_, [&node_id](const auto& probe) { return probe.first.id == node_id; });
}

// --- dispatch ------------------------------------------------------------------

void PastryNode::OnMessage(NodeAddr from, ByteSpan wire) {
  Reader r(wire);
  PastryMsgType type;
  if (!DecodeHeader(&r, &type)) {
    PAST_WARN("node %u: undecodable message header from %u", addr_, from);
    return;
  }
  switch (type) {
    case PastryMsgType::kRoute: {
      RouteMsg msg;
      if (!DecodeBodyStrict(&r, &msg)) {
        break;
      }
      if (config_.per_hop_acks) {
        RouteAckMsg ack;
        ack.seq = msg.seq;
        SendMsg(from, ack);
      }
      if (!active_) {
        break;
      }
      if (malicious_) {
        // Accepts (and acks) the message but neither forwards nor delivers.
        break;
      }
      TouchLiveness(msg.source.id);
      if (!msg.trace.empty()) {
        // The last trace record was stamped by the node that forwarded to us,
        // so Now() minus its timestamp is this hop's network delay.
        const RouteHop& last = msg.trace.back();
        const int64_t hop_start = last.when;
        obs_.hop_delay->Observe(static_cast<double>(queue_->Now() - hop_start));
        Tracer& tracer = net_->tracer();
        if (tracer.enabled()) {
          uint64_t span = tracer.RecordSpan("pastry.hop", hop_start,
                                            queue_->Now(), addr_,
                                            msg.parent_span, msg.seq);
          tracer.Annotate(span, "rule", RouteRuleName(last.rule));
        }
      }
      ProcessRouteMsg(std::move(msg), 0);
      break;
    }
    case PastryMsgType::kRouteAck: {
      RouteAckMsg msg;
      if (!DecodeBodyStrict(&r, &msg)) {
        break;
      }
      auto it = pending_acks_.find(msg.seq);
      if (it != pending_acks_.end()) {
        if (it->second.timer != 0) {
          queue_->Cancel(it->second.timer);
        }
        pending_acks_.erase(it);
      }
      auto jit = pending_join_acks_.find(msg.seq);
      if (jit != pending_join_acks_.end()) {
        if (jit->second.timer != 0) {
          queue_->Cancel(jit->second.timer);
        }
        pending_join_acks_.erase(jit);
      }
      break;
    }
    case PastryMsgType::kJoinRequest: {
      JoinRequestMsg msg;
      if (DecodeBodyStrict(&r, &msg)) {
        HandleJoinRequest(from, std::move(msg));
      }
      break;
    }
    case PastryMsgType::kJoinRows: {
      JoinRowsMsg msg;
      if (DecodeBodyStrict(&r, &msg)) {
        HandleJoinRows(msg);
      }
      break;
    }
    case PastryMsgType::kJoinLeafSet: {
      JoinLeafSetMsg msg;
      if (DecodeBodyStrict(&r, &msg)) {
        HandleJoinLeafSet(msg);
      }
      break;
    }
    case PastryMsgType::kJoinNeighborhood: {
      JoinNeighborhoodMsg msg;
      if (DecodeBodyStrict(&r, &msg)) {
        HandleJoinNeighborhood(msg);
      }
      break;
    }
    case PastryMsgType::kAnnounceArrival: {
      AnnounceArrivalMsg msg;
      if (!DecodeBodyStrict(&r, &msg) || !active_) {
        break;
      }
      // An announce comes from the (re)joining node itself: direct evidence
      // of life.
      if (HeardFrom(msg.joiner) && app_ != nullptr) {
        app_->OnLeafSetChanged();
      }
      break;
    }
    case PastryMsgType::kKeepAlive: {
      KeepAliveMsg msg;
      if (DecodeBodyStrict(&r, &msg) && active_) {
        HandleLeafContact(msg.sender, /*request=*/false);
      }
      break;
    }
    case PastryMsgType::kFailureNotice: {
      FailureNoticeMsg msg;
      if (DecodeBodyStrict(&r, &msg) && active_) {
        HandleFailureNotice(msg);
      }
      break;
    }
    case PastryMsgType::kLeafSetRequest: {
      LeafSetRequestMsg msg;
      if (DecodeBodyStrict(&r, &msg) && active_) {
        HandleLeafContact(msg.sender, /*request=*/true);
      }
      break;
    }
    case PastryMsgType::kLeafSetReply: {
      LeafSetReplyMsg msg;
      if (!DecodeBodyStrict(&r, &msg) || !active_) {
        break;
      }
      bool leaf_changed = HeardFrom(msg.sender);
      for (const auto& d : msg.leaves) {
        leaf_changed |= LearnSecondHand(d);
      }
      if (leaf_changed && app_ != nullptr) {
        app_->OnLeafSetChanged();
      }
      break;
    }
    case PastryMsgType::kRepairRequest: {
      RepairRequestMsg msg;
      if (!DecodeBodyStrict(&r, &msg) || !active_) {
        break;
      }
      if (msg.row >= rt_.rows() || msg.col >= rt_.cols()) {
        break;
      }
      RepairReplyMsg reply;
      reply.sender = descriptor();
      reply.row = msg.row;
      reply.col = msg.col;
      std::optional<NodeDescriptor> entry = rt_.Get(msg.row, msg.col);
      if (entry.has_value()) {
        reply.has_entry = true;
        reply.entry = *entry;
      } else if (id_.SharedPrefixLength(msg.sender.id, config_.b) >= msg.row &&
                 id_.Digit(msg.row, config_.b) == msg.col) {
        // This node itself fits the requested slot.
        reply.has_entry = true;
        reply.entry = descriptor();
      }
      SendMsg(msg.sender.addr, reply, /*join_traffic=*/false, /*maintenance=*/true);
      break;
    }
    case PastryMsgType::kRepairReply: {
      RepairReplyMsg msg;
      if (DecodeBodyStrict(&r, &msg) && active_ && msg.has_entry) {
        LearnSecondHand(msg.entry);
      }
      break;
    }
    case PastryMsgType::kAppDirect: {
      AppDirectMsg msg;
      if (!DecodeBodyStrict(&r, &msg) || !active_) {
        break;
      }
      HeardFrom(msg.source);
      if (app_ != nullptr) {
        app_->ReceiveDirect(msg.source, msg.app_type,
                            ByteSpan(msg.payload.data(), msg.payload.size()));
      }
      break;
    }
  }
}

}  // namespace past
