// PastryNode — the Pastry protocol engine.
//
// Implements prefix routing, the self-organizing join protocol, ring-neighbour
// heartbeats with failure notices and leaf-set repair, lazy routing-table
// repair, per-hop acknowledgments for dead-hop detection, and optional
// randomized route selection (the paper's defense against malicious
// forwarders).
//
// Applications (PAST's storage layer, the examples, the experiment drivers)
// attach through the PastryApp interface, mirroring the classic
// deliver/forward/newLeafs API.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/shared_bytes.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/route_trace.h"
#include "src/pastry/leaf_set.h"
#include "src/pastry/messages.h"
#include "src/pastry/neighborhood_set.h"
#include "src/pastry/node_id.h"
#include "src/pastry/node_intern.h"
#include "src/pastry/routing_table.h"
#include "src/sim/timer_wheel.h"

namespace past {

// Context handed to the application when a routed message is delivered at the
// numerically closest node.
struct DeliverContext {
  U128 key;
  uint32_t app_type = 0;
  NodeDescriptor source;
  uint16_t hops = 0;
  double distance = 0.0;            // accumulated proximity distance
  std::vector<NodeAddr> path;       // addresses visited, source first
  // Per-hop attribution: trace.hops[i] records which routing rule node
  // path[i] used to choose path[i+1] and the hop's proximity distance.
  // Invariant: trace.hops.size() == hops; trace.trace_id is the message seq.
  RouteTrace trace;
};

class PastryApp {
 public:
  virtual ~PastryApp() = default;

  // The message reached the node responsible for `key`.
  virtual void Deliver(const DeliverContext& ctx, ByteSpan payload) = 0;

  // Called on each node the message transits, just before forwarding to
  // `next`. The app may mutate the payload. Returning false absorbs the
  // message (PAST answers lookups from caches this way).
  virtual bool Forward(const U128& key, uint32_t app_type, const NodeDescriptor& next,
                       Bytes* payload) {
    (void)key;
    (void)app_type;
    (void)next;
    (void)payload;
    return true;
  }

  // A point-to-point message from another node's app layer.
  virtual void ReceiveDirect(const NodeDescriptor& from, uint32_t app_type,
                             ByteSpan payload) {
    (void)from;
    (void)app_type;
    (void)payload;
  }

  // The leaf set changed (member added/removed) — PAST re-evaluates replica
  // responsibility here.
  virtual void OnLeafSetChanged() {}
};

class PastryNode : public NetReceiver {
 public:
  // Registers with the transport immediately; the node stays inactive until
  // Bootstrap() or Join() completes. The node is transport-agnostic: `net`
  // may be the deterministic simulator (sim::Network) or a real socket
  // backend (SocketTransport). `intern` is the overlay-shared descriptor
  // table backing routing/leaf/neighborhood storage; when null the node owns
  // a private one (standalone use, unit tests).
  PastryNode(Transport* net, const NodeId& id, const PastryConfig& config, uint64_t seed,
             NodeInternTable* intern = nullptr);
  ~PastryNode() override;

  PastryNode(const PastryNode&) = delete;
  PastryNode& operator=(const PastryNode&) = delete;

  // --- lifecycle ------------------------------------------------------------

  // Declares this node the first member of a new overlay.
  void Bootstrap();
  // Joins via an existing (live) node, typically one that is near in the
  // proximity metric.
  void Join(NodeAddr bootstrap);
  // Silent crash: the node stops sending/receiving and loses its timers.
  void Fail();
  // Rejoins after a failure: contacts the nodes of its last known leaf set
  // (paper, Section 2.2 "Node addition and failure"); falls back to
  // `fallback_bootstrap` if none respond to being used as bootstrap.
  void Recover(NodeAddr fallback_bootstrap);

  bool active() const { return active_; }

  // --- global-knowledge construction (Overlay::BuildFast) -------------------
  //
  // At simulation scales where running the join protocol N times is
  // infeasible, the overlay constructs each node's state directly from
  // global knowledge and then activates it. These bypass the wire protocol
  // only — the state they build is exactly what a converged join would have
  // produced.

  // Folds `d` into all three state components (leaf set, routing table,
  // neighborhood set), as if learned from a protocol message.
  void SeedState(const NodeDescriptor& d) { Learn(d); }
  // Offers `d` to the routing table only — the cheap bulk path for
  // BuildFast's digit-subrange sampling.
  void SeedRoutingEntry(const NodeDescriptor& d) { rt_.MaybeAdd(d); }
  // Marks the seeded node live: snapshots the leaf set for recovery and
  // starts keep-alives. The node must not already be active or joining.
  void ActivateSeeded();

  // --- application ----------------------------------------------------------

  void SetApp(PastryApp* app) { app_ = app; }

  // Routes a message toward the live node numerically closest to `key`.
  // With replica_k > 0 the message may instead be delivered at any of the
  // replica_k nodes ring-closest to the key, preferring proximally close
  // ones — PAST lookups use this, since every replica holder can answer.
  // Returns the message seq (for correlating with delivery in experiments).
  // `parent_span` (a Tracer span id, 0 = untraced) rides the wire so per-hop
  // spans recorded at intermediate nodes parent onto the issuing operation.
  uint64_t Route(const U128& key, uint32_t app_type, Bytes payload,
                 uint8_t replica_k = 0, uint64_t parent_span = 0);

  // Point-to-point application message. The SharedBytes payload rides the
  // same zero-copy path as SendWire: the encoded wire is one allocation, and
  // the payload view is written straight into it.
  void SendDirect(NodeAddr to, uint32_t app_type, SharedBytes payload);
  void SendDirect(NodeAddr to, uint32_t app_type, Bytes payload) {
    SendDirect(to, app_type, SharedBytes(std::move(payload)));
  }

  // Encode-once fan-out: pre-encode a direct message, then hand the same
  // wire buffer to SendDirectWire for each recipient. Self-sends travel
  // through the transport loopback (asynchronous), unlike SendDirect's
  // synchronous local shortcut — fan-out callers handle self separately.
  SharedBytes EncodeDirect(uint32_t app_type, ByteSpan payload) const;
  void SendDirectWire(NodeAddr to, SharedBytes wire);

  // --- introspection ---------------------------------------------------------

  const NodeId& id() const { return id_; }
  NodeAddr addr() const { return addr_; }
  EventQueue* queue() const { return queue_; }
  Transport* net() const { return net_; }
  NodeDescriptor descriptor() const { return NodeDescriptor{id_, addr_}; }
  const PastryConfig& config() const { return config_; }

  const LeafSet& leaf_set() const { return leaf_; }
  const RoutingTable& routing_table() const { return rt_; }
  const NeighborhoodSet& neighborhood_set() const { return nb_; }

  // The k live nodes (including self) believed numerically closest to `key`.
  // Meaningful on the node responsible for `key` — this is PAST's replica
  // set.
  std::vector<NodeDescriptor> ReplicaSet(const U128& key, int k) const {
    return leaf_.ClosestMembers(key, descriptor(), k);
  }

  double ProximityTo(NodeAddr other) const { return net_->Proximity(addr_, other); }

  // Simulates a malicious forwarder: the node accepts routed messages but
  // silently drops them instead of forwarding (Section 2.2 "Fault-
  // tolerance"). Honest per-hop acks are still sent, so upstream nodes do
  // not detect it as dead.
  void SetMalicious(bool malicious) { malicious_ = malicious; }
  bool malicious() const { return malicious_; }

  struct Stats {
    uint64_t msgs_sent = 0;
    uint64_t join_msgs_sent = 0;         // join-protocol traffic
    uint64_t maintenance_msgs_sent = 0;  // heartbeats + repair
    uint64_t routed_seen = 0;            // routed messages handled
    uint64_t delivered = 0;
    uint64_t forwarded = 0;
    uint64_t reroutes = 0;               // re-sends after a dead next hop
    uint64_t failures_detected = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  // Heap footprint of this node's overlay state in bytes: routing table,
  // leaf set, neighborhood set, probe list, quarantine map, in-flight ack
  // bookkeeping. The shared intern table is not included (it is accounted
  // once per network by Overlay::RecordMemoryMetrics).
  size_t MemoryUsage() const;

  // NetReceiver:
  void OnMessage(NodeAddr from, ByteSpan wire) override;

 private:
  struct PendingAck {
    RouteMsg msg;
    NodeDescriptor next;
    EventQueue::EventId timer = 0;
    int attempts = 0;
  };

  // An in-flight join-request forward awaiting its hop ack. A next hop that
  // never acks (departed node, recycled endpoint slot) is declared failed and
  // the join is re-forwarded, exactly like the routed-message reroute path —
  // without this, a stale table entry strands the join until keep-alive
  // failure detection evicts it, which never happens with keep-alives off.
  struct PendingJoinAck {
    JoinRequestMsg msg;  // pre-hop state, for re-forwarding on timeout
    NodeDescriptor next;
    EventQueue::EventId timer = 0;
    int attempts = 0;
  };

  // A routing decision: the chosen next hop and the rule that produced it
  // (recorded into the message's route trace and the per-rule counters).
  struct RouteChoice {
    NodeDescriptor next;
    RouteRule rule = RouteRule::kLeafSet;
  };

  // Routing core. Returns the next hop, or nullopt when this node is the
  // closest it knows (deliver here). replica_k as in Route().
  std::optional<RouteChoice> NextHop(const U128& key, uint8_t replica_k);
  std::vector<NodeDescriptor> CandidateHops(const U128& key, int min_prefix,
                                            const U128& self_dist) const;
  void ProcessRouteMsg(RouteMsg msg, int attempts);
  void ForwardTo(const RouteChoice& choice, RouteMsg msg, int attempts);

  // Join protocol.
  void HandleJoinRequest(NodeAddr from, JoinRequestMsg msg);
  void ForwardJoin(JoinRequestMsg msg, int attempts);
  void HandleJoinRows(const JoinRowsMsg& msg);
  void HandleJoinLeafSet(const JoinLeafSetMsg& msg);
  void HandleJoinNeighborhood(const JoinNeighborhoodMsg& msg);
  void FinalizeJoin();
  void SendJoinRequest();

  // Maintenance timers ride the transport's TimerWheel when it has one
  // (coalesced heap events at scale) and fall back to the EventQueue
  // otherwise. Both id spaces are uint64 with 0 = "none"; a node uses one
  // engine for its whole lifetime, so a bare id field stays unambiguous.
  uint64_t ScheduleMaintTimer(SimTime delay, EventFn fn);
  void CancelMaintTimer(uint64_t* timer);
  // Applies PastryConfig::keep_alive_quantum to a keep-alive delay.
  SimTime QuantizeMaintDelay(SimTime delay) const;

  // Maintenance. Liveness follows MSPastry (Castro, Costa, Rowstron, DSN
  // 2004): a node heartbeats only its two ring neighbours and watches them
  // for silence; the rest of the leaf set hears of a failure through a
  // FailureNoticeMsg, and leaf-set overlap refills the gap.
  void ScheduleKeepAlive();
  void KeepAliveTick();
  void HandleNodeFailure(const NodeDescriptor& failed);
  // A KeepAlive or a LeafSetRequest from `sender`: direct evidence of life.
  // A request is always answered with our leaf set, a KeepAlive only when
  // the sender is not one of our ring neighbours.
  void HandleLeafContact(const NodeDescriptor& sender, bool request);
  void HandleFailureNotice(const FailureNoticeMsg& msg);
  // Sends a FailureNoticeMsg about `failed` to every leaf member and to
  // `failed` itself.
  void AnnounceFailure(const NodeDescriptor& failed);
  void RequestRowRepairs(const std::vector<std::pair<int, int>>& vacated);
  // Re-reads the ring neighbours from the leaf set; a node that has just
  // become a neighbour gets a full failure_timeout from now.
  void SyncRingNeighbours();
  bool IsRingNeighbour(const NodeId& id) const {
    return (ring_[0].node.valid() && ring_[0].node.id == id) ||
           (ring_[1].node.valid() && ring_[1].node.id == id);
  }
  bool heartbeats_on() const { return config_.keep_alive_period > 0; }

  // Folds a learned descriptor into all three state components (unless the
  // node is under death quarantine). Returns true if the leaf set changed.
  bool Learn(const NodeDescriptor& d);
  // Learn() for a descriptor relayed by another node: with keep-alives on, a
  // member that enters the leaf set this way while the node is active is
  // probed.
  bool LearnSecondHand(const NodeDescriptor& d);
  // Asks `d` for its leaf set; with keep-alives on, `d` is declared failed
  // unless heard from within failure_timeout of the first unanswered probe.
  // A request, not a KeepAlive: a KeepAlive from a ring neighbour goes
  // unanswered, and `d`'s own heartbeats stop if its neighbours change.
  void Probe(const NodeDescriptor& d);
  // A message from `d` itself: lifts its quarantine, Learn()s it and
  // TouchLiveness()es it. Returns true if the leaf set changed.
  bool HeardFrom(const NodeDescriptor& d);
  // Records direct evidence that `id` is alive.
  void TouchLiveness(const NodeId& id);
  bool IsQuarantined(const NodeId& id);
  void ClearQuarantine(const NodeId& id) { death_list_.erase(id); }

  // Multi-recipient sends (arrival announce, failure notices) encode once and
  // pass the same SharedBytes to every recipient; the network's in-flight
  // closures all share that one buffer.
  void SendWire(NodeAddr to, SharedBytes wire, bool join_traffic,
                bool maintenance);
  template <typename M>
  void SendMsg(NodeAddr to, const M& msg, bool join_traffic = false,
               bool maintenance = false) {
    SendWire(to, SharedBytes(EncodeMessage(msg)), join_traffic, maintenance);
  }

  uint64_t NextSeq();

  Transport* net_;
  EventQueue* queue_;
  TimerWheel* wheel_;  // maintenance timer engine; null = use queue_
  NodeId id_;
  PastryConfig config_;
  NodeAddr addr_;
  Rng rng_;

  std::unique_ptr<NodeInternTable> owned_intern_;  // only when ctor got null
  NodeInternTable* intern_;
  RoutingTable rt_;
  LeafSet leaf_;
  NeighborhoodSet nb_;
  PastryApp* app_ = nullptr;

  bool active_ = false;
  bool joining_ = false;
  bool malicious_ = false;
  uint64_t join_seq_ = 0;
  NodeAddr join_bootstrap_ = kInvalidAddr;
  uint64_t join_retry_timer_ = 0;  // TimerWheel or EventQueue id, see wheel_
  uint64_t keep_alive_timer_ = 0;
  uint64_t seq_counter_ = 0;

  std::unordered_map<uint64_t, PendingAck> pending_acks_;
  std::unordered_map<uint64_t, PendingJoinAck> pending_join_acks_;
  // The nearest smaller ([0]) and larger ([1]) leaf member, each with the
  // time it was last heard from or became a neighbour, whichever is later.
  struct RingNeighbour {
    NodeDescriptor node;  // invalid when that side of the leaf set is empty
    SimTime heard = 0;
  };
  RingNeighbour ring_[2];
  // Probed leaf members (second-hand arrivals, repair targets, leaf-set
  // edges) not heard from since: (member, first probe's send time).
  std::vector<std::pair<NodeDescriptor, SimTime>> probes_;
  // When to re-ask both leaf-set edges after losing a member (0 = not due).
  SimTime leaf_recheck_at_ = 0;
  // Recently failed nodes: id -> time of death declaration.
  std::unordered_map<U128, SimTime, U128Hash> death_list_;
  std::vector<NodeDescriptor> last_leaf_members_;  // snapshot for recovery

  Stats stats_;

  // Aggregate instruments in the network's registry, shared by every node on
  // the network; resolved once at construction (see DESIGN.md for names).
  struct Instruments {
    Counter* msgs_sent;
    Counter* join_msgs;
    Counter* maintenance_msgs;
    Counter* routed_seen;
    Counter* delivered;
    Counter* forwarded;
    Counter* reroutes;
    Counter* failures_detected;
    Counter* failure_notices_sent;
    Counter* view_repairs;       // heartbeats answered with a leaf set
    Counter* probes_unanswered;  // probed leaf members dropped as silent
    Counter* rule_hops[kRouteRuleCount];  // indexed by RouteRule
    Histogram* route_hops;
    Histogram* hop_distance;
    LogHistogram* hop_delay;  // sim-time between a hop's send and its receipt
  };
  Instruments obs_;
};

}  // namespace past

