// Simulated message network.
//
// Endpoints register to get an address and a position in the proximity
// space. Send() delivers a byte string to the destination after a latency
// proportional to the proximity distance (plus jitter), unless the message is
// lost or the destination is down. There is no delivery notification and no
// failure notification — exactly the asymmetric-knowledge environment PAST
// assumes (nodes "may silently leave the system without warning").
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/shared_bytes.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/event_queue.h"
#include "src/sim/topology.h"

namespace past {

// Defaults give Internet-like one-way latencies of roughly 1-200 ms with the
// default topology scale of 1000 proximity units (max distance ~3141 units on
// the sphere).
struct NetworkConfig {
  SimTime base_latency = 1000;         // fixed per-message latency (us)
  double latency_per_unit = 60.0;      // us per proximity unit
  double jitter_frac = 0.05;           // +/- fraction of the distance term
  double loss_rate = 0.0;              // iid message loss probability
  // Messages larger than this are dropped at Send() (net.dropped_oversize),
  // mirroring the socket backend's frame-size cap. Unlimited by default so
  // existing simulations are unaffected.
  size_t max_message_bytes = SIZE_MAX;
  // When > 0, endpoint and topology storage is reserved up front so a trial
  // that registers this many endpoints never reallocates mid-run.
  size_t expected_endpoints = 0;
};

class Network : public Transport {
 public:
  Network(EventQueue* queue, Topology* topology, const NetworkConfig& config,
          uint64_t seed);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a receiver; assigns it the next address and a topology
  // position. Addresses are never reused: a node that leaves stays down.
  NodeAddr Register(NetReceiver* receiver) override;

  // Pre-sizes endpoint and topology storage (idempotent; also driven by
  // NetworkConfig::expected_endpoints).
  void ReserveEndpoints(size_t n);

  // Node liveness. A down node neither receives nor (by protocol convention)
  // sends; in-flight messages to it are dropped at delivery time.
  void SetUp(NodeAddr addr, bool up) override;
  bool IsUp(NodeAddr addr) const override;

  // Queues `wire` for delivery. Zero-copy: the in-flight closure holds a
  // handle onto the caller's buffer, so sending one SharedBytes to many
  // recipients shares a single allocation. Self-sends (to == from) are
  // short-circuited to the zero-distance latency (base_latency) and consume
  // no RNG draws and no loss check — loopback does not traverse the wire.
  void Send(NodeAddr from, NodeAddr to, SharedBytes wire) override;
  using Transport::Send;  // the Bytes convenience overload

  // The scalar proximity metric between two registered endpoints.
  double Proximity(NodeAddr a, NodeAddr b) const override;

  EventQueue* queue() override { return queue_; }
  Topology* topology() { return topology_; }
  size_t endpoint_count() const { return endpoints_.size(); }

  // Heap footprint of the endpoint table, in bytes (topology storage is
  // reported by Topology::MemoryUsage, queue storage by
  // EventQueue::MemoryUsage).
  size_t EndpointMemoryUsage() const;

  // The per-simulation metrics registry. Every layer riding on this network
  // (Pastry nodes, the PAST storage layer, experiment drivers) records into
  // this registry, so one dump captures the whole stack. It is the only place
  // the network's own net.* counts live.
  MetricsRegistry& metrics() override { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // The per-simulation span collector. Disabled (and nearly free) by default;
  // experiments that take --trace-out call tracer().Enable() before the run
  // and export tracer().ToJson() after.
  Tracer& tracer() override { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  struct Endpoint {
    NetReceiver* receiver = nullptr;
    int topo_index = -1;
    bool up = true;
  };

  SimTime SampleLatency(NodeAddr from, NodeAddr to);

  // The queue-depth gauge is refreshed once per this many sends instead of on
  // every send: PendingCount() is cheap but the gauge store was measurable on
  // the hot path, and a sampled depth is just as useful for dashboards.
  static constexpr uint64_t kQueueDepthSampleInterval = 64;

  EventQueue* queue_;
  Topology* topology_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<Endpoint> endpoints_;
  uint64_t sends_since_depth_sample_ = 0;

  MetricsRegistry metrics_;
  Tracer tracer_;
  // Cached instrument handles for the send/deliver hot path.
  Counter* sent_;
  Counter* delivered_;
  Counter* dropped_loss_;
  Counter* dropped_down_;
  Counter* dropped_oversize_;
  Counter* bytes_sent_;
  Counter* self_sends_;
  Histogram* msg_bytes_;
  Gauge* queue_depth_;
};

}  // namespace past

