// Transport — the overlay's view of a message network.
//
// PastryNode (and everything above it) programs against this interface
// instead of a concrete network, so the same protocol engine runs unchanged
// over the deterministic simulator (sim::Network, the first implementation)
// and over real sockets (SocketTransport in this directory). A Transport
// supplies four things:
//
//   * local address identity — Register() attaches the single message
//     receiver of an endpoint and returns its NodeAddr;
//   * message sends — fire-and-forget, possibly lossy, no delivery or
//     failure notification (the asymmetric-knowledge environment PAST
//     assumes: nodes "may silently leave the system without warning");
//   * timer scheduling — every backend owns an EventQueue. The simulator
//     drives it on virtual time; the socket backend drives it from the wall
//     clock inside its poll loop. Protocol code schedules timers and reads
//     Now() identically in both worlds;
//   * observability — a MetricsRegistry and Tracer shared by every layer
//     riding on the transport.
//
// NodeAddr is a 32-bit opaque endpoint identity that travels inside wire
// messages (NodeDescriptor). The simulator hands out dense indices; the
// socket backend packs (host_index << 16) | port against a shared host
// table (see socket_transport.h).
#pragma once

#include <cstdint>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/shared_bytes.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/event_queue.h"

namespace past {

using NodeAddr = uint32_t;
constexpr NodeAddr kInvalidAddr = 0xffffffff;

class NetReceiver {
 public:
  virtual ~NetReceiver() = default;
  virtual void OnMessage(NodeAddr from, ByteSpan wire) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Attaches a receiver and returns its address — the endpoint's identity on
  // the wire. The simulator accepts any number of endpoints; a socket
  // transport is one endpoint per process and accepts exactly one.
  virtual NodeAddr Register(NetReceiver* receiver) = 0;

  // Queues `wire` for delivery to `to`. Zero-copy: implementations hold a
  // handle onto the caller's buffer, so sending one SharedBytes to many
  // recipients shares a single allocation. Sends may be silently lost; there
  // is no delivery notification.
  virtual void Send(NodeAddr from, NodeAddr to, SharedBytes wire) = 0;
  void Send(NodeAddr from, NodeAddr to, Bytes wire) {
    Send(from, to, SharedBytes(std::move(wire)));
  }

  // The scalar proximity metric between two endpoints. The simulator reads
  // its topology; the socket backend reports measured RTT (0.0 when it has
  // no sample yet). Larger is farther; only relative order matters to the
  // protocol's locality heuristics.
  virtual double Proximity(NodeAddr a, NodeAddr b) const = 0;

  // Endpoint liveness. The simulator implements a global oracle (churn
  // models flip it); a real transport can only switch its *own* endpoint
  // (Fail/Recover) and optimistically reports every remote peer as up —
  // failure knowledge comes from the protocol's own timeouts.
  virtual void SetUp(NodeAddr addr, bool up) = 0;
  virtual bool IsUp(NodeAddr addr) const = 0;

  // The timer engine. Protocol code schedules with After()/At(), cancels by
  // EventId, and reads Now() — microseconds of virtual time under the
  // simulator, microseconds since transport start under real sockets.
  // Periodic maintenance timers (keep-alives, join retries) are scheduled
  // with AtMaintenance(), so they fire after every other event due at the
  // same instant.
  virtual EventQueue* queue() = 0;

  // Shared observability: one registry/tracer per transport captures the
  // whole stack riding on it.
  virtual MetricsRegistry& metrics() = 0;
  virtual Tracer& tracer() = 0;
};

}  // namespace past
