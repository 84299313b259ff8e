// SocketTransport — the real-network Transport backend.
//
// One endpoint per process, single-threaded. The transport binds a UDP
// socket and a TCP listener on the same port and splits traffic by size:
// control and routing messages (at most `udp_max_payload` bytes of payload)
// travel as single UDP datagrams, while bulk payloads — PAST file contents —
// stream over cached per-peer TCP connections with length-prefixed framing
// (src/net/frame.h). The split is invisible above the Transport interface.
//
// Event loop. Everything happens on the thread that calls PollOnce()/Run():
// socket readiness via poll(2), timer dispatch via the transport's
// EventQueue driven from CLOCK_MONOTONIC (microseconds since Open()), and
// message delivery via NetReceiver::OnMessage. Embedders hook extra fds
// (e.g. the daemon's control server) into the same loop with WatchFd().
//
// TCP connection management. Outbound connections are cached per peer and
// created lazily on first bulk send; frames queue while the non-blocking
// connect resolves. A per-peer send queue is capped at
// `max_peer_queue_bytes` — beyond that new frames are dropped and counted
// (`net.sock.dropped_backpressure`), honoring Transport's lossy fire-and-
// forget contract instead of buffering without bound. Any socket error
// drops the connection and its queue; the next send dials a fresh
// connection. Inbound connections are identified by the first frame's
// `from` field, and every later frame must carry the same identity or the
// connection is dropped.
//
// Hardening. Every received datagram/stream segment passes the frame
// decoder's checks (magic, version, length cap, CRC) before any byte
// reaches protocol code; frames not addressed to this endpoint are dropped.
// Decode failures on a TCP stream kill the connection (a length-prefixed
// stream cannot resync).
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/net/frame.h"
#include "src/net/socket_util.h"
#include "src/net/transport.h"
#include "src/obs/span.h"
#include "src/sim/event_queue.h"

namespace past {

struct SocketTransportOptions {
  // The cluster's shared host table; NodeAddr packs (host_index << 16) |
  // port against it. Every process in a cluster must use the same table.
  // The default single-entry table makes addr == port on localhost.
  std::vector<std::string> hosts = {"127.0.0.1"};
  uint16_t host_index = 0;

  // Port for both the UDP socket and the TCP listener. 0 picks an ephemeral
  // port (retrying until UDP and TCP agree on one), reported by port().
  uint16_t port = 0;

  // Payloads at most this large go over UDP; larger ones stream over TCP.
  // Kept under typical path MTU so control datagrams never fragment.
  size_t udp_max_payload = 1200;

  // Decode-side cap on a frame's payload; bigger inbound frames are treated
  // as hostile. Sends above the cap are dropped (net.sock.dropped_oversize).
  size_t max_frame_bytes = 64u << 20;

  // Cap on one peer's queued-but-unsent TCP bytes (backpressure bound).
  size_t max_peer_queue_bytes = 16u << 20;
};

class SocketTransport : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions options = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Binds the UDP socket and TCP listener. Must succeed before Register().
  StatusCode Open();
  void Close();

  // The port actually bound (== options.port unless it was 0).
  uint16_t port() const { return port_; }
  NodeAddr local_addr() const { return local_addr_; }

  // --- event loop -----------------------------------------------------------

  // One poll(2) round: waits at most `timeout_ms` (-1 = until a timer or fd
  // event), then dispatches due timers, socket I/O, and watched fds.
  // Returns kOk, or kUnavailable after Close().
  StatusCode PollOnce(int timeout_ms);

  // PollOnce until Stop() is called (from a timer or delivery callback).
  void Run();
  void Stop() { running_ = false; }

  // Hooks an external fd into the loop. `events` is a poll(2) mask (POLLIN
  // etc.); the callback runs with the fired revents. One watcher per fd.
  using FdCallback = std::function<void(int fd, short revents)>;
  void WatchFd(int fd, short events, FdCallback cb);
  void UnwatchFd(int fd);

  // --- Transport ------------------------------------------------------------

  NodeAddr Register(NetReceiver* receiver) override;
  void Send(NodeAddr from, NodeAddr to, SharedBytes wire) override;
  using Transport::Send;
  double Proximity(NodeAddr a, NodeAddr b) const override;
  void SetUp(NodeAddr addr, bool up) override;
  bool IsUp(NodeAddr addr) const override;
  EventQueue* queue() override { return &queue_; }
  MetricsRegistry& metrics() override { return metrics_; }
  Tracer& tracer() override { return tracer_; }

 private:
  // One TCP connection, inbound or outbound. Outbound conns know their peer
  // from the dial; inbound conns learn it from the first frame.
  struct Conn {
    int fd = -1;
    NodeAddr peer = kInvalidAddr;
    bool outbound = false;
    bool connecting = false;       // non-blocking connect still resolving
    int64_t connect_started = 0;   // for the RTT estimate
    FrameReader reader{0};
    // Send queue: each frame is a 24-byte owned header plus a shared handle
    // on the payload (zero-copy — a bulk payload fanned out to k replicas
    // queues one allocation k times).
    struct OutBuf {
      Bytes header;
      SharedBytes payload;
    };
    std::deque<OutBuf> sendq;
    size_t sendq_bytes = 0;   // unsent bytes across the queue
    size_t sent_prefix = 0;   // bytes of sendq.front() already written
  };

  int64_t WallMicros() const;  // CLOCK_MONOTONIC relative to Open()
  void AdvanceClock();

  void SendTcp(NodeAddr to, SharedBytes wire);
  void FlushConn(Conn* conn);
  void DropConn(int fd);
  void AcceptPending();
  void ReadUdp();
  void ReadConn(Conn* conn);
  void DeliverFrame(const FrameHeader& header, ByteSpan payload);
  void RecordRtt(NodeAddr peer, int64_t micros);

  SocketTransportOptions options_;
  EventQueue queue_;
  MetricsRegistry metrics_;
  Tracer tracer_;

  NetReceiver* receiver_ = nullptr;
  NodeAddr local_addr_ = kInvalidAddr;
  uint16_t port_ = 0;
  int udp_fd_ = -1;
  int listen_fd_ = -1;
  bool up_ = true;       // local endpoint up/down (Fail/Recover)
  bool running_ = false;
  int64_t epoch_ = 0;    // CLOCK_MONOTONIC at Open(), microseconds

  std::unordered_map<int, Conn> conns_;           // by fd
  std::unordered_map<NodeAddr, int> outbound_;    // peer -> dialed fd
  std::unordered_map<NodeAddr, double> rtt_ewma_; // microseconds

  struct Watcher {
    short events;
    FdCallback cb;
  };
  std::unordered_map<int, Watcher> watchers_;

  struct Instruments {
    Counter* udp_tx;
    Counter* udp_rx;
    Counter* tcp_tx;
    Counter* tcp_rx;
    Counter* bytes_tx;
    Counter* bytes_rx;
    Counter* conns_dialed;
    Counter* conns_accepted;
    Counter* conns_dropped;
    Counter* dropped_oversize;
    Counter* dropped_backpressure;
    Counter* dropped_decode;
    Counter* dropped_misaddressed;
    Counter* dropped_down;
  };
  Instruments obs_{};
};

}  // namespace past
