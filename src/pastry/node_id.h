// Pastry node identifiers and node descriptors.
//
// A nodeId is a 128-bit value derived from the cryptographic hash of the
// node's public key (the smartcard's key in a brokered PAST network), which
// makes the id space uniformly and quasi-randomly populated — the property
// the paper relies on for replica diversity and load balance.
#pragma once

#include <string>
#include <tuple>

#include "src/common/bytes.h"
#include "src/common/u128.h"
#include "src/net/transport.h"

namespace past {

using NodeId = U128;

// nodeId = 128 most significant bits of SHA-1(public key encoding).
NodeId NodeIdFromPublicKey(ByteSpan public_key);

// A (nodeId, network address) pair: the unit stored in routing tables, leaf
// sets and neighborhood sets.
struct NodeDescriptor {
  NodeId id;
  NodeAddr addr = kInvalidAddr;

  bool valid() const { return addr != kInvalidAddr; }
  bool operator==(const NodeDescriptor& other) const = default;

  // 20 bytes on the wire.
  static auto Fields(auto& d) { return std::tie(d.id, d.addr); }

  std::string ToString() const;
};

struct NodeDescriptorHash {
  size_t operator()(const NodeDescriptor& d) const {
    return d.id.HashValue() ^ (static_cast<size_t>(d.addr) * 0x9e3779b9);
  }
};

// Protocol parameters. Defaults follow the paper: b = 4, l = 32 (so routing
// needs < ceil(log_16 N) hops and delivery survives up to floor(l/2) - 1
// adjacent failures), |M| = 32 for the neighborhood set.
struct PastryConfig {
  int b = 4;                    // bits per digit
  int leaf_set_size = 32;       // l (split into l/2 smaller + l/2 larger)
  int neighborhood_size = 32;   // |M|

  // Locality heuristics: prefer proximally-closer candidates for routing
  // table slots and seed state from nodes met along the join route. Turning
  // this off is the ablation for experiment E4.
  bool locality_aware = true;

  // Randomized routing (Section 2.2 "Fault-tolerance"): choose among all
  // valid next hops with a distribution heavily biased to the best one.
  bool randomized_routing = false;
  double randomize_epsilon = 0.15;  // probability of taking a non-best hop

  // Failure handling. The defaults are sized for the default NetworkConfig
  // (one-way latency up to ~200 ms): ack_timeout must exceed the worst-case
  // round trip or live hops get misdiagnosed as dead, duplicating messages.
  SimTime keep_alive_period = 5 * kMicrosPerSecond;
  SimTime failure_timeout = 15 * kMicrosPerSecond;  // T in the paper
  bool per_hop_acks = true;          // detect dead next-hops and re-route
  SimTime ack_timeout = 1 * kMicrosPerSecond;
  // After declaring a node failed, refuse to re-learn it from (possibly
  // stale) peer state for this long. Direct evidence of life — a heartbeat,
  // an announce, a direct message from the node — clears the quarantine.
  SimTime death_quarantine = 30 * kMicrosPerSecond;

  int digits() const { return 128 / b; }
  int cols() const { return 1 << b; }
};

}  // namespace past

