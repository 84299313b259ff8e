// PAST application payloads, carried inside Pastry routed / direct messages.
//
// Each payload names its op code (kOp) and lists its wire fields (Fields)
// once. Its Encode() and Decode(), from WireRecord, run the field codec of
// src/common/serializer.h over that list; Decode requires the whole buffer
// to be consumed. PastPayloads lists every payload, and its Visit decodes a
// payload as the record its op names.
//
// Routed operations (keyed by the 128 msbs of the fileId): insert, lookup,
// reclaim. Direct operations: replica placement and diversion, receipts back
// to the client, fetches, cache pushes, replica maintenance and audits.
#pragma once

#include <tuple>
#include <type_traits>
#include <vector>

#include "src/common/serializer.h"
#include "src/pastry/messages.h"
#include "src/storage/certificates.h"

namespace past {

enum class PastOp : uint32_t {
  // Routed by fileId.
  kInsertRequest = 100,
  kLookupRequest = 101,
  kReclaimRequest = 102,
  // Direct.
  kStoreReplica = 110,    // fan-out node -> replica-set member
  kDivertStore = 111,     // overloaded member -> diversion target
  kDivertResult = 112,    // diversion target -> member
  kStoreReceiptMsg = 113, // member -> client
  kStoreNack = 114,       // member -> client
  kLookupReply = 115,     // holder -> client
  kFetchRequest = 116,    // root/peer -> holder
  kFetchReply = 117,      // holder -> requester (or straight to client)
  kReclaimReplica = 118,  // root -> member
  kReclaimReceiptMsg = 119,  // member -> client
  kCachePush = 120,       // holder -> node near the client
  kReplicaNotify = 121,   // maintenance pass -> every other replica-set member
  kAuditChallenge = 122,
  kAuditResponse = 123,
};

struct InsertRequestPayload : WireRecord<InsertRequestPayload> {
  static constexpr PastOp kOp = PastOp::kInsertRequest;

  FileCertificate cert;
  Bytes content;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.cert, p.content, p.client); }
};

struct StoreReplicaPayload : WireRecord<StoreReplicaPayload> {
  static constexpr PastOp kOp = PastOp::kStoreReplica;

  FileCertificate cert;
  Bytes content;
  NodeDescriptor client;
  bool divert_allowed = true;

  static auto Fields(auto& p) {
    return std::tie(p.cert, p.content, p.client, p.divert_allowed);
  }
};

struct DivertStorePayload : WireRecord<DivertStorePayload> {
  static constexpr PastOp kOp = PastOp::kDivertStore;

  FileCertificate cert;
  Bytes content;
  NodeDescriptor client;
  NodeDescriptor primary;  // the node that keeps the pointer

  static auto Fields(auto& p) { return std::tie(p.cert, p.content, p.client, p.primary); }
};

struct DivertResultPayload : WireRecord<DivertResultPayload> {
  static constexpr PastOp kOp = PastOp::kDivertResult;

  FileId file_id;
  bool accepted = false;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.file_id, p.accepted, p.client); }
};

struct StoreReceiptPayload : WireRecord<StoreReceiptPayload> {
  static constexpr PastOp kOp = PastOp::kStoreReceiptMsg;

  StoreReceipt receipt;

  static auto Fields(auto& p) { return std::tie(p.receipt); }
};

struct StoreNackPayload : WireRecord<StoreNackPayload> {
  static constexpr PastOp kOp = PastOp::kStoreNack;

  FileId file_id;
  uint8_t reason = 0;  // StatusCode, narrowed

  static auto Fields(auto& p) { return std::tie(p.file_id, p.reason); }
};

struct LookupRequestPayload : WireRecord<LookupRequestPayload> {
  static constexpr PastOp kOp = PastOp::kLookupRequest;

  FileId file_id;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.file_id, p.client); }
};

struct LookupReplyPayload : WireRecord<LookupReplyPayload> {
  static constexpr PastOp kOp = PastOp::kLookupReply;

  FileCertificate cert;
  Bytes content;
  bool from_cache = false;
  NodeDescriptor replier;

  static auto Fields(auto& p) {
    return std::tie(p.cert, p.content, p.from_cache, p.replier);
  }
};

struct FetchRequestPayload : WireRecord<FetchRequestPayload> {
  static constexpr PastOp kOp = PastOp::kFetchRequest;

  FileId file_id;
  // When valid, the holder answers the client directly (lookup indirection
  // for diverted replicas); otherwise it answers the requester (maintenance).
  NodeDescriptor client;
  bool for_lookup = false;

  static auto Fields(auto& p) { return std::tie(p.file_id, p.client, p.for_lookup); }
};

struct FetchReplyPayload : WireRecord<FetchReplyPayload> {
  static constexpr PastOp kOp = PastOp::kFetchReply;

  bool found = false;
  FileCertificate cert;
  Bytes content;

  static auto Fields(auto& p) { return std::tie(p.found, p.cert, p.content); }
};

struct ReclaimRequestPayload : WireRecord<ReclaimRequestPayload> {
  static constexpr PastOp kOp = PastOp::kReclaimRequest;

  ReclaimCertificate cert;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.cert, p.client); }
};

// The reclaim the root passes on to each replica-set member (and a member
// to the holder of a diverted replica): the request's fields and bytes under
// its own code.
struct ReclaimReplicaPayload : WireRecord<ReclaimReplicaPayload> {
  static constexpr PastOp kOp = PastOp::kReclaimReplica;

  ReclaimCertificate cert;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.cert, p.client); }
};

struct ReclaimReceiptPayload : WireRecord<ReclaimReceiptPayload> {
  static constexpr PastOp kOp = PastOp::kReclaimReceiptMsg;

  ReclaimReceipt receipt;

  static auto Fields(auto& p) { return std::tie(p.receipt); }
};

struct CachePushPayload : WireRecord<CachePushPayload> {
  static constexpr PastOp kOp = PastOp::kCachePush;

  FileCertificate cert;
  Bytes content;

  static auto Fields(auto& p) { return std::tie(p.cert, p.content); }
};

// One file a maintenance pass offers: the receiver fetches it from the
// sender unless it already holds it or cannot fit it.
struct ReplicaOffer {
  FileId file_id;
  uint64_t file_size = 0;

  static auto Fields(auto& o) { return std::tie(o.file_id, o.file_size); }
};

// Every file one maintenance pass offers to one replica-set member.
struct ReplicaNotifyPayload : WireRecord<ReplicaNotifyPayload> {
  static constexpr PastOp kOp = PastOp::kReplicaNotify;

  std::vector<ReplicaOffer> offers;

  static auto Fields(auto& p) { return std::tie(p.offers); }
};

struct AuditChallengePayload : WireRecord<AuditChallengePayload> {
  static constexpr PastOp kOp = PastOp::kAuditChallenge;

  FileId file_id;
  uint64_t nonce = 0;

  static auto Fields(auto& p) { return std::tie(p.file_id, p.nonce); }
};

struct AuditResponsePayload : WireRecord<AuditResponsePayload> {
  static constexpr PastOp kOp = PastOp::kAuditResponse;

  FileId file_id;
  uint64_t nonce = 0;
  bool has_file = false;
  Bytes digest;  // SHA-256(content || nonce) — or size-keyed digest for
                 // synthetic content

  static auto Fields(auto& p) {
    return std::tie(p.file_id, p.nonce, p.has_file, p.digest);
  }
};

template <typename P>
using PastOpCode = std::integral_constant<PastOp, P::kOp>;

// Every PAST payload, each under its kOp. The order is the fuzz driver's
// selector (tests/fuzz/fuzz_storage_messages.cc), which its corpus names.
using PastPayloads =
    RecordList<PastOpCode, InsertRequestPayload, StoreReplicaPayload, DivertStorePayload,
               DivertResultPayload, StoreReceiptPayload, StoreNackPayload, LookupRequestPayload,
               LookupReplyPayload, FetchRequestPayload, FetchReplyPayload, ReclaimRequestPayload,
               ReclaimReceiptPayload, CachePushPayload, ReplicaNotifyPayload,
               AuditChallengePayload, AuditResponsePayload, ReclaimReplicaPayload>;

}  // namespace past
