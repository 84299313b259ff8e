// PAST application payloads, carried inside Pastry routed / direct messages.
//
// Each payload lists its wire fields once (Fields). Its Encode() and
// Decode(), from WireRecord, run the field codec of src/common/serializer.h
// over that list; Decode requires the whole buffer to be consumed.
//
// Routed operations (keyed by the 128 msbs of the fileId): insert, lookup,
// reclaim. Direct operations: replica placement and diversion, receipts back
// to the client, fetches, cache pushes, replica maintenance and audits.
#pragma once

#include <tuple>
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
  kStoreReplica = 110,    // root -> replica-set member
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
  FileCertificate cert;
  Bytes content;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.cert, p.content, p.client); }
};

struct StoreReplicaPayload : WireRecord<StoreReplicaPayload> {
  FileCertificate cert;
  Bytes content;
  NodeDescriptor client;
  bool divert_allowed = true;

  static auto Fields(auto& p) {
    return std::tie(p.cert, p.content, p.client, p.divert_allowed);
  }
};

struct DivertStorePayload : WireRecord<DivertStorePayload> {
  FileCertificate cert;
  Bytes content;
  NodeDescriptor client;
  NodeDescriptor primary;  // the node that keeps the pointer

  static auto Fields(auto& p) { return std::tie(p.cert, p.content, p.client, p.primary); }
};

struct DivertResultPayload : WireRecord<DivertResultPayload> {
  FileId file_id;
  bool accepted = false;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.file_id, p.accepted, p.client); }
};

struct StoreReceiptPayload : WireRecord<StoreReceiptPayload> {
  StoreReceipt receipt;

  static auto Fields(auto& p) { return std::tie(p.receipt); }
};

struct StoreNackPayload : WireRecord<StoreNackPayload> {
  FileId file_id;
  uint8_t reason = 0;  // StatusCode, narrowed

  static auto Fields(auto& p) { return std::tie(p.file_id, p.reason); }
};

struct LookupRequestPayload : WireRecord<LookupRequestPayload> {
  FileId file_id;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.file_id, p.client); }
};

struct LookupReplyPayload : WireRecord<LookupReplyPayload> {
  FileCertificate cert;
  Bytes content;
  bool from_cache = false;
  NodeDescriptor replier;

  static auto Fields(auto& p) {
    return std::tie(p.cert, p.content, p.from_cache, p.replier);
  }
};

struct FetchRequestPayload : WireRecord<FetchRequestPayload> {
  FileId file_id;
  // When valid, the holder answers the client directly (lookup indirection
  // for diverted replicas); otherwise it answers the requester (maintenance).
  NodeDescriptor client;
  bool for_lookup = false;

  static auto Fields(auto& p) { return std::tie(p.file_id, p.client, p.for_lookup); }
};

struct FetchReplyPayload : WireRecord<FetchReplyPayload> {
  bool found = false;
  FileCertificate cert;
  Bytes content;

  static auto Fields(auto& p) { return std::tie(p.found, p.cert, p.content); }
};

struct ReclaimRequestPayload : WireRecord<ReclaimRequestPayload> {
  ReclaimCertificate cert;
  NodeDescriptor client;

  static auto Fields(auto& p) { return std::tie(p.cert, p.client); }
};

struct ReclaimReceiptPayload : WireRecord<ReclaimReceiptPayload> {
  ReclaimReceipt receipt;

  static auto Fields(auto& p) { return std::tie(p.receipt); }
};

struct CachePushPayload : WireRecord<CachePushPayload> {
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
  std::vector<ReplicaOffer> offers;

  static auto Fields(auto& p) { return std::tie(p.offers); }
};

struct AuditChallengePayload : WireRecord<AuditChallengePayload> {
  FileId file_id;
  uint64_t nonce = 0;

  static auto Fields(auto& p) { return std::tie(p.file_id, p.nonce); }
};

struct AuditResponsePayload : WireRecord<AuditResponsePayload> {
  FileId file_id;
  uint64_t nonce = 0;
  bool has_file = false;
  Bytes digest;  // SHA-256(content || nonce) — or size-keyed digest for
                 // synthetic content

  static auto Fields(auto& p) {
    return std::tie(p.file_id, p.nonce, p.has_file, p.digest);
  }
};

}  // namespace past

