// Fuzz driver for the PAST application payload codecs (src/storage/messages.h).
//
// Input format: byte 0 selects one of the 16 payload types, the remainder is
// the payload buffer handed to that type's Decode(). Decoding arbitrary bytes
// must never crash, and an accepted payload must re-encode idempotently:
// Decode -> Encode -> Decode -> Encode is byte-stable.
#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/storage/messages.h"
#include "src/storage/smartcard.h"
#include "tests/fuzz/fuzz_util.h"

namespace {

using namespace past;  // NOLINT

// Payload types in a fixed dispatch order; byte 0 of the input indexes this
// list (mod 16).
enum Selector : uint8_t {
  kSelInsertRequest = 0,
  kSelStoreReplica,
  kSelDivertStore,
  kSelDivertResult,
  kSelStoreReceipt,
  kSelStoreNack,
  kSelLookupRequest,
  kSelLookupReply,
  kSelFetchRequest,
  kSelFetchReply,
  kSelReclaimRequest,
  kSelReclaimReceipt,
  kSelCachePush,
  kSelReplicaNotify,
  kSelAuditChallenge,
  kSelAuditResponse,
  kSelCount,
};

template <typename P>
void CheckPayload(ByteSpan body) {
  P payload;
  if (!P::Decode(body, &payload)) {
    return;
  }
  Bytes once = payload.Encode();
  P payload2;
  FUZZ_ASSERT(P::Decode(ByteSpan(once.data(), once.size()), &payload2),
              "re-encoded payload must decode");
  Bytes twice = payload2.Encode();
  FUZZ_ASSERT(once == twice, "encode must be idempotent after one round trip");
}

void TestOneInput(ByteSpan data) {
  if (data.empty()) {
    return;
  }
  ByteSpan body = data.subspan(1);
  switch (data[0] % kSelCount) {
    case kSelInsertRequest:
      CheckPayload<InsertRequestPayload>(body);
      break;
    case kSelStoreReplica:
      CheckPayload<StoreReplicaPayload>(body);
      break;
    case kSelDivertStore:
      CheckPayload<DivertStorePayload>(body);
      break;
    case kSelDivertResult:
      CheckPayload<DivertResultPayload>(body);
      break;
    case kSelStoreReceipt:
      CheckPayload<StoreReceiptPayload>(body);
      break;
    case kSelStoreNack:
      CheckPayload<StoreNackPayload>(body);
      break;
    case kSelLookupRequest:
      CheckPayload<LookupRequestPayload>(body);
      break;
    case kSelLookupReply:
      CheckPayload<LookupReplyPayload>(body);
      break;
    case kSelFetchRequest:
      CheckPayload<FetchRequestPayload>(body);
      break;
    case kSelFetchReply:
      CheckPayload<FetchReplyPayload>(body);
      break;
    case kSelReclaimRequest:
      CheckPayload<ReclaimRequestPayload>(body);
      break;
    case kSelReclaimReceipt:
      CheckPayload<ReclaimReceiptPayload>(body);
      break;
    case kSelCachePush:
      CheckPayload<CachePushPayload>(body);
      break;
    case kSelReplicaNotify:
      CheckPayload<ReplicaNotifyPayload>(body);
      break;
    case kSelAuditChallenge:
      CheckPayload<AuditChallengePayload>(body);
      break;
    case kSelAuditResponse:
      CheckPayload<AuditResponsePayload>(body);
      break;
  }
}

Bytes WithSelector(uint8_t selector, const Bytes& body) {
  Bytes out;
  out.reserve(body.size() + 1);
  out.push_back(selector);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<Bytes> SeedInputs() {
  // A real broker-issued certificate exercises the nested CardIdentity /
  // signature decoding paths; everything is seeded, so seeds are stable.
  Broker broker(3, BrokerOptions{});
  std::unique_ptr<Smartcard> card =
      std::move(broker.IssueCard(1 << 20, 1 << 20)).value();
  Rng rng(11);

  Bytes content = ToBytes("fuzz seed content");
  auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
  FileCertificate cert =
      std::move(card->IssueFileCertificate(
                    "fuzz-file", content.size(),
                    ByteSpan(digest.data(), digest.size()), 3, 99, 7))
          .value();
  NodeDescriptor client{rng.NextU128(), 17};
  NodeDescriptor primary{rng.NextU128(), 23};

  std::vector<Bytes> seeds;

  InsertRequestPayload insert;
  insert.cert = cert;
  insert.content = content;
  insert.client = client;
  seeds.push_back(WithSelector(kSelInsertRequest, insert.Encode()));

  StoreReplicaPayload replica;
  replica.cert = cert;
  replica.content = content;
  replica.client = client;
  replica.divert_allowed = false;
  seeds.push_back(WithSelector(kSelStoreReplica, replica.Encode()));

  DivertStorePayload divert;
  divert.cert = cert;
  divert.content = content;
  divert.client = client;
  divert.primary = primary;
  seeds.push_back(WithSelector(kSelDivertStore, divert.Encode()));

  DivertResultPayload divert_result;
  divert_result.file_id = cert.file_id;
  divert_result.accepted = true;
  divert_result.client = client;
  seeds.push_back(WithSelector(kSelDivertResult, divert_result.Encode()));

  StoreReceiptPayload receipt;
  receipt.receipt = card->IssueStoreReceipt(cert.file_id, true, 1234);
  seeds.push_back(WithSelector(kSelStoreReceipt, receipt.Encode()));

  StoreNackPayload nack;
  nack.file_id = cert.file_id;
  nack.reason = 5;
  seeds.push_back(WithSelector(kSelStoreNack, nack.Encode()));

  LookupRequestPayload lookup;
  lookup.file_id = cert.file_id;
  lookup.client = client;
  seeds.push_back(WithSelector(kSelLookupRequest, lookup.Encode()));

  LookupReplyPayload reply;
  reply.cert = cert;
  reply.content = content;
  reply.from_cache = true;
  reply.replier = primary;
  seeds.push_back(WithSelector(kSelLookupReply, reply.Encode()));

  FetchRequestPayload fetch;
  fetch.file_id = cert.file_id;
  fetch.client = client;
  fetch.for_lookup = true;
  seeds.push_back(WithSelector(kSelFetchRequest, fetch.Encode()));

  FetchReplyPayload fetch_reply;
  fetch_reply.found = true;
  fetch_reply.cert = cert;
  fetch_reply.content = content;
  seeds.push_back(WithSelector(kSelFetchReply, fetch_reply.Encode()));

  ReclaimRequestPayload reclaim;
  reclaim.cert = card->IssueReclaimCertificate(cert.file_id, 5678);
  reclaim.client = client;
  seeds.push_back(WithSelector(kSelReclaimRequest, reclaim.Encode()));

  ReclaimReceiptPayload reclaim_receipt;
  reclaim_receipt.receipt =
      card->IssueReclaimReceipt(cert.file_id, content.size(), 5678);
  seeds.push_back(WithSelector(kSelReclaimReceipt, reclaim_receipt.Encode()));

  CachePushPayload cache;
  cache.cert = cert;
  cache.content = content;
  seeds.push_back(WithSelector(kSelCachePush, cache.Encode()));

  ReplicaNotifyPayload notify;
  notify.offers = {{cert.file_id, content.size()}};
  seeds.push_back(WithSelector(kSelReplicaNotify, notify.Encode()));

  AuditChallengePayload challenge;
  challenge.file_id = cert.file_id;
  challenge.nonce = 0xabcdef;
  seeds.push_back(WithSelector(kSelAuditChallenge, challenge.Encode()));

  AuditResponsePayload response;
  response.file_id = cert.file_id;
  response.nonce = 0xabcdef;
  response.has_file = true;
  response.digest = Bytes(digest.begin(), digest.end());
  seeds.push_back(WithSelector(kSelAuditResponse, response.Encode()));

  return seeds;
}

}  // namespace

PAST_FUZZ_MAIN(TestOneInput, SeedInputs)
