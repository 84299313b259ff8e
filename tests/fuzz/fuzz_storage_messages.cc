// Fuzz driver for the PAST application payload codecs (src/storage/messages.h).
//
// Input format: byte 0 selects a payload record by its place in PastPayloads
// (mod the list's size), the remainder is the payload handed to
// PastPayloads::Visit under that record's op. Decoding arbitrary bytes must
// never crash, and an accepted payload must re-encode idempotently:
// Decode -> Encode -> Decode -> Encode is byte-stable.
#include <algorithm>
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

template <typename P>
void CheckRoundTrip(const P& payload) {
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
  const PastOp op = PastPayloads::kCodes[data[0] % PastPayloads::kCodes.size()];
  Reader r(data.subspan(1));
  FUZZ_ASSERT(PastPayloads::Visit(op, &r, [](const auto& payload) { CheckRoundTrip(payload); }),
              "every listed op must name a payload");
}

// A seed input: the payload's place in PastPayloads, then its encoding.
template <typename P>
Bytes Seed(const P& payload) {
  const auto& codes = PastPayloads::kCodes;
  Bytes out = {static_cast<uint8_t>(std::find(codes.begin(), codes.end(), P::kOp) - codes.begin())};
  const Bytes body = payload.Encode();
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
  seeds.push_back(Seed(insert));

  StoreReplicaPayload replica;
  replica.cert = cert;
  replica.content = content;
  replica.client = client;
  replica.divert_allowed = false;
  seeds.push_back(Seed(replica));

  DivertStorePayload divert;
  divert.cert = cert;
  divert.content = content;
  divert.client = client;
  divert.primary = primary;
  seeds.push_back(Seed(divert));

  DivertResultPayload divert_result;
  divert_result.file_id = cert.file_id;
  divert_result.accepted = true;
  divert_result.client = client;
  seeds.push_back(Seed(divert_result));

  StoreReceiptPayload receipt;
  receipt.receipt = card->IssueStoreReceipt(cert.file_id, true, 1234);
  seeds.push_back(Seed(receipt));

  StoreNackPayload nack;
  nack.file_id = cert.file_id;
  nack.reason = 5;
  seeds.push_back(Seed(nack));

  LookupRequestPayload lookup;
  lookup.file_id = cert.file_id;
  lookup.client = client;
  seeds.push_back(Seed(lookup));

  LookupReplyPayload reply;
  reply.cert = cert;
  reply.content = content;
  reply.from_cache = true;
  reply.replier = primary;
  seeds.push_back(Seed(reply));

  FetchRequestPayload fetch;
  fetch.file_id = cert.file_id;
  fetch.client = client;
  fetch.for_lookup = true;
  seeds.push_back(Seed(fetch));

  FetchReplyPayload fetch_reply;
  fetch_reply.found = true;
  fetch_reply.cert = cert;
  fetch_reply.content = content;
  seeds.push_back(Seed(fetch_reply));

  ReclaimRequestPayload reclaim;
  reclaim.cert = card->IssueReclaimCertificate(cert.file_id, 5678);
  reclaim.client = client;
  seeds.push_back(Seed(reclaim));

  ReclaimReplicaPayload reclaim_replica;
  reclaim_replica.cert = reclaim.cert;
  reclaim_replica.client = client;
  seeds.push_back(Seed(reclaim_replica));

  ReclaimReceiptPayload reclaim_receipt;
  reclaim_receipt.receipt =
      card->IssueReclaimReceipt(cert.file_id, content.size(), 5678);
  seeds.push_back(Seed(reclaim_receipt));

  CachePushPayload cache;
  cache.cert = cert;
  cache.content = content;
  seeds.push_back(Seed(cache));

  ReplicaNotifyPayload notify;
  notify.offers = {{cert.file_id, content.size()}};
  seeds.push_back(Seed(notify));

  AuditChallengePayload challenge;
  challenge.file_id = cert.file_id;
  challenge.nonce = 0xabcdef;
  seeds.push_back(Seed(challenge));

  AuditResponsePayload response;
  response.file_id = cert.file_id;
  response.nonce = 0xabcdef;
  response.has_file = true;
  response.digest = Bytes(digest.begin(), digest.end());
  seeds.push_back(Seed(response));

  return seeds;
}

}  // namespace

PAST_FUZZ_MAIN(TestOneInput, SeedInputs)
