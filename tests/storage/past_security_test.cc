// Security properties (Section 2.1): forged certificates are refused by
// storage nodes, corrupted content is detected, unauthorized reclaims fail,
// freeloading nodes are exposed by audits, and quota cheating is impossible
// through the protocol.
#include <gtest/gtest.h>

#include "src/crypto/sha256.h"
#include "tests/storage/past_test_util.h"

namespace past {
namespace {

class PastSecurityTest : public ::testing::Test {
 protected:
  PastSecurityTest() : net_(SmallNetOptions(401)) { net_.Build(30); }

  PastNetwork net_;
};

TEST_F(PastSecurityTest, UncertifiedCardsCertificatesRejected) {
  // A self-made card (not issued by the broker) produces certificates that
  // storage nodes refuse.
  Rng rng(1);
  RsaKeyPair rogue_key = RsaKeyPair::Generate(256, &rng);
  Bytes fake_sig(32, 0xaa);
  Smartcard rogue(rogue_key, fake_sig, net_.broker().public_key(),
                  /*usage_quota=*/1 << 30, /*contributed=*/0, INT64_MAX);
  Bytes content = ToBytes("evil");
  auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
  auto cert = rogue.IssueFileCertificate("evil", content.size(),
                                         ByteSpan(digest.data(), digest.size()),
                                         3, 1, 0);
  ASSERT_TRUE(cert.ok());
  EXPECT_FALSE(cert.value().Verify(net_.broker().public_key()));

  // Ship it through the real insert path by injecting the payload directly.
  PastNode* root = net_.node(5);
  InsertRequestPayload payload;
  payload.cert = cert.value();
  payload.content = content;
  payload.client = net_.node(6)->overlay()->descriptor();
  net_.node(6)->overlay()->Route(cert.value().file_id.Top128(),
                                 static_cast<uint32_t>(InsertRequestPayload::kOp),
                                 payload.Encode());
  net_.Run(10 * kMicrosPerSecond);
  EXPECT_EQ(net_.CountReplicas(cert.value().file_id), 0);
  (void)root;
}

TEST_F(PastSecurityTest, CorruptedContentEnRouteDetected) {
  // A certificate for content A paired with content B (as a malicious
  // intermediate would forward it) must be refused by every storage node.
  PastNode* client = net_.node(3);
  Bytes content = ToBytes("genuine bytes");
  auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
  auto cert = client->card().IssueFileCertificate(
      "swap", content.size(), ByteSpan(digest.data(), digest.size()), 3, 99, 0);
  ASSERT_TRUE(cert.ok());

  InsertRequestPayload payload;
  payload.cert = cert.value();
  payload.content = ToBytes("swapped bytes");  // corrupted en route
  payload.client = client->overlay()->descriptor();
  client->overlay()->Route(cert.value().file_id.Top128(),
                           static_cast<uint32_t>(InsertRequestPayload::kOp),
                           payload.Encode());
  net_.Run(10 * kMicrosPerSecond);
  EXPECT_EQ(net_.CountReplicas(cert.value().file_id), 0);
}

TEST_F(PastSecurityTest, ForgedReclaimIsIgnoredByStorageNodes) {
  PastNode* owner = net_.node(2);
  PastNode* attacker = net_.node(19);
  auto inserted = net_.InsertSync(owner, "victim-file", ToBytes("keep me"), 3);
  ASSERT_TRUE(inserted.ok());
  FileId id = inserted.value();

  // The attacker crafts a reclaim certificate with its own (valid) card and
  // routes it: storage nodes must reject the owner mismatch.
  ReclaimRequestPayload payload;
  payload.cert = attacker->card().IssueReclaimCertificate(id, 0);
  payload.client = attacker->overlay()->descriptor();
  attacker->overlay()->Route(id.Top128(),
                             static_cast<uint32_t>(ReclaimRequestPayload::kOp),
                             payload.Encode());
  net_.Run(10 * kMicrosPerSecond);
  EXPECT_EQ(net_.CountReplicas(id), 3) << "replicas must survive forged reclaim";
  auto looked = net_.LookupSync(net_.node(9), id);
  EXPECT_TRUE(looked.ok());
}

TEST_F(PastSecurityTest, AuditDistinguishesHoldersFromNonHolders) {
  PastNetwork net(SmallNetOptions(403));
  net.Build(20);
  PastNode* client = net.node(0);
  auto inserted = net.InsertSync(client, "audit-me", ToBytes("proof"), 3);
  ASSERT_TRUE(inserted.ok());
  const FileCertificate* cert = client->OwnedFileCert(inserted.value());
  ASSERT_NE(cert, nullptr);

  // Honest holders pass the audit.
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->store().Has(inserted.value())) {
      EXPECT_TRUE(net.AuditSync(client, net.node(i)->overlay()->addr(),
                                inserted.value(), *cert));
    }
  }
  // A node that does not hold the file fails the audit.
  for (size_t i = 0; i < net.size(); ++i) {
    if (!net.node(i)->store().Has(inserted.value()) && net.node(i) != client) {
      EXPECT_FALSE(net.AuditSync(client, net.node(i)->overlay()->addr(),
                                 inserted.value(), *cert));
      break;
    }
  }
}

TEST_F(PastSecurityTest, ConcurrentAuditsOfOneFileEachReport) {
  // An auditor that checks every holder at once has several audits of one
  // file in flight; each must report its own verdict.
  PastNode* client = net_.node(0);
  auto inserted = net_.InsertSync(client, "audit-all", ToBytes("proof"), 3);
  ASSERT_TRUE(inserted.ok());
  const FileId id = inserted.value();
  const FileCertificate* cert = client->OwnedFileCert(id);
  ASSERT_NE(cert, nullptr);
  std::vector<NodeAddr> holders;
  for (size_t i = 0; i < net_.size(); ++i) {
    if (net_.node(i) != client && net_.node(i)->store().Has(id)) {
      holders.push_back(net_.node(i)->overlay()->addr());
    }
  }
  ASSERT_GE(holders.size(), 2u);

  int answered = 0;
  int passed = 0;
  for (size_t h = 0; h < 2; ++h) {
    client->Audit(holders[h], id, *cert, [&](bool ok) {
      ++answered;
      passed += ok ? 1 : 0;
    });
  }
  net_.Run(2 * net_.options().past.request_timeout);
  EXPECT_EQ(answered, 2);
  EXPECT_EQ(passed, 2);
}

TEST_F(PastSecurityTest, FreeloaderIssuesReceiptsButFailsAudit) {
  // A network whose nodes are all dishonest: inserts "succeed" (receipts
  // arrive) but every audit fails — exactly the attack audits exist for.
  PastNetworkOptions options = SmallNetOptions(405);
  options.past.honest = false;
  PastNetwork net(options);
  net.Build(15);
  PastNode* client = net.node(0);
  auto inserted = net.InsertSync(client, "phantom", ToBytes("never stored"), 3);
  ASSERT_TRUE(inserted.ok()) << "freeloaders do return receipts";
  EXPECT_EQ(net.CountReplicas(inserted.value()), 0) << "nothing actually stored";
  const FileCertificate* cert = client->OwnedFileCert(inserted.value());
  ASSERT_NE(cert, nullptr);
  int failures = 0;
  for (size_t i = 1; i < 6; ++i) {
    if (!net.AuditSync(client, net.node(i)->overlay()->addr(), inserted.value(),
                       *cert)) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 5);
}

TEST_F(PastSecurityTest, QuotaCannotGoNegativeViaDoubleReclaim) {
  PastNode* client = net_.node(4);
  auto inserted = net_.InsertSync(client, "dd", Bytes(100, 1), 2);
  ASSERT_TRUE(inserted.ok());
  uint64_t used_after_insert = client->card().quota_used();
  ASSERT_EQ(net_.ReclaimSync(client, inserted.value()), StatusCode::kOk);
  uint64_t used_after_reclaim = client->card().quota_used();
  EXPECT_EQ(used_after_reclaim, used_after_insert - 200);
  // Replaying stray receipts can never credit again (card tracks fileIds).
  EXPECT_EQ(net_.ReclaimSync(client, inserted.value()), StatusCode::kNotFound);
  EXPECT_EQ(client->card().quota_used(), used_after_reclaim);
}

TEST_F(PastSecurityTest, LookupVerifiesContentAgainstCertificate) {
  // A malicious replier returning bogus content with a mismatched hash is
  // ignored by the client (which then times out or accepts a honest reply).
  PastNode* client = net_.node(8);
  Bytes content = ToBytes("authentic");
  auto inserted = net_.InsertSync(client, "verify", content, 3);
  ASSERT_TRUE(inserted.ok());
  auto looked = net_.LookupSync(net_.node(15), inserted.value());
  ASSERT_TRUE(looked.ok());
  // The returned certificate is broker-certified and matches the content.
  EXPECT_TRUE(looked.value().cert.Verify(net_.broker().public_key()));
  EXPECT_TRUE(looked.value().cert.MatchesContent(looked.value().content));
}

// A replica reaches a storing node three ways: as a primary (covered above),
// as a maintenance fetch and as a diversion. Each must refuse bytes that do
// not match the certificate, even under a genuine owner signature.
class ForgedReplicaTest : public PastSecurityTest {
 protected:
  // A genuine certificate for `content_`, never inserted, so no node holds
  // it. `target_` is the file's root, so maintenance never demotes it there.
  void SetUp() override {
    auto digest = Sha256::Hash(content_);
    auto cert = net_.node(3)->card().IssueFileCertificate(
        "forged", content_.size(), ByteSpan(digest.data(), digest.size()), 3, 7, 0);
    ASSERT_TRUE(cert.ok());
    cert_ = cert.value();
    target_ = net_.NodeByAddr(
        net_.overlay().GloballyClosestLiveNode(cert_.file_id.Top128())->addr());
    sender_ = net_.node(target_ == net_.node(12) ? 13 : 12);
  }
  // Sends `payload` to `target_` straight from `sender_`, under its op.
  template <typename Payload>
  void SendToTarget(const Payload& payload) {
    PastryNode* from = sender_->overlay();
    from->SendDirectWire(target_->overlay()->addr(),
                         from->EncodeDirect(static_cast<uint32_t>(Payload::kOp), payload));
    net_.Run(2 * kMicrosPerSecond);
  }
  uint64_t Count(const char* name) {
    return net_.overlay().network().metrics().FindCounter(name)->value();
  }

  const Bytes content_ = ToBytes("genuine bytes");
  FileCertificate cert_;
  PastNode* target_ = nullptr;
  PastNode* sender_ = nullptr;
};

TEST_F(ForgedReplicaTest, ForgedFetchReplyIsNotStored) {
  FetchReplyPayload reply;
  reply.found = true;
  reply.cert = cert_;
  reply.content = ToBytes("forged  bytes");
  const uint64_t bad_before = Count("past.bad_certificates");
  SendToTarget(reply);
  EXPECT_FALSE(target_->store().Has(cert_.file_id));
  EXPECT_EQ(Count("past.bad_certificates"), bad_before + 1);

  // The same reply with the certified bytes is stored.
  reply.content = content_;
  SendToTarget(reply);
  EXPECT_TRUE(target_->store().Has(cert_.file_id));
}

TEST_F(ForgedReplicaTest, ForgedDiversionIsNotStored) {
  DivertStorePayload divert;
  divert.cert = cert_;
  divert.content = ToBytes("forged  bytes");
  divert.client = net_.node(3)->overlay()->descriptor();
  divert.primary = sender_->overlay()->descriptor();
  const uint64_t accepted_before = Count("past.diverted_accepted");
  SendToTarget(divert);
  EXPECT_FALSE(target_->store().Has(cert_.file_id));
  EXPECT_EQ(Count("past.diverted_accepted"), accepted_before);

  // The same diversion with the certified bytes is stored.
  divert.content = content_;
  SendToTarget(divert);
  ASSERT_TRUE(target_->store().Has(cert_.file_id));
  EXPECT_TRUE(target_->store().Get(cert_.file_id)->diverted);
  EXPECT_EQ(Count("past.diverted_accepted"), accepted_before + 1);
}

TEST_F(PastSecurityTest, StrayReceiptTriggersNoReclaim) {
  // A store receipt names no client, so any node can mint one for any file.
  // The owner of a file forgets it on a restart; a receipt for the file sent
  // to the owner then must not make it reclaim the file, as a receipt of an
  // insert attempt it failed would.
  const size_t owner_index = 2;
  auto inserted = net_.InsertSync(net_.node(owner_index), "kept", ToBytes("keep me"), 3);
  ASSERT_TRUE(inserted.ok());
  const FileId id = inserted.value();
  net_.CrashNode(owner_index);
  net_.Run(2 * kMicrosPerSecond);
  PastNode* owner = net_.RestartNode(owner_index);
  net_.Run(30 * kMicrosPerSecond);
  ASSERT_EQ(owner->OwnedFileCert(id), nullptr);
  const int replicas = net_.CountReplicas(id);
  ASSERT_GE(replicas, 3);
  const Counter* reclaims =
      net_.overlay().network().metrics().FindCounter("past.reclaims_processed");
  const uint64_t reclaims_before = reclaims->value();

  PastryNode* sender = net_.node(19)->overlay();
  StoreReceiptPayload receipt;
  receipt.receipt =
      net_.node(19)->card().IssueStoreReceipt(id, /*diverted=*/false, net_.queue().Now());
  sender->SendDirectWire(
      owner->overlay()->addr(),
      sender->EncodeDirect(static_cast<uint32_t>(StoreReceiptPayload::kOp), receipt));
  net_.Run(10 * kMicrosPerSecond);
  EXPECT_EQ(reclaims->value(), reclaims_before);
  EXPECT_EQ(net_.CountReplicas(id), replicas);
}

TEST_F(PastSecurityTest, NodeIdsAreBoundToCards) {
  // Every node's overlay id equals the hash of its card's public key, so an
  // attacker cannot choose its position in the id space.
  for (size_t i = 0; i < net_.size(); ++i) {
    EXPECT_EQ(net_.node(i)->overlay()->id(), net_.node(i)->card().DerivedNodeId());
  }
}

}  // namespace
}  // namespace past
