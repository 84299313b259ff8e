// Early insert fan-out: the first node on an insert's route that provably
// knows the file's replica set (PastryNode::KnownReplicaSet), the client
// included, verifies the certificate and sends the k replicas itself; the
// root fans out only the inserts no earlier node could.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "tests/storage/past_test_util.h"

namespace past {
namespace {

uint64_t CounterValue(PastNetwork& net, const char* name) {
  return net.overlay().network().metrics().GetCounter(name)->value();
}

// The counters one insert moves, read before and after it.
struct FanOutCounts {
  explicit FanOutCounts(PastNetwork& net)
      : early(CounterValue(net, "past.inserts_fanned_early")),
        rooted(CounterValue(net, "past.inserts_rooted")),
        forwarded(CounterValue(net, "pastry.forwarded")),
        bad_certificates(CounterValue(net, "past.bad_certificates")),
        store_rejects(CounterValue(net, "past.store_rejects")) {}
  uint64_t early;
  uint64_t rooted;
  uint64_t forwarded;
  uint64_t bad_certificates;
  uint64_t store_rejects;
};

TEST(PastFanOutTest, ClientThatKnowsTheSetSendsNoRoutedInsert) {
  constexpr uint32_t kK = 3;
  PastNetwork net(SmallNetOptions(601));
  net.Build(60);
  net.Run(10 * kMicrosPerSecond);
  PastNode* client = net.node(7);
  int at_client = 0;
  int routed = 0;
  for (int i = 0; i < 12; ++i) {
    const FanOutCounts before(net);
    auto inserted = net.InsertSync(client, "fan-" + std::to_string(i),
                                   ToBytes("fanned out " + std::to_string(i)), kK);
    ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
    const FanOutCounts after(net);
    const FileId id = inserted.value();
    // Each insert fans out exactly once, early or at the root.
    EXPECT_EQ(after.early - before.early + after.rooted - before.rooted, 1u);
    EXPECT_EQ(net.CountReplicas(id), static_cast<int>(kK));
    const std::optional<std::vector<NodeDescriptor>> known =
        client->overlay()->KnownReplicaSet(id.Top128(), static_cast<int>(kK));
    if (client->overlay()->ReplicaSet(id.Top128(), 1).front().id == client->overlay()->id()) {
      continue;  // the client is the root
    }
    if (!known.has_value()) {
      ++routed;
      EXPECT_GT(after.forwarded, before.forwarded);
      continue;
    }
    // The client absorbed its own route: not one routed hop, and the k
    // receipts came from the set it knew.
    ++at_client;
    EXPECT_EQ(after.forwarded, before.forwarded);
    EXPECT_EQ(after.early, before.early + 1);
    EXPECT_EQ(after.rooted, before.rooted);
    for (const NodeDescriptor& member : *known) {
      EXPECT_TRUE(net.NodeByAddr(member.addr)->store().Has(id));
    }
  }
  EXPECT_GT(at_client, 0);
  EXPECT_GT(routed, 0);
}

TEST(PastFanOutTest, ForgedCertificateNackedAtFanOutNode) {
  PastNetwork net(SmallNetOptions(603));
  net.Build(60);
  net.Run(10 * kMicrosPerSecond);
  // The insert's client is a bare endpoint that records the NACKs it gets.
  struct NackSpy : public NetReceiver {
    std::vector<StoreNackPayload> nacks;
    void OnMessage(NodeAddr, ByteSpan wire) override {
      Reader r(wire);
      PastryMsgType type;
      AppDirectMsg msg;
      StoreNackPayload nack;
      if (DecodeHeader(&r, &type) && type == PastryMsgType::kAppDirect &&
          DecodeBodyStrict(&r, &msg) &&
          msg.app_type == static_cast<uint32_t>(PastOp::kStoreNack) &&
          StoreNackPayload::Decode(msg.payload, &nack)) {
        nacks.push_back(nack);
      }
    }
  } spy;
  const NodeDescriptor spy_desc{net.overlay().RandomKey(),
                                net.overlay().network().Register(&spy)};

  // A card the broker never issued signs the certificate; the salt is
  // chosen so that the sending node knows the file's replica set.
  Rng rng(5);
  Smartcard rogue(RsaKeyPair::Generate(256, &rng), Bytes(32, 0xaa),
                  net.broker().public_key(), /*usage_quota=*/1 << 30,
                  /*contributed=*/0, INT64_MAX);
  PastryNode* sender = net.node(6)->overlay();
  const Bytes content = ToBytes("forged");
  const auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
  std::optional<FileCertificate> cert;
  for (uint64_t salt = 1; salt < 64 && !cert.has_value(); ++salt) {
    Result<FileCertificate> c = rogue.IssueFileCertificate(
        "forged", content.size(), ByteSpan(digest.data(), digest.size()), 3, salt, 0);
    ASSERT_TRUE(c.ok());
    const std::optional<std::vector<NodeDescriptor>> known =
        sender->KnownReplicaSet(c.value().file_id.Top128(), 3);
    if (known.has_value() && known->front().id != sender->id()) {
      cert = std::move(c).value();  // known, and the root is another node
    }
  }
  ASSERT_TRUE(cert.has_value());

  const FanOutCounts before(net);
  InsertRequestPayload payload;
  payload.cert = *cert;
  payload.content = content;
  payload.client = spy_desc;
  sender->Route(cert->file_id.Top128(), static_cast<uint32_t>(InsertRequestPayload::kOp),
                payload.Encode());
  net.Run(5 * kMicrosPerSecond);
  const FanOutCounts after(net);

  EXPECT_EQ(after.early, before.early + 1);
  EXPECT_EQ(after.rooted, before.rooted);
  EXPECT_EQ(after.forwarded, before.forwarded);
  EXPECT_EQ(after.bad_certificates, before.bad_certificates + 1);
  EXPECT_EQ(after.store_rejects, before.store_rejects) << "no replica was sent";
  EXPECT_EQ(net.CountReplicas(cert->file_id), 0);
  ASSERT_EQ(spy.nacks.size(), 1u);
  EXPECT_EQ(spy.nacks[0].file_id, cert->file_id);
  EXPECT_EQ(spy.nacks[0].reason, static_cast<uint8_t>(StatusCode::kVerificationFailed));
}

TEST(PastFanOutTest, SmallRingsFanOutAtTheRoot) {
  // With at most l nodes a leaf set lists some node on both sides, so it
  // proves no replica set and every insert goes to the root. With l + 1 each
  // node's sides list the other l nodes once, and it knows every set.
  constexpr int kLeafSetSize = 32;
  for (int nodes : {kLeafSetSize, kLeafSetSize + 1}) {
    PastNetwork net(SmallNetOptions(605));
    ASSERT_EQ(net.options().overlay.pastry.leaf_set_size, kLeafSetSize);
    net.Build(nodes);
    net.Run(10 * kMicrosPerSecond);
    for (int i = 0; i < 16; ++i) {
      PastNode* client = net.node(static_cast<size_t>(i) * 2);
      auto inserted = net.InsertSync(client, "small-" + std::to_string(i),
                                     ToBytes("small ring"), 3);
      ASSERT_TRUE(inserted.ok());
      EXPECT_EQ(net.CountReplicas(inserted.value()), 3);
    }
    const uint64_t early = CounterValue(net, "past.inserts_fanned_early");
    EXPECT_EQ(early + CounterValue(net, "past.inserts_rooted"), 16u);
    if (nodes == kLeafSetSize) {
      EXPECT_EQ(early, 0u);
    } else {
      EXPECT_GT(early, 0u);
    }
  }
}

}  // namespace
}  // namespace past
