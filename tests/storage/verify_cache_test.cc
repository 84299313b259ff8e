// VerifyCache unit tests plus metric pinning for the crypto.* counters.
//
// The pinning tests hold the instrument names and semantics stable: an
// insert-then-lookup of the same file must produce verify-cache hits on a
// live network, and a restarted node must start from an empty cache rather
// than serving memoized verdicts from its previous life.
#include "src/storage/verify_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/storage/past_network.h"

namespace past {
namespace {

Bytes Msg(const char* s) { return ToBytes(s); }

class VerifyCacheTest : public ::testing::Test {
 protected:
  uint64_t Count(const char* name) const {
    const Counter* c = metrics_.FindCounter(name);
    return c == nullptr ? 0 : c->value();
  }

  MetricsRegistry metrics_;
  Rng rng_{31337};
  RsaKeyPair key_ = RsaKeyPair::Generate(256, &rng_);
};

TEST_F(VerifyCacheTest, MemoizesValidSignature) {
  VerifyCache cache(16, metrics_);
  Bytes msg = Msg("memoized message");
  Bytes sig = RsaSignMessage(key_, msg);
  EXPECT_TRUE(cache.VerifyMessage(key_.pub, msg, sig));
  EXPECT_TRUE(cache.VerifyMessage(key_.pub, msg, sig));
  EXPECT_EQ(Count("crypto.verify_cache_hit") + Count("crypto.verify_cache_miss"), 2u);
  EXPECT_EQ(Count("crypto.verify_cache_miss"), 1u);
  EXPECT_EQ(Count("crypto.verify_cache_hit"), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(VerifyCacheTest, MemoizesFailedVerification) {
  VerifyCache cache(16, metrics_);
  Bytes msg = Msg("message");
  Bytes sig = RsaSignMessage(key_, msg);
  sig[3] ^= 0x40;
  EXPECT_FALSE(cache.VerifyMessage(key_.pub, msg, sig));
  EXPECT_FALSE(cache.VerifyMessage(key_.pub, msg, sig));  // hit, still false
  EXPECT_EQ(Count("crypto.verify_cache_hit"), 1u);
}

TEST_F(VerifyCacheTest, DistinctInputsNeverShareEntries) {
  VerifyCache cache(16, metrics_);
  Bytes msg = Msg("one message");
  Bytes sig = RsaSignMessage(key_, msg);
  EXPECT_TRUE(cache.VerifyMessage(key_.pub, msg, sig));
  // Different message, different signature, different key: all misses.
  Bytes other = Msg("another message");
  EXPECT_FALSE(cache.VerifyMessage(key_.pub, other, sig));
  Bytes tampered = sig;
  tampered.back() ^= 0x01;
  EXPECT_FALSE(cache.VerifyMessage(key_.pub, msg, tampered));
  RsaKeyPair other_key = RsaKeyPair::Generate(256, &rng_);
  EXPECT_FALSE(cache.VerifyMessage(other_key.pub, msg, sig));
  EXPECT_EQ(Count("crypto.verify_cache_hit"), 0u);
  EXPECT_EQ(Count("crypto.verify_cache_miss"), 4u);
}

TEST_F(VerifyCacheTest, FifoEvictionBoundsTheTable) {
  VerifyCache cache(2, metrics_);
  Bytes sigs[3];
  Bytes msgs[3] = {Msg("a"), Msg("b"), Msg("c")};
  for (int i = 0; i < 3; ++i) {
    sigs[i] = RsaSignMessage(key_, msgs[i]);
    EXPECT_TRUE(cache.VerifyMessage(key_.pub, msgs[i], sigs[i]));
  }
  EXPECT_EQ(cache.size(), 2u);
  // "a" was evicted (oldest), so re-checking it is a miss; "c" is a hit.
  EXPECT_TRUE(cache.VerifyMessage(key_.pub, msgs[2], sigs[2]));
  EXPECT_EQ(Count("crypto.verify_cache_hit"), 1u);
  EXPECT_TRUE(cache.VerifyMessage(key_.pub, msgs[0], sigs[0]));
  EXPECT_EQ(Count("crypto.verify_cache_miss"), 4u);
}

TEST_F(VerifyCacheTest, ClearEmptiesTheTable) {
  VerifyCache cache(16, metrics_);
  Bytes msg = Msg("cleared");
  Bytes sig = RsaSignMessage(key_, msg);
  EXPECT_TRUE(cache.VerifyMessage(key_.pub, msg, sig));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.VerifyMessage(key_.pub, msg, sig));
  EXPECT_EQ(Count("crypto.verify_cache_miss"), 2u);
}

TEST_F(VerifyCacheTest, OneMontgomeryContextPerModulus) {
  // Nine cards on three pooled moduli, certified by a broker on a fourth.
  BrokerOptions options;
  options.modulus_pool = 3;
  Broker broker(77, options);
  std::vector<FileCertificate> certs;
  for (int i = 0; i < 9; ++i) {
    auto card = broker.IssueCard(1 << 20, 0);
    ASSERT_TRUE(card.ok());
    const Bytes hash(32, static_cast<uint8_t>(i));
    auto cert = card.value()->IssueFileCertificate("file-" + std::to_string(i), 10, hash, 3,
                                                    /*salt=*/i, /*date=*/0);
    ASSERT_TRUE(cert.ok());
    certs.push_back(cert.value());
    // A forged twin: the same fields under a corrupted signature.
    FileCertificate forged = cert.value();
    forged.signature[0] ^= 0x01;
    certs.push_back(std::move(forged));
  }
  VerifyCache cache(64, metrics_);
  for (const FileCertificate& cert : certs) {
    EXPECT_EQ(cert.Verify(broker.public_key(), &cache), cert.Verify(broker.public_key()));
  }
  EXPECT_EQ(Count("crypto.mont_contexts"), 4u);
  EXPECT_EQ(cache.context_count(), 4u);
}

TEST_F(VerifyCacheTest, ContextSetIsBounded) {
  VerifyCache cache(64, metrics_);
  const size_t moduli = VerifyCache::kMaxContexts + 2;
  std::vector<RsaKeyPair> keys;
  const Bytes msg = Msg("one message per modulus");
  for (size_t i = 0; i < moduli; ++i) {
    keys.push_back(RsaKeyPair::Generate(256, &rng_));
    EXPECT_TRUE(cache.VerifyMessage(keys.back().pub, msg, RsaSignMessage(keys.back(), msg)));
  }
  EXPECT_EQ(Count("crypto.mont_contexts"), moduli);
  EXPECT_EQ(cache.context_count(), VerifyCache::kMaxContexts);
  // The oldest modulus was evicted: a fresh miss under it builds again.
  const Bytes other = Msg("another message");
  EXPECT_TRUE(cache.VerifyMessage(keys[0].pub, other, RsaSignMessage(keys[0], other)));
  EXPECT_EQ(Count("crypto.mont_contexts"), moduli + 1);
  EXPECT_EQ(cache.context_count(), VerifyCache::kMaxContexts);
}

// --- metric pinning on a live network ----------------------------------------

class VerifyCacheMetricsTest : public ::testing::Test {
 protected:
  static PastNetworkOptions Options() {
    PastNetworkOptions opts;
    opts.broker.key_bits = 256;
    return opts;
  }

  static uint64_t Count(PastNetwork& net, const char* name) {
    const Counter* c = net.overlay().network().metrics().FindCounter(name);
    return c == nullptr ? 0 : c->value();
  }
};

TEST_F(VerifyCacheMetricsTest, InsertThenLookupProducesCacheHits) {
  PastNetwork net(Options());
  net.Build(8);
  PastNode* client = net.node(0);
  auto inserted = net.InsertSync(client, "pinned-file", ToBytes("file body"), 3);
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(net.LookupSync(client, inserted.value()).ok());
  // Replication re-verifies the same certificate on several nodes, and the
  // lookup re-verifies it again at the client: hits must have happened.
  EXPECT_GT(Count(net, "crypto.verify_cache_hit"), 0u);
  EXPECT_GT(Count(net, "crypto.verify_cache_miss"), 0u);
}

TEST_F(VerifyCacheMetricsTest, RestartedNodeStartsWithEmptyCache) {
  PastNetwork net(Options());
  net.Build(8);
  PastNode* client = net.node(0);
  auto inserted = net.InsertSync(client, "restart-file", ToBytes("contents"), 3);
  ASSERT_TRUE(inserted.ok());

  // Pick a node whose cache saw traffic (the client's did: it verified k
  // store receipts).
  EXPECT_GT(client->verify_cache().size(), 0u);

  size_t victim = net.size() - 1;
  net.CrashNode(victim);
  PastNode* rebooted = net.RestartNode(victim);
  ASSERT_NE(rebooted, nullptr);
  // A fresh node must never inherit memoized verdicts from its prior life.
  EXPECT_EQ(rebooted->verify_cache().size(), 0u);
}

}  // namespace
}  // namespace past
