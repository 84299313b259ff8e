#include "src/storage/cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/storage/file_store.h"

namespace past {
namespace {

FileCertificate Cert(uint64_t size, uint64_t tag) {
  FileCertificate cert;
  Bytes raw(20, 0);
  for (int i = 0; i < 8; ++i) {
    raw[static_cast<size_t>(i)] = static_cast<uint8_t>(tag >> (8 * i));
  }
  cert.file_id = U160::FromBytes(raw);
  cert.file_size = size;
  return cert;
}

// `Cert(size, tag)` for `content`, filed under `content_hash`.
FileCertificate CertFor(const Bytes& content, const Bytes& content_hash, uint64_t tag) {
  FileCertificate cert = Cert(content.size(), tag);
  cert.content_hash = content_hash;
  return cert;
}

// A cache counts only into its registry; the tests read the counts there.
class CacheTest : public ::testing::Test {
 protected:
  uint64_t Count(const char* name) const { return metrics_.FindCounter(name)->value(); }
  double Resident() const { return metrics_.FindGauge("cache.resident_bytes")->value(); }
  double CertsResident() const {
    return metrics_.FindGauge("past.certs_resident")->value();
  }

  MetricsRegistry metrics_;
  ContentTable contents_{metrics_};
  CertificateTable certs_{metrics_};
};

TEST_F(CacheTest, NonePolicyRefusesEverything) {
  Cache cache(CachePolicy::kNone, metrics_, contents_, certs_);
  EXPECT_FALSE(cache.Insert(Cert(10, 1), {}, 1000));
  EXPECT_EQ(cache.used(), 0u);
}

TEST_F(CacheTest, InsertAndGet) {
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  EXPECT_TRUE(cache.Insert(Cert(10, 1), ToBytes("x"), 1000));
  EXPECT_EQ(cache.used(), 10u);
  EXPECT_TRUE(cache.Contains(Cert(10, 1).file_id));
  const CachedFile* f = cache.Get(Cert(10, 1).file_id);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->content, ToBytes("x"));
  EXPECT_EQ(Count("cache.hits"), 1u);
}

TEST_F(CacheTest, MissCounts) {
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  EXPECT_EQ(cache.Get(Cert(1, 9).file_id), nullptr);
  EXPECT_EQ(Count("cache.misses"), 1u);
}

TEST_F(CacheTest, DuplicateInsertRefused) {
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  EXPECT_TRUE(cache.Insert(Cert(10, 1), {}, 1000));
  EXPECT_FALSE(cache.Insert(Cert(10, 1), {}, 1000));
  EXPECT_EQ(cache.used(), 10u);
}

TEST_F(CacheTest, TooLargeRefused) {
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  EXPECT_FALSE(cache.Insert(Cert(2000, 1), {}, 1000));
}

TEST_F(CacheTest, EvictsToMakeRoom) {
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  EXPECT_TRUE(cache.Insert(Cert(600, 1), {}, 1000));
  EXPECT_TRUE(cache.Insert(Cert(600, 2), {}, 1000));  // evicts the first
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(Count("cache.evictions"), 1u);
  EXPECT_LE(cache.used(), 1000u);
}

TEST_F(CacheTest, GreedyDualSizePrefersSmallFiles) {
  // With equal access counts, GD-S evicts the *largest* file first (priority
  // = 1/size above the inflation floor).
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  EXPECT_TRUE(cache.Insert(Cert(500, 1), {}, 1000));  // large
  EXPECT_TRUE(cache.Insert(Cert(100, 2), {}, 1000));  // small
  EXPECT_TRUE(cache.Insert(Cert(450, 3), {}, 1000));  // forces one eviction
  EXPECT_FALSE(cache.Contains(Cert(500, 1).file_id));  // large one went
  EXPECT_TRUE(cache.Contains(Cert(100, 2).file_id));
}

TEST_F(CacheTest, LruEvictsLeastRecentlyUsed) {
  Cache cache(CachePolicy::kLru, metrics_, contents_, certs_);
  EXPECT_TRUE(cache.Insert(Cert(400, 1), {}, 1000));
  EXPECT_TRUE(cache.Insert(Cert(400, 2), {}, 1000));
  // Touch 1 so that 2 is the LRU victim.
  EXPECT_NE(cache.Get(Cert(400, 1).file_id), nullptr);
  EXPECT_TRUE(cache.Insert(Cert(400, 3), {}, 1000));
  EXPECT_TRUE(cache.Contains(Cert(400, 1).file_id));
  EXPECT_FALSE(cache.Contains(Cert(400, 2).file_id));
}

TEST_F(CacheTest, GdsPopularSmallFileSurvivesChurn) {
  // A frequently-hit small file keeps a high H (= L + 1/size) and outlives a
  // stream of larger one-shot files.
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  EXPECT_TRUE(cache.Insert(Cert(100, 1), {}, 1000));
  for (int round = 0; round < 20; ++round) {
    EXPECT_NE(cache.Get(Cert(100, 1).file_id), nullptr);
    cache.Insert(Cert(400, static_cast<uint64_t>(100 + round)), {}, 1000);
  }
  EXPECT_TRUE(cache.Contains(Cert(100, 1).file_id));
}

TEST_F(CacheTest, RemoveFreesSpace) {
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  cache.Insert(Cert(100, 1), {}, 1000);
  EXPECT_TRUE(cache.Remove(Cert(100, 1).file_id));
  EXPECT_EQ(cache.used(), 0u);
  EXPECT_FALSE(cache.Remove(Cert(100, 1).file_id));
}

TEST_F(CacheTest, ShrinkToEvictsDownToBudget) {
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  for (uint64_t i = 0; i < 10; ++i) {
    cache.Insert(Cert(100, i), {}, 10000);
  }
  ASSERT_EQ(cache.used(), 1000u);
  uint64_t evicted = cache.ShrinkTo(250);
  EXPECT_GE(evicted, 750u);
  EXPECT_LE(cache.used(), 250u);
}

TEST_F(CacheTest, ShrinkToZeroEmptiesCache) {
  Cache cache(CachePolicy::kLru, metrics_, contents_, certs_);
  cache.Insert(Cert(100, 1), {}, 1000);
  cache.Insert(Cert(100, 2), {}, 1000);
  cache.ShrinkTo(0);
  EXPECT_EQ(cache.used(), 0u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST_F(CacheTest, AvailableShrinkageEvictsOnInsert) {
  // The available budget can shrink between inserts (primary store grew);
  // inserting then must evict enough to fit the new budget.
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  cache.Insert(Cert(400, 1), {}, 1000);
  cache.Insert(Cert(400, 2), {}, 1000);
  EXPECT_TRUE(cache.Insert(Cert(100, 3), {}, 500));  // budget now 500
  EXPECT_LE(cache.used(), 500u);
}

TEST_F(CacheTest, StressRandomOperationsKeepInvariants) {
  Rng rng(1234);
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, contents_, certs_);
  const uint64_t budget = 5000;
  for (int op = 0; op < 2000; ++op) {
    uint64_t tag = rng.UniformU64(200);
    if (rng.Bernoulli(0.5)) {
      cache.Insert(Cert(1 + rng.UniformU64(800), tag), {}, budget);
    } else {
      cache.Get(Cert(1, tag).file_id);
    }
    ASSERT_LE(cache.used(), budget);
  }
  EXPECT_GT(Count("cache.insertions"), 100u);
}

TEST_F(CacheTest, CachesOnOneTableShareOneBuffer) {
  ContentTable table(metrics_);
  Cache a(CachePolicy::kGreedyDualSize, metrics_, table, certs_);
  Cache b(CachePolicy::kLru, metrics_, table, certs_);
  const Bytes content = Rng(5).RandomBytes(300);
  const Bytes hash = ToBytes("hash-of-the-content");
  // Two certificates (two fileIds) for the same content.
  const FileCertificate first = CertFor(content, hash, 1);
  const FileCertificate second = CertFor(content, hash, 2);
  ASSERT_TRUE(a.Insert(first, content, 1000));
  ASSERT_TRUE(b.Insert(second, content, 1000));

  const CachedFile* in_a = a.Get(first.file_id);
  const CachedFile* in_b = b.Get(second.file_id);
  ASSERT_NE(in_a, nullptr);
  ASSERT_NE(in_b, nullptr);
  EXPECT_EQ(in_a->content.data(), in_b->content.data());
  EXPECT_NE(in_a->content.data(), content.data());
  EXPECT_EQ(in_a->content, content);
  EXPECT_EQ(table.buffer_count(), 1u);
  // Each cache charges the whole file; the bytes are resident once.
  EXPECT_EQ(a.used(), 300u);
  EXPECT_EQ(b.used(), 300u);
  EXPECT_EQ(metrics_.FindGauge("cache.used_bytes")->value(), 600.0);
  EXPECT_EQ(Resident(), 300.0);

  EXPECT_TRUE(a.Remove(first.file_id));
  EXPECT_EQ(Resident(), 300.0);  // b still holds the buffer
  EXPECT_TRUE(b.Insert(Cert(900, 3), {}, 1000));  // evicts b's copy
  EXPECT_FALSE(b.Contains(second.file_id));
  EXPECT_EQ(Resident(), 0.0);
  EXPECT_EQ(table.buffer_count(), 0u);
}

TEST_F(CacheTest, EqualHashWithOtherBytesKeepsItsOwnBuffer) {
  // Cached copies are not hash-checked, so a forged copy under a genuine
  // content hash must not be handed to a cache holding the real bytes.
  ContentTable table(metrics_);
  Cache honest(CachePolicy::kGreedyDualSize, metrics_, table, certs_);
  Cache fooled(CachePolicy::kGreedyDualSize, metrics_, table, certs_);
  const Bytes content = Rng(6).RandomBytes(200);
  Bytes forged = content;
  forged[199] ^= 1;
  const Bytes hash = ToBytes("hash-of-the-content");
  const FileCertificate cert = CertFor(content, hash, 1);
  ASSERT_TRUE(honest.Insert(cert, content, 1000));
  ASSERT_TRUE(fooled.Insert(cert, forged, 1000));

  EXPECT_EQ(honest.Get(cert.file_id)->content, content);
  EXPECT_EQ(fooled.Get(cert.file_id)->content, forged);
  EXPECT_EQ(table.buffer_count(), 2u);
  EXPECT_EQ(Resident(), 400.0);

  // A later honest copy shares the honest buffer, not the forged one.
  Cache late(CachePolicy::kGreedyDualSize, metrics_, table, certs_);
  ASSERT_TRUE(late.Insert(cert, content, 1000));
  EXPECT_EQ(late.Get(cert.file_id)->content.data(), honest.Get(cert.file_id)->content.data());
  EXPECT_EQ(table.buffer_count(), 2u);

  EXPECT_TRUE(honest.Remove(cert.file_id));
  EXPECT_TRUE(late.Remove(cert.file_id));
  EXPECT_EQ(fooled.ShrinkTo(0), 200u);
  EXPECT_EQ(Resident(), 0.0);
  EXPECT_EQ(table.buffer_count(), 0u);
}

TEST_F(CacheTest, SyntheticContentTakesNoBuffer) {
  ContentTable table(metrics_);
  Cache cache(CachePolicy::kGreedyDualSize, metrics_, table, certs_);
  ASSERT_TRUE(cache.Insert(CertFor({}, ToBytes("synthetic"), 1), {}, 1000));
  EXPECT_EQ(table.buffer_count(), 0u);
  EXPECT_EQ(Resident(), 0.0);
}

TEST_F(CacheTest, HandleMayOutliveItsTable) {
  const Bytes content = Rng(7).RandomBytes(64);
  SharedBytes kept;
  {
    ContentTable table(metrics_);
    kept = table.Intern(ToBytes("hash"), content);
    EXPECT_EQ(Resident(), 64.0);
  }
  EXPECT_EQ(kept, content);
  kept = SharedBytes();  // the release hook finds no table and frees the buffer
}

TEST_F(CacheTest, CachesAndAStoreOnOneTableShareOneCertificate) {
  CertificateTable certs(metrics_);
  Cache a(CachePolicy::kGreedyDualSize, metrics_, contents_, certs);
  Cache b(CachePolicy::kLru, metrics_, contents_, certs);
  FileStore store(1000, metrics_, certs);
  FileCertificate cert = Cert(100, 1);
  cert.signature = ToBytes("owner-signature");
  ASSERT_TRUE(a.Insert(cert, {}, 1000));
  ASSERT_TRUE(b.Insert(cert, {}, 1000));
  StoredFile file;
  file.cert = std::make_shared<const FileCertificate>(cert);  // a private copy
  ASSERT_EQ(store.Put(std::move(file)), StatusCode::kOk);

  const FileCertificate* shared = a.Peek(cert.file_id)->cert.get();
  EXPECT_EQ(b.Peek(cert.file_id)->cert.get(), shared);
  EXPECT_EQ(store.Get(cert.file_id)->cert.get(), shared);
  EXPECT_EQ(*shared, cert);
  EXPECT_EQ(certs.size(), 1u);
  EXPECT_EQ(CertsResident(), 1.0);

  // A forged certificate under the genuine fileId gets an object of its own,
  // and a later genuine copy still shares the genuine one.
  FileCertificate forged = cert;
  forged.signature = ToBytes("forged-signature");
  Cache fooled(CachePolicy::kGreedyDualSize, metrics_, contents_, certs);
  ASSERT_TRUE(fooled.Insert(forged, {}, 1000));
  EXPECT_NE(fooled.Peek(cert.file_id)->cert.get(), shared);
  EXPECT_EQ(*fooled.Peek(cert.file_id)->cert, forged);
  Cache late(CachePolicy::kGreedyDualSize, metrics_, contents_, certs);
  ASSERT_TRUE(late.Insert(cert, {}, 1000));
  EXPECT_EQ(late.Peek(cert.file_id)->cert.get(), shared);
  EXPECT_EQ(certs.size(), 2u);
  EXPECT_EQ(CertsResident(), 2.0);

  // The last handle onto each object empties its slot.
  EXPECT_TRUE(a.Remove(cert.file_id));
  EXPECT_TRUE(b.Remove(cert.file_id));
  EXPECT_TRUE(late.Remove(cert.file_id));
  EXPECT_EQ(CertsResident(), 2.0);  // the store still holds the genuine one
  EXPECT_TRUE(store.Remove(cert.file_id).has_value());
  EXPECT_EQ(CertsResident(), 1.0);
  EXPECT_EQ(fooled.ShrinkTo(0), 100u);
  EXPECT_EQ(certs.size(), 0u);
  EXPECT_EQ(CertsResident(), 0.0);
}

TEST_F(CacheTest, CertificateHandleMayOutliveItsTable) {
  SharedCertificate kept;
  {
    CertificateTable certs(metrics_);
    kept = certs.Intern(Cert(10, 4));
    EXPECT_EQ(certs.Intern(Cert(10, 4)), kept);
    EXPECT_EQ(CertsResident(), 1.0);
  }
  EXPECT_EQ(kept->file_size, 10u);
  kept.reset();  // the release hook finds no table and frees the certificate
}

}  // namespace
}  // namespace past
