// Read-only client access points (Section 2.1: "read-only users do not need
// a smartcard"): they can route and look up files with full verification but
// cannot insert, reclaim, or hold replicas.
#include <gtest/gtest.h>

#include "tests/storage/past_test_util.h"

namespace past {
namespace {

class PastReadOnlyTest : public ::testing::Test {
 protected:
  PastReadOnlyTest() : net_(SmallNetOptions(601)) {
    net_.Build(30);
    reader_ = net_.AddReadOnlyClient();
  }

  PastNetwork net_;
  PastNode* reader_;
};

TEST_F(PastReadOnlyTest, HasNoCardAndNoStorage) {
  EXPECT_FALSE(reader_->has_card());
  EXPECT_EQ(reader_->store().capacity(), 0u);
  EXPECT_TRUE(reader_->overlay()->active());
}

TEST_F(PastReadOnlyTest, CanLookupAndVerify) {
  PastNode* writer = net_.node(3);
  Bytes content = ToBytes("public document");
  auto inserted = net_.InsertSync(writer, "doc", content, 3);
  ASSERT_TRUE(inserted.ok());
  auto looked = net_.LookupSync(reader_, inserted.value());
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(looked.value().content, content);
  EXPECT_TRUE(looked.value().cert.Verify(reader_->broker_key()));
}

TEST_F(PastReadOnlyTest, InsertRefusedLocally) {
  bool done = false;
  StatusCode status = StatusCode::kOk;
  reader_->Insert("nope", ToBytes("x"), 3, [&](Result<FileId> r) {
    done = true;
    status = r.status();
  });
  EXPECT_TRUE(done);  // refused synchronously, no traffic generated
  EXPECT_EQ(status, StatusCode::kNotAuthorized);
}

TEST_F(PastReadOnlyTest, ReclaimRefusedLocally) {
  bool done = false;
  StatusCode status = StatusCode::kOk;
  Rng rng(1);
  reader_->Reclaim(rng.NextU160(), [&](StatusCode s) {
    done = true;
    status = s;
  });
  EXPECT_TRUE(done);
  EXPECT_EQ(status, StatusCode::kNotAuthorized);
}

TEST_F(PastReadOnlyTest, NeverAcceptsReplicas) {
  // Insert many files; none may land on the read-only node even when its id
  // is among the numerically closest.
  PastNode* writer = net_.node(5);
  for (int i = 0; i < 40; ++i) {
    (void)net_.InsertSyntheticSync(writer, "r-" + std::to_string(i), 128, 3);
  }
  EXPECT_EQ(reader_->store().file_count(), 0u);
  EXPECT_EQ(reader_->store().used(), 0u);
}

TEST_F(PastReadOnlyTest, ParticipatesInRoutingAsTransit) {
  // The read-only node is a full overlay member: messages can transit it.
  // (Indirectly verified: lookups from other nodes keep working with it in
  // the overlay, and its own routing state is populated.)
  EXPECT_GT(reader_->overlay()->routing_table().EntryCount(), 0u);
  EXPECT_GT(reader_->overlay()->leaf_set().size(), 0u);
  PastNode* writer = net_.node(7);
  auto inserted = net_.InsertSync(writer, "transit", ToBytes("y"), 2);
  ASSERT_TRUE(inserted.ok());
  auto looked = net_.LookupSync(net_.node(11), inserted.value());
  EXPECT_TRUE(looked.ok());
}

TEST_F(PastReadOnlyTest, MayStillCacheForOthers) {
  // Caching needs no card: a read-only node can hold cached copies (they
  // carry the owner's certificate and are verifiable by anyone).
  PastNode* writer = net_.node(9);
  Bytes content = ToBytes("cacheable");
  auto inserted = net_.InsertSync(writer, "pop", content, 2);
  ASSERT_TRUE(inserted.ok());
  // Reader looks it up; with caching on (any cache_policy but kNone) the
  // reply path may seed its own cache (client-side caching).
  auto looked = net_.LookupSync(reader_, inserted.value());
  ASSERT_TRUE(looked.ok());
  // A second lookup is served locally from cache if the first one cached it.
  if (reader_->file_cache().Contains(inserted.value())) {
    auto again = net_.LookupSync(reader_, inserted.value());
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.value().from_cache);
  }
}

}  // namespace
}  // namespace past
