// Persistence and availability: replica restoration after node failures,
// availability while >= 1 replica lives, caching behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "tests/diskstore/temp_dir.h"
#include "tests/storage/past_test_util.h"

namespace past {
namespace {

TEST(PastMaintenanceTest, ReplicasRestoredAfterSingleFailure) {
  PastNetwork net(SmallNetOptions(301));
  net.Build(40);
  PastNode* client = net.node(1);
  auto inserted = net.InsertSync(client, "file", ToBytes("persist me"), 4);
  ASSERT_TRUE(inserted.ok());
  FileId id = inserted.value();

  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->store().Has(id)) {
      net.CrashNode(i);
      break;
    }
  }
  net.Run(40 * kMicrosPerSecond);
  EXPECT_EQ(net.CountReplicas(id), 4) << "k must be restored after recovery";
}

TEST(PastMaintenanceTest, OneOfferMessagePerNeighbourPerPass) {
  constexpr uint32_t kK = 3;
  PastNetwork net(SmallNetOptions(311));
  net.Build(30);
  std::vector<FileId> files;
  for (int i = 0; i < 60; ++i) {
    auto r = net.InsertSync(net.node(0), "offer-" + std::to_string(i),
                            ToBytes("offered " + std::to_string(i)), kK);
    ASSERT_TRUE(r.ok());
    files.push_back(r.value());
  }
  net.Run(10 * kMicrosPerSecond);

  // The node holding the most files loses its nearest larger neighbour.
  size_t holder = 0;
  for (size_t i = 1; i < net.size(); ++i) {
    if (net.node(i)->store().FileIds().size() >
        net.node(holder)->store().FileIds().size()) {
      holder = i;
    }
  }
  const size_t held = net.node(holder)->store().FileIds().size();
  ASSERT_GE(held, 8u);
  const NodeAddr holder_addr = net.node(holder)->overlay()->addr();
  const NodeAddr neighbour = net.node(holder)->overlay()->leaf_set().NearestLarger().addr;
  MetricsRegistry& metrics = net.overlay().network().metrics();
  const uint64_t offers_before = metrics.GetCounter("past.replica_offers")->value();
  const uint64_t msgs_before = metrics.GetCounter("past.replica_offer_msgs")->value();
  Tracer& tracer = net.overlay().network().tracer();
  tracer.Enable();
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->overlay()->addr() == neighbour) {
      net.CrashNode(i);
    }
  }
  net.Run(40 * kMicrosPerSecond);

  auto annotation = [](const Span& span, const std::string& key) -> uint64_t {
    for (const auto& [name, value] : span.annotations) {
      if (name == key) {
        return std::stoull(value);
      }
    }
    ADD_FAILURE() << "span " << span.id << " has no " << key;
    return 0;
  };
  uint64_t passes = 0;
  uint64_t offers = 0;
  uint64_t msgs = 0;
  uint64_t holder_offers = 0;
  for (const Span& span : tracer.spans()) {
    if (span.name != "past.maintenance") {
      continue;
    }
    ++passes;
    offers += annotation(span, "offers");
    msgs += annotation(span, "offer_msgs");
    // The other members of the replica sets a node belongs to lie within
    // k - 1 places of it on either side of the ring.
    EXPECT_LE(annotation(span, "offer_msgs"), 2 * (kK - 1)) << "pass of node " << span.node;
    if (span.node == holder_addr) {
      holder_offers = std::max(holder_offers, annotation(span, "offers"));
    }
  }
  EXPECT_GT(passes, 0u);
  EXPECT_GE(holder_offers, held) << "the holder's pass offers every file it keeps";
  EXPECT_EQ(metrics.GetCounter("past.replica_offers")->value() - offers_before, offers);
  EXPECT_EQ(metrics.GetCounter("past.replica_offer_msgs")->value() - msgs_before, msgs);
  for (const FileId& id : files) {
    EXPECT_EQ(net.CountReplicas(id), static_cast<int>(kK));
  }
}

TEST(PastMaintenanceTest, FileAvailableWhileOneReplicaAlive) {
  PastNetwork net(SmallNetOptions(303));
  net.Build(40);
  PastNode* client = net.node(1);
  Bytes content = ToBytes("survivor");
  auto inserted = net.InsertSync(client, "s", content, 3);
  ASSERT_TRUE(inserted.ok());
  FileId id = inserted.value();

  // Kill replica holders two at a time *quickly* (before repair), leaving one.
  std::vector<size_t> holders;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->store().Has(id)) {
      holders.push_back(i);
    }
  }
  ASSERT_EQ(holders.size(), 3u);
  net.CrashNode(holders[0]);
  net.CrashNode(holders[1]);

  // Lookup right away (clients may need the root's replica-probing path).
  PastNode* reader = net.node(holders[2] == 5 ? 6 : 5);
  auto looked = net.LookupSync(reader, id);
  ASSERT_TRUE(looked.ok()) << StatusCodeName(looked.status());
  EXPECT_EQ(looked.value().content, content);

  // And after the repair window, k is back to 3.
  net.Run(60 * kMicrosPerSecond);
  EXPECT_EQ(net.CountReplicas(id), 3);
}

TEST(PastMaintenanceTest, NewCloserNodeTakesOverReplica) {
  PastNetwork net(SmallNetOptions(305));
  net.Build(30);
  PastNode* client = net.node(2);
  auto inserted = net.InsertSync(client, "handover", ToBytes("x"), 3);
  ASSERT_TRUE(inserted.ok());
  FileId id = inserted.value();

  // Add many nodes; statistically some land closer to the fileId than the
  // current holders, and maintenance should hand the file to them.
  for (int i = 0; i < 30; ++i) {
    net.AddNode();
  }
  net.Run(40 * kMicrosPerSecond);

  // Verify the holders now are the 3 globally closest live nodes.
  std::vector<std::pair<U128, bool>> ranked;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->overlay()->active()) {
      ranked.emplace_back(net.node(i)->overlay()->id().RingDistance(id.Top128()),
                          net.node(i)->store().Has(id));
    }
  }
  std::sort(ranked.begin(), ranked.end());
  int held_in_top3 = 0;
  for (int i = 0; i < 3; ++i) {
    held_in_top3 += ranked[static_cast<size_t>(i)].second ? 1 : 0;
  }
  EXPECT_GE(held_in_top3, 2) << "replicas should migrate toward closest nodes";
  EXPECT_GE(net.CountReplicas(id), 3);
}

TEST(PastMaintenanceTest, MassFailureWithRecoveryKeepsAllFiles) {
  PastNetwork net(SmallNetOptions(307));
  net.Build(50);
  PastNode* client = net.node(0);
  std::vector<FileId> files;
  std::vector<Bytes> contents;
  for (int i = 0; i < 20; ++i) {
    Bytes content = ToBytes("content-" + std::to_string(i));
    auto r = net.InsertSync(client, "mass-" + std::to_string(i), content, 4);
    ASSERT_TRUE(r.ok());
    files.push_back(r.value());
    contents.push_back(content);
  }
  // Kill 10 random non-client nodes (20%), in two waves with a repair gap.
  Rng rng(17);
  int killed = 0;
  for (int wave = 0; wave < 2; ++wave) {
    while (killed < 5 * (wave + 1)) {
      size_t victim = 1 + rng.UniformU64(net.size() - 1);
      if (net.node(victim)->overlay()->active()) {
        net.CrashNode(victim);
        ++killed;
      }
    }
    net.Run(40 * kMicrosPerSecond);
  }
  // Every file must still be readable with correct content.
  for (size_t i = 0; i < files.size(); ++i) {
    auto looked = net.LookupSync(client, files[i]);
    ASSERT_TRUE(looked.ok()) << "file " << i;
    EXPECT_EQ(looked.value().content, contents[i]);
  }
}

TEST(PastMaintenanceTest, CachePushPopulatesPathNode) {
  PastNetworkOptions options = SmallNetOptions(309);
  options.past.cache_policy = CachePolicy::kGreedyDualSize;
  PastNetwork net(options);
  net.Build(60);
  PastNode* client = net.node(3);
  Bytes content = ToBytes("popular content");
  auto inserted = net.InsertSync(client, "pop", content, 3);
  ASSERT_TRUE(inserted.ok());

  // Repeated lookups from many clients should create cached copies.
  for (size_t i = 0; i < net.size(); i += 4) {
    (void)net.LookupSync(net.node(i), inserted.value());
  }
  net.Run(5 * kMicrosPerSecond);
  size_t cached_copies = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->file_cache().Contains(inserted.value())) {
      ++cached_copies;
    }
  }
  EXPECT_GT(cached_copies, 0u);
}

TEST(PastMaintenanceTest, CachedCopyServesLookupAndIsMarked) {
  PastNetworkOptions options = SmallNetOptions(311);
  PastNetwork net(options);
  net.Build(40);
  PastNode* client = net.node(2);
  Bytes content = ToBytes("cache me");
  auto inserted = net.InsertSync(client, "c", content, 2);
  ASSERT_TRUE(inserted.ok());

  // Drive lookups until one is answered from a cache.
  bool saw_cache_hit = false;
  for (int round = 0; round < 10 && !saw_cache_hit; ++round) {
    for (size_t i = 0; i < net.size() && !saw_cache_hit; i += 3) {
      auto looked = net.LookupSync(net.node(i), inserted.value());
      ASSERT_TRUE(looked.ok());
      EXPECT_EQ(looked.value().content, content);
      saw_cache_hit = looked.value().from_cache;
    }
  }
  EXPECT_TRUE(saw_cache_hit);
}

TEST(PastMaintenanceTest, CachedCopiesShareOneBufferPerContent) {
  PastNetwork net(SmallNetOptions(317));
  net.Build(40);
  const MetricsRegistry& metrics = net.overlay().network().metrics();
  Rng rng(317);
  std::vector<std::pair<FileId, Bytes>> files;
  for (size_t i = 0; i < 6; ++i) {
    Bytes content = rng.RandomBytes(2000 + 700 * i);
    auto inserted = net.InsertSync(net.node(i), "shared-" + std::to_string(i), content, 3);
    ASSERT_TRUE(inserted.ok());
    files.emplace_back(inserted.value(), std::move(content));
  }
  for (size_t reader = 8; reader < net.size(); reader += 3) {
    for (const auto& [id, content] : files) {
      auto looked = net.LookupSync(net.node(reader), id);
      ASSERT_TRUE(looked.ok()) << StatusCodeName(looked.status());
      EXPECT_EQ(looked.value().content, content);
    }
  }
  net.Run(5 * kMicrosPerSecond);

  // The bytes cached anywhere, each content counted once (all differ).
  auto distinct_cached = [&] {
    double bytes = 0;
    for (const auto& [id, content] : files) {
      for (size_t i = 0; i < net.size(); ++i) {
        if (net.node(i)->file_cache().Contains(id)) {
          bytes += static_cast<double>(content.size());
          break;
        }
      }
    }
    return bytes;
  };
  auto resident = [&] { return metrics.FindGauge("cache.resident_bytes")->value(); };
  EXPECT_GT(resident(), 0.0);
  EXPECT_LE(resident(), distinct_cached());
  EXPECT_LT(distinct_cached(), metrics.FindGauge("cache.used_bytes")->value());

  // Find a node that is the only one caching some file: insert a fresh file
  // and read it from one node at a time until a reader alone holds a copy.
  size_t victim = net.size();
  FileId only_there;
  for (size_t reader = 9; reader < net.size() && victim == net.size(); reader += 3) {
    Bytes content = rng.RandomBytes(5000);
    auto inserted = net.InsertSync(net.node(0), "once-" + std::to_string(reader), content, 3);
    ASSERT_TRUE(inserted.ok());
    const FileId id = inserted.value();
    files.emplace_back(id, std::move(content));
    ASSERT_TRUE(net.LookupSync(net.node(reader), id).ok());
    size_t holders = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      holders += net.node(i)->file_cache().Contains(id) ? 1 : 0;
    }
    if (holders == 1 && net.node(reader)->file_cache().Contains(id)) {
      victim = reader;
      only_there = id;
    }
  }
  ASSERT_LT(victim, net.size());
  EXPECT_EQ(resident(), distinct_cached());

  // A crashed node's cache stays until the restart replaces the node; then
  // the copy only it held leaves the table.
  net.CrashNode(victim);
  net.Run(5 * kMicrosPerSecond);
  ASSERT_TRUE(net.node(victim)->file_cache().Contains(only_there));
  EXPECT_EQ(resident(), distinct_cached());
  const double before_restart = resident();
  net.RestartNode(victim);
  EXPECT_LE(resident(), before_restart - 5000);
  net.Run(5 * kMicrosPerSecond);
  EXPECT_EQ(resident(), distinct_cached());
}

TEST(PastMaintenanceTest, HoldersShareOneCertificatePerFile) {
  TempDir tmp;
  PastNetworkOptions options = SmallNetOptions(331);
  options.past.state_dir = tmp.Sub("state");
  PastNetwork net(options);
  net.Build(40);
  const Gauge* resident =
      net.overlay().network().metrics().FindGauge("past.certs_resident");
  Rng rng(331);
  std::vector<std::pair<FileId, size_t>> files;  // fileId, owner
  for (size_t i = 0; i < 5; ++i) {
    auto inserted = net.InsertSync(net.node(i), "cert-" + std::to_string(i),
                                   rng.RandomBytes(1500 + 500 * i), 3);
    ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
    files.emplace_back(inserted.value(), i);
  }
  for (size_t reader = 10; reader < net.size(); reader += 4) {
    for (const auto& [id, owner] : files) {
      ASSERT_TRUE(net.LookupSync(net.node(reader), id).ok());
    }
  }
  net.Run(5 * kMicrosPerSecond);

  // The distinct certificate objects the holders of `id` keep: every replica
  // store, every cache and the owner; `holders` counts the records.
  auto objects_of = [&](const FileId& id, size_t owner, size_t* holders) {
    std::set<const FileCertificate*> objects;
    *holders = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      if (const StoredFile* f = net.node(i)->store().Get(id)) {
        objects.insert(f->cert.get());
        ++*holders;
      }
      if (const CachedFile* f = net.node(i)->file_cache().Peek(id)) {
        objects.insert(f->cert.get());
        ++*holders;
      }
    }
    objects.insert(net.node(owner)->OwnedFileCert(id));
    ++*holders;
    return objects;
  };
  auto expect_one_object_per_file = [&] {
    for (const auto& [id, owner] : files) {
      size_t holders = 0;
      EXPECT_EQ(objects_of(id, owner, &holders).size(), 1u);
      EXPECT_GE(holders, 4u);  // k replicas and the owner, at least
    }
    EXPECT_EQ(resident->value(), static_cast<double>(files.size()));
  };
  expect_one_object_per_file();
  size_t cached = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    cached += net.node(i)->file_cache().entry_count();
  }
  EXPECT_GT(cached, 0u);

  // A rebooted replica holder recovers its replica from disk, and the
  // recovered certificate is the object every other holder keeps.
  const auto [id, owner] = files[0];
  size_t victim = net.size();
  for (size_t i = 0; i < net.size() && victim == net.size(); ++i) {
    if (i != owner && net.node(i)->store().Has(id)) {
      victim = i;
    }
  }
  ASSERT_LT(victim, net.size());
  net.CrashNode(victim);
  net.Run(2 * kMicrosPerSecond);
  PastNode* rebooted = net.RestartNode(victim);
  ASSERT_TRUE(rebooted->store().Has(id));
  EXPECT_EQ(rebooted->store().Get(id)->cert.get(), net.node(owner)->OwnedFileCert(id));
  net.Run(5 * kMicrosPerSecond);
  expect_one_object_per_file();
}

TEST(PastMaintenanceTest, CacheDisabledMeansNoCachedCopies) {
  PastNetworkOptions options = SmallNetOptions(313);
  options.past.cache_policy = CachePolicy::kNone;
  PastNetwork net(options);
  net.Build(30);
  PastNode* client = net.node(1);
  auto inserted = net.InsertSync(client, "nc", ToBytes("data"), 2);
  ASSERT_TRUE(inserted.ok());
  for (size_t i = 0; i < net.size(); i += 2) {
    (void)net.LookupSync(net.node(i), inserted.value());
  }
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i)->file_cache().entry_count(), 0u);
  }
}

TEST(PastMaintenanceTest, CacheYieldsSpaceToPrimaries) {
  PastNetworkOptions options = SmallNetOptions(315);
  options.default_node_capacity = 3000;
  options.past.policy.t_pri = 1.0;
  options.past.default_replication = 2;
  PastNetwork net(options);
  net.Build(15);
  PastNode* client = net.node(0);
  // Seed caches via inserts (insert-path caching is on by default).
  for (int i = 0; i < 10; ++i) {
    (void)net.InsertSyntheticSync(client, "warm-" + std::to_string(i), 200, 2);
  }
  // Now fill primaries to capacity; cache must shrink, never block storage.
  int stored = 0;
  for (int i = 0; i < 30; ++i) {
    auto r = net.InsertSyntheticSync(client, "press-" + std::to_string(i), 800, 2);
    stored += r.ok() ? 1 : 0;
  }
  EXPECT_GT(stored, 5);
  for (size_t i = 0; i < net.size(); ++i) {
    const PastNode* node = net.node(i);
    EXPECT_LE(node->store().used() + node->file_cache().used(),
              node->store().capacity())
        << "node " << i << " overcommitted its disk";
  }
}

TEST(PastMaintenanceTest, DemotedReplicaAnswersTheSetsFetch) {
  // Nodes join until one lands among the file's k closest and a holder drops
  // out of the set. The holder offers the file to the new set and demotes
  // its replica to a cached copy, so a member whose only offer came from it
  // can still fetch it.
  constexpr int kK = 3;
  PastNetwork net(SmallNetOptions(319));
  net.Build(30);
  Bytes content = ToBytes("demoted, not dropped");
  auto inserted = net.InsertSync(net.node(0), "demote", content, kK);
  ASSERT_TRUE(inserted.ok());
  const FileId id = inserted.value();
  std::vector<size_t> holders;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->store().Has(id)) {
      holders.push_back(i);
    }
  }
  ASSERT_EQ(holders.size(), static_cast<size_t>(kK));

  // The k live nodes ring-closest to the file.
  auto closest = [&net, &id] {
    std::vector<std::pair<U128, size_t>> ranked;
    for (size_t i = 0; i < net.size(); ++i) {
      if (net.node(i)->overlay()->active()) {
        ranked.emplace_back(net.node(i)->overlay()->id().RingDistance(id.Top128()), i);
      }
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<size_t> top;
    for (int i = 0; i < kK; ++i) {
      top.push_back(ranked[static_cast<size_t>(i)].second);
    }
    return top;
  };
  size_t newcomer = 0;
  for (int added = 0; added < 200 && newcomer == 0; ++added) {
    net.AddNode();
    const std::vector<size_t> top = closest();
    if (std::find(top.begin(), top.end(), net.size() - 1) != top.end()) {
      newcomer = net.size() - 1;
    }
  }
  ASSERT_NE(newcomer, 0u) << "no joiner landed among the k closest";
  net.Run(10 * kMicrosPerSecond);

  const std::vector<size_t> top = closest();
  size_t demoted = net.size();
  for (size_t holder : holders) {
    if (std::find(top.begin(), top.end(), holder) == top.end()) {
      demoted = holder;
    }
  }
  ASSERT_LT(demoted, net.size());
  EXPECT_FALSE(net.node(demoted)->store().Has(id));
  const CachedFile* cached = net.node(demoted)->file_cache().Peek(id);
  ASSERT_NE(cached, nullptr) << "the demoted replica left no cached copy";
  const ByteSpan bytes = cached->content.span();
  EXPECT_EQ(Bytes(bytes.begin(), bytes.end()), content);
  EXPECT_TRUE(net.node(newcomer)->store().Has(id));
  EXPECT_EQ(net.CountReplicas(id), kK);
}

// The holder of `id` farthest from it: the first to leave its replica set
// when a closer node appears.
PastNode* FarthestHolder(PastNetwork& net, const FileId& id) {
  PastNode* holder = nullptr;
  for (size_t i = 0; i < net.size(); ++i) {
    PastNode* n = net.node(i);
    if (n->store().Has(id) &&
        (holder == nullptr || holder->overlay()->id().RingDistance(id.Top128()) <
                                  n->overlay()->id().RingDistance(id.Top128()))) {
      holder = n;
    }
  }
  return holder;
}

// Crashes a node that `near` does not list and that holds no replica of `id`,
// and returns its address: a dead address for a phantom member.
NodeAddr CrashNodeItDoesNotList(PastNetwork& net, PastryNode* near, const FileId& id) {
  for (size_t i = 1; i < net.size(); ++i) {
    PastryNode* n = net.node(i)->overlay();
    if (n != near && !near->leaf_set().Contains(n->id()) && !net.node(i)->store().Has(id)) {
      net.CrashNode(i);
      return n->addr();
    }
  }
  return kInvalidAddr;
}

TEST(PastMaintenanceTest, PassWaitsForUnansweredProbes) {
  // A holder learns second-hand of a node closer to its file than itself.
  // The node is dead, so the probe it is sent goes unanswered; no pass may
  // run on the unconfirmed view, or the holder would demote a file it must
  // keep while no other holder's view changes.
  constexpr int kK = 3;
  PastNetwork net(SmallNetOptions(321));
  net.Build(40);
  auto inserted = net.InsertSync(net.node(0), "probed", ToBytes("keep me"), kK);
  ASSERT_TRUE(inserted.ok());
  const FileId id = inserted.value();
  const U128 key = id.Top128();
  net.Run(10 * kMicrosPerSecond);
  PastNode* holder = FarthestHolder(net, id);
  ASSERT_NE(holder, nullptr);
  PastryNode* overlay = holder->overlay();
  const NodeAddr dead = CrashNodeItDoesNotList(net, overlay, id);
  ASSERT_NE(dead, kInvalidAddr);
  const NodeDescriptor phantom{key.Add(U128(0, 1)), dead};
  LeafSetReplyMsg reply;
  reply.sender = overlay->leaf_set().NearestSmaller();
  reply.leaves = {phantom};
  net.overlay().network().Send(reply.sender.addr, overlay->addr(), EncodeMessage(reply));
  net.Run(1 * kMicrosPerSecond);
  ASSERT_TRUE(overlay->leaf_set().Contains(phantom.id));
  ASSERT_TRUE(overlay->LeafSetUnconfirmed());
  const std::vector<NodeDescriptor> view = overlay->ReplicaSet(key, kK);
  ASSERT_TRUE(std::none_of(view.begin(), view.end(), [overlay](const NodeDescriptor& d) {
    return d.id == overlay->id();
  })) << "the phantom pushes the holder out of the set it sees";
  EXPECT_TRUE(holder->store().Has(id)) << "a pass ran on an unconfirmed view";
  net.Run(20 * kMicrosPerSecond);
  EXPECT_FALSE(overlay->leaf_set().Contains(phantom.id));
  EXPECT_TRUE(holder->store().Has(id));
  EXPECT_EQ(net.CountReplicas(id), kK);
}

TEST(PastMaintenanceTest, DemotionOnAStaleViewIsUndone) {
  // A holder hears directly from a node closer to its file than itself, so
  // it probes nothing, and its pass demotes the file to a cached copy. The
  // node has crashed since. Once a notice drops it, the holder is back in
  // the file's set, but no other holder's view changed, so none offers the
  // file: the holder's own pass promotes its cached copy back.
  constexpr int kK = 3;
  PastNetwork net(SmallNetOptions(323));
  net.Build(40);
  auto inserted = net.InsertSync(net.node(0), "stale", ToBytes("bring me back"), kK);
  ASSERT_TRUE(inserted.ok());
  const FileId id = inserted.value();
  const U128 key = id.Top128();
  net.Run(10 * kMicrosPerSecond);
  PastNode* holder = FarthestHolder(net, id);
  ASSERT_NE(holder, nullptr);
  PastryNode* overlay = holder->overlay();
  const NodeAddr dead = CrashNodeItDoesNotList(net, overlay, id);
  ASSERT_NE(dead, kInvalidAddr);
  const NodeDescriptor phantom{key.Add(U128(0, 1)), dead};
  AnnounceArrivalMsg announce;  // as if sent just before the crash
  announce.joiner = phantom;
  net.overlay().network().Send(dead, overlay->addr(), EncodeMessage(announce));
  net.Run(2 * kMicrosPerSecond);
  ASSERT_TRUE(overlay->leaf_set().Contains(phantom.id));
  ASSERT_FALSE(holder->store().Has(id)) << "the pass on the stale view demoted the file";
  ASSERT_TRUE(holder->file_cache().Contains(id));

  FailureNoticeMsg notice;
  notice.sender = overlay->leaf_set().NearestSmaller();
  notice.failed = phantom;
  net.overlay().network().Send(notice.sender.addr, overlay->addr(), EncodeMessage(notice));
  net.Run(2 * kMicrosPerSecond);
  EXPECT_FALSE(overlay->leaf_set().Contains(phantom.id));
  EXPECT_TRUE(holder->store().Has(id)) << "the cached copy was not promoted back";
  EXPECT_EQ(net.CountReplicas(id), kK);
}

TEST(PastMaintenanceTest, ChurnDuringInsertsKeepsKReplicas) {
  // Inserts keep coming while nodes join and crash. Once the churn stops and
  // maintenance has settled, every acknowledged file is back at k live
  // replicas, unless crashes took every replica: then no live node holds it
  // and at least k crashed nodes still do.
  constexpr uint32_t kK = 3;
  constexpr size_t kClients = 10;  // nodes 0-9 insert and never crash
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PastNetwork net(SmallNetOptions(seed));
    net.Build(60);
    Rng rng(seed);
    std::vector<FileId> acked;
    for (int round = 0; round < 60; ++round) {
      for (int i = 0; i < 4; ++i) {
        net.node(rng.UniformU64(kClients))
            ->Insert("churn-" + std::to_string(round) + "-" + std::to_string(i),
                     rng.RandomBytes(200), kK, [&acked](Result<FileId> r) {
                       if (r.ok()) {
                         acked.push_back(r.value());
                       }
                     });
      }
      if (round % 3 != 2) {
        net.AddNode();
      } else {
        std::vector<size_t> live;
        for (size_t i = kClients; i < net.size(); ++i) {
          if (net.node(i)->overlay()->active()) {
            live.push_back(i);
          }
        }
        net.CrashNode(live[rng.PickIndex(live.size())]);
      }
      net.Run(200 * kMicrosPerMilli);
    }
    net.Run(120 * kMicrosPerSecond);
    EXPECT_EQ(acked.size(), 240u) << "seed " << seed;
    for (const FileId& id : acked) {
      int live = 0;
      int crashed = 0;
      for (size_t i = 0; i < net.size(); ++i) {
        if (net.node(i)->store().Has(id)) {
          ++(net.node(i)->overlay()->active() ? live : crashed);
        }
      }
      EXPECT_TRUE(live >= static_cast<int>(kK) ||
                  (live == 0 && crashed >= static_cast<int>(kK)))
          << "seed " << seed << ": file " << id.ToHex() << " has " << live
          << " live and " << crashed << " crashed holders";
    }
  }
}

}  // namespace
}  // namespace past
