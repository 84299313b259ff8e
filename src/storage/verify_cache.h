// VerifyCache — bounded memo cache of RSA signature verification results.
//
// The same certificates and card identities are verified over and over as a
// file's replicas spread, as lookups return the certificate to clients, and
// as maintenance re-checks stored replicas. An RSA verify costs microseconds;
// a memo lookup costs one SHA-1 over the inputs plus a hash-map probe. The
// cache keys on SHA-1 over the length-prefixed triple
// (message ‖ signature ‖ encoded public key), so any change to any input
// yields a different key, and it stores the boolean outcome — failed
// verifications are memoized too, which keeps repeated garbage cheap.
//
// Entries are evicted FIFO once `max_entries` is reached (verification
// results never go stale, so recency tracking buys nothing over insertion
// order). Each PastNode owns its own cache, so a restarted node starts
// empty and never serves memoized results across an identity change.
//
// A miss verifies through the cache's own Montgomery context for the key's
// modulus, one per modulus: a network's cards share a few pooled moduli, so
// a node builds a handful of contexts, not one for every decoded key. At
// most kMaxContexts are kept, evicted FIFO like the memo.
//
// Counts into the "crypto.verify_cache_hit", "crypto.verify_cache_miss"
// (their sum is the verifications asked for) and "crypto.mont_contexts"
// (contexts built) counters of the registry it is given.
#pragma once

#include <cstddef>
#include <deque>
#include <unordered_map>

#include "src/common/bytes.h"
#include "src/common/u160.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/rsa.h"
#include "src/obs/metrics.h"

namespace past {

class VerifyCache {
 public:
  // Bound on the Montgomery contexts kept: a pooled network has at most 9
  // moduli (8 pooled ones and the broker's).
  static constexpr size_t kMaxContexts = 16;

  // `max_entries` (at least 1) bounds the memo table.
  VerifyCache(size_t max_entries, MetricsRegistry& metrics);

  VerifyCache(const VerifyCache&) = delete;
  VerifyCache& operator=(const VerifyCache&) = delete;

  // RsaVerifyMessage(key, message, signature), memoized.
  [[nodiscard]] bool VerifyMessage(const RsaPublicKey& key, ByteSpan message,
                                   ByteSpan signature);

  size_t size() const { return entries_.size(); }
  size_t context_count() const { return contexts_.size(); }
  // Empties the memo; the contexts, which never go stale, stay.
  void Clear();

 private:
  static U160 KeyFor(const RsaPublicKey& key, ByteSpan message, ByteSpan signature);
  // This cache's context for `modulus` (one Montgomery supports), built on
  // first use.
  const MontgomeryContext& ContextFor(const BigNum& modulus);

  size_t max_entries_;
  std::unordered_map<U160, bool, U160Hash> entries_;
  std::deque<U160> fifo_;  // insertion order, oldest first
  std::deque<MontgomeryContext> contexts_;  // oldest first

  Counter* hits_;
  Counter* misses_;
  Counter* mont_contexts_;
};

}  // namespace past
