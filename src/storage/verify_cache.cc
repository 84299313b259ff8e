#include "src/storage/verify_cache.h"

#include "src/common/check.h"
#include "src/crypto/sha1.h"

namespace past {

VerifyCache::VerifyCache(size_t max_entries, MetricsRegistry& metrics)
    : max_entries_(max_entries),
      hits_(metrics.GetCounter("crypto.verify_cache_hit")),
      misses_(metrics.GetCounter("crypto.verify_cache_miss")),
      mont_contexts_(metrics.GetCounter("crypto.mont_contexts")) {
  PAST_CHECK(max_entries_ > 0);
}

U160 VerifyCache::KeyFor(const RsaPublicKey& key, ByteSpan message,
                         ByteSpan signature) {
  Sha1 h;
  const Bytes key_bytes = key.Encode();
  // Length-prefix each part so (m, s) and (m', s') with m‖s == m'‖s' cannot
  // collide by concatenation.
  const auto feed = [&h](ByteSpan part) {
    const uint64_t n = part.size();
    uint8_t len[8];
    for (int i = 0; i < 8; ++i) {
      len[i] = static_cast<uint8_t>(n >> (8 * i));
    }
    h.Update(ByteSpan(len, sizeof(len)));
    h.Update(part);
  };
  feed(message);
  feed(signature);
  feed(ByteSpan(key_bytes.data(), key_bytes.size()));
  const auto digest = h.Finish();
  return U160::FromBytes(ByteSpan(digest.data(), digest.size()));
}

bool VerifyCache::VerifyMessage(const RsaPublicKey& key, ByteSpan message,
                                ByteSpan signature) {
  const U160 memo_key = KeyFor(key, message, signature);
  if (const auto it = entries_.find(memo_key); it != entries_.end()) {
    hits_->Inc();
    return it->second;
  }
  misses_->Inc();
  // A modulus Montgomery cannot take (only a malformed key has one) verifies
  // by the reference path and builds no context.
  const bool ok = MontgomeryContext::Supports(key.n)
                      ? RsaVerifyMessage(key, message, signature, ContextFor(key.n))
                      : RsaVerifyMessage(key, message, signature);
  if (entries_.size() >= max_entries_) {
    entries_.erase(fifo_.front());
    fifo_.pop_front();
  }
  fifo_.push_back(memo_key);
  entries_.emplace(memo_key, ok);
  return ok;
}

const MontgomeryContext& VerifyCache::ContextFor(const BigNum& modulus) {
  for (const MontgomeryContext& context : contexts_) {
    if (context.modulus() == modulus) {
      return context;
    }
  }
  if (contexts_.size() >= kMaxContexts) {
    contexts_.pop_front();
  }
  mont_contexts_->Inc();
  return contexts_.emplace_back(modulus);
}

void VerifyCache::Clear() {
  entries_.clear();
  fifo_.clear();
}

}  // namespace past
