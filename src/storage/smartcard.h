// Smartcards and the broker (Section 2.1).
//
// Each PAST user and node holds a smartcard: a tamper-proof key holder that
// issues/verifies certificates and maintains the storage quota. The broker is
// the trusted third party that certifies cards and balances storage supply
// (contributed by node cards) against demand (usage quotas on user cards).
//
// This software implementation preserves the protocol exactly: the quota
// counters live inside the card object, certificates are only produced
// through card methods, and "tamper-proofness" becomes a set of invariants
// the test suite enforces.
#pragma once

#include <memory>
#include <string_view>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/storage/certificates.h"

namespace past {

class Smartcard {
 public:
  // Cards are created by Broker::IssueCard.
  Smartcard(RsaKeyPair key, Bytes broker_signature, RsaPublicKey broker_key,
            uint64_t usage_quota, uint64_t contributed_storage, int64_t expiry);

  const CardIdentity& identity() const { return identity_; }
  const RsaPublicKey& broker_key() const { return broker_key_; }
  NodeId DerivedNodeId() const { return identity_.DerivedNodeId(); }

  // --- quota ------------------------------------------------------------------
  uint64_t usage_quota() const { return usage_quota_; }
  uint64_t quota_used() const { return quota_used_; }
  uint64_t quota_remaining() const { return usage_quota_ - quota_used_; }
  // Storage this card's node pledges to the system (possibly zero).
  uint64_t contributed_storage() const { return contributed_storage_; }
  int64_t expiry() const { return expiry_; }

  // --- user-side operations ------------------------------------------------------
  // Issues a file certificate, debiting size * k against the quota. The
  // content hash is computed by the client node (the card only signs it); the
  // fileId is computed by the card. Fails with kQuotaExceeded or
  // kCertificateExpired.
  Result<FileCertificate> IssueFileCertificate(std::string_view name, uint64_t size,
                                               ByteSpan content_hash, uint32_t k,
                                               uint64_t salt, int64_t date);

  // Credits back a failed insertion (no receipts obtained). Allowed once per
  // fileId, and only for certificates this card issued.
  StatusCode RefundFileCertificate(const FileCertificate& cert);

  ReclaimCertificate IssueReclaimCertificate(const FileId& file_id, int64_t date);

  // Presents a reclaim receipt: after verification the quota is credited by
  // size * k (mirroring the debit at insertion). Idempotent per fileId.
  StatusCode CreditReclaim(const ReclaimReceipt& receipt, const FileCertificate& cert);

  // --- node-side operations --------------------------------------------------------
  StoreReceipt IssueStoreReceipt(const FileId& file_id, bool diverted, int64_t ts);
  ReclaimReceipt IssueReclaimReceipt(const FileId& file_id, uint64_t bytes, int64_t ts);

 private:
  RsaKeyPair key_;
  CardIdentity identity_;
  RsaPublicKey broker_key_;
  uint64_t usage_quota_;
  uint64_t quota_used_ = 0;
  uint64_t contributed_storage_;
  int64_t expiry_;
  // fileIds whose debit has already been returned (refund or reclaim credit).
  std::unordered_set<U160, U160Hash> credited_;
};

struct BrokerOptions {
  int key_bits = 256;
  // When > 0, pre-generate this many RSA moduli and issue cards with a fresh
  // public exponent over a pooled modulus. This is a simulation-scale
  // shortcut (sharing a modulus is not safe in production); it makes issuing
  // tens of thousands of cards cheap while keeping signatures real.
  int modulus_pool = 0;
  // Refuse to issue usage quota beyond contributed supply * max ratio.
  bool enforce_balance = false;
  double max_demand_supply_ratio = 1.0;
};

// The broker issues smartcards and tracks aggregate supply and demand. It
// never participates in PAST operations and learns nothing about stored
// files — matching the limited-trust role the paper gives it.
class Broker {
 public:
  Broker(uint64_t seed, const BrokerOptions& options = {});

  const RsaPublicKey& public_key() const { return key_.pub; }

  Result<std::unique_ptr<Smartcard>> IssueCard(uint64_t usage_quota,
                                               uint64_t contributed_storage,
                                               int64_t expiry = INT64_MAX);

  // Issues a card whose key is derived from `card_seed` alone (not the
  // broker's issuance order). Two brokers built from the same seed issue
  // byte-identical cards for the same card_seed — how a multi-process
  // cluster gives every daemon a distinct, deterministic identity under one
  // shared broker without any coordination.
  Result<std::unique_ptr<Smartcard>> IssueCardWithSeed(uint64_t card_seed,
                                                       uint64_t usage_quota,
                                                       uint64_t contributed_storage,
                                                       int64_t expiry = INT64_MAX);

  uint64_t total_demand() const { return total_demand_; }   // sum of quotas
  uint64_t total_supply() const { return total_supply_; }   // sum of contributions
  size_t cards_issued() const { return cards_issued_; }

 private:
  struct PooledModulus {
    BigNum n;
    BigNum phi;
    // Prime factors, kept so pooled cards get CRT signing components too.
    BigNum p;
    BigNum q;
  };

  RsaKeyPair MakeCardKey();
  StatusCode CheckBalance(uint64_t usage_quota, uint64_t contributed_storage) const;
  Result<std::unique_ptr<Smartcard>> Finalize(RsaKeyPair card_key,
                                              uint64_t usage_quota,
                                              uint64_t contributed_storage,
                                              int64_t expiry);

  BrokerOptions options_;
  Rng rng_;
  RsaKeyPair key_;
  std::vector<PooledModulus> pool_;
  size_t next_pool_index_ = 0;
  uint64_t total_demand_ = 0;
  uint64_t total_supply_ = 0;
  size_t cards_issued_ = 0;
};

}  // namespace past

