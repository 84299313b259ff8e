#include "src/storage/smartcard.h"

#include "src/common/check.h"

namespace past {

Smartcard::Smartcard(RsaKeyPair key, Bytes broker_signature, RsaPublicKey broker_key,
                     uint64_t usage_quota, uint64_t contributed_storage, int64_t expiry)
    : key_(std::move(key)),
      broker_key_(std::move(broker_key)),
      usage_quota_(usage_quota),
      contributed_storage_(contributed_storage),
      expiry_(expiry) {
  identity_.public_key = key_.pub;
  identity_.broker_signature = std::move(broker_signature);
}

Result<FileCertificate> Smartcard::IssueFileCertificate(std::string_view name,
                                                        uint64_t size,
                                                        ByteSpan content_hash,
                                                        uint32_t k, uint64_t salt,
                                                        int64_t date) {
  if (k == 0 || size == 0) {
    return StatusCode::kInvalidArgument;
  }
  if (date > expiry_) {
    return StatusCode::kCertificateExpired;
  }
  const uint64_t charge = size * k;
  if (charge / k != size || charge > quota_remaining()) {
    return StatusCode::kQuotaExceeded;
  }
  FileCertificate cert;
  cert.file_id = MakeFileId(name, key_.pub, salt);
  cert.content_hash.assign(content_hash.begin(), content_hash.end());
  cert.file_size = size;
  cert.replication_factor = k;
  cert.salt = salt;
  cert.insertion_date = date;
  cert.owner = identity_;
  cert.signature = RsaSignMessage(key_, cert.SignedBytes());
  quota_used_ += charge;
  return cert;
}

StatusCode Smartcard::RefundFileCertificate(const FileCertificate& cert) {
  if (!(cert.owner == identity_)) {
    return StatusCode::kNotAuthorized;
  }
  if (credited_.count(cert.file_id) > 0) {
    return StatusCode::kAlreadyExists;
  }
  const uint64_t charge = cert.file_size * cert.replication_factor;
  PAST_CHECK_MSG(charge <= quota_used_, "refund exceeds recorded usage");
  quota_used_ -= charge;
  credited_.insert(cert.file_id);
  return StatusCode::kOk;
}

ReclaimCertificate Smartcard::IssueReclaimCertificate(const FileId& file_id,
                                                      int64_t date) {
  ReclaimCertificate cert;
  cert.file_id = file_id;
  cert.owner = identity_;
  cert.date = date;
  cert.signature = RsaSignMessage(key_, cert.SignedBytes());
  return cert;
}

StatusCode Smartcard::CreditReclaim(const ReclaimReceipt& receipt,
                                    const FileCertificate& cert) {
  if (receipt.file_id != cert.file_id) {
    return StatusCode::kInvalidArgument;
  }
  if (!(cert.owner == identity_)) {
    return StatusCode::kNotAuthorized;
  }
  if (!receipt.Verify(broker_key_)) {
    return StatusCode::kVerificationFailed;
  }
  if (credited_.count(cert.file_id) > 0) {
    return StatusCode::kAlreadyExists;
  }
  const uint64_t charge = cert.file_size * cert.replication_factor;
  const uint64_t credit = charge <= quota_used_ ? charge : quota_used_;
  quota_used_ -= credit;
  credited_.insert(cert.file_id);
  return StatusCode::kOk;
}

StoreReceipt Smartcard::IssueStoreReceipt(const FileId& file_id, bool diverted,
                                          int64_t ts) {
  StoreReceipt receipt;
  receipt.file_id = file_id;
  receipt.node_card = identity_;
  receipt.timestamp = ts;
  receipt.diverted = diverted;
  receipt.signature = RsaSignMessage(key_, receipt.SignedBytes());
  return receipt;
}

ReclaimReceipt Smartcard::IssueReclaimReceipt(const FileId& file_id, uint64_t bytes,
                                              int64_t ts) {
  ReclaimReceipt receipt;
  receipt.file_id = file_id;
  receipt.bytes_reclaimed = bytes;
  receipt.node_card = identity_;
  receipt.timestamp = ts;
  receipt.signature = RsaSignMessage(key_, receipt.SignedBytes());
  return receipt;
}

// --- Broker ---------------------------------------------------------------------

Broker::Broker(uint64_t seed, const BrokerOptions& options)
    : options_(options), rng_(seed), key_(RsaKeyPair::Generate(options.key_bits, &rng_)) {
  for (int i = 0; i < options_.modulus_pool; ++i) {
    BigNum p = BigNum::GeneratePrime(options_.key_bits / 2, &rng_);
    BigNum q = BigNum::GeneratePrime(options_.key_bits - options_.key_bits / 2, &rng_);
    while (q == p) {
      q = BigNum::GeneratePrime(options_.key_bits - options_.key_bits / 2, &rng_);
    }
    PooledModulus pm;
    pm.n = p.Mul(q);
    pm.phi = p.Sub(BigNum::FromU64(1)).Mul(q.Sub(BigNum::FromU64(1)));
    pm.p = std::move(p);
    pm.q = std::move(q);
    pool_.push_back(std::move(pm));
  }
}

RsaKeyPair Broker::MakeCardKey() {
  if (pool_.empty()) {
    return RsaKeyPair::Generate(options_.key_bits, &rng_);
  }
  // Pooled modulus with a fresh random exponent: cheap mass issuance with a
  // distinct public key (and thus a distinct nodeId) per card.
  const PooledModulus& pm = pool_[next_pool_index_];
  next_pool_index_ = (next_pool_index_ + 1) % pool_.size();
  while (true) {
    BigNum e = BigNum::RandomBelow(pm.phi, &rng_);
    if (!e.IsOdd() || e < BigNum::FromU64(3)) {
      continue;
    }
    BigNum d;
    if (!BigNum::ModInverse(e, pm.phi, &d)) {
      continue;
    }
    RsaKeyPair pair;
    pair.pub.n = pm.n;
    pair.pub.e = std::move(e);
    pair.d = std::move(d);
    pair.PopulateCrt(pm.p, pm.q);
    return pair;
  }
}

Result<std::unique_ptr<Smartcard>> Broker::IssueCard(uint64_t usage_quota,
                                                     uint64_t contributed_storage,
                                                     int64_t expiry) {
  StatusCode balance = CheckBalance(usage_quota, contributed_storage);
  if (balance != StatusCode::kOk) {
    return balance;  // before keygen, so a rejection never advances the rng
  }
  return Finalize(MakeCardKey(), usage_quota, contributed_storage, expiry);
}

Result<std::unique_ptr<Smartcard>> Broker::IssueCardWithSeed(
    uint64_t card_seed, uint64_t usage_quota, uint64_t contributed_storage,
    int64_t expiry) {
  // A dedicated rng and a full keygen (no modulus pool — pool contents
  // depend on broker issuance history) make the card a pure function of
  // (broker seed, card seed).
  StatusCode balance = CheckBalance(usage_quota, contributed_storage);
  if (balance != StatusCode::kOk) {
    return balance;
  }
  Rng card_rng(card_seed);
  return Finalize(RsaKeyPair::Generate(options_.key_bits, &card_rng), usage_quota,
                  contributed_storage, expiry);
}

StatusCode Broker::CheckBalance(uint64_t usage_quota,
                                uint64_t contributed_storage) const {
  if (options_.enforce_balance) {
    double projected_demand = static_cast<double>(total_demand_ + usage_quota);
    double supply = static_cast<double>(total_supply_ + contributed_storage);
    if (projected_demand > supply * options_.max_demand_supply_ratio) {
      return StatusCode::kQuotaExceeded;
    }
  }
  return StatusCode::kOk;
}

Result<std::unique_ptr<Smartcard>> Broker::Finalize(RsaKeyPair card_key,
                                                    uint64_t usage_quota,
                                                    uint64_t contributed_storage,
                                                    int64_t expiry) {
  Bytes signature = RsaSignMessage(key_, card_key.pub.Encode());
  total_demand_ += usage_quota;
  total_supply_ += contributed_storage;
  ++cards_issued_;
  return std::make_unique<Smartcard>(std::move(card_key), std::move(signature),
                                     key_.pub, usage_quota, contributed_storage,
                                     expiry);
}

}  // namespace past
