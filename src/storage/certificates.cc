#include "src/storage/certificates.h"

#include "src/crypto/sha256.h"
#include "src/storage/verify_cache.h"

namespace past {
namespace {

// Route through the memo cache when one is supplied, else verify directly.
bool CheckSignature(VerifyCache* cache, const RsaPublicKey& key, ByteSpan message,
                    ByteSpan signature) {
  if (cache != nullptr) {
    return cache->VerifyMessage(key, message, signature);
  }
  return RsaVerifyMessage(key, message, signature);
}

}  // namespace

bool CardIdentity::VerifyIssuedBy(const RsaPublicKey& broker,
                                  VerifyCache* cache) const {
  return CheckSignature(cache, broker, public_key.Encode(), broker_signature);
}

bool VerifyCardSignature(const RsaPublicKey& broker, const CardIdentity& card,
                         ByteSpan signed_bytes, ByteSpan signature, VerifyCache* cache) {
  return card.VerifyIssuedBy(broker, cache) &&
         CheckSignature(cache, card.public_key, signed_bytes, signature);
}

CertificateTable::CertificateTable(MetricsRegistry& metrics)
    : certs_(metrics.GetGauge("past.certs_resident"),
             [](const FileCertificate&) { return 1.0; }) {}

SharedCertificate CertificateTable::Intern(const FileCertificate& cert) {
  return certs_.Intern(
      U160Hash{}(cert.file_id),
      [&cert](const FileCertificate& live) { return &live == &cert || live == cert; },
      [&cert] { return cert; });
}

bool FileCertificate::MatchesContent(ByteSpan content) const {
  auto digest = Sha256::Hash(content);
  return content_hash.size() == digest.size() &&
         ConstantTimeEqual(content_hash, ByteSpan(digest.data(), digest.size()));
}

}  // namespace past
