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

// The broker certified `card`, and `card` signed `signed_bytes`.
bool CheckCardSignature(VerifyCache* cache, const RsaPublicKey& broker,
                        const CardIdentity& card, ByteSpan signed_bytes,
                        ByteSpan signature) {
  return card.VerifyIssuedBy(broker, cache) &&
         CheckSignature(cache, card.public_key, signed_bytes, signature);
}

}  // namespace

// --- CardIdentity ------------------------------------------------------------

void CardIdentity::EncodeTo(Writer* w) const {
  w->Blob(public_key.Encode());
  w->Blob(broker_signature);
}

bool CardIdentity::DecodeFrom(Reader* r, CardIdentity* out) {
  Bytes key_bytes;
  if (!r->Blob(&key_bytes) || !RsaPublicKey::Decode(key_bytes, &out->public_key)) {
    return false;
  }
  return r->Blob(&out->broker_signature);
}

bool CardIdentity::VerifyIssuedBy(const RsaPublicKey& broker,
                                  VerifyCache* cache) const {
  return CheckSignature(cache, broker, public_key.Encode(), broker_signature);
}

// --- FileCertificate ----------------------------------------------------------

void FileCertificate::EncodeSigned(Writer* w) const {
  w->Id160(file_id);
  w->Blob(content_hash);
  w->U64(file_size);
  w->U32(replication_factor);
  w->U64(salt);
  w->I64(insertion_date);
  owner.EncodeTo(w);
}

Bytes FileCertificate::SignedBytes() const {
  Writer w;
  EncodeSigned(&w);
  return w.Take();
}

void FileCertificate::EncodeTo(Writer* w) const {
  EncodeSigned(w);
  w->Blob(signature);
}

bool FileCertificate::DecodeFrom(Reader* r, FileCertificate* out) {
  return r->Id160(&out->file_id) && r->Blob(&out->content_hash) &&
         r->U64(&out->file_size) && r->U32(&out->replication_factor) &&
         r->U64(&out->salt) && r->I64(&out->insertion_date) &&
         CardIdentity::DecodeFrom(r, &out->owner) && r->Blob(&out->signature);
}

bool FileCertificate::Verify(const RsaPublicKey& broker, VerifyCache* cache) const {
  return CheckCardSignature(cache, broker, owner, SignedBytes(), signature);
}

bool FileCertificate::MatchesContent(ByteSpan content) const {
  auto digest = Sha256::Hash(content);
  return content_hash.size() == digest.size() &&
         ConstantTimeEqual(content_hash, ByteSpan(digest.data(), digest.size()));
}

// --- StoreReceipt --------------------------------------------------------------

void StoreReceipt::EncodeSigned(Writer* w) const {
  w->Id160(file_id);
  node_card.EncodeTo(w);
  w->I64(timestamp);
  w->Bool(diverted);
}

Bytes StoreReceipt::SignedBytes() const {
  Writer w;
  EncodeSigned(&w);
  return w.Take();
}

void StoreReceipt::EncodeTo(Writer* w) const {
  EncodeSigned(w);
  w->Blob(signature);
}

bool StoreReceipt::DecodeFrom(Reader* r, StoreReceipt* out) {
  return r->Id160(&out->file_id) && CardIdentity::DecodeFrom(r, &out->node_card) &&
         r->I64(&out->timestamp) && r->Bool(&out->diverted) && r->Blob(&out->signature);
}

bool StoreReceipt::Verify(const RsaPublicKey& broker, VerifyCache* cache) const {
  return CheckCardSignature(cache, broker, node_card, SignedBytes(), signature);
}

// --- ReclaimCertificate ---------------------------------------------------------

void ReclaimCertificate::EncodeSigned(Writer* w) const {
  w->Id160(file_id);
  owner.EncodeTo(w);
  w->I64(date);
}

Bytes ReclaimCertificate::SignedBytes() const {
  Writer w;
  EncodeSigned(&w);
  return w.Take();
}

void ReclaimCertificate::EncodeTo(Writer* w) const {
  EncodeSigned(w);
  w->Blob(signature);
}

bool ReclaimCertificate::DecodeFrom(Reader* r, ReclaimCertificate* out) {
  return r->Id160(&out->file_id) && CardIdentity::DecodeFrom(r, &out->owner) &&
         r->I64(&out->date) && r->Blob(&out->signature);
}

bool ReclaimCertificate::Verify(const RsaPublicKey& broker, VerifyCache* cache) const {
  return CheckCardSignature(cache, broker, owner, SignedBytes(), signature);
}

// --- ReclaimReceipt --------------------------------------------------------------

void ReclaimReceipt::EncodeSigned(Writer* w) const {
  w->Id160(file_id);
  w->U64(bytes_reclaimed);
  node_card.EncodeTo(w);
  w->I64(timestamp);
}

Bytes ReclaimReceipt::SignedBytes() const {
  Writer w;
  EncodeSigned(&w);
  return w.Take();
}

void ReclaimReceipt::EncodeTo(Writer* w) const {
  EncodeSigned(w);
  w->Blob(signature);
}

bool ReclaimReceipt::DecodeFrom(Reader* r, ReclaimReceipt* out) {
  return r->Id160(&out->file_id) && r->U64(&out->bytes_reclaimed) &&
         CardIdentity::DecodeFrom(r, &out->node_card) && r->I64(&out->timestamp) &&
         r->Blob(&out->signature);
}

bool ReclaimReceipt::Verify(const RsaPublicKey& broker, VerifyCache* cache) const {
  return CheckCardSignature(cache, broker, node_card, SignedBytes(), signature);
}

}  // namespace past
