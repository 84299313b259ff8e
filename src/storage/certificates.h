// Certificates and receipts of the PAST security architecture (Section 2.1).
//
// Every certificate is issued and signed by a smartcard whose public key is
// in turn certified by the broker (CardIdentity). Storage nodes verify file
// certificates before storing, clients verify store receipts to confirm k
// replicas exist, reclaim certificates authorize storage reclamation, and
// reclaim receipts let the client's card credit its quota.
#pragma once

#include <cstdint>

#include "src/common/serializer.h"
#include "src/crypto/rsa.h"
#include "src/pastry/node_id.h"
#include "src/storage/file_id.h"

namespace past {

class VerifyCache;

// A smartcard's public key plus the broker's certification signature over it.
// Knowing the broker's public key, anyone can check that a card is genuine.
//
// All Verify methods below take an optional VerifyCache: when non-null, the
// two RSA verifications per certificate (broker-over-card, card-over-payload)
// are memoized there, so a node re-checking the same certificate or the same
// card identity pays one SHA-1 instead of two modular exponentiations.
struct CardIdentity {
  RsaPublicKey public_key;
  Bytes broker_signature;

  void EncodeTo(Writer* w) const;
  [[nodiscard]] static bool DecodeFrom(Reader* r, CardIdentity* out);

  // Did `broker` certify this card?
  [[nodiscard]] bool VerifyIssuedBy(const RsaPublicKey& broker,
                                    VerifyCache* cache = nullptr) const;

  // The nodeId / pseudonym derived from this card.
  NodeId DerivedNodeId() const { return NodeIdFromPublicKey(public_key.Encode()); }

  bool operator==(const CardIdentity& other) const = default;
};

// Authorizes the insertion of one file (issued by the owner's card; the card
// debits size * k against the owner's quota at issue time).
struct FileCertificate {
  FileId file_id;
  Bytes content_hash;        // SHA-256 of the file contents
  uint64_t file_size = 0;    // bytes
  uint32_t replication_factor = 0;  // k
  uint64_t salt = 0;
  int64_t insertion_date = 0;
  CardIdentity owner;
  Bytes signature;           // owner card's signature over all fields above

  // Writes the fields the signature covers; SignedBytes() is exactly these
  // bytes, and EncodeTo() appends the signature to them.
  void EncodeSigned(Writer* w) const;
  Bytes SignedBytes() const;
  void EncodeTo(Writer* w) const;
  [[nodiscard]] static bool DecodeFrom(Reader* r, FileCertificate* out);

  // Signature valid and card certified by `broker`.
  [[nodiscard]] bool Verify(const RsaPublicKey& broker,
                            VerifyCache* cache = nullptr) const;
  // Does `content` match content_hash?
  [[nodiscard]] bool MatchesContent(ByteSpan content) const;
};

// Issued by a storage node after storing a replica; returned to the client,
// which requires k receipts from distinct nodes before declaring success.
struct StoreReceipt {
  FileId file_id;
  CardIdentity node_card;
  int64_t timestamp = 0;
  bool diverted = false;     // replica was diverted to another node
  Bytes signature;

  void EncodeSigned(Writer* w) const;
  Bytes SignedBytes() const;
  void EncodeTo(Writer* w) const;
  [[nodiscard]] static bool DecodeFrom(Reader* r, StoreReceipt* out);
  [[nodiscard]] bool Verify(const RsaPublicKey& broker,
                            VerifyCache* cache = nullptr) const;
};

// Authorizes reclaiming the storage of a file; only the owner's card can
// produce a signature matching the file certificate's owner key.
struct ReclaimCertificate {
  FileId file_id;
  CardIdentity owner;
  int64_t date = 0;
  Bytes signature;

  void EncodeSigned(Writer* w) const;
  Bytes SignedBytes() const;
  void EncodeTo(Writer* w) const;
  [[nodiscard]] static bool DecodeFrom(Reader* r, ReclaimCertificate* out);
  [[nodiscard]] bool Verify(const RsaPublicKey& broker,
                            VerifyCache* cache = nullptr) const;
};

// Issued by a storage node that reclaimed a replica; presented by the client
// to its card to credit the quota.
struct ReclaimReceipt {
  FileId file_id;
  uint64_t bytes_reclaimed = 0;
  CardIdentity node_card;
  int64_t timestamp = 0;
  Bytes signature;

  void EncodeSigned(Writer* w) const;
  Bytes SignedBytes() const;
  void EncodeTo(Writer* w) const;
  [[nodiscard]] static bool DecodeFrom(Reader* r, ReclaimReceipt* out);
  [[nodiscard]] bool Verify(const RsaPublicKey& broker,
                            VerifyCache* cache = nullptr) const;
};

}  // namespace past

