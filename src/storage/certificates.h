// Certificates and receipts of the PAST security architecture (Section 2.1).
//
// Every certificate is issued and signed by a smartcard whose public key is
// in turn certified by the broker (CardIdentity). Storage nodes verify file
// certificates before storing, clients verify store receipts to confirm k
// replicas exist, reclaim certificates authorize storage reclamation, and
// reclaim receipts let the client's card credit its quota.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>

#include "src/common/serializer.h"
#include "src/crypto/rsa.h"
#include "src/obs/metrics.h"
#include "src/pastry/node_id.h"
#include "src/storage/file_id.h"
#include "src/storage/intern_table.h"

namespace past {

class VerifyCache;

// A smartcard's public key plus the broker's certification signature over it.
// Knowing the broker's public key, anyone can check that a card is genuine.
//
// All Verify methods below take an optional VerifyCache: when non-null, the
// two RSA verifications per certificate (broker-over-card, card-over-payload)
// are memoized there, so a node re-checking the same certificate or the same
// card identity pays one SHA-1 instead of two modular exponentiations.
struct CardIdentity : WireRecord<CardIdentity> {
  RsaPublicKey public_key;
  Bytes broker_signature;

  static auto Fields(auto& c) { return std::tie(c.public_key, c.broker_signature); }

  // Did `broker` certify this card?
  [[nodiscard]] bool VerifyIssuedBy(const RsaPublicKey& broker,
                                    VerifyCache* cache = nullptr) const;

  // The nodeId / pseudonym derived from this card.
  NodeId DerivedNodeId() const { return NodeIdFromPublicKey(public_key.Encode()); }

  bool operator==(const CardIdentity& other) const { return Fields(*this) == Fields(other); }
};

// Did `broker` certify `card`, and did `card` sign `signed_bytes`?
[[nodiscard]] bool VerifyCardSignature(const RsaPublicKey& broker, const CardIdentity& card,
                                       ByteSpan signed_bytes, ByteSpan signature,
                                       VerifyCache* cache);

// The four signed records below share one layout and one check. Each lists
// the fields its signature covers (SignedFields) and names the card that
// signs them (Signer); on the wire the signed fields are followed by the
// signature.
template <typename T>
struct SignedRecord : WireRecord<T> {
  static auto Fields(auto& r) {
    return std::tuple_cat(T::SignedFields(r), std::tie(r.signature));
  }

  // Exactly the bytes the signature covers.
  Bytes SignedBytes() const {
    Writer w;
    WriteFields(&w, T::SignedFields(self()));
    return w.Take();
  }

  // Signature valid and the signer's card certified by `broker`.
  [[nodiscard]] bool Verify(const RsaPublicKey& broker,
                            VerifyCache* cache = nullptr) const {
    return VerifyCardSignature(broker, T::Signer(self()), SignedBytes(), self().signature,
                               cache);
  }

 private:
  const T& self() const { return static_cast<const T&>(*this); }
};

// Authorizes the insertion of one file (issued by the owner's card; the card
// debits size * k against the owner's quota at issue time).
struct FileCertificate : SignedRecord<FileCertificate> {
  FileId file_id;
  Bytes content_hash;        // SHA-256 of the file contents
  uint64_t file_size = 0;    // bytes
  uint32_t replication_factor = 0;  // k
  uint64_t salt = 0;
  int64_t insertion_date = 0;
  CardIdentity owner;
  Bytes signature;           // owner card's signature over all fields above

  static auto SignedFields(auto& c) {
    return std::tie(c.file_id, c.content_hash, c.file_size, c.replication_factor, c.salt,
                    c.insertion_date, c.owner);
  }
  static const CardIdentity& Signer(const FileCertificate& c) { return c.owner; }

  // Does `content` match content_hash?
  [[nodiscard]] bool MatchesContent(ByteSpan content) const;

  bool operator==(const FileCertificate& other) const { return Fields(*this) == Fields(other); }
};

// A handle onto a certificate interned in a CertificateTable.
using SharedCertificate = std::shared_ptr<const FileCertificate>;

// One object per distinct file certificate, shared by the replica stores,
// caches and owners of a network (an InternTable of certificates; DESIGN
// §15). Certificates are filed under their fileId, and two share an object
// only when they are equal in every field, signature included, so a forged
// certificate under a genuine fileId gets an object of its own and never
// replaces the genuine one.
class CertificateTable {
 public:
  // Live certificates are the "past.certs_resident" gauge of `metrics`
  // (summed over every table on the registry).
  explicit CertificateTable(MetricsRegistry& metrics);

  // A handle onto the live certificate equal to `cert` (`cert` itself when
  // it is one), or else onto a new copy of it.
  SharedCertificate Intern(const FileCertificate& cert);

  // Live certificates.
  size_t size() const { return certs_.size(); }

 private:
  InternTable<FileCertificate> certs_;
};

// Issued by a storage node after storing a replica; returned to the client,
// which requires k receipts from distinct nodes before declaring success.
struct StoreReceipt : SignedRecord<StoreReceipt> {
  FileId file_id;
  CardIdentity node_card;
  int64_t timestamp = 0;
  bool diverted = false;     // replica was diverted to another node
  Bytes signature;

  static auto SignedFields(auto& r) {
    return std::tie(r.file_id, r.node_card, r.timestamp, r.diverted);
  }
  static const CardIdentity& Signer(const StoreReceipt& r) { return r.node_card; }
};

// Authorizes reclaiming the storage of a file; only the owner's card can
// produce a signature matching the file certificate's owner key.
struct ReclaimCertificate : SignedRecord<ReclaimCertificate> {
  FileId file_id;
  CardIdentity owner;
  int64_t date = 0;
  Bytes signature;

  static auto SignedFields(auto& c) { return std::tie(c.file_id, c.owner, c.date); }
  static const CardIdentity& Signer(const ReclaimCertificate& c) { return c.owner; }
};

// Issued by a storage node that reclaimed a replica; presented by the client
// to its card to credit the quota.
struct ReclaimReceipt : SignedRecord<ReclaimReceipt> {
  FileId file_id;
  uint64_t bytes_reclaimed = 0;
  CardIdentity node_card;
  int64_t timestamp = 0;
  Bytes signature;

  static auto SignedFields(auto& r) {
    return std::tie(r.file_id, r.bytes_reclaimed, r.node_card, r.timestamp);
  }
  static const CardIdentity& Signer(const ReclaimReceipt& r) { return r.node_card; }
};

}  // namespace past
