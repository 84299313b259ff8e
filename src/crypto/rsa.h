// RSA signatures over SHA-1 digests, built on the from-scratch BigNum.
//
// This is the signature scheme held inside each PAST smartcard. Key sizes are
// configurable; simulations default to 512-bit moduli so that thousands of
// smartcards can be generated quickly, while the algorithmic path (keygen,
// PKCS#1-style padding, sign, verify) is the real one.
#pragma once

#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/serializer.h"
#include "src/crypto/bignum.h"
#include "src/crypto/montgomery.h"

namespace past {

struct RsaPublicKey {
  BigNum n;  // modulus
  BigNum e;  // public exponent

  // Montgomery context for n, built on first use and shared by copies of
  // this key (see LazyMontgomeryContext), for verifications made without a
  // VerifyCache. A VerifyCache verifies through its own context for the
  // modulus and leaves this one unbuilt.
  const MontgomeryContext& MontContext() const { return mont_.For(n); }

  // Deterministic byte encoding (length-prefixed n, e). NodeIds and
  // pseudonyms are hashes of this encoding. Decode rejects malformed wire
  // input (truncated blobs, trailing bytes, n = 0, e = 0) rather than
  // letting a zero modulus reach ModExp.
  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, RsaPublicKey* out);

  // Equality is over the key material only; the cached context is derived
  // state.
  bool operator==(const RsaPublicKey& other) const {
    return n == other.n && e == other.e;
  }

 private:
  LazyMontgomeryContext mont_;
};

// A key as a wire field: its Encode() bytes as one length-prefixed blob,
// read back through Decode().
void Write(Writer* w, const RsaPublicKey& key);
[[nodiscard]] bool Read(Reader* r, RsaPublicKey* key);
size_t WireSize(const RsaPublicKey& key);

struct RsaKeyPair {
  RsaPublicKey pub;
  BigNum d;  // private exponent

  // CRT components for fast signing: two half-width exponentiations plus
  // Garner recombination instead of one full-width exponentiation. Empty on
  // externally-built pairs; RsaSignDigest falls back to the plain d path
  // then (same signature bytes either way).
  BigNum p;     // first prime factor of n
  BigNum q;     // second prime factor of n
  BigNum dp;    // d mod (p - 1)
  BigNum dq;    // d mod (q - 1)
  BigNum qinv;  // q^-1 mod p

  bool HasCrt() const { return !p.IsZero(); }
  // Derives dp/dq/qinv from the prime factors (prime_p * prime_q must equal
  // pub.n and d must already be set).
  void PopulateCrt(BigNum prime_p, BigNum prime_q);

  // Generates a fresh key pair with a modulus of `modulus_bits`, CRT
  // components included.
  static RsaKeyPair Generate(int modulus_bits, Rng* rng);

 private:
  friend Bytes RsaSignDigest(const RsaKeyPair& key, ByteSpan digest);

  // Montgomery contexts for p and q, built on the first CRT signature and
  // shared by copies of this pair.
  LazyMontgomeryContext mont_p_;
  LazyMontgomeryContext mont_q_;
};

// Signs a message digest (any length < modulus size - 16 bytes). Returns a
// signature of exactly the modulus width.
Bytes RsaSignDigest(const RsaKeyPair& key, ByteSpan digest);

// Verifies a signature produced by RsaSignDigest.
[[nodiscard]] bool RsaVerifyDigest(const RsaPublicKey& key, ByteSpan digest, ByteSpan signature);

// Convenience: SHA-1 the message (20-byte digest fits a 256-bit modulus,
// the smallest size simulations use), then sign/verify the digest.
Bytes RsaSignMessage(const RsaKeyPair& key, ByteSpan message);
[[nodiscard]] bool RsaVerifyMessage(const RsaPublicKey& key, ByteSpan message, ByteSpan signature);
// The same check, exponentiating through `mont`, a context for key.n (a
// VerifyCache keeps one per modulus), instead of the key's own context.
[[nodiscard]] bool RsaVerifyMessage(const RsaPublicKey& key, ByteSpan message, ByteSpan signature,
                                    const MontgomeryContext& mont);

}  // namespace past

