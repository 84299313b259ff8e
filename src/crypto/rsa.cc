#include "src/crypto/rsa.h"

#include "src/common/check.h"
#include "src/common/serializer.h"
#include "src/crypto/sha1.h"

namespace past {
namespace {

// PKCS#1 v1.5-style padding: 0x00 0x01 0xFF... 0x00 digest, sized to the
// modulus width. Guarantees the padded value is < n (leading zero byte).
Bytes PadDigest(ByteSpan digest, size_t modulus_bytes) {
  PAST_CHECK_MSG(digest.size() + 11 <= modulus_bytes, "digest too long for modulus");
  Bytes padded(modulus_bytes, 0xFF);
  padded[0] = 0x00;
  padded[1] = 0x01;
  padded[modulus_bytes - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(), padded.end() - digest.size());
  return padded;
}

// BigNum::ModExp(base, exponent, modulus), through `mont`'s context wherever
// BigNum::ModExp would build a fresh one.
BigNum ModExpVia(const LazyMontgomeryContext& mont, const BigNum& base,
                 const BigNum& exponent, const BigNum& modulus) {
  if (MontgomeryContext::Supports(modulus)) {
    return mont.For(modulus).ModExp(base, exponent);
  }
  return BigNum::ModExp(base, exponent, modulus);
}

// The check every verify entry point makes: `mont`, a context for key.n,
// exponentiates; without one the key's own context does.
bool VerifyDigest(const RsaPublicKey& key, ByteSpan digest, ByteSpan signature,
                  const MontgomeryContext* mont) {
  // Guard hand-built keys too, not just decoded ones: a zero modulus or
  // exponent must fail verification, not abort inside ModExp.
  if (key.n.IsZero() || key.e.IsZero()) {
    return false;
  }
  size_t modulus_bytes = (static_cast<size_t>(key.n.BitLength()) + 7) / 8;
  if (signature.size() != modulus_bytes || digest.size() + 11 > modulus_bytes) {
    return false;
  }
  BigNum s = BigNum::FromBytes(signature);
  if (s >= key.n) {
    return false;
  }
  BigNum m = mont != nullptr   ? mont->ModExp(s, key.e)
             : key.n.IsOdd() ? key.MontContext().ModExp(s, key.e)
                             : BigNum::ModExp(s, key.e, key.n);
  Bytes recovered = m.ToBytes(modulus_bytes);
  Bytes expected = PadDigest(digest, modulus_bytes);
  return ConstantTimeEqual(recovered, expected);
}

}  // namespace

Bytes RsaPublicKey::Encode() const {
  Writer w;
  w.Reserve(WireSize(*this) - 4);  // less the length Write() puts before it
  w.Blob(n.ToBytes());
  w.Blob(e.ToBytes());
  return w.Take();
}

bool RsaPublicKey::Decode(ByteSpan data, RsaPublicKey* out) {
  Reader r(data);
  Bytes n_bytes, e_bytes;
  if (!r.Blob(&n_bytes) || !r.Blob(&e_bytes) || !r.AtEnd()) {
    return false;
  }
  out->n = BigNum::FromBytes(n_bytes);
  out->e = BigNum::FromBytes(e_bytes);
  // A zero modulus or exponent can never verify anything and would trip
  // PAST_CHECK(!modulus.IsZero()) inside ModExp; reject it here so malformed
  // wire input fails cleanly.
  return !out->n.IsZero() && !out->e.IsZero();
}

void Write(Writer* w, const RsaPublicKey& key) { w->Blob(key.Encode()); }

size_t WireSize(const RsaPublicKey& key) {
  // A blob holding Encode(): the blobs of n and e.
  return 4 + (4 + key.n.ByteLength()) + (4 + key.e.ByteLength());
}

bool Read(Reader* r, RsaPublicKey* key) {
  ByteSpan bytes;
  return r->Blob(&bytes) && RsaPublicKey::Decode(bytes, key);
}

void RsaKeyPair::PopulateCrt(BigNum prime_p, BigNum prime_q) {
  PAST_CHECK(prime_p.Mul(prime_q) == pub.n);
  const BigNum one = BigNum::FromU64(1);
  dp = d.Mod(prime_p.Sub(one));
  dq = d.Mod(prime_q.Sub(one));
  PAST_CHECK(BigNum::ModInverse(prime_q, prime_p, &qinv));
  p = std::move(prime_p);
  q = std::move(prime_q);
}

RsaKeyPair RsaKeyPair::Generate(int modulus_bits, Rng* rng) {
  PAST_CHECK(modulus_bits >= 128);
  const BigNum e = BigNum::FromU64(65537);
  while (true) {
    BigNum p = BigNum::GeneratePrime(modulus_bits / 2, rng);
    BigNum q = BigNum::GeneratePrime(modulus_bits - modulus_bits / 2, rng);
    if (p == q) {
      continue;
    }
    BigNum n = p.Mul(q);
    BigNum phi = p.Sub(BigNum::FromU64(1)).Mul(q.Sub(BigNum::FromU64(1)));
    BigNum d;
    if (!BigNum::ModInverse(e, phi, &d)) {
      continue;  // gcd(e, phi) != 1; re-draw primes
    }
    RsaKeyPair pair;
    pair.pub.n = std::move(n);
    pair.pub.e = e;
    pair.d = std::move(d);
    pair.PopulateCrt(std::move(p), std::move(q));
    return pair;
  }
}

Bytes RsaSignDigest(const RsaKeyPair& key, ByteSpan digest) {
  size_t modulus_bytes = (static_cast<size_t>(key.pub.n.BitLength()) + 7) / 8;
  Bytes padded = PadDigest(digest, modulus_bytes);
  BigNum m = BigNum::FromBytes(padded);
  BigNum s;
  if (key.HasCrt()) {
    // Garner recombination: s = m2 + q * (qinv * (m1 - m2) mod p). Exactly
    // equal to m^d mod n, so signatures are byte-identical to the plain path.
    BigNum m1 = ModExpVia(key.mont_p_, m, key.dp, key.p);
    BigNum m2 = ModExpVia(key.mont_q_, m, key.dq, key.q);
    BigNum m2p = m2.Mod(key.p);
    BigNum diff = m1 >= m2p ? m1.Sub(m2p) : m1.Add(key.p).Sub(m2p);
    BigNum h = key.qinv.Mul(diff).Mod(key.p);
    s = m2.Add(h.Mul(key.q));
  } else {
    s = BigNum::ModExp(m, key.d, key.pub.n);
  }
  return s.ToBytes(modulus_bytes);
}

bool RsaVerifyDigest(const RsaPublicKey& key, ByteSpan digest, ByteSpan signature) {
  return VerifyDigest(key, digest, signature, nullptr);
}

Bytes RsaSignMessage(const RsaKeyPair& key, ByteSpan message) {
  auto digest = Sha1::Hash(message);
  return RsaSignDigest(key, ByteSpan(digest.data(), digest.size()));
}

bool RsaVerifyMessage(const RsaPublicKey& key, ByteSpan message, ByteSpan signature) {
  auto digest = Sha1::Hash(message);
  return RsaVerifyDigest(key, ByteSpan(digest.data(), digest.size()), signature);
}

bool RsaVerifyMessage(const RsaPublicKey& key, ByteSpan message, ByteSpan signature,
                      const MontgomeryContext& mont) {
  PAST_CHECK_MSG(mont.modulus() == key.n, "Montgomery context for another modulus");
  auto digest = Sha1::Hash(message);
  return VerifyDigest(key, ByteSpan(digest.data(), digest.size()), signature, &mont);
}

}  // namespace past
