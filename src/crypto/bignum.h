// Arbitrary-precision unsigned integers, from scratch.
//
// Just enough number theory for the smartcard substrate: schoolbook
// arithmetic, binary long division, modular exponentiation (Montgomery CIOS
// fast path for odd moduli, square-and-multiply reference kept as the
// differential-test oracle), extended Euclid for modular inverses, and
// Miller-Rabin primality testing for RSA key generation. Little-endian
// 32-bit limbs.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace past {

class BigNum {
 public:
  BigNum() = default;
  static BigNum FromU64(uint64_t v);
  // Big-endian byte import/export. ToBytes pads/truncates to `width` bytes if
  // width > 0 (the value must fit), else emits the minimal encoding.
  static BigNum FromBytes(ByteSpan bytes);
  Bytes ToBytes(size_t width = 0) const;
  // The size of the minimal encoding ToBytes() emits (one byte for zero).
  size_t ByteLength() const;

  // Raw little-endian 32-bit limb export/import, for the Montgomery kernel
  // (src/crypto/montgomery.h). ToLimbs pads with zero limbs to `width` limbs
  // if width > 0 (the value must fit), else emits exactly the significant
  // limbs. FromLimbs accepts leading zero limbs and trims them.
  std::vector<uint32_t> ToLimbs(size_t width) const;
  static BigNum FromLimbs(const std::vector<uint32_t>& limbs);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  // Number of significant bits (0 for zero).
  int BitLength() const;
  int Bit(int i) const;
  uint64_t ToU64() const;  // value must fit in 64 bits

  friend bool operator==(const BigNum& a, const BigNum& b) = default;
  friend std::strong_ordering operator<=>(const BigNum& a, const BigNum& b);

  BigNum Add(const BigNum& other) const;
  // Requires *this >= other.
  BigNum Sub(const BigNum& other) const;
  BigNum Mul(const BigNum& other) const;
  // Quotient and remainder; divisor must be non-zero. Knuth Algorithm D.
  void DivMod(const BigNum& divisor, BigNum* quotient, BigNum* remainder) const;
  // Bit-at-a-time reference implementation, kept for property tests that
  // cross-check the fast path.
  void DivModBitwise(const BigNum& divisor, BigNum* quotient, BigNum* remainder) const;
  BigNum Mod(const BigNum& modulus) const;

  BigNum ShiftLeft(int bits) const;
  BigNum ShiftRight(int bits) const;

  // (base^exponent) mod modulus; modulus must be non-zero. Odd moduli > 1
  // take the Montgomery fast path (src/crypto/montgomery.h); everything else
  // falls back to the reference implementation. Both produce identical
  // results.
  static BigNum ModExp(const BigNum& base, const BigNum& exponent, const BigNum& modulus);
  // Square-and-multiply with a full division per step. Slow; kept as the
  // differential-test oracle for the Montgomery path.
  static BigNum ModExpReference(const BigNum& base, const BigNum& exponent,
                                const BigNum& modulus);
  // Multiplicative inverse of a modulo m, if gcd(a, m) == 1. Returns false
  // otherwise.
  static bool ModInverse(const BigNum& a, const BigNum& m, BigNum* inverse);
  static BigNum Gcd(BigNum a, BigNum b);

  // Uniform random value with exactly `bits` significant bits (top bit set).
  static BigNum RandomWithBits(int bits, Rng* rng);
  // Uniform in [0, bound).
  static BigNum RandomBelow(const BigNum& bound, Rng* rng);

  // Miller-Rabin with `rounds` random bases.
  static bool IsProbablePrime(const BigNum& n, int rounds, Rng* rng);
  // Random prime with exactly `bits` bits.
  static BigNum GeneratePrime(int bits, Rng* rng);

  std::string ToHex() const;

 private:
  void Trim();

  // Little-endian limbs; empty means zero. Invariant: no leading zero limb.
  std::vector<uint32_t> limbs_;
};

}  // namespace past

