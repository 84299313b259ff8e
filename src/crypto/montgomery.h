// Montgomery-form modular arithmetic — the fast path under BigNum::ModExp.
//
// A MontgomeryContext precomputes, for one odd modulus n, the negated word
// inverse n' = -n^-1 mod 2^64 and R^2 mod n (R = 2^(64*k) for k words), then
// multiplies in Montgomery form with the CIOS (coarsely integrated operand
// scanning) method: one fused multiply/reduce pass per operand word, no
// division anywhere. BigNum's 32-bit limbs are packed pairwise into 64-bit
// words for the kernel, so the inner loop runs on half the limb count with
// 128-bit products. Exponentiation uses a fixed 4-bit window (squarings plus
// one table multiply per window) for signing-sized exponents and plain
// square-and-multiply for short public exponents, where a window table costs
// more than it saves.
//
// Montgomery reduction is exact, so results are bit-identical to
// BigNum::ModExpReference — the differential suite in
// tests/crypto/modexp_differential_test.cc holds the two paths equal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/crypto/bignum.h"

namespace past {

class MontgomeryContext {
 public:
  // The modulus must be odd and > 1 (use BigNum::ModExpReference otherwise);
  // BigNum::ModExp dispatches accordingly.
  explicit MontgomeryContext(const BigNum& modulus);
  static bool Supports(const BigNum& modulus) {
    return modulus.IsOdd() && modulus.BitLength() > 1;
  }

  const BigNum& modulus() const { return modulus_; }

  // (base^exponent) mod modulus. base may be >= modulus; exponent 0 yields
  // 1 mod modulus, matching the reference implementation exactly.
  BigNum ModExp(const BigNum& base, const BigNum& exponent) const;

 private:
  using Word = uint64_t;
  using Words = std::vector<Word>;

  // out = a * b * R^-1 mod n (fused CIOS: the multiply and reduce passes for
  // each word of b run in one loop with two carry chains). a, b, out are k_
  // words; out may alias a or b. scratch must hold k_ + 1 words.
  void MontMul(const Word* a, const Word* b, Word* out, Word* scratch) const;

  Words ToWords(const BigNum& value) const;  // value < modulus, k_ words
  BigNum FromWords(const Word* words) const;

  BigNum modulus_;
  size_t k_ = 0;     // modulus width in 64-bit words
  Words n_;          // modulus, little-endian words
  Word n0inv_ = 0;   // -n^-1 mod 2^64
  Words rr_;         // R^2 mod n
  Words one_;        // R mod n (1 in Montgomery form)
};

// A MontgomeryContext built on first use for the modulus its owner asks
// with, shared by copies of the owner, and rebuilt whenever that modulus
// changes, so assigning a new modulus never serves a stale context. Not safe
// for concurrent first use of one object from several threads (the
// simulator signs and verifies on a single thread per trial).
class LazyMontgomeryContext {
 public:
  const MontgomeryContext& For(const BigNum& modulus) const;

 private:
  mutable std::shared_ptr<const MontgomeryContext> context_;
};

}  // namespace past
