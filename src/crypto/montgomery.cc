#include "src/crypto/montgomery.h"

#include <algorithm>

#include "src/common/check.h"

namespace past {
namespace {

using U128Word = unsigned __int128;

// Plain square-and-multiply beats a window table for exponents this short
// (the table costs 14 multiplies up front; 65537 needs only 17 squarings and
// one multiply without it).
constexpr int kSmallExponentBits = 24;

constexpr int kWindowBits = 4;
constexpr size_t kTableSize = size_t{1} << kWindowBits;

// Inverse of an odd word modulo 2^64 by Newton iteration: each step doubles
// the number of correct low bits, so five steps from a 5-bit-correct start
// cover all 64.
uint64_t InverseMod2Pow64(uint64_t odd) {
  uint64_t x = odd;  // correct to 5 bits for odd inputs
  for (int i = 0; i < 5; ++i) {
    x *= 2 - odd * x;
  }
  return x;
}

// Fused CIOS multiply/reduce. kFixed > 0 compiles a fully-unrolled kernel
// with the temporary row held in a stack array the compiler can promote to
// registers (about 1.7x faster than the generic loop for 512-bit moduli);
// kFixed == 0 is the any-width fallback driven by runtime_k and scratch.
template <size_t kFixed>
void MontMulKernel(const uint64_t* a, const uint64_t* b, const uint64_t* n,
                   uint64_t n0inv, uint64_t* out, uint64_t* scratch,
                   size_t runtime_k) {
  const size_t k = kFixed != 0 ? kFixed : runtime_k;
  uint64_t local_t[kFixed != 0 ? kFixed + 1 : 1];
  uint64_t* t = kFixed != 0 ? local_t : scratch;
  std::fill(t, t + k + 1, 0);
  // Invariant: t < 2n before and after every outer iteration, so t fits in
  // k + 1 words with t[k] <= 1.
  for (size_t i = 0; i < k; ++i) {
    // One pass computes t = (t + a * b[i] + m * n) >> 64 with two carry
    // chains (ca for the a*b[i] products, cm for the m*n products); m is
    // chosen so the shifted-out low word is exactly zero.
    const uint64_t bi = b[i];
    U128Word za = static_cast<U128Word>(a[0]) * bi + t[0];
    uint64_t ca = static_cast<uint64_t>(za >> 64);
    const uint64_t m = static_cast<uint64_t>(za) * n0inv;
    U128Word zm = static_cast<U128Word>(m) * n[0] + static_cast<uint64_t>(za);
    uint64_t cm = static_cast<uint64_t>(zm >> 64);
#pragma GCC unroll 16
    for (size_t j = 1; j < k; ++j) {
      za = static_cast<U128Word>(a[j]) * bi + t[j] + ca;
      ca = static_cast<uint64_t>(za >> 64);
      zm = static_cast<U128Word>(m) * n[j] + static_cast<uint64_t>(za) + cm;
      cm = static_cast<uint64_t>(zm >> 64);
      t[j - 1] = static_cast<uint64_t>(zm);
    }
    const U128Word zt = static_cast<U128Word>(t[k]) + ca + cm;
    t[k - 1] = static_cast<uint64_t>(zt);
    t[k] = static_cast<uint64_t>(zt >> 64);
  }
  // t < 2n: one conditional subtraction brings it below n.
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
#pragma GCC unroll 16
    for (size_t i = 0; i < k; ++i) {
      U128Word diff = static_cast<U128Word>(t[i]) - n[i] - borrow;
      out[i] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>((diff >> 64) != 0 ? 1 : 0);
    }
  } else {
    std::copy(t, t + k, out);
  }
}

}  // namespace

MontgomeryContext::MontgomeryContext(const BigNum& modulus) : modulus_(modulus) {
  PAST_CHECK_MSG(modulus.IsOdd(), "Montgomery modulus must be odd");
  PAST_CHECK_MSG(modulus.BitLength() > 1, "Montgomery modulus must be > 1");
  const std::vector<uint32_t> limbs = modulus.ToLimbs(0);
  k_ = (limbs.size() + 1) / 2;
  n_.assign(k_, 0);
  for (size_t i = 0; i < limbs.size(); ++i) {
    n_[i / 2] |= static_cast<Word>(limbs[i]) << (32 * (i % 2));
  }
  n0inv_ = ~InverseMod2Pow64(n_[0]) + 1;  // -n^-1 mod 2^64
  // R^2 mod n via one division; everything after runs division-free.
  BigNum r2 = BigNum::FromU64(1).ShiftLeft(static_cast<int>(128 * k_)).Mod(modulus_);
  rr_ = ToWords(r2);
  Words plain_one(k_, 0);
  plain_one[0] = 1;
  one_.assign(k_, 0);
  Words scratch(k_ + 1);
  MontMul(plain_one.data(), rr_.data(), one_.data(), scratch.data());
}

MontgomeryContext::Words MontgomeryContext::ToWords(const BigNum& value) const {
  const std::vector<uint32_t> limbs = value.ToLimbs(2 * k_);
  Words out(k_, 0);
  for (size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<Word>(limbs[i]) << (32 * (i % 2));
  }
  return out;
}

BigNum MontgomeryContext::FromWords(const Word* words) const {
  std::vector<uint32_t> limbs(2 * k_);
  for (size_t i = 0; i < limbs.size(); ++i) {
    limbs[i] = static_cast<uint32_t>(words[i / 2] >> (32 * (i % 2)));
  }
  return BigNum::FromLimbs(limbs);
}

void MontgomeryContext::MontMul(const Word* a, const Word* b, Word* out,
                                Word* scratch) const {
  // Dispatch to fully-unrolled kernels for the widths RSA actually uses
  // (k = 2/4/8 covers 128..512-bit moduli: verification moduli and the
  // half-width CRT primes).
  const Word* n = n_.data();
  switch (k_) {
    case 2:
      MontMulKernel<2>(a, b, n, n0inv_, out, scratch, k_);
      break;
    case 4:
      MontMulKernel<4>(a, b, n, n0inv_, out, scratch, k_);
      break;
    case 8:
      MontMulKernel<8>(a, b, n, n0inv_, out, scratch, k_);
      break;
    default:
      MontMulKernel<0>(a, b, n, n0inv_, out, scratch, k_);
      break;
  }
}

BigNum MontgomeryContext::ModExp(const BigNum& base, const BigNum& exponent) const {
  // One allocation for all temporaries: [xm | result | plain_one | scratch].
  Words arena(4 * k_ + 1, 0);
  Word* xm = arena.data();
  Word* result = xm + k_;
  Word* plain_one = result + k_;
  Word* scratch = plain_one + k_;
  plain_one[0] = 1;

  const int bits = exponent.BitLength();
  if (bits == 0) {
    std::copy(one_.begin(), one_.end(), result);
  } else {
    const Words x = ToWords(base < modulus_ ? base : base.Mod(modulus_));
    MontMul(x.data(), rr_.data(), xm, scratch);
    if (bits <= kSmallExponentBits) {
      std::copy(xm, xm + k_, result);
      for (int i = bits - 2; i >= 0; --i) {
        MontMul(result, result, result, scratch);
        if (exponent.Bit(i)) {
          MontMul(result, xm, result, scratch);
        }
      }
    } else {
      // Fixed 4-bit window: table[w] = x^w in Montgomery form, then per
      // window four squarings and one table multiply (no data-dependent
      // skips).
      std::vector<Words> table(kTableSize, Words(k_));
      table[0] = one_;
      table[1].assign(xm, xm + k_);
      for (size_t w = 2; w < kTableSize; ++w) {
        MontMul(table[w - 1].data(), xm, table[w].data(), scratch);
      }
      const int windows = (bits + kWindowBits - 1) / kWindowBits;
      auto window_value = [&exponent](int w) {
        size_t v = 0;
        for (int b = kWindowBits - 1; b >= 0; --b) {
          v = (v << 1) | static_cast<size_t>(exponent.Bit(w * kWindowBits + b));
        }
        return v;
      };
      const Words& top = table[window_value(windows - 1)];
      std::copy(top.begin(), top.end(), result);
      for (int w = windows - 2; w >= 0; --w) {
        for (int s = 0; s < kWindowBits; ++s) {
          MontMul(result, result, result, scratch);
        }
        MontMul(result, table[window_value(w)].data(), result, scratch);
      }
    }
  }
  // Leave the Montgomery domain: multiply by plain 1, reusing xm as the
  // output slot.
  MontMul(result, plain_one, xm, scratch);
  return FromWords(xm);
}

const MontgomeryContext& LazyMontgomeryContext::For(const BigNum& modulus) const {
  if (!context_ || !(context_->modulus() == modulus)) {
    context_ = std::make_shared<const MontgomeryContext>(modulus);
  }
  return *context_;
}

}  // namespace past
