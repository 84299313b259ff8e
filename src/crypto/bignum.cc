#include "src/crypto/bignum.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/crypto/montgomery.h"

namespace past {

void BigNum::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigNum BigNum::FromU64(uint64_t v) {
  BigNum out;
  if (v != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) {
      out.limbs_.push_back(static_cast<uint32_t>(v >> 32));
    }
  }
  return out;
}

BigNum BigNum::FromBytes(ByteSpan bytes) {
  BigNum out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    // bytes[0] is most significant.
    size_t bit_index = (bytes.size() - 1 - i);
    out.limbs_[bit_index / 4] |= static_cast<uint32_t>(bytes[i]) << (8 * (bit_index % 4));
  }
  out.Trim();
  return out;
}

size_t BigNum::ByteLength() const {
  return std::max<size_t>((static_cast<size_t>(BitLength()) + 7) / 8, 1);
}

Bytes BigNum::ToBytes(size_t width) const {
  size_t min_bytes = (static_cast<size_t>(BitLength()) + 7) / 8;
  size_t n = width == 0 ? ByteLength() : width;
  PAST_CHECK_MSG(min_bytes <= n, "value does not fit in requested width");
  Bytes out(n, 0);
  for (size_t i = 0; i < min_bytes; ++i) {
    uint32_t limb = limbs_[i / 4];
    out[n - 1 - i] = static_cast<uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

std::vector<uint32_t> BigNum::ToLimbs(size_t width) const {
  if (width == 0) {
    return limbs_;
  }
  PAST_CHECK_MSG(limbs_.size() <= width, "value does not fit in requested width");
  std::vector<uint32_t> out = limbs_;
  out.resize(width, 0);
  return out;
}

BigNum BigNum::FromLimbs(const std::vector<uint32_t>& limbs) {
  BigNum out;
  out.limbs_ = limbs;
  out.Trim();
  return out;
}

int BigNum::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  uint32_t top = limbs_.back();
  int bits = 32 * static_cast<int>(limbs_.size() - 1);
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

int BigNum::Bit(int i) const {
  PAST_CHECK(i >= 0);
  size_t limb = static_cast<size_t>(i) / 32;
  if (limb >= limbs_.size()) {
    return 0;
  }
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t BigNum::ToU64() const {
  PAST_CHECK_MSG(BitLength() <= 64, "value exceeds 64 bits");
  uint64_t v = 0;
  if (limbs_.size() > 1) {
    v = static_cast<uint64_t>(limbs_[1]) << 32;
  }
  if (!limbs_.empty()) {
    v |= limbs_[0];
  }
  return v;
}

std::strong_ordering operator<=>(const BigNum& a, const BigNum& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] <=> b.limbs_[i];
    }
  }
  return std::strong_ordering::equal;
}

BigNum BigNum::Add(const BigNum& other) const {
  BigNum out;
  size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < limbs_.size()) {
      sum += limbs_[i];
    }
    if (i < other.limbs_.size()) {
      sum += other.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) {
    out.limbs_.push_back(static_cast<uint32_t>(carry));
  }
  return out;
}

BigNum BigNum::Sub(const BigNum& other) const {
  PAST_CHECK_MSG(*this >= other, "BigNum::Sub underflow");
  BigNum out;
  out.limbs_.resize(limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(limbs_[i]) - borrow -
                   (i < other.limbs_.size() ? static_cast<int64_t>(other.limbs_[i]) : 0);
    if (diff < 0) {
      diff += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Trim();
  return out;
}

BigNum BigNum::Mul(const BigNum& other) const {
  if (IsZero() || other.IsZero()) {
    return BigNum();
  }
  BigNum out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(limbs_[i]) * other.limbs_[j] +
                     out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + other.limbs_.size();
    while (carry) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

void BigNum::DivMod(const BigNum& divisor, BigNum* quotient, BigNum* remainder) const {
  PAST_CHECK_MSG(!divisor.IsZero(), "division by zero");
  if (*this < divisor) {
    if (quotient != nullptr) {
      *quotient = BigNum();
    }
    if (remainder != nullptr) {
      *remainder = *this;
    }
    return;
  }
  const size_t n = divisor.limbs_.size();
  if (n == 1) {
    // Single-limb fast path.
    const uint64_t d = divisor.limbs_[0];
    BigNum q;
    q.limbs_.assign(limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.Trim();
    if (quotient != nullptr) {
      *quotient = std::move(q);
    }
    if (remainder != nullptr) {
      *remainder = FromU64(rem);
    }
    return;
  }

  // Knuth TAOCP vol. 2, Algorithm D, base 2^32.
  const size_t m = limbs_.size() - n;
  int shift = 0;
  {
    uint32_t top = divisor.limbs_.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  // Normalized copies: u has an extra high limb.
  std::vector<uint32_t> u(limbs_.size() + 1, 0);
  std::vector<uint32_t> v(n, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    u[i] = limbs_[i] << shift;
    if (shift > 0 && i > 0) {
      u[i] |= static_cast<uint32_t>(static_cast<uint64_t>(limbs_[i - 1]) >> (32 - shift));
    }
  }
  if (shift > 0) {
    u[limbs_.size()] =
        static_cast<uint32_t>(static_cast<uint64_t>(limbs_.back()) >> (32 - shift));
  }
  for (size_t i = 0; i < n; ++i) {
    v[i] = divisor.limbs_[i] << shift;
    if (shift > 0 && i > 0) {
      v[i] |= static_cast<uint32_t>(static_cast<uint64_t>(divisor.limbs_[i - 1]) >>
                                    (32 - shift));
    }
  }

  BigNum q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t base = 1ULL << 32;
  for (size_t j = m + 1; j-- > 0;) {
    uint64_t numerator = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = numerator / v[n - 1];
    uint64_t rhat = numerator % v[n - 1];
    while (qhat >= base ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= base) {
        break;
      }
    }
    // Multiply and subtract: u[j..j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u[i + j]) -
                     static_cast<int64_t>(product & 0xffffffffULL) + borrow;
      u[i + j] = static_cast<uint32_t>(diff);
      borrow = diff >> 32;  // arithmetic shift: 0 or -1
    }
    int64_t diff = static_cast<int64_t>(u[j + n]) - static_cast<int64_t>(carry) + borrow;
    u[j + n] = static_cast<uint32_t>(diff);
    if (diff < 0) {
      // qhat was one too large: add v back.
      --qhat;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + carry2;
        u[i + j] = static_cast<uint32_t>(sum);
        carry2 = sum >> 32;
      }
      u[j + n] += static_cast<uint32_t>(carry2);
    }
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }
  q.Trim();

  BigNum r;
  r.limbs_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    r.limbs_[i] = u[i] >> shift;
    if (shift > 0 && i + 1 < u.size()) {
      r.limbs_[i] |= static_cast<uint32_t>(static_cast<uint64_t>(u[i + 1])
                                           << (32 - shift));
    }
  }
  r.Trim();

  if (quotient != nullptr) {
    *quotient = std::move(q);
  }
  if (remainder != nullptr) {
    *remainder = std::move(r);
  }
}

void BigNum::DivModBitwise(const BigNum& divisor, BigNum* quotient,
                           BigNum* remainder) const {
  PAST_CHECK_MSG(!divisor.IsZero(), "division by zero");
  BigNum q, r;
  int bits = BitLength();
  q.limbs_.assign(limbs_.size(), 0);
  for (int i = bits - 1; i >= 0; --i) {
    // r = (r << 1) | bit(i)
    r = r.ShiftLeft(1);
    if (Bit(i)) {
      if (r.limbs_.empty()) {
        r.limbs_.push_back(1);
      } else {
        r.limbs_[0] |= 1;
      }
    }
    if (r >= divisor) {
      r = r.Sub(divisor);
      q.limbs_[static_cast<size_t>(i) / 32] |= (1u << (i % 32));
    }
  }
  q.Trim();
  r.Trim();
  if (quotient != nullptr) {
    *quotient = std::move(q);
  }
  if (remainder != nullptr) {
    *remainder = std::move(r);
  }
}

BigNum BigNum::Mod(const BigNum& modulus) const {
  if (*this < modulus) {
    return *this;
  }
  BigNum r;
  DivMod(modulus, nullptr, &r);
  return r;
}

BigNum BigNum::ShiftLeft(int bits) const {
  if (IsZero() || bits == 0) {
    return *this;
  }
  PAST_CHECK(bits > 0);
  int limb_shift = bits / 32;
  int bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigNum BigNum::ShiftRight(int bits) const {
  if (IsZero() || bits == 0) {
    return *this;
  }
  PAST_CHECK(bits > 0);
  int limb_shift = bits / 32;
  int bit_shift = bits % 32;
  if (static_cast<size_t>(limb_shift) >= limbs_.size()) {
    return BigNum();
  }
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift > 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

BigNum BigNum::ModExp(const BigNum& base, const BigNum& exponent, const BigNum& modulus) {
  PAST_CHECK(!modulus.IsZero());
  if (MontgomeryContext::Supports(modulus)) {
    return MontgomeryContext(modulus).ModExp(base, exponent);
  }
  return ModExpReference(base, exponent, modulus);
}

BigNum BigNum::ModExpReference(const BigNum& base, const BigNum& exponent,
                               const BigNum& modulus) {
  PAST_CHECK(!modulus.IsZero());
  BigNum result = FromU64(1).Mod(modulus);
  BigNum b = base.Mod(modulus);
  int bits = exponent.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    result = result.Mul(result).Mod(modulus);
    if (exponent.Bit(i)) {
      result = result.Mul(b).Mod(modulus);
    }
  }
  return result;
}

BigNum BigNum::Gcd(BigNum a, BigNum b) {
  while (!b.IsZero()) {
    BigNum r = a.Mod(b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

bool BigNum::ModInverse(const BigNum& a, const BigNum& m, BigNum* inverse) {
  // Extended Euclid tracking only the coefficient of `a`, with sign handled
  // by keeping values reduced modulo m.
  PAST_CHECK(!m.IsZero());
  BigNum r0 = m, r1 = a.Mod(m);
  // t coefficients, with parallel sign flags (true = negative).
  BigNum t0 = BigNum(), t1 = FromU64(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.IsZero()) {
    BigNum q, r2;
    r0.DivMod(r1, &q, &r2);
    // t2 = t0 - q*t1 (signed arithmetic on magnitude+sign pairs).
    BigNum qt1 = q.Mul(t1);
    BigNum t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // t0 and q*t1 have the same sign: subtract magnitudes.
      if (t0 >= qt1) {
        t2 = t0.Sub(qt1);
        t2_neg = t0_neg;
      } else {
        t2 = qt1.Sub(t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0.Add(qt1);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!(r0 == FromU64(1))) {
    return false;
  }
  BigNum inv = t0.Mod(m);
  if (t0_neg && !inv.IsZero()) {
    inv = m.Sub(inv);
  }
  *inverse = inv;
  return true;
}

BigNum BigNum::RandomWithBits(int bits, Rng* rng) {
  PAST_CHECK(bits > 0);
  BigNum out;
  out.limbs_.assign((static_cast<size_t>(bits) + 31) / 32, 0);
  for (auto& limb : out.limbs_) {
    limb = rng->NextU32();
  }
  // Clear bits above `bits`, then force the top bit.
  int top_limb_bits = bits - 32 * (static_cast<int>(out.limbs_.size()) - 1);
  if (top_limb_bits < 32) {
    out.limbs_.back() &= (1u << top_limb_bits) - 1;
  }
  out.limbs_.back() |= 1u << (top_limb_bits - 1);
  out.Trim();
  return out;
}

BigNum BigNum::RandomBelow(const BigNum& bound, Rng* rng) {
  PAST_CHECK(!bound.IsZero());
  int bits = bound.BitLength();
  while (true) {
    BigNum candidate;
    candidate.limbs_.assign((static_cast<size_t>(bits) + 31) / 32, 0);
    for (auto& limb : candidate.limbs_) {
      limb = rng->NextU32();
    }
    int top_limb_bits = bits - 32 * (static_cast<int>(candidate.limbs_.size()) - 1);
    if (top_limb_bits < 32) {
      candidate.limbs_.back() &= (1u << top_limb_bits) - 1;
    }
    candidate.Trim();
    if (candidate < bound) {
      return candidate;
    }
  }
}

bool BigNum::IsProbablePrime(const BigNum& n, int rounds, Rng* rng) {
  if (n < FromU64(2)) {
    return false;
  }
  static const uint64_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                          23, 29, 31, 37, 41, 43, 47};
  for (uint64_t p : kSmallPrimes) {
    BigNum bp = FromU64(p);
    if (n == bp) {
      return true;
    }
    if (n.Mod(bp).IsZero()) {
      return false;
    }
  }
  // n - 1 = d * 2^r with d odd.
  BigNum n_minus_1 = n.Sub(FromU64(1));
  BigNum d = n_minus_1;
  int r = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++r;
  }
  BigNum two = FromU64(2);
  BigNum n_minus_3 = n.Sub(FromU64(3));
  for (int i = 0; i < rounds; ++i) {
    BigNum a = RandomBelow(n_minus_3, rng).Add(two);  // a in [2, n-2]
    BigNum x = ModExp(a, d, n);
    if (x == FromU64(1) || x == n_minus_1) {
      continue;
    }
    bool witness = true;
    for (int j = 0; j < r - 1; ++j) {
      x = x.Mul(x).Mod(n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

BigNum BigNum::GeneratePrime(int bits, Rng* rng) {
  PAST_CHECK(bits >= 8);
  while (true) {
    BigNum candidate = RandomWithBits(bits, rng);
    if (!candidate.IsOdd()) {
      candidate = candidate.Add(FromU64(1));
    }
    if (IsProbablePrime(candidate, 20, rng)) {
      return candidate;
    }
  }
}

std::string BigNum::ToHex() const {
  if (IsZero()) {
    return "0";
  }
  Bytes bytes = ToBytes();
  std::string hex = HexEncode(bytes);
  size_t start = hex.find_first_not_of('0');
  return hex.substr(start == std::string::npos ? hex.size() - 1 : start);
}

}  // namespace past
