#include "src/crypto/sha1.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PAST_SHA1_HAS_NI 1
#endif

namespace past {
namespace {

uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

#if PAST_SHA1_HAS_NI
// One-block SHA-1 compression using the SHA-NI instructions, selected at
// runtime when the CPU supports them. Twenty groups of four rounds: each
// _mm_sha1rnds4_epu32 executes four rounds, the four message vectors rotate
// through sha1msg1/xor/sha1msg2 to extend the W schedule, and the running E
// term alternates between two accumulators (sha1nexte folds the rotated `a`
// word of the previous group into the next group's W block). The loop is
// fully unrolled, so every msg index and round constant is compile-time.
__attribute__((target("sha,sse4.1,ssse3"))) void ProcessBlockShaNi(
    uint32_t* h, const uint8_t* block) {
  const __m128i kByteReverse =
      _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);
  __m128i abcd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  __m128i e1 = _mm_setzero_si128();
  const __m128i abcd_save = abcd;
  const __m128i e0_save = e0;
  __m128i msg[4];
#pragma GCC unroll 20
  for (int g = 0; g < 20; ++g) {
    if (g < 4) {
      msg[g] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g));
      msg[g] = _mm_shuffle_epi8(msg[g], kByteReverse);
    }
    __m128i e;
    if (g == 0) {
      e0 = _mm_add_epi32(e0, msg[0]);
      e = e0;
      e1 = abcd;
    } else if (g % 2 == 1) {
      e1 = _mm_sha1nexte_epu32(e1, msg[g % 4]);
      e = e1;
      e0 = abcd;
    } else {
      e0 = _mm_sha1nexte_epu32(e0, msg[g % 4]);
      e = e0;
      e1 = abcd;
    }
    if (g >= 3 && g <= 18) {
      msg[(g + 1) % 4] = _mm_sha1msg2_epu32(msg[(g + 1) % 4], msg[g % 4]);
    }
    switch (g / 5) {  // the round-constant immediate must be a literal
      case 0: abcd = _mm_sha1rnds4_epu32(abcd, e, 0); break;
      case 1: abcd = _mm_sha1rnds4_epu32(abcd, e, 1); break;
      case 2: abcd = _mm_sha1rnds4_epu32(abcd, e, 2); break;
      case 3: abcd = _mm_sha1rnds4_epu32(abcd, e, 3); break;
    }
    if (g >= 1 && g <= 16) {
      msg[(g + 3) % 4] = _mm_sha1msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
    }
    if (g >= 2 && g <= 17) {
      msg[(g + 2) % 4] = _mm_xor_si128(msg[(g + 2) % 4], msg[g % 4]);
    }
  }
  e0 = _mm_sha1nexte_epu32(e0, e0_save);
  abcd = _mm_add_epi32(abcd, abcd_save);
  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), abcd);
  h[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}
#endif  // PAST_SHA1_HAS_NI

void ProcessBlockPortable(uint32_t* h, const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    uint32_t v;
    std::memcpy(&v, block + 4 * i, 4);
    w[i] = __builtin_bswap32(v);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  // Four branch-free round groups (one per round constant) so the compiler
  // can unroll; the register rotation compiles down to renames.
#define PAST_SHA1_ROUND(i, f, k)                            \
  do {                                                      \
    uint32_t temp = Rotl32(a, 5) + (f) + e + (k) + w[(i)];  \
    e = d;                                                  \
    d = c;                                                  \
    c = Rotl32(b, 30);                                      \
    b = a;                                                  \
    a = temp;                                               \
  } while (0)
  for (int i = 0; i < 20; ++i) {
    PAST_SHA1_ROUND(i, (b & c) | ((~b) & d), 0x5A827999);
  }
  for (int i = 20; i < 40; ++i) {
    PAST_SHA1_ROUND(i, b ^ c ^ d, 0x6ED9EBA1);
  }
  for (int i = 40; i < 60; ++i) {
    PAST_SHA1_ROUND(i, (b & c) | (b & d) | (c & d), 0x8F1BBCDC);
  }
  for (int i = 60; i < 80; ++i) {
    PAST_SHA1_ROUND(i, b ^ c ^ d, 0xCA62C1D6);
  }
#undef PAST_SHA1_ROUND
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

BlockHash::BlockFn ChooseBlockFn() {
#if PAST_SHA1_HAS_NI
  if (Sha1::HardwareAccelerated()) {
    return ProcessBlockShaNi;
  }
#endif
  return ProcessBlockPortable;
}

}  // namespace

Sha1::Sha1()
    : hash_({0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0},
            ChooseBlockFn()) {}

std::array<uint8_t, Sha1::kDigestBytes> Sha1::Finish() {
  std::array<uint8_t, kDigestBytes> out;
  hash_.Finish(out.data(), kDigestBytes / 4);
  return out;
}

bool Sha1::HardwareAccelerated() {
#if PAST_SHA1_HAS_NI
  return __builtin_cpu_supports("sha");
#else
  return false;
#endif
}

Sha1 Sha1::PortableForTesting() {
  Sha1 h;
  h.hash_.set_block_fn(ProcessBlockPortable);
  return h;
}

std::array<uint8_t, Sha1::kDigestBytes> Sha1::Hash(ByteSpan data) {
  Sha1 h;
  h.Update(data);
  return h.Finish();
}

U160 Sha1::HashToU160(ByteSpan data) {
  auto digest = Hash(data);
  return U160::FromBytes(ByteSpan(digest.data(), digest.size()));
}

}  // namespace past
