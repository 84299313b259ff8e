#include "src/crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PAST_SHA256_HAS_NI 1
#endif

namespace past {
namespace {

const uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr32(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

#if PAST_SHA256_HAS_NI
// One-block SHA-256 compression using the SHA-NI instructions, selected at
// run time when the CPU supports them. The state lives in two vectors, ABEF
// and CDGH, the order _mm_sha256rnds2_epu32 wants. Sixteen groups of four
// rounds: each adds four round constants to a message vector and runs two
// rnds2 steps (two rounds each, the second on the upper half of the sum),
// and the four message vectors rotate through sha256msg1/alignr/sha256msg2
// to extend the W schedule. The loop is fully unrolled, so every msg index
// is compile-time.
__attribute__((target("sha,sse4.1,ssse3"))) void ProcessBlockShaNi(
    uint32_t* h, const uint8_t* block) {
  const __m128i kByteReverse =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH
  const __m128i abef_save = abef;
  const __m128i cdgh_save = cdgh;
  __m128i msg[4];
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    if (g < 4) {
      msg[g] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g));
      msg[g] = _mm_shuffle_epi8(msg[g], kByteReverse);
    }
    __m128i wk = _mm_add_epi32(
        msg[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    if (g >= 3 && g <= 14) {
      __m128i w = _mm_alignr_epi8(msg[g % 4], msg[(g + 3) % 4], 4);
      msg[(g + 1) % 4] = _mm_add_epi32(msg[(g + 1) % 4], w);
      msg[(g + 1) % 4] = _mm_sha256msg2_epu32(msg[(g + 1) % 4], msg[g % 4]);
    }
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (g >= 1 && g <= 12) {
      msg[(g + 3) % 4] = _mm_sha256msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
    }
  }
  abef = _mm_add_epi32(abef, abef_save);
  cdgh = _mm_add_epi32(cdgh, cdgh_save);
  tmp = _mm_shuffle_epi32(abef, 0x1B);      // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);     // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4), cdgh);
}
#endif  // PAST_SHA256_HAS_NI

void ProcessBlockPortable(uint32_t* state, const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
    uint32_t ch = (e & f) ^ ((~e) & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

BlockHash::BlockFn ChooseBlockFn() {
#if PAST_SHA256_HAS_NI
  if (Sha256::HardwareAccelerated()) {
    return ProcessBlockShaNi;
  }
#endif
  return ProcessBlockPortable;
}

}  // namespace

Sha256::Sha256()
    : hash_({0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
             0x1f83d9ab, 0x5be0cd19},
            ChooseBlockFn()) {}

std::array<uint8_t, Sha256::kDigestBytes> Sha256::Finish() {
  std::array<uint8_t, kDigestBytes> out;
  hash_.Finish(out.data(), kDigestBytes / 4);
  return out;
}

bool Sha256::HardwareAccelerated() {
#if PAST_SHA256_HAS_NI
  return __builtin_cpu_supports("sha");
#else
  return false;
#endif
}

Sha256 Sha256::PortableForTesting() {
  Sha256 h;
  h.hash_.set_block_fn(ProcessBlockPortable);
  return h;
}

std::array<uint8_t, Sha256::kDigestBytes> Sha256::Hash(ByteSpan data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

std::array<uint8_t, Sha256::kDigestBytes> HmacSha256(ByteSpan key, ByteSpan message) {
  uint8_t block_key[64] = {0};
  if (key.size() > 64) {
    auto digest = Sha256::Hash(key);
    std::memcpy(block_key, digest.data(), digest.size());
  } else {
    std::memcpy(block_key, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(ByteSpan(ipad, 64));
  inner.Update(message);
  auto inner_digest = inner.Finish();
  Sha256 outer;
  outer.Update(ByteSpan(opad, 64));
  outer.Update(ByteSpan(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

}  // namespace past
