#include "src/common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define PAST_CRC32C_HAS_SSE42 1
#endif

namespace past {
namespace {

// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // tables[0] is the classic byte-at-a-time table; tables[1..3] fold in the
  // remaining bytes of a 32-bit word so four bytes advance in one step.
  std::array<std::array<uint32_t, 256>, 4> t;

  constexpr Tables() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

constexpr Tables kTables;

uint32_t ExtendPortable(uint32_t crc, ByteSpan data) {
  const auto& t = kTables.t;
  uint32_t c = ~crc;
  const uint8_t* p = data.data();
  size_t n = data.size();

  // Align to a 4-byte boundary so the word loads below are aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 3) != 0) {
    c = t[0][(c ^ *p++) & 0xff] ^ (c >> 8);
    --n;
  }
  // Slice-by-4: one table lookup per input byte, but only one XOR chain and
  // one load per 32-bit word.
  while (n >= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);  // little-endian hosts only (as the serializer)
    c ^= word;
    c = t[3][c & 0xff] ^ t[2][(c >> 8) & 0xff] ^ t[1][(c >> 16) & 0xff] ^
        t[0][(c >> 24) & 0xff];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    c = t[0][(c ^ *p++) & 0xff] ^ (c >> 8);
    --n;
  }
  return ~c;
}

#if PAST_CRC32C_HAS_SSE42
// The crc32 instruction is CRC32C with the reflected polynomial and no
// pre/post inversion, so it slots into the same ~crc ... ~c framing as the
// tables. Unaligned 8-byte loads cost nothing extra on CPUs that have it.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc, ByteSpan data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t c = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = _mm_crc32_u8(c32, *p++);
    --n;
  }
  return ~c32;
}
#endif  // PAST_CRC32C_HAS_SSE42

}  // namespace

bool Crc32cHardwareAccelerated() {
#if PAST_CRC32C_HAS_SSE42
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

uint32_t Crc32cExtend(uint32_t crc, ByteSpan data) {
#if PAST_CRC32C_HAS_SSE42
  if (Crc32cHardwareAccelerated()) {
    return ExtendSse42(crc, data);
  }
#endif
  return ExtendPortable(crc, data);
}

uint32_t Crc32cExtendPortableForTesting(uint32_t crc, ByteSpan data) {
  return ExtendPortable(crc, data);
}

}  // namespace past
