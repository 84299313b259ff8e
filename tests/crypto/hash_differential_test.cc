// Differential suite holding each hardware hash path equal to its portable
// code: SHA-1 and SHA-256 through their SHA-NI block functions, CRC32C
// through the SSE4.2 crc32 instruction. Each portable path is reached through
// its test-only entry point, so on a CPU with the instructions the portable
// rounds still run here; on a CPU without them the hardware side skips.
//
// Coverage per hash: every length from 0 to 130 (each 64-byte block boundary
// and its neighbours), random lengths and buffers of 64 KiB and more,
// unaligned starts, and a 200-byte message split at every offset.
#include <gtest/gtest.h>

#include <string>

#include "src/common/bytes.h"
#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace past {
namespace {

// The digest of a || b, fed to `h` as two updates.
template <typename Hasher>
Bytes Digest(Hasher h, ByteSpan a, ByteSpan b) {
  h.Update(a);
  h.Update(b);
  auto digest = h.Finish();
  return Bytes(digest.begin(), digest.end());
}

Bytes CrcBytes(uint32_t crc) {
  return Bytes{static_cast<uint8_t>(crc), static_cast<uint8_t>(crc >> 8),
               static_cast<uint8_t>(crc >> 16), static_cast<uint8_t>(crc >> 24)};
}

struct Sha1Paths {
  static constexpr const char* kName = "Sha1";
  static bool HardwarePresent() { return Sha1::HardwareAccelerated(); }
  static Bytes Hardware(ByteSpan a, ByteSpan b) { return Digest(Sha1(), a, b); }
  static Bytes Portable(ByteSpan a, ByteSpan b) {
    return Digest(Sha1::PortableForTesting(), a, b);
  }
};

struct Sha256Paths {
  static constexpr const char* kName = "Sha256";
  static bool HardwarePresent() { return Sha256::HardwareAccelerated(); }
  static Bytes Hardware(ByteSpan a, ByteSpan b) { return Digest(Sha256(), a, b); }
  static Bytes Portable(ByteSpan a, ByteSpan b) {
    return Digest(Sha256::PortableForTesting(), a, b);
  }
};

struct Crc32cPaths {
  static constexpr const char* kName = "Crc32c";
  static bool HardwarePresent() { return Crc32cHardwareAccelerated(); }
  static Bytes Hardware(ByteSpan a, ByteSpan b) {
    return CrcBytes(Crc32cExtend(Crc32cExtend(0, a), b));
  }
  static Bytes Portable(ByteSpan a, ByteSpan b) {
    return CrcBytes(Crc32cExtendPortableForTesting(Crc32cExtendPortableForTesting(0, a), b));
  }
};

template <typename Paths>
class HashPathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Paths::HardwarePresent()) {
      GTEST_SKIP() << "this CPU has no hardware path for " << Paths::kName;
    }
  }

  // Both paths over `data` in one update.
  static void ExpectSame(ByteSpan data) {
    EXPECT_EQ(Paths::Hardware(data, {}), Paths::Portable(data, {}))
        << Paths::kName << " over " << data.size() << " bytes";
  }

  Rng rng_{20261018};
};

struct PathNames {
  template <typename Paths>
  static std::string GetName(int) {
    return Paths::kName;
  }
};

using AllPaths = ::testing::Types<Sha1Paths, Sha256Paths, Crc32cPaths>;
TYPED_TEST_SUITE(HashPathsTest, AllPaths, PathNames);

TYPED_TEST(HashPathsTest, EveryLengthAcrossTheFirstBlockBoundaries) {
  const Bytes data = this->rng_.RandomBytes(130);
  for (size_t len = 0; len <= data.size(); ++len) {
    this->ExpectSame(ByteSpan(data.data(), len));
  }
}

TYPED_TEST(HashPathsTest, RandomLengthsAndLargeBuffers) {
  for (int i = 0; i < 64; ++i) {
    const Bytes data = this->rng_.RandomBytes(this->rng_.UniformU64(8192));
    this->ExpectSame(data);
  }
  for (size_t len : {size_t{64} << 10, (size_t{64} << 10) + 1, (size_t{64} << 10) + 63,
                     (size_t{256} << 10) + 17}) {
    const Bytes data = this->rng_.RandomBytes(len);
    this->ExpectSame(data);
  }
}

TYPED_TEST(HashPathsTest, UnalignedStarts) {
  const Bytes data = this->rng_.RandomBytes(4096 + 16);
  for (size_t offset = 1; offset < 16; ++offset) {
    for (size_t len : {size_t{1}, size_t{7}, size_t{63}, size_t{64}, size_t{65},
                       size_t{1000}, size_t{4096}}) {
      this->ExpectSame(ByteSpan(data.data() + offset, len));
    }
  }
}

TYPED_TEST(HashPathsTest, StreamingSplitsAtEveryOffset) {
  const Bytes data = this->rng_.RandomBytes(200);
  const ByteSpan whole(data);
  const Bytes expected = TypeParam::Portable(whole, {});
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(TypeParam::Hardware(whole.first(split), whole.subspan(split)), expected)
        << TypeParam::kName << " split at " << split;
  }
}

}  // namespace
}  // namespace past
