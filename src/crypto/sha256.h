// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for HMAC keying, content hashes in file certificates, and anywhere a
// 256-bit digest is preferable to SHA-1 (the paper only mandates SHA-1 for
// fileIds).
#pragma once

#include <array>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/crypto/block_hash.h"

namespace past {

class Sha256 {
 public:
  static constexpr size_t kDigestBytes = 32;

  Sha256();

  void Update(ByteSpan data) { hash_.Update(data); }
  std::array<uint8_t, kDigestBytes> Finish();

  static std::array<uint8_t, kDigestBytes> Hash(ByteSpan data);

  // Whether this CPU runs the SHA-NI block function (chosen at run time;
  // the portable one runs otherwise).
  static bool HardwareAccelerated();
  // Test-only: a hasher that runs the portable block function on any CPU,
  // the reference the SHA-NI path is checked against.
  static Sha256 PortableForTesting();

 private:
  BlockHash hash_;
};

// HMAC-SHA256 (RFC 2104).
std::array<uint8_t, Sha256::kDigestBytes> HmacSha256(ByteSpan key, ByteSpan message);

}  // namespace past

