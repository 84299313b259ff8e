// SHA-1 (FIPS 180-1), implemented from scratch.
//
// PAST derives 160-bit fileIds from SHA-1 of (file name, owner public key,
// salt) and 128-bit nodeIds from a hash of the node's public key. SHA-1's
// collision weaknesses do not matter here: the system needs uniform,
// hard-to-target ids, and the reproduction keeps the paper's exact choice.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/u160.h"
#include "src/crypto/block_hash.h"

namespace past {

class Sha1 {
 public:
  static constexpr size_t kDigestBytes = 20;

  Sha1();

  void Update(ByteSpan data) { hash_.Update(data); }
  std::array<uint8_t, kDigestBytes> Finish();

  // One-shot helpers.
  static std::array<uint8_t, kDigestBytes> Hash(ByteSpan data);
  static U160 HashToU160(ByteSpan data);

  // Whether this CPU runs the SHA-NI block function (chosen at run time;
  // the portable one runs otherwise).
  static bool HardwareAccelerated();
  // Test-only: a hasher that runs the portable block function on any CPU,
  // the reference the SHA-NI path is checked against.
  static Sha1 PortableForTesting();

 private:
  BlockHash hash_;
};

}  // namespace past

