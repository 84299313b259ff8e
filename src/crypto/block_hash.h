// The front end SHA-1 and SHA-256 share (FIPS 180-4 §5): the message is cut
// into 64-byte blocks for the hash's block function, and Finish pads in one
// call (a 0x80 byte, zeros, then the message length in bits as a 64-bit
// big-endian integer) before emitting the state words big-endian. The block
// functions, initial states and digest widths stay with each hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "src/common/bytes.h"

namespace past {

class BlockHash {
 public:
  // Compresses one 64-byte block into `state`.
  using BlockFn = void (*)(uint32_t* state, const uint8_t* block);

  // At most eight state words.
  BlockHash(std::initializer_list<uint32_t> initial_state, BlockFn block);

  void Update(ByteSpan data);
  // Pads, then writes the first `words` state words big-endian to `out`.
  void Finish(uint8_t* out, size_t words);

  void set_block_fn(BlockFn block) { block_ = block; }

 private:
  uint32_t state_[8] = {};
  BlockFn block_;
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[64] = {};
  size_t buffered_ = 0;
};

}  // namespace past
