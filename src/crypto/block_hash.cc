#include "src/crypto/block_hash.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace past {

BlockHash::BlockHash(std::initializer_list<uint32_t> initial_state, BlockFn block)
    : block_(block) {
  PAST_CHECK(initial_state.size() <= sizeof(state_) / sizeof(state_[0]));
  std::copy(initial_state.begin(), initial_state.end(), state_);
}

void BlockHash::Update(ByteSpan data) {
  if (data.empty()) {
    return;  // an empty span may carry a null pointer, which memcpy must not see
  }
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffered_ > 0) {
    size_t take = std::min(data.size(), sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == sizeof(buffer_)) {
      block_(state_, buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    block_(state_, data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void BlockHash::Finish(uint8_t* out, size_t words) {
  const uint64_t bit_len = total_bytes_ * 8;
  uint8_t pad[64 + 8] = {0x80};
  const size_t pad_len = (buffered_ < 56 ? 56 : 120) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(ByteSpan(pad, pad_len + 8));
  for (size_t i = 0; i < words; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
}

}  // namespace past
