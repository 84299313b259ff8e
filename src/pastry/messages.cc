#include "src/pastry/messages.h"

namespace past {
namespace {

// Wire type of the retired keep-alive ack (see PastryMsgType).
constexpr uint8_t kRetiredKeepAliveAck = 9;

}  // namespace

bool DecodeHeader(Reader* r, PastryMsgType* type) {
  uint8_t version, raw_type;
  if (!r->U8(&version) || !r->U8(&raw_type)) {
    return false;
  }
  if (version != kPastryWireVersion) {
    return false;
  }
  if (raw_type < 1 || raw_type > static_cast<uint8_t>(PastryMsgType::kFailureNotice) ||
      raw_type == kRetiredKeepAliveAck) {
    return false;
  }
  *type = static_cast<PastryMsgType>(raw_type);
  return true;
}

}  // namespace past
