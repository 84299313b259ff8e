#include "src/pastry/messages.h"

namespace past {

bool DecodeHeader(Reader* r, PastryMsgType* type) {
  uint8_t version = 0;
  uint8_t raw_type = 0;
  if (!r->U8(&version) || !r->U8(&raw_type) || version != kPastryWireVersion ||
      !PastryMessages::Contains(static_cast<PastryMsgType>(raw_type))) {
    return false;
  }
  *type = static_cast<PastryMsgType>(raw_type);
  return true;
}

}  // namespace past
