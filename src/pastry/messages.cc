#include "src/pastry/messages.h"

namespace past {
namespace {

// Wire type of the retired keep-alive ack (see PastryMsgType).
constexpr uint8_t kRetiredKeepAliveAck = 9;

}  // namespace

void EncodeDescriptor(Writer* w, const NodeDescriptor& d) {
  w->Id128(d.id);
  w->U32(d.addr);
}

bool DecodeDescriptor(Reader* r, NodeDescriptor* d) {
  return r->Id128(&d->id) && r->U32(&d->addr);
}

void EncodeDescriptorList(Writer* w, const std::vector<NodeDescriptor>& list) {
  w->U32(static_cast<uint32_t>(list.size()));
  for (const auto& d : list) {
    EncodeDescriptor(w, d);
  }
}

bool DecodeDescriptorList(Reader* r, std::vector<NodeDescriptor>* list) {
  uint32_t n;
  if (!r->U32(&n)) {
    return false;
  }
  // Each descriptor is 20 bytes; reject absurd counts before allocating.
  if (static_cast<size_t>(n) * 20 > r->remaining()) {
    return false;
  }
  list->resize(n);
  for (auto& d : *list) {
    if (!DecodeDescriptor(r, &d)) {
      return false;
    }
  }
  return true;
}

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

void RouteMsg::EncodeBody(Writer* w) const {
  w->Id128(key);
  EncodeDescriptor(w, source);
  w->U32(app_type);
  w->U64(seq);
  w->U64(parent_span);
  w->U16(hops);
  w->U8(replica_k);
  w->F64(distance);
  w->U32(static_cast<uint32_t>(path.size()));
  for (NodeAddr a : path) {
    w->U32(a);
  }
  w->U32(static_cast<uint32_t>(trace.size()));
  for (const RouteHop& h : trace) {
    w->U32(h.node);
    w->U8(static_cast<uint8_t>(h.rule));
    w->F64(h.distance);
    w->I64(h.when);
  }
  w->Blob(payload);
}

bool RouteMsg::DecodeBody(Reader* r, RouteMsg* m) {
  if (!r->Id128(&m->key) || !DecodeDescriptor(r, &m->source) || !r->U32(&m->app_type) ||
      !r->U64(&m->seq) || !r->U64(&m->parent_span) || !r->U16(&m->hops) ||
      !r->U8(&m->replica_k) || !r->F64(&m->distance)) {
    return false;
  }
  uint32_t path_len;
  if (!r->U32(&path_len) || static_cast<size_t>(path_len) * 4 > r->remaining()) {
    return false;
  }
  m->path.resize(path_len);
  for (auto& a : m->path) {
    if (!r->U32(&a)) {
      return false;
    }
  }
  uint32_t trace_len;
  // Each hop record is 21 bytes; reject absurd counts before allocating.
  if (!r->U32(&trace_len) || static_cast<size_t>(trace_len) * 21 > r->remaining()) {
    return false;
  }
  m->trace.resize(trace_len);
  for (auto& h : m->trace) {
    uint8_t rule;
    if (!r->U32(&h.node) || !r->U8(&rule) || !r->F64(&h.distance) ||
        !r->I64(&h.when)) {
      return false;
    }
    if (rule >= kRouteRuleCount) {
      return false;
    }
    h.rule = static_cast<RouteRule>(rule);
  }
  return r->Blob(&m->payload);
}

void RouteAckMsg::EncodeBody(Writer* w) const { w->U64(seq); }

bool RouteAckMsg::DecodeBody(Reader* r, RouteAckMsg* m) { return r->U64(&m->seq); }

void JoinRequestMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, joiner);
  w->U16(hops);
  w->U64(seq);
}

bool JoinRequestMsg::DecodeBody(Reader* r, JoinRequestMsg* m) {
  return DecodeDescriptor(r, &m->joiner) && r->U16(&m->hops) && r->U64(&m->seq);
}

void JoinRowsMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, sender);
  w->U32(static_cast<uint32_t>(row_indices.size()));
  for (size_t i = 0; i < row_indices.size(); ++i) {
    w->U16(row_indices[i]);
    EncodeDescriptorList(w, rows[i]);
  }
}

bool JoinRowsMsg::DecodeBody(Reader* r, JoinRowsMsg* m) {
  if (!DecodeDescriptor(r, &m->sender)) {
    return false;
  }
  uint32_t n;
  if (!r->U32(&n) || static_cast<size_t>(n) * 6 > r->remaining()) {
    return false;
  }
  m->row_indices.resize(n);
  m->rows.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!r->U16(&m->row_indices[i]) || !DecodeDescriptorList(r, &m->rows[i])) {
      return false;
    }
  }
  return true;
}

void JoinLeafSetMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, sender);
  EncodeDescriptorList(w, leaves);
  w->U64(seq);
}

bool JoinLeafSetMsg::DecodeBody(Reader* r, JoinLeafSetMsg* m) {
  return DecodeDescriptor(r, &m->sender) && DecodeDescriptorList(r, &m->leaves) &&
         r->U64(&m->seq);
}

void JoinNeighborhoodMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, sender);
  EncodeDescriptorList(w, neighbors);
}

bool JoinNeighborhoodMsg::DecodeBody(Reader* r, JoinNeighborhoodMsg* m) {
  return DecodeDescriptor(r, &m->sender) && DecodeDescriptorList(r, &m->neighbors);
}

void AnnounceArrivalMsg::EncodeBody(Writer* w) const { EncodeDescriptor(w, joiner); }

bool AnnounceArrivalMsg::DecodeBody(Reader* r, AnnounceArrivalMsg* m) {
  return DecodeDescriptor(r, &m->joiner);
}

void KeepAliveMsg::EncodeBody(Writer* w) const { EncodeDescriptor(w, sender); }

bool KeepAliveMsg::DecodeBody(Reader* r, KeepAliveMsg* m) {
  return DecodeDescriptor(r, &m->sender);
}

void FailureNoticeMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, sender);
  EncodeDescriptor(w, failed);
}

bool FailureNoticeMsg::DecodeBody(Reader* r, FailureNoticeMsg* m) {
  return DecodeDescriptor(r, &m->sender) && DecodeDescriptor(r, &m->failed);
}

void LeafSetRequestMsg::EncodeBody(Writer* w) const { EncodeDescriptor(w, sender); }

bool LeafSetRequestMsg::DecodeBody(Reader* r, LeafSetRequestMsg* m) {
  return DecodeDescriptor(r, &m->sender);
}

void LeafSetReplyMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, sender);
  EncodeDescriptorList(w, leaves);
}

bool LeafSetReplyMsg::DecodeBody(Reader* r, LeafSetReplyMsg* m) {
  return DecodeDescriptor(r, &m->sender) && DecodeDescriptorList(r, &m->leaves);
}

void RepairRequestMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, sender);
  w->U16(row);
  w->U16(col);
}

bool RepairRequestMsg::DecodeBody(Reader* r, RepairRequestMsg* m) {
  return DecodeDescriptor(r, &m->sender) && r->U16(&m->row) && r->U16(&m->col);
}

void RepairReplyMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, sender);
  w->U16(row);
  w->U16(col);
  w->Bool(has_entry);
  if (has_entry) {
    EncodeDescriptor(w, entry);
  }
}

bool RepairReplyMsg::DecodeBody(Reader* r, RepairReplyMsg* m) {
  if (!DecodeDescriptor(r, &m->sender) || !r->U16(&m->row) || !r->U16(&m->col) ||
      !r->Bool(&m->has_entry)) {
    return false;
  }
  if (m->has_entry) {
    return DecodeDescriptor(r, &m->entry);
  }
  return true;
}

void AppDirectMsg::EncodeBody(Writer* w) const {
  EncodeDescriptor(w, source);
  w->U32(app_type);
  w->Blob(payload);
}

bool AppDirectMsg::DecodeBody(Reader* r, AppDirectMsg* m) {
  return DecodeDescriptor(r, &m->source) && r->U32(&m->app_type) && r->Blob(&m->payload);
}

Bytes EncodeAppDirect(const NodeDescriptor& source, uint32_t app_type,
                      ByteSpan payload) {
  // Mirrors EncodeMessage + EncodeBody above; a payload view in, one wire
  // buffer out, no intermediate copy.
  Writer w;
  w.U8(kPastryWireVersion);
  w.U8(static_cast<uint8_t>(AppDirectMsg::kType));
  EncodeDescriptor(&w, source);
  w.U32(app_type);
  w.Blob(payload);
  return w.Take();
}

}  // namespace past
