#include "src/pastry/neighborhood_set.h"

#include "src/common/check.h"

namespace past {

NeighborhoodSet::NeighborhoodSet(const NodeId& self, int capacity,
                                 std::function<double(NodeAddr)> proximity,
                                 NodeInternTable& intern)
    : self_(self), capacity_(static_cast<size_t>(capacity)),
      proximity_(std::move(proximity)), intern_(&intern) {
  PAST_CHECK(capacity > 0);
  PAST_CHECK(proximity_ != nullptr);
}

bool NeighborhoodSet::MaybeAdd(const NodeDescriptor& candidate) {
  if (!candidate.valid() || candidate.id == self_) {
    return false;
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    if (intern_->id(members_[i]) == candidate.id) {
      if (intern_->addr(members_[i]) != candidate.addr) {
        members_[i] = intern_->Intern(candidate);
        distances_[i] = proximity_(candidate.addr);
        return true;
      }
      return false;
    }
  }
  double dist = proximity_(candidate.addr);
  size_t pos = members_.size();
  for (size_t i = 0; i < members_.size(); ++i) {
    if (dist < distances_[i]) {
      pos = i;
      break;
    }
  }
  if (pos >= capacity_) {
    return false;
  }
  members_.insert(members_.begin() + static_cast<long>(pos),
                  intern_->Intern(candidate));
  distances_.insert(distances_.begin() + static_cast<long>(pos), dist);
  if (members_.size() > capacity_) {
    members_.pop_back();
    distances_.pop_back();
  }
  return true;
}

bool NeighborhoodSet::Remove(const NodeId& id) {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (intern_->id(members_[i]) == id) {
      members_.erase(members_.begin() + static_cast<long>(i));
      distances_.erase(distances_.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

bool NeighborhoodSet::Contains(const NodeId& id) const {
  for (uint32_t h : members_) {
    if (intern_->id(h) == id) {
      return true;
    }
  }
  return false;
}

std::vector<NodeDescriptor> NeighborhoodSet::Members() const {
  std::vector<NodeDescriptor> out;
  out.reserve(members_.size());
  for (uint32_t h : members_) {
    out.push_back(intern_->Get(h));
  }
  return out;
}

size_t NeighborhoodSet::MemoryUsage() const {
  return sizeof(*this) + members_.capacity() * sizeof(uint32_t) +
         distances_.capacity() * sizeof(double);
}

}  // namespace past
