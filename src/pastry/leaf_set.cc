#include "src/pastry/leaf_set.h"

#include <algorithm>

#include "src/common/check.h"

namespace past {
namespace {

// Ring offset walking upward (increasing ids, wrapping) from `from` to `to`.
U128 UpOffset(const NodeId& from, const NodeId& to) { return to.Sub(from); }

}  // namespace

LeafSet::LeafSet(const NodeId& self, int leaf_set_size, NodeInternTable& intern)
    : self_(self), capacity_per_side_(leaf_set_size / 2), intern_(&intern) {
  PAST_CHECK(leaf_set_size >= 2 && leaf_set_size % 2 == 0);
}

std::vector<NodeDescriptor> LeafSet::Resolve(const std::vector<uint32_t>& side) const {
  std::vector<NodeDescriptor> out;
  out.reserve(side.size());
  for (uint32_t h : side) {
    out.push_back(intern_->Get(h));
  }
  return out;
}

bool LeafSet::InsertSide(std::vector<uint32_t>* side, const NodeDescriptor& candidate,
                         const U128& offset, bool larger_side) {
  // A side is sorted by ascending offset from self, and distinct ids have
  // distinct offsets, so the first member not below `offset` is either the
  // candidate itself or the candidate's insertion point.
  auto offset_of = [this, larger_side](uint32_t h) {
    const NodeId& id = intern_->id(h);
    return larger_side ? UpOffset(self_, id) : UpOffset(id, self_);
  };
  if (side->size() == static_cast<size_t>(capacity_per_side_) &&
      offset_of(side->back()) < offset) {
    return false;  // beyond the far edge of a full side
  }
  auto pos = std::lower_bound(side->begin(), side->end(), offset,
                              [&offset_of](uint32_t h, const U128& target) {
                                return offset_of(h) < target;
                              });
  if (pos != side->end() && intern_->id(*pos) == candidate.id) {
    if (intern_->addr(*pos) != candidate.addr) {
      *pos = intern_->Intern(candidate);  // rejoined node, refresh address
      return true;
    }
    return false;
  }
  side->insert(pos, intern_->Intern(candidate));
  if (side->size() > static_cast<size_t>(capacity_per_side_)) {
    side->pop_back();
  }
  return true;
}

bool LeafSet::MaybeAdd(const NodeDescriptor& candidate) {
  if (!candidate.valid() || candidate.id == self_) {
    return false;
  }
  bool changed = false;
  changed |= InsertSide(&larger_, candidate, UpOffset(self_, candidate.id),
                        /*larger_side=*/true);
  changed |= InsertSide(&smaller_, candidate, UpOffset(candidate.id, self_),
                        /*larger_side=*/false);
  return changed;
}

bool LeafSet::Remove(const NodeId& id) {
  bool removed = false;
  auto drop = [&](std::vector<uint32_t>* side) {
    for (size_t i = 0; i < side->size(); ++i) {
      if (intern_->id((*side)[i]) == id) {
        side->erase(side->begin() + static_cast<long>(i));
        removed = true;
        return;
      }
    }
  };
  drop(&larger_);
  drop(&smaller_);
  return removed;
}

bool LeafSet::Contains(const NodeId& id) const {
  auto in = [&](const std::vector<uint32_t>& side) {
    for (uint32_t h : side) {
      if (intern_->id(h) == id) {
        return true;
      }
    }
    return false;
  };
  return in(larger_) || in(smaller_);
}

std::vector<NodeDescriptor> LeafSet::Members() const {
  std::vector<NodeDescriptor> out = Resolve(smaller_);
  for (uint32_t h : larger_) {
    const NodeId& id = intern_->id(h);
    bool dup = false;
    for (const auto& e : out) {
      if (e.id == id) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      out.push_back(intern_->Get(h));
    }
  }
  return out;
}

bool LeafSet::Complete() const {
  return smaller_.size() == static_cast<size_t>(capacity_per_side_) &&
         larger_.size() == static_cast<size_t>(capacity_per_side_);
}

bool LeafSet::CoversKey(const NodeId& key) const {
  if (!Complete()) {
    // Horizon covers the whole (small or still-growing) ring.
    return true;
  }
  if (key == self_) {
    return true;
  }
  U128 up = UpOffset(self_, key);
  U128 down = UpOffset(key, self_);
  U128 max_up = UpOffset(self_, intern_->id(larger_.back()));
  U128 max_down = UpOffset(intern_->id(smaller_.back()), self_);
  return up <= max_up || down <= max_down;
}

NodeDescriptor LeafSet::ClosestTo(const NodeId& key, const NodeDescriptor& self_desc,
                                  bool include_self) const {
  NodeDescriptor best;
  U128 best_dist = U128::Max();
  auto consider = [&](const NodeDescriptor& d) {
    U128 dist = d.id.RingDistance(key);
    if (!best.valid() || dist < best_dist || (dist == best_dist && d.id < best.id)) {
      best = d;
      best_dist = dist;
    }
  };
  if (include_self) {
    consider(self_desc);
  }
  for (uint32_t h : smaller_) {
    consider(intern_->Get(h));
  }
  for (uint32_t h : larger_) {
    consider(intern_->Get(h));
  }
  return best;
}

std::vector<NodeDescriptor> LeafSet::ClosestMembers(const NodeId& key,
                                                    const NodeDescriptor& self_desc,
                                                    int k) const {
  std::vector<NodeDescriptor> all = Members();
  all.push_back(self_desc);
  std::sort(all.begin(), all.end(),
            [&key](const NodeDescriptor& a, const NodeDescriptor& b) {
              U128 da = a.id.RingDistance(key);
              U128 db = b.id.RingDistance(key);
              if (da != db) {
                return da < db;
              }
              return a.id < b.id;
            });
  if (all.size() > static_cast<size_t>(k)) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

NodeDescriptor LeafSet::FarthestOnSideOf(const NodeId& failed_id) const {
  const bool larger = UpOffset(self_, failed_id) <= UpOffset(failed_id, self_);
  NodeDescriptor far = larger ? FarthestLarger() : FarthestSmaller();
  // Fall back to the other side.
  return far.valid() ? far : (larger ? FarthestSmaller() : FarthestLarger());
}

size_t LeafSet::size() const { return Members().size(); }

size_t LeafSet::MemoryUsage() const {
  return sizeof(*this) + (smaller_.capacity() + larger_.capacity()) * sizeof(uint32_t);
}

}  // namespace past
