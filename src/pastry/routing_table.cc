#include "src/pastry/routing_table.h"

#include "src/common/check.h"

namespace past {

RoutingTable::RoutingTable(const NodeId& self, const PastryConfig& config,
                           std::function<double(NodeAddr)> proximity,
                           NodeInternTable& intern)
    : self_(self), config_(&config), proximity_(std::move(proximity)), intern_(&intern) {}

void RoutingTable::EnsureRow(int row) {
  if (row < allocated_rows_) {
    return;
  }
  allocated_rows_ = row + 1;
  slots_.resize(static_cast<size_t>(allocated_rows_) * config_->cols(), 0);
}

std::optional<NodeDescriptor> RoutingTable::EntryForKey(const NodeId& key) const {
  int row = self_.SharedPrefixLength(key, config_->b);
  if (row >= config_->digits()) {
    return std::nullopt;  // key == self id
  }
  return Get(row, key.Digit(row, config_->b));
}

std::optional<NodeDescriptor> RoutingTable::Get(int row, int col) const {
  PAST_CHECK(row >= 0 && row < rows() && col >= 0 && col < cols());
  if (row >= allocated_rows_) {
    return std::nullopt;
  }
  uint32_t handle = slots_[SlotIndex(row, col)];
  if (handle == NodeInternTable::kNoHandle) {
    return std::nullopt;
  }
  return intern_->Get(handle);
}

bool RoutingTable::MaybeAdd(const NodeDescriptor& candidate) {
  if (candidate.id == self_ || !candidate.valid()) {
    return false;
  }
  int row = self_.SharedPrefixLength(candidate.id, config_->b);
  PAST_CHECK(row < config_->digits());
  int col = candidate.id.Digit(row, config_->b);
  EnsureRow(row);
  uint32_t& slot = slots_[SlotIndex(row, col)];
  if (slot == NodeInternTable::kNoHandle) {
    slot = intern_->Intern(candidate);
    ++entry_count_;
    return true;
  }
  if (intern_->id(slot) == candidate.id) {
    // Refresh the address in case the node rejoined elsewhere.
    if (intern_->addr(slot) != candidate.addr) {
      slot = intern_->Intern(candidate);
      return true;
    }
    return false;
  }
  if (config_->locality_aware && proximity_) {
    if (proximity_(candidate.addr) < proximity_(intern_->addr(slot))) {
      slot = intern_->Intern(candidate);
      return true;
    }
  }
  return false;
}

std::vector<std::pair<int, int>> RoutingTable::RemoveNode(const NodeId& id) {
  std::vector<std::pair<int, int>> vacated;
  // A node occupies at most one slot, but scan all to be safe against stale
  // duplicates after address refreshes.
  for (int r = 0; r < allocated_rows_; ++r) {
    for (int c = 0; c < cols(); ++c) {
      uint32_t& slot = slots_[SlotIndex(r, c)];
      if (slot != NodeInternTable::kNoHandle && intern_->id(slot) == id) {
        slot = NodeInternTable::kNoHandle;
        --entry_count_;
        vacated.emplace_back(r, c);
      }
    }
  }
  return vacated;
}

std::vector<NodeDescriptor> RoutingTable::Entries() const {
  std::vector<NodeDescriptor> out;
  out.reserve(entry_count_);
  for (uint32_t slot : slots_) {
    if (slot != NodeInternTable::kNoHandle) {
      out.push_back(intern_->Get(slot));
    }
  }
  return out;
}

std::vector<NodeDescriptor> RoutingTable::Row(int row) const {
  PAST_CHECK(row >= 0 && row < rows());
  std::vector<NodeDescriptor> out;
  if (row >= allocated_rows_) {
    return out;
  }
  for (int c = 0; c < cols(); ++c) {
    uint32_t slot = slots_[SlotIndex(row, c)];
    if (slot != NodeInternTable::kNoHandle) {
      out.push_back(intern_->Get(slot));
    }
  }
  return out;
}

void RoutingTable::Clear() {
  slots_.clear();
  allocated_rows_ = 0;
  entry_count_ = 0;
}

int RoutingTable::PopulatedRows() const {
  int populated = 0;
  for (int r = 0; r < allocated_rows_; ++r) {
    for (int c = 0; c < cols(); ++c) {
      if (slots_[SlotIndex(r, c)] != NodeInternTable::kNoHandle) {
        ++populated;
        break;
      }
    }
  }
  return populated;
}

size_t RoutingTable::MemoryUsage() const {
  return sizeof(*this) + slots_.capacity() * sizeof(uint32_t);
}

}  // namespace past
