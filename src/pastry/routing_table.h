// The Pastry routing table.
//
// Organized as ceil(128/b) rows of 2^b - 1 useful entries. The entry at
// (row r, column c) refers to a node whose nodeId shares the first r digits
// with the local node and whose (r+1)-th digit is c. The column matching the
// local node's own digit is conceptually the local node itself and is kept
// empty. Among candidate nodes for a slot, the proximally closest one is kept
// when locality awareness is on (the heuristic behind Pastry's route-locality
// results).
//
// Storage is compact for million-node simulations: slots hold 4-byte interned
// handles (see node_intern.h) instead of 20-byte descriptors, and rows are
// allocated lazily up to the deepest touched row. Random ids populate only
// ~log_2^b N rows, so a node costs a few hundred bytes instead of the
// rows() * cols() * sizeof(descriptor) a dense table would pin.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/pastry/node_id.h"
#include "src/pastry/node_intern.h"

namespace past {

class RoutingTable {
 public:
  // `proximity` maps a node address to the scalar proximity metric from the
  // local node; it is consulted only when locality awareness is on.
  // `config` and `intern` (the network-shared descriptor table) must
  // outlive the table.
  RoutingTable(const NodeId& self, const PastryConfig& config,
               std::function<double(NodeAddr)> proximity, NodeInternTable& intern);
  RoutingTable(const NodeId& self, PastryConfig&& config,
               std::function<double(NodeAddr)> proximity, NodeInternTable& intern) = delete;

  // The entry a message with key `key` should use: row = shared prefix length
  // of (self, key), column = key's digit at that row. Empty optional if the
  // slot is vacant (or key == self id).
  std::optional<NodeDescriptor> EntryForKey(const NodeId& key) const;

  std::optional<NodeDescriptor> Get(int row, int col) const;

  // Considers `candidate` for its slot. Fills vacancies always; replaces an
  // occupant only if the candidate is proximally closer (locality on). Self
  // and ids equal to existing occupants are ignored. Returns true if the
  // table changed.
  bool MaybeAdd(const NodeDescriptor& candidate);

  // Removes every slot occupied by this node id. Returns the (row, col)
  // positions vacated.
  std::vector<std::pair<int, int>> RemoveNode(const NodeId& id);

  // All live entries (row-major).
  std::vector<NodeDescriptor> Entries() const;
  // Live entries in one row.
  std::vector<NodeDescriptor> Row(int row) const;

  // Drops all entries (used when a failed node rejoins with fresh state).
  void Clear();

  int rows() const { return config_->digits(); }
  int cols() const { return config_->cols(); }
  size_t EntryCount() const { return entry_count_; }
  // Number of rows with at least one entry (should be ~ log_2^b N).
  int PopulatedRows() const;

  // Heap footprint in bytes (slot storage). The shared intern table is
  // accounted once at the network level, not per node.
  size_t MemoryUsage() const;

 private:
  int SlotIndex(int row, int col) const { return row * config_->cols() + col; }
  // Grows the slot array so `row` is addressable (all-new slots vacant).
  void EnsureRow(int row);

  NodeId self_;
  const PastryConfig* config_;
  std::function<double(NodeAddr)> proximity_;
  NodeInternTable* intern_;
  // Interned handles, row-major over the first allocated_rows_ rows; 0 =
  // vacant. Rows >= allocated_rows_ are implicitly empty.
  std::vector<uint32_t> slots_;
  int allocated_rows_ = 0;
  size_t entry_count_ = 0;
};

}  // namespace past
