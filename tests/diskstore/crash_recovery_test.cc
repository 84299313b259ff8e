// Crash-injection sweep over the durable storage engine.
//
// A DiskStore runs a randomized workload on a FaultInjectionEnv that records
// every filesystem mutation. For EVERY prefix of that operation log — i.e.
// a simulated crash between any two filesystem operations, plus a variant
// where the final write itself is torn in half — the post-crash directory is
// materialized and reopened. Recovery must always succeed and yield exactly
// the state after some logical-operation prefix of the workload:
//   * at least everything acknowledged before the last completed Sync()
//     (durability: nothing synced is ever lost), and
//   * never state that was not actually written (no invented records).
// A separate case drops a write from a sealed segment (a page lost by the
// kernel) and requires Open() to report kCorruption rather than crash or
// silently serve a hole.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/diskstore/disk_store.h"
#include "src/diskstore/fault_env.h"
#include "tests/diskstore/temp_dir.h"

namespace past {
namespace {

ByteSpan Span(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

// Logical contents of the store: both keyspaces, value bytes included.
struct ModelState {
  std::map<U160, Bytes> files;
  std::map<U160, Bytes> pointers;

  bool operator==(const ModelState& other) const = default;
};

ModelState Snapshot(const DiskStore& store) {
  ModelState out;
  for (const U160& key : store.Keys()) {
    out.files[key] = store.Get(key).value();
  }
  for (const U160& key : store.PointerKeys()) {
    out.pointers[key] = store.GetPointer(key).value();
  }
  return out;
}

struct WorkloadTrace {
  // snapshots[j] = logical state after the first j workload operations;
  // env_ops_after[j] = how many filesystem ops had happened by then.
  std::vector<ModelState> snapshots;
  std::vector<size_t> env_ops_after;
  // (env op count, logical op count) at each completed Sync().
  std::vector<std::pair<size_t, size_t>> sync_points;
};

// Small segments, aggressive compaction, periodic syncs: a few hundred
// filesystem ops covering rollover, compaction, and both keyspaces.
DiskStoreOptions SweepOptions(Env* env) {
  DiskStoreOptions options;
  options.segment_target_bytes = 512;
  options.compact_min_bytes = 600;
  options.compact_garbage_ratio = 0.5;
  options.sync_every = 0;
  options.env = env;
  return options;
}

void RunWorkload(DiskStore* store, const FaultInjectionEnv& env,
                 WorkloadTrace* out) {
  Rng rng(2024);
  WorkloadTrace& trace = *out;
  trace.snapshots.push_back(Snapshot(*store));
  trace.env_ops_after.push_back(env.ops().size());
  for (int op = 0; op < 140; ++op) {
    const U160 key = U160::FromBytes(
        Span(Bytes(U160::kBytes, static_cast<uint8_t>(rng.UniformU64(12)))));
    const uint64_t kind = rng.UniformU64(10);
    if (kind < 5) {
      Bytes value = rng.RandomBytes(rng.UniformU64(61));
      ASSERT_EQ(store->Put(key, Span(value)), StatusCode::kOk)
          << "workload op " << op;
    } else if (kind < 7) {
      StatusCode status = store->Remove(key);
      ASSERT_TRUE(status == StatusCode::kOk || status == StatusCode::kNotFound);
    } else if (kind < 9) {
      Bytes value = rng.RandomBytes(1 + rng.UniformU64(24));
      ASSERT_EQ(store->PutPointer(key, Span(value)), StatusCode::kOk);
    } else {
      StatusCode status = store->RemovePointer(key);
      ASSERT_TRUE(status == StatusCode::kOk || status == StatusCode::kNotFound);
    }
    trace.snapshots.push_back(Snapshot(*store));
    trace.env_ops_after.push_back(env.ops().size());
    if (op % 7 == 6) {
      ASSERT_EQ(store->Sync(), StatusCode::kOk);
      trace.sync_points.emplace_back(env.ops().size(), trace.snapshots.size() - 1);
    }
  }
}


// The latest logical op count guaranteed durable when the first `op_count`
// filesystem ops survived the crash.
size_t GuaranteedPrefix(const WorkloadTrace& trace, size_t op_count) {
  size_t guaranteed = 0;
  for (const auto& [env_ops, logical_ops] : trace.sync_points) {
    if (env_ops <= op_count) {
      guaranteed = logical_ops;
    }
  }
  return guaranteed;
}

void CheckRecovery(const FaultInjectionEnv& env, const WorkloadTrace& trace,
                   const TempDir& tmp, const MaterializeOptions& crash,
                   const std::string& label) {
  const std::string dir = tmp.Sub(label);
  ASSERT_EQ(env.Materialize(dir, crash), StatusCode::kOk);
  Result<std::unique_ptr<DiskStore>> reopened =
      DiskStore::Open(dir, SweepOptions(nullptr));
  ASSERT_TRUE(reopened.ok())
      << label << ": recovery failed with " << StatusCodeName(reopened.status());
  const ModelState recovered = Snapshot(*reopened.value());

  const size_t guaranteed = GuaranteedPrefix(trace, crash.op_count);
  bool matched = false;
  for (size_t j = guaranteed; j < trace.snapshots.size(); ++j) {
    if (trace.snapshots[j] == recovered) {
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched)
      << label << ": recovered state matches no logical prefix >= " << guaranteed
      << " (files=" << recovered.files.size()
      << " pointers=" << recovered.pointers.size() << ")";
}

TEST(CrashRecoverySweep, EveryCrashPointRecoversAConsistentPrefix) {
  TempDir tmp;
  FaultInjectionEnv env(Env::Default(), tmp.Sub("live"));
  WorkloadTrace trace;
  {
    DiskStoreOptions options = SweepOptions(&env);
    Result<std::unique_ptr<DiskStore>> store =
        DiskStore::Open(tmp.Sub("live"), options);
    ASSERT_TRUE(store.ok());
    RunWorkload(store.value().get(), env, &trace);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ASSERT_GT(env.ops().size(), 100u);
  ASSERT_GT(trace.sync_points.size(), 10u);

  for (size_t p = 0; p <= env.ops().size(); ++p) {
    MaterializeOptions crash;
    crash.op_count = p;
    CheckRecovery(env, trace, tmp, crash, "crash-" + std::to_string(p));
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    // Torn variant: the crash interrupts the final write halfway.
    if (p > 0 && env.ops()[p - 1].kind == EnvOp::Kind::kWrite &&
        env.ops()[p - 1].data.size() > 1) {
      crash.torn_tail_bytes = env.ops()[p - 1].data.size() / 2;
      CheckRecovery(env, trace, tmp, crash, "torn-" + std::to_string(p));
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(CrashRecoverySweep, DroppedWriteInSealedSegmentReportsCorruption) {
  TempDir tmp;
  FaultInjectionEnv env(Env::Default(), tmp.Sub("live"));
  DiskStoreOptions options = SweepOptions(&env);
  options.compact_min_bytes = 1ULL << 30;  // keep old segments around
  Result<std::unique_ptr<DiskStore>> store =
      DiskStore::Open(tmp.Sub("live"), options);
  ASSERT_TRUE(store.ok());
  Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    Bytes value = rng.RandomBytes(40);
    Bytes raw(U160::kBytes, static_cast<uint8_t>(i));
    ASSERT_EQ(store.value()->Put(U160::FromBytes(Span(raw)), Span(value)),
              StatusCode::kOk);
  }
  ASSERT_GT(store.value()->segment_count(), 2u);

  // Find a record write to the FIRST segment (not its header) and drop it:
  // the hole reads back as zeros under later intact segments.
  const std::string first_seg = SegmentFileName(1);
  size_t drop = SIZE_MAX;
  for (size_t i = 0; i < env.ops().size(); ++i) {
    const EnvOp& op = env.ops()[i];
    if (op.kind == EnvOp::Kind::kWrite && op.path == first_seg &&
        op.offset >= kSegmentHeaderSize) {
      drop = i;
      break;
    }
  }
  ASSERT_NE(drop, SIZE_MAX);

  MaterializeOptions crash;
  crash.op_count = env.ops().size();
  crash.drop_op = drop;
  ASSERT_EQ(env.Materialize(tmp.Sub("dropped"), crash), StatusCode::kOk);
  Result<std::unique_ptr<DiskStore>> reopened =
      DiskStore::Open(tmp.Sub("dropped"), SweepOptions(nullptr));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace past
