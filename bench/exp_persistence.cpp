// E14 — Durable storage engine: append/replay throughput and reboot recovery.
//
// The paper's premise is a *persistent* storage utility: "a storage system
// ... which files can be inserted and stored. An owner can ... reclaim the
// storage" — replicas must survive node reboots without being re-fetched
// from the k-1 surviving holders. Two measurements back that up:
//
//   1. Engine throughput — raw DiskStore append rate under the three fsync
//      policies (lazy, batched, write-through) plus the Open()-time replay
//      rate, i.e. what a reboot costs.
//   2. Reboot recovery — a PAST network with a state_dir: crash a replica
//      holder, reboot it, and check that it serves its replicas straight
//      from the recovered log with maintenance_fetches == 0. A volatile
//      (no state_dir) run of the same script is the control: the store
//      comes back empty. Both rows count the files left below k replicas
//      once the network has settled.
#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "bench/exp_util.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/diskstore/disk_store.h"

namespace {

using namespace past;

// Self-cleaning mkdtemp directory (bench-local; mirrors tests' TempDir).
struct ScratchDir {
  ScratchDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "past-exp-XXXXXX").string();
    PAST_CHECK_MSG(mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
    path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string Sub(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Part 1: engine append/replay throughput per fsync policy.
// ---------------------------------------------------------------------------

struct ThroughputRow {
  uint32_t sync_every = 0;
  uint64_t records = 0;
  uint64_t value_bytes = 0;
  double append_seconds = 0;
  double replay_seconds = 0;
  uint64_t fsyncs = 0;
  uint64_t segments = 0;
  uint64_t replayed_records = 0;

  double records_per_sec() const {
    return append_seconds > 0 ? static_cast<double>(records) / append_seconds : 0;
  }
  double mb_per_sec() const {
    return append_seconds > 0
               ? static_cast<double>(records * value_bytes) / append_seconds / 1e6
               : 0;
  }
  double replay_records_per_sec() const {
    return replay_seconds > 0
               ? static_cast<double>(replayed_records) / replay_seconds
               : 0;
  }
};

ThroughputRow RunEngine(const ScratchDir& scratch, uint32_t sync_every,
                        uint64_t records, uint64_t value_bytes) {
  ThroughputRow row;
  row.sync_every = sync_every;
  row.records = records;
  row.value_bytes = value_bytes;

  const std::string dir = scratch.Sub("engine-sync" + std::to_string(sync_every));
  DiskStoreOptions options;
  options.sync_every = sync_every;
  Rng rng(9000 + sync_every);
  {
    auto store = DiskStore::Open(dir, options);
    PAST_CHECK_MSG(store.ok(), "engine open failed");
    const Bytes value = rng.RandomBytes(value_bytes);
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < records; ++i) {
      // Distinct keys: replay cost below is proportional to the full log.
      Bytes raw = rng.RandomBytes(U160::kBytes);
      const U160 key = U160::FromBytes(ByteSpan(raw.data(), raw.size()));
      StatusCode status =
          store.value()->Put(key, ByteSpan(value.data(), value.size()));
      PAST_CHECK_MSG(status == StatusCode::kOk, "append failed");
    }
    PAST_CHECK_MSG(store.value()->Sync() == StatusCode::kOk, "sync failed");
    row.append_seconds = SecondsSince(start);
    row.fsyncs = store.value()->metrics().FindCounter("disk.fsyncs")->value();
    row.segments = store.value()->segment_count();
  }
  // A reboot replays the whole log to rebuild the index.
  auto start = std::chrono::steady_clock::now();
  auto reopened = DiskStore::Open(dir, options);
  PAST_CHECK_MSG(reopened.ok(), "replay open failed");
  row.replay_seconds = SecondsSince(start);
  row.replayed_records =
      reopened.value()->metrics().FindCounter("disk.recovery_replayed")->value();
  return row;
}

// ---------------------------------------------------------------------------
// Part 2: crash + reboot inside a PAST network, durable vs volatile.
// ---------------------------------------------------------------------------

struct RebootResult {
  size_t files_inserted = 0;
  size_t held_before_crash = 0;
  size_t recovered_at_boot = 0;
  // Network-wide past.maintenance_fetches since the reboot: an upper bound
  // on the rebooted node's own.
  uint64_t maintenance_fetches_at_boot = 0;
  uint64_t maintenance_fetches_after_settle = 0;
  // Files with fewer than k live replica holders after the settle.
  size_t files_below_k_after_settle = 0;
  size_t lookups_ok = 0;
};

constexpr uint32_t kReplicas = 3;

RebootResult RunReboot(bool durable, const std::string& state_dir, uint64_t seed,
                       int files, ExpJson* json) {
  PastNetworkOptions options;
  options.overlay.seed = seed;
  options.broker.modulus_pool = 4;
  options.overlay.pastry.keep_alive_period = 1 * kMicrosPerSecond;
  options.overlay.pastry.failure_timeout = 3 * kMicrosPerSecond;
  options.overlay.pastry.death_quarantine = 6 * kMicrosPerSecond;
  options.past.request_timeout = 20 * kMicrosPerSecond;
  if (durable) {
    options.past.state_dir = state_dir;
    options.past.disk.sync_every = 1;  // write-through: every ack durable
  }

  PastNetwork net(options);
  net.Build(16);
  PastNode* client = net.node(1);

  RebootResult result;
  std::vector<FileId> ids;
  for (int i = 0; i < files; ++i) {
    auto inserted = net.InsertSync(client, "pfile-" + std::to_string(i),
                                   ToBytes("payload-" + std::to_string(i)), kReplicas);
    PAST_CHECK_MSG(inserted.ok(), "insert failed");
    ids.push_back(inserted.value());
  }
  result.files_inserted = ids.size();

  // Crash a replica holder of the first file (never the client).
  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i) != client && net.node(i)->store().Has(ids[0])) {
      victim = i;
      break;
    }
  }
  PAST_CHECK_MSG(victim != SIZE_MAX, "no replica holder found");
  std::vector<FileId> held;
  for (const FileId& id : ids) {
    if (net.node(victim)->store().Has(id)) {
      held.push_back(id);
    }
  }
  result.held_before_crash = held.size();

  net.CrashNode(victim);
  net.Run(2 * kMicrosPerSecond);  // failure noticed, well before any repair

  const Counter* fetches =
      net.overlay().network().metrics().FindCounter("past.maintenance_fetches");
  const uint64_t fetches_before_boot = fetches->value();
  PastNode* rebooted = net.RestartNode(victim);
  for (const FileId& id : held) {
    if (rebooted->store().Has(id)) {
      ++result.recovered_at_boot;
    }
  }
  result.maintenance_fetches_at_boot = fetches->value() - fetches_before_boot;

  // Let the overlay re-admit the node and maintenance settle.
  net.Run(30 * kMicrosPerSecond);
  result.maintenance_fetches_after_settle = fetches->value() - fetches_before_boot;
  for (const FileId& id : ids) {
    if (net.CountReplicas(id) < static_cast<int>(kReplicas)) {
      ++result.files_below_k_after_settle;
    }
  }

  for (size_t i = 0; i < ids.size(); ++i) {
    auto looked = net.LookupSync(net.node(3), ids[i]);
    if (looked.ok() &&
        looked.value().content == ToBytes("payload-" + std::to_string(i))) {
      ++result.lookups_ok;
    }
  }

  // The durable run's registry carries the disk.* counters (bytes written,
  // fsyncs, recovery replay) — snapshot that one into the JSON document.
  if (durable) {
    json->SetMetrics(net.overlay().network().metrics());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "persistence");
  ScratchDir scratch;

  PrintHeader("E14: durable storage engine — throughput and reboot recovery",
              "persistent storage utility: replicas survive reboots (HotOS §1)");

  const uint64_t records = args.smoke ? 2000 : 20000;
  const uint64_t value_bytes = args.smoke ? 512 : 4096;
  std::printf("\nengine append/replay throughput (%llu records x %llu B)\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(value_bytes));
  std::printf("%12s %12s %10s %8s %10s %14s\n", "sync_every", "records/s",
              "MB/s", "fsyncs", "segments", "replay rec/s");
  for (uint32_t sync_every : {0u, 8u, 1u}) {
    ThroughputRow row = RunEngine(scratch, sync_every, records, value_bytes);
    std::printf("%12u %12.0f %10.1f %8llu %10llu %14.0f\n", row.sync_every,
                row.records_per_sec(), row.mb_per_sec(),
                static_cast<unsigned long long>(row.fsyncs),
                static_cast<unsigned long long>(row.segments),
                row.replay_records_per_sec());

    JsonValue j = JsonValue::Object();
    j.Set("sync_every", static_cast<uint64_t>(row.sync_every));
    j.Set("records", row.records);
    j.Set("value_bytes", row.value_bytes);
    j.Set("append_seconds", row.append_seconds);
    j.Set("records_per_sec", row.records_per_sec());
    j.Set("mb_per_sec", row.mb_per_sec());
    j.Set("fsyncs", row.fsyncs);
    j.Set("segments", row.segments);
    j.Set("replay_seconds", row.replay_seconds);
    j.Set("replayed_records", row.replayed_records);
    j.Set("replay_records_per_sec", row.replay_records_per_sec());
    json.AddRow("engine_throughput", std::move(j));
  }

  const int files = args.smoke ? 6 : 20;
  std::printf("\nreboot recovery (16 nodes, %d files, k=3, crash one holder)\n",
              files);
  std::printf("%10s %8s %12s %14s %18s %10s %10s\n", "mode", "held", "recovered",
              "fetch@boot", "fetch@settled", "below_k", "lookups");
  for (bool durable : {true, false}) {
    RebootResult r = RunReboot(durable, scratch.Sub("state"), 1401, files, &json);
    std::printf("%10s %8zu %12zu %14llu %18llu %10zu %7zu/%zu\n",
                durable ? "durable" : "volatile", r.held_before_crash,
                r.recovered_at_boot,
                static_cast<unsigned long long>(r.maintenance_fetches_at_boot),
                static_cast<unsigned long long>(r.maintenance_fetches_after_settle),
                r.files_below_k_after_settle, r.lookups_ok, r.files_inserted);

    JsonValue j = JsonValue::Object();
    j.Set("mode", durable ? "durable" : "volatile");
    j.Set("files_inserted", static_cast<uint64_t>(r.files_inserted));
    j.Set("held_before_crash", static_cast<uint64_t>(r.held_before_crash));
    j.Set("recovered_at_boot", static_cast<uint64_t>(r.recovered_at_boot));
    j.Set("maintenance_fetches_at_boot", r.maintenance_fetches_at_boot);
    j.Set("maintenance_fetches_after_settle", r.maintenance_fetches_after_settle);
    j.Set("files_below_k_after_settle", static_cast<uint64_t>(r.files_below_k_after_settle));
    j.Set("lookups_ok", static_cast<uint64_t>(r.lookups_ok));
    json.AddRow("reboot", std::move(j));

    if (durable) {
      // Contract with the issue/acceptance check: a durable reboot serves
      // every recovered replica without a single maintenance fetch.
      PAST_CHECK_MSG(r.recovered_at_boot == r.held_before_crash,
                 "durable reboot lost replicas");
      PAST_CHECK_MSG(r.maintenance_fetches_after_settle == 0,
                 "recovered replicas were re-fetched");
    }
  }

  std::printf("\nexpectation: durable reboot recovers all held replicas with "
              "0 maintenance fetches;\nvolatile reboot recovers none and "
              "relies on the surviving k-1 holders.\n");
  return json.Finish() ? 0 : 1;
}
