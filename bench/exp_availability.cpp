// E10 — Persistence and availability under churn.
//
// HotOS text: "a file remains available as long as one of the k nodes that
// store the file is alive and reachable" and "in the event of storage node
// failures, the system automatically restores k copies of a file as part of
// a failure recovery procedure".
#include "bench/exp_util.h"

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "availability");
  const int kNodes = args.smoke ? 80 : 200;
  const int kFiles = args.smoke ? 15 : 40;
  const int kToKill = args.smoke ? 12 : 30;  // 15% of the network
  PrintHeader("E10: file availability and k-restoration under churn",
              "available while >=1 replica lives; recovery restores k copies");

  std::printf("%6s %14s %16s %18s %16s\n", "k", "nodes killed", "avail (fresh)",
              "avail (healed)", "avg replicas");
  const std::vector<uint32_t> ks = {2u, 3u, 5u};

  struct TrialResult {
    size_t files = 0;
    int fresh_ok = 0;
    int healed_ok = 0;
    double replica_sum = 0;
    JsonValue metrics;
  };
  auto run = [&](size_t index) -> TrialResult {
    const uint32_t k = ks[index];
    PastNetworkOptions options;
    options.overlay.seed = 10'000 + k;
    options.overlay.pastry.keep_alive_period = 1 * kMicrosPerSecond;
    options.overlay.pastry.failure_timeout = 3 * kMicrosPerSecond;
    options.overlay.pastry.death_quarantine = 6 * kMicrosPerSecond;
    options.broker.modulus_pool = 8;
    options.past.default_replication = k;
    options.past.request_timeout = 10 * kMicrosPerSecond;
    options.default_node_capacity = 4 << 20;
    options.default_user_quota = ~0ULL >> 2;

    PastNetwork net(options);
    net.Build(kNodes);
    PastNode* client = net.node(0);
    std::vector<FileId> files;
    for (int f = 0; f < kFiles; ++f) {
      auto r = net.InsertSyntheticSync(client, "av-" + std::to_string(f), 4096, k);
      if (r.ok()) {
        files.push_back(r.value());
      }
    }

    // Kill 15% of nodes at once (sparing the client).
    Rng rng(k * 31);
    int to_kill = kToKill;
    int killed = 0;
    while (killed < to_kill) {
      size_t victim = 1 + rng.UniformU64(net.size() - 1);
      if (net.node(victim)->overlay()->active()) {
        net.CrashNode(victim);
        ++killed;
      }
    }

    TrialResult result;
    result.files = files.size();
    // Fresh availability (no repair window yet).
    for (const FileId& id : files) {
      result.fresh_ok += net.LookupSync(client, id).ok() ? 1 : 0;
    }
    // After recovery.
    net.Run(60 * kMicrosPerSecond);
    for (const FileId& id : files) {
      result.healed_ok += net.LookupSync(client, id).ok() ? 1 : 0;
      result.replica_sum += net.CountReplicas(id);
    }
    result.metrics = net.overlay().network().metrics().ToJson();
    return result;
  };
  auto commit = [&](size_t index, TrialResult& r) {
    const uint32_t k = ks[index];
    std::printf("%6u %14d %15.1f%% %17.1f%% %16.2f\n", k, kToKill,
                100.0 * r.fresh_ok / static_cast<double>(r.files),
                100.0 * r.healed_ok / static_cast<double>(r.files),
                r.replica_sum / static_cast<double>(r.files));

    JsonValue row = JsonValue::Object();
    row.Set("k", static_cast<int>(k));
    row.Set("nodes_killed", kToKill);
    row.Set("avail_fresh", r.fresh_ok / static_cast<double>(r.files));
    row.Set("avail_healed", r.healed_ok / static_cast<double>(r.files));
    row.Set("avg_replicas_healed", r.replica_sum / static_cast<double>(r.files));
    json.AddRow("availability_vs_k", std::move(row));
    json.SetMetricsJson(std::move(r.metrics));
  };

  TrialOptions trial_opts;
  trial_opts.threads = args.threads;
  RunTrials(trial_opts, ks.size(), run, commit);

  std::printf("\nExpected shape: higher k -> fresh availability closer to 100%%;\n");
  std::printf("after the repair window every file is back to k replicas.\n");
  return json.Finish() ? 0 : 1;
}
