// E13 — Continuous churn: availability and overlay health over time.
//
// HotOS text: nodes "may join the system at any time and may silently leave
// the system without warning. Yet, the system is able to provide strong
// assurances". Nodes cycle through exponentially distributed sessions and
// downtimes while clients keep reading a fixed file set; the table tracks
// availability, replica counts, and maintenance traffic over simulated time.
#include "bench/exp_util.h"
#include "src/obs/timeseries.h"
#include "src/sim/churn.h"

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "churn");
  PrintHeader("E13: continuous churn (k=4, mean session 300s / down 60s)",
              "files stay available through ongoing silent failures and rejoins");

  PastNetworkOptions options;
  options.overlay.seed = 13001;
  options.overlay.pastry.keep_alive_period = 2 * kMicrosPerSecond;
  options.overlay.pastry.failure_timeout = 6 * kMicrosPerSecond;
  options.overlay.pastry.death_quarantine = 12 * kMicrosPerSecond;
  options.broker.modulus_pool = 8;
  options.past.default_replication = 4;
  options.past.request_timeout = 15 * kMicrosPerSecond;
  options.default_node_capacity = 16 << 20;
  options.default_user_quota = ~0ULL >> 2;
  PastNetwork net(options);
  const int kNodes = args.smoke ? 60 : 150;
  net.Build(kNodes);

  // The client node (index 0) is exempt from churn so reads always originate
  // somewhere live.
  PastNode* client = net.node(0);
  std::vector<FileId> files;
  const int kChurnFiles = args.smoke ? 10 : 30;
  for (int i = 0; i < kChurnFiles; ++i) {
    auto r = net.InsertSyntheticSync(client, "churn-" + std::to_string(i), 8192, 4);
    if (r.ok()) {
      files.push_back(r.value());
    }
  }
  std::printf("stored %zu files at k=4\n\n", files.size());

  ChurnConfig churn_config;
  churn_config.mean_session = 300 * kMicrosPerSecond;
  churn_config.mean_downtime = 60 * kMicrosPerSecond;
  ChurnDriver churn(&net.queue(), churn_config, 99);
  for (size_t i = 1; i < net.size(); ++i) {
    PastNode* node = net.node(i);
    NodeAddr fallback = client->overlay()->addr();
    churn.Manage([node] { node->overlay()->Fail(); },
                 [node, fallback] {
                   if (!node->overlay()->active()) {
                     node->overlay()->Recover(fallback);
                   }
                 });
  }
  churn.Start();

  // Sample overlay health every 10 simulated seconds; the series lands in
  // the JSON as results.timeseries so past_stats (or a notebook) can plot
  // the run's trajectory, not just the per-epoch table.
  TimeSeriesSampler sampler(&net.overlay().network().metrics(),
                            10 * kMicrosPerSecond);
  sampler.Track("net.sent");
  sampler.Track("pastry.failures_detected");
  sampler.Track("past.maintenance_fetches");
  sampler.Track("past.demotions");
  sampler.Track("past.lookup.latency_us");
  sampler.Track("sim.queue_depth");
  sampler.Start(&net.queue());

  std::printf("%10s %8s %14s %14s %14s\n", "time", "live", "availability",
              "avg replicas", "churn events");
  const int kEpochs = args.smoke ? 2 : 6;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    net.Run(120 * kMicrosPerSecond);
    int live = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      live += net.node(i)->overlay()->active() ? 1 : 0;
    }
    int ok = 0;
    double replicas = 0;
    for (const FileId& id : files) {
      ok += net.LookupSync(client, id).ok() ? 1 : 0;
      replicas += net.CountReplicas(id);
    }
    std::printf("%9ds %8d %13.1f%% %14.2f %14llu\n", epoch * 120, live,
                100.0 * ok / static_cast<double>(files.size()),
                replicas / static_cast<double>(files.size()),
                static_cast<unsigned long long>(churn.stats().failures +
                                                churn.stats().recoveries));

    JsonValue row = JsonValue::Object();
    row.Set("time_s", epoch * 120);
    row.Set("live_nodes", live);
    row.Set("availability", ok / static_cast<double>(files.size()));
    row.Set("avg_replicas", replicas / static_cast<double>(files.size()));
    row.Set("churn_events", churn.stats().failures + churn.stats().recoveries);
    json.AddRow("epochs", std::move(row));
  }
  churn.Stop();
  sampler.Stop(&net.queue());
  json.Set("timeseries", sampler.ToJson());
  json.SetMetrics(net.overlay().network().metrics());
  std::printf("\nExpected shape: ~%d%% of nodes are up at any instant\n",
              static_cast<int>(100.0 * 300 / 360));
  std::printf("(session/(session+downtime)); availability stays ~100%% because\n");
  std::printf("maintenance keeps re-replicating onto the current k closest.\n");
  return json.Finish() ? 0 : 1;
}
