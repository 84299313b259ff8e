// E8 — Caching: query load balancing and fetch distance.
//
// HotOS text: "Additional copies of popular files may be cached in any PAST
// node to balance query load" and caching "reduces fetch distance and network
// traffic ... balances query load by caching copies of popular files close to
// interested clients". Compares GreedyDual-Size, LRU and no caching on a
// Zipf lookup workload.
#include "bench/exp_util.h"
#include "src/workload/workload.h"

namespace {

using namespace past;

struct CacheRunResult {
  double cache_hit_rate = 0;      // lookups answered by any cache
  double avg_fetch_distance = 0;  // proximity(client, replier)
  double top_holder_load = 0;     // share of lookups served by busiest node
  JsonValue metrics;              // registry snapshot from this run
  JsonValue spans;                // span dump when --trace-out is given
  uint64_t spans_dropped = 0;
};

CacheRunResult RunCachePolicy(CachePolicy policy, uint64_t seed, bool smoke,
                              bool want_spans) {
  PastNetworkOptions options;
  options.overlay.seed = seed;
  options.overlay.pastry.keep_alive_period = 0;
  options.broker.modulus_pool = 8;
  options.past.cache_policy = policy;
  options.past.default_replication = 3;
  options.past.request_timeout = 10 * kMicrosPerSecond;
  // Small disks relative to the working set: caches are contended, so the
  // eviction policy matters (GD-S vs LRU).
  options.default_node_capacity = 96 << 10;
  options.default_user_quota = ~0ULL >> 2;

  const int kNodes = smoke ? 100 : 400;
  const int kFiles = smoke ? 40 : 150;
  const int kLookups = smoke ? 300 : 3000;

  PastNetwork net(options);
  net.Build(kNodes);
  if (want_spans) {
    // Full op tracing: every insert/lookup below opens a "past.*" span and
    // its overlay hops appear as child "pastry.hop" spans.
    net.overlay().network().tracer().Enable();
  }
  Rng rng(seed ^ 0x1234);

  FileSizeModel sizes;  // median ~4 KiB, max 16 KiB
  sizes.pareto_xm = 8 << 10;
  sizes.max_size = 16 << 10;
  std::vector<FileId> files;
  PastNode* inserter = net.node(0);
  while (static_cast<int>(files.size()) < kFiles) {
    auto r = net.InsertSyntheticSync(
        inserter, "cache-" + std::to_string(files.size()), sizes.Sample(&rng), 3);
    if (r.ok()) {
      files.push_back(r.value());
    }
  }

  LookupTrace trace(files.size(), 1.0);  // Zipf(1.0) popularity
  uint64_t cache_hits = 0;
  double distance_sum = 0;
  int distance_count = 0;
  std::unordered_map<NodeAddr, int> served_by;
  for (int i = 0; i < kLookups; ++i) {
    PastNode* client = net.RandomLiveNode();
    const FileId& id = files[trace.Next(&rng)];
    bool done = false;
    bool from_cache = false;
    NodeDescriptor replier;
    client->Lookup(id, [&](Result<PastNode::LookupOutcome> r) {
      done = true;
      if (r.ok()) {
        from_cache = r.value().from_cache;
        replier = r.value().replier;
      }
    });
    EventQueue& q = net.queue();
    SimTime deadline = q.Now() + 20 * kMicrosPerSecond;
    while (!done && q.Now() < deadline) {
      q.RunUntil(q.Now() + 100 * kMicrosPerMilli);
    }
    if (!done || !replier.valid()) {
      continue;
    }
    cache_hits += from_cache ? 1 : 0;
    distance_sum +=
        net.overlay().network().Proximity(client->overlay()->addr(), replier.addr);
    ++distance_count;
    served_by[replier.addr]++;
  }

  CacheRunResult result;
  result.cache_hit_rate = 100.0 * static_cast<double>(cache_hits) / kLookups;
  result.avg_fetch_distance = distance_sum / distance_count;
  int top = 0;
  for (const auto& [addr, count] : served_by) {
    top = std::max(top, count);
  }
  result.top_holder_load = 100.0 * top / kLookups;
  result.metrics = net.overlay().network().metrics().ToJson();
  if (want_spans) {
    result.spans = net.overlay().network().tracer().SpansJson();
    result.spans_dropped = net.overlay().network().tracer().dropped();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "caching");
  ExpTrace span_out(args, "caching");
  PrintHeader("E8: caching policies under Zipf(1.0) lookups",
              "caching balances query load and cuts fetch distance");

  std::printf("%10s %14s %18s %20s\n", "policy", "cache hits", "avg fetch dist",
              "busiest node share");
  struct Row {
    const char* name;
    CachePolicy policy;
  };
  const std::vector<Row> rows = {Row{"none", CachePolicy::kNone},
                                 Row{"LRU", CachePolicy::kLru},
                                 Row{"GD-S", CachePolicy::kGreedyDualSize}};
  auto run = [&](size_t index) -> CacheRunResult {
    // Only the last trial (GD-S, the headline configuration) is traced, so
    // the span dump describes one coherent simulation.
    const bool want_spans = span_out.enabled() && index == rows.size() - 1;
    return RunCachePolicy(rows[index].policy, 8001, args.smoke, want_spans);
  };
  auto commit = [&](size_t index, CacheRunResult& r) {
    const Row& row = rows[index];
    std::printf("%10s %13.1f%% %18.1f %19.1f%%\n", row.name, r.cache_hit_rate,
                r.avg_fetch_distance, r.top_holder_load);

    JsonValue jrow = JsonValue::Object();
    jrow.Set("policy", row.name);
    jrow.Set("cache_hit_rate", r.cache_hit_rate / 100.0);
    jrow.Set("avg_fetch_distance", r.avg_fetch_distance);
    jrow.Set("top_holder_load", r.top_holder_load / 100.0);
    json.AddRow("cache_policies", std::move(jrow));
    json.SetMetricsJson(std::move(r.metrics));
    if (index == rows.size() - 1) {
      span_out.SetSpansJson(std::move(r.spans), r.spans_dropped);
    }
  };
  TrialOptions trial_opts;
  trial_opts.threads = args.threads;
  RunTrials(trial_opts, rows.size(), run, commit);
  std::printf("\nExpected shape: with caching on, a large share of lookups hit\n");
  std::printf("cached copies, the average client->replier proximity drops, and\n");
  std::printf("the load share of the busiest replica holder falls.\n");
  return json.Finish() && span_out.Finish() ? 0 : 1;
}
