// E12 — Ablation of the Pastry configuration parameters b and l.
//
// HotOS text: "b is a configuration parameter with typical value 4" (the
// hop/state trade-off: hops ~ log_2b N, state ~ (2^b - 1) * log_2b N) and
// "eventual delivery is guaranteed unless floor(l/2) nodes with adjacent
// nodeIds fail simultaneously" (l trades state for fault tolerance).
#include "bench/exp_util.h"

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "param_sweep");
  const int kSweepN = args.smoke ? 300 : 2000;
  PrintHeader("E12a: digit width b — hops vs state",
              "hops ~ log_2^b N falls with b; table size (2^b-1)*rows grows");

  std::printf("%4s %12s %12s %14s %14s\n", "b", "avg hops", "bound", "avg RT size",
              "RT bound");
  const std::vector<int> widths = {2, 4, 8};

  struct WidthResult {
    double hops = 0;
    int delivered = 0;
    double rt = 0;
    size_t overlay_size = 0;
    JsonValue metrics;
  };
  auto run_width = [&](size_t index) -> WidthResult {
    const int b = widths[index];
    OverlayOptions opts;
    opts.seed = 12000 + static_cast<uint64_t>(b);
    opts.pastry.b = b;
    opts.pastry.keep_alive_period = 0;
    Overlay overlay(opts);
    overlay.Build(kSweepN);
    std::vector<ExpApp> apps(overlay.size());
    for (size_t i = 0; i < overlay.size(); ++i) {
      overlay.node(i)->SetApp(&apps[i]);
    }
    WidthResult r;
    const int lookups = args.smoke ? 60 : 400;
    for (int t = 0; t < lookups; ++t) {
      overlay.RandomLiveNode()->Route(overlay.RandomKey(), 1, {});
      overlay.RunAll();
      for (auto& app : apps) {
        for (auto& ctx : app.delivered) {
          r.hops += static_cast<double>(ctx.trace.size());
          ++r.delivered;
        }
        app.delivered.clear();
      }
    }
    for (size_t i = 0; i < overlay.size(); ++i) {
      r.rt += static_cast<double>(overlay.node(i)->routing_table().EntryCount());
    }
    r.overlay_size = overlay.size();
    r.metrics = overlay.network().metrics().ToJson();
    return r;
  };
  auto commit_width = [&](size_t index, WidthResult& r) {
    const int b = widths[index];
    double log2b_n =
        std::log(static_cast<double>(kSweepN)) / std::log(static_cast<double>(1 << b));
    std::printf("%4d %12.2f %12.2f %14.1f %14.1f\n", b, r.hops / r.delivered,
                std::ceil(log2b_n), r.rt / static_cast<double>(r.overlay_size),
                ((1 << b) - 1) * std::ceil(log2b_n));

    JsonValue row = JsonValue::Object();
    row.Set("b", b);
    row.Set("avg_hops", r.hops / r.delivered);
    row.Set("hop_bound", std::ceil(log2b_n));
    row.Set("avg_rt_entries", r.rt / static_cast<double>(r.overlay_size));
    json.AddRow("digit_width", std::move(row));
    json.SetMetricsJson(std::move(r.metrics));
  };

  TrialOptions trial_opts;
  trial_opts.threads = args.threads;
  RunTrials(trial_opts, widths.size(), run_width, commit_width);

  const int kLeafN = args.smoke ? 200 : 400;
  const int kLeafQueries = args.smoke ? 20 : 60;
  PrintHeader("E12b: leaf-set size l — surviving adjacent failures",
              "keys in a dead region resolve while < floor(l/2) adjacent "
              "nodes are down");

  std::printf("%4s %12s %22s %22s\n", "l", "floor(l/2)", "kill l/2-1: success",
              "kill l/2+4: success");
  const std::vector<int> leaf_sizes = {8, 16, 32};

  struct LeafResult {
    double success[2] = {};
  };
  auto run_leaf = [&](size_t index) -> LeafResult {
    const int l = leaf_sizes[index];
    LeafResult r;
    for (int scenario = 0; scenario < 2; ++scenario) {
      OverlayOptions opts;
      opts.seed = 12100 + static_cast<uint64_t>(l);
      opts.pastry.leaf_set_size = l;
      // Heartbeats off: measure the *immediate* tolerance window, before any
      // repair, which is what the floor(l/2) bound is about.
      opts.pastry.keep_alive_period = 0;
      Overlay overlay(opts);
      overlay.Build(kLeafN);
      std::vector<ExpApp> apps(overlay.size());
      for (size_t i = 0; i < overlay.size(); ++i) {
        overlay.node(i)->SetApp(&apps[i]);
      }
      // Kill a run of adjacent nodes (by id order).
      std::vector<std::pair<U128, size_t>> by_id;
      for (size_t i = 0; i < overlay.size(); ++i) {
        by_id.emplace_back(overlay.node(i)->id(), i);
      }
      std::sort(by_id.begin(), by_id.end());
      int to_kill = scenario == 0 ? l / 2 - 1 : l / 2 + 4;
      const size_t start = 100;
      for (int i = 0; i < to_kill; ++i) {
        overlay.node(by_id[start + static_cast<size_t>(i)].second)->Fail();
      }
      // Route keys into the dead region from random live nodes.
      int ok = 0;
      const int queries = kLeafQueries;
      Rng rng(3);
      for (int q = 0; q < queries; ++q) {
        U128 key =
            by_id[start + rng.UniformU64(static_cast<uint64_t>(to_kill))].first.Add(
                U128(0, 1 + rng.UniformU64(1000)));
        PastryNode* expected = overlay.GloballyClosestLiveNode(key);
        size_t before = apps[expected->addr()].delivered.size();
        overlay.RandomLiveNode()->Route(key, 1, {});
        overlay.Run(20 * kMicrosPerSecond);
        ok += apps[expected->addr()].delivered.size() > before ? 1 : 0;
      }
      r.success[scenario] = 100.0 * ok / queries;
    }
    return r;
  };
  auto commit_leaf = [&](size_t index, LeafResult& r) {
    const int l = leaf_sizes[index];
    std::printf("%4d %12d %21.1f%% %21.1f%%\n", l, l / 2, r.success[0],
                r.success[1]);

    JsonValue row = JsonValue::Object();
    row.Set("l", l);
    row.Set("success_below_bound", r.success[0] / 100.0);
    row.Set("success_above_bound", r.success[1] / 100.0);
    json.AddRow("leaf_set_size", std::move(row));
  };
  RunTrials(trial_opts, leaf_sizes.size(), run_leaf, commit_leaf);

  std::printf("\nWithin the bound (left column) delivery keeps working via leaf\n");
  std::printf("sets and per-hop re-routing; beyond it (right column) success\n");
  std::printf("can degrade until the repair protocols rebuild the leaf sets.\n");
  return json.Finish() ? 0 : 1;
}
