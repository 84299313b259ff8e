// E16 — Simulation scale: compact overlay state and keep-alive maintenance.
//
// HotOS text: PAST is meant as "a large-scale peer-to-peer storage utility"
// with "many thousands" of nodes; the evaluation methodology caps out where
// per-node state and per-timer scheduling costs do. This experiment measures
// both at N far beyond the other experiments: overlays are constructed from
// global knowledge (Overlay::BuildFast), per-node memory is accounted
// exactly (sim.mem.bytes_per_node), and every node's keep-alive tick is one
// event on the simulator's queue.
//
// Phase A (routing/state, keep-alive off): build N in {10k, 100k}, route
// random lookups, and assert the paper's routing contract end to end —
// every lookup delivered at the globally closest node in < ceil(log_16 N)
// average hops. Rows record build/lookup wall-clock and bytes per node.
//
// Phase B (maintenance, keep-alive on): N=10k with a 1 s keep-alive period;
// the row records the pending timers and the message volume, wall time and
// bytes per node of a maintenance window.
//
// The path to 1M nodes is documented in EXPERIMENTS.md (E16): phase A is
// linear in N in both bytes and build time, so the 100k row's bytes_per_node
// times 1e6 bounds the footprint; run with --smoke off and sizes overridden
// in source when a machine with that much memory is available.
//
// Exits non-zero if any lookup is misdelivered, the hop bound is violated,
// or bytes/node exceeds the documented budget (kBytesPerNodeBudget).
#include <chrono>

#include "bench/exp_util.h"

namespace {

// Gate budget asserted here and in tools/check.sh scale, for the lookup rows
// and the maintenance row alike: compact state must keep a full Pastry node
// (routing table + leaf set + neighborhood set + liveness bookkeeping +
// endpoint + event-queue amortization) under 2 KiB.
constexpr double kBytesPerNodeBudget = 2048.0;

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "scale");
  PrintHeader("E16: simulation scale (compact state + keep-alive maintenance)",
              "bytes/node stays flat as N grows; hops < ceil(log_16 N) at 100k");

  // 100k runs in both modes — it is the acceptance point for the scale gate;
  // smoke only trims the lookup count.
  const std::vector<int> sizes = {10000, 100000};
  const int lookups_per_size = args.smoke ? 200 : 2000;
  const int maint_n = args.smoke ? 2000 : 10000;
  const SimTime maint_window =
      (args.smoke ? 3 : 10) * kMicrosPerSecond;  // simulated

  struct TrialResult {
    int n = 0;
    int lookups = 0;
    double build_s = 0;
    double lookup_s = 0;
    double total_hops = 0;
    int max_hops = 0;
    int correct = 0;
    double bytes_per_node = 0;
    double total_bytes = 0;
    JsonValue metrics;
  };

  bool failed = false;

  auto run = [&](size_t index) -> TrialResult {
    TrialResult r;
    r.n = sizes[index];
    OverlayOptions opts;
    opts.seed = 1600 + static_cast<uint64_t>(r.n);
    opts.pastry.keep_alive_period = 0;
    opts.network.expected_endpoints = static_cast<size_t>(r.n);
    Overlay overlay(opts);

    auto t0 = std::chrono::steady_clock::now();
    overlay.BuildFast(r.n);
    r.build_s = WallSeconds(t0);

    ExpApp app;
    for (size_t i = 0; i < overlay.size(); ++i) {
      overlay.node(i)->SetApp(&app);
    }

    r.lookups = lookups_per_size;
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < r.lookups; ++i) {
      U128 key = overlay.RandomKey();
      PastryNode* expected = overlay.GloballyClosestLiveNode(key);
      PastryNode* src = overlay.RandomLiveNode();
      app.delivered.clear();
      src->Route(key, 1, {});
      overlay.RunAll();
      if (app.delivered.empty()) {
        continue;
      }
      const DeliverContext& ctx = app.delivered.back();
      r.total_hops += static_cast<double>(ctx.trace.size());
      r.max_hops = std::max(r.max_hops, static_cast<int>(ctx.trace.size()));
      if (overlay.node(ctx.delivered_at)->id() == expected->id()) {
        ++r.correct;
      }
    }
    r.lookup_s = WallSeconds(t0);

    overlay.RecordMemoryMetrics();
    const MetricsRegistry& m = overlay.network().metrics();
    r.bytes_per_node = m.FindGauge("sim.mem.bytes_per_node")->value();
    r.total_bytes = m.FindGauge("sim.mem.total_bytes")->value();
    if (index + 1 == sizes.size()) {
      r.metrics = m.ToJson();
    }
    return r;
  };

  auto commit = [&](size_t index, TrialResult& r) {
    if (index == 0) {
      std::printf("%8s %9s %9s %9s %8s %8s %8s %11s\n", "N", "build_s",
                  "lookup_s", "avg hops", "max", "bound", "correct",
                  "bytes/node");
    }
    const double bound = std::ceil(Log16(r.n));
    const double avg_hops = r.total_hops / r.lookups;
    const double correct_frac = static_cast<double>(r.correct) / r.lookups;
    std::printf("%8d %9.2f %9.2f %9.2f %8d %8.0f %7.1f%% %11.0f\n", r.n,
                r.build_s, r.lookup_s, avg_hops, r.max_hops, bound,
                100.0 * correct_frac, r.bytes_per_node);
    if (correct_frac < 1.0) {
      std::fprintf(stderr, "FAIL: N=%d delivered %d/%d lookups at the closest node\n",
                   r.n, r.correct, r.lookups);
      failed = true;
    }
    if (avg_hops >= bound) {
      std::fprintf(stderr, "FAIL: N=%d avg hops %.2f >= ceil(log_16 N) = %.0f\n",
                   r.n, avg_hops, bound);
      failed = true;
    }
    if (r.bytes_per_node > kBytesPerNodeBudget) {
      std::fprintf(stderr, "FAIL: N=%d bytes/node %.0f over budget %.0f\n", r.n,
                   r.bytes_per_node, kBytesPerNodeBudget);
      failed = true;
    }
    JsonValue row = JsonValue::Object();
    row.Set("n", r.n);
    row.Set("build_wall_s", r.build_s);
    row.Set("lookup_wall_s", r.lookup_s);
    row.Set("lookups", r.lookups);
    row.Set("avg_hops", avg_hops);
    row.Set("max_hops", r.max_hops);
    row.Set("bound", bound);
    row.Set("correct_frac", correct_frac);
    row.Set("bytes_per_node", r.bytes_per_node);
    row.Set("total_bytes", r.total_bytes);
    json.AddRow("scale_vs_n", std::move(row));
    if (index + 1 == sizes.size()) {
      json.SetMetricsJson(std::move(r.metrics));
    }
  };

  TrialOptions trial_opts;
  trial_opts.threads = args.threads;
  std::vector<double> costs(sizes.begin(), sizes.end());
  trial_opts.work_order = LargestFirstOrder(costs);
  RunTrials(trial_opts, sizes.size(), run, commit);

  // Phase B: maintenance cost. Each live node holds one pending keep-alive
  // tick on the queue; this row measures what a window of ticks costs.
  {
    OverlayOptions opts;
    opts.seed = 1601;
    opts.pastry.keep_alive_period = 1 * kMicrosPerSecond;
    opts.pastry.failure_timeout = 4 * kMicrosPerSecond;
    opts.network.expected_endpoints = static_cast<size_t>(maint_n);
    Overlay overlay(opts);
    auto t0 = std::chrono::steady_clock::now();
    overlay.BuildFast(maint_n);
    const double build_s = WallSeconds(t0);

    const size_t timers_pending = overlay.queue().PendingCount();
    const uint64_t sent_before =
        overlay.network().metrics().FindCounter("pastry.maintenance_msgs_sent") != nullptr
            ? overlay.network().metrics().FindCounter("pastry.maintenance_msgs_sent")->value()
            : 0;
    t0 = std::chrono::steady_clock::now();
    overlay.Run(maint_window);
    const double run_s = WallSeconds(t0);
    const uint64_t maint_msgs =
        overlay.network().metrics().FindCounter("pastry.maintenance_msgs_sent")->value() -
        sent_before;
    overlay.RecordMemoryMetrics();
    const double bytes_per_node =
        overlay.network().metrics().FindGauge("sim.mem.bytes_per_node")->value();

    std::printf("\nMaintenance (keep-alive on): N=%d, %llds sim, %zu timers pending\n",
                maint_n, static_cast<long long>(maint_window / kMicrosPerSecond),
                timers_pending);
    const double msgs_per_node_s =
        static_cast<double>(maint_msgs) /
        (maint_n * (static_cast<double>(maint_window) / kMicrosPerSecond));
    std::printf("  %llu maintenance msgs (%.2f per node per s), build %.2fs, window %.2fs wall, "
                "%0.f bytes/node\n",
                static_cast<unsigned long long>(maint_msgs), msgs_per_node_s, build_s,
                run_s, bytes_per_node);

    JsonValue row = JsonValue::Object();
    row.Set("n", maint_n);
    row.Set("sim_window_s",
            static_cast<double>(maint_window) / kMicrosPerSecond);
    row.Set("timers_pending", static_cast<uint64_t>(timers_pending));
    row.Set("maintenance_msgs", maint_msgs);
    row.Set("maintenance_msgs_per_node_s", msgs_per_node_s);
    row.Set("build_wall_s", build_s);
    row.Set("window_wall_s", run_s);
    row.Set("bytes_per_node", bytes_per_node);
    json.Set("maintenance", std::move(row));
    if (bytes_per_node > kBytesPerNodeBudget) {
      std::fprintf(stderr, "FAIL: maintenance bytes/node %.0f over budget %.0f\n",
                   bytes_per_node, kBytesPerNodeBudget);
      failed = true;
    }
  }

  if (failed) {
    std::fprintf(stderr, "\nexp_scale: assertions FAILED\n");
  }
  std::printf("\nBytes/node should stay roughly flat from 10k to 100k; the\n");
  std::printf("100k row x10 gives the documented 1M footprint estimate.\n");
  return (!failed && json.Finish()) ? 0 : 1;
}
