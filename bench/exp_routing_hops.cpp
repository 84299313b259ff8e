// E1 — Routing hop count vs. network size.
//
// HotOS text: "The number of PAST nodes traversed while routing a client
// request is at most logarithmic in the total number of PAST nodes" and
// "Pastry can route to the numerically closest node in less than
// ceil(log_2b N) steps on average (b = 4)". Mirrors the hops-vs-N figure of
// the Pastry evaluation (ref [11]).
//
// Trials (one per N, plus the fixed-N hop-distribution run) are independent
// simulations and fan out across --threads workers; results commit in trial
// order so the output is identical at any thread count.
#include "bench/exp_util.h"

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "routing_hops");
  ExpTrace trace(args, "routing_hops");

  PrintHeader("E1: average routing hops vs N (b=4, l=32)",
              "avg hops < ceil(log_16 N); delivery always at closest node");

  const std::vector<int> sizes =
      args.smoke ? std::vector<int>{64, 256}
                 : std::vector<int>{256, 512, 1024, 2048, 4096, 6144, 8192, 10000};
  const int dist_n = args.smoke ? 256 : 4096;
  const int dist_lookups = args.smoke ? 100 : 1000;
  constexpr size_t kHistBuckets = 10;

  struct TrialResult {
    // hops-vs-N trials
    int lookups = 0;
    double total_hops = 0;
    int max_hops = 0;
    int correct = 0;
    // distribution trial (the last one)
    std::vector<int> histogram;
    JsonValue metrics;
    JsonValue spans;  // span dump when --trace-out armed the tracer
    uint64_t spans_dropped = 0;
  };

  const size_t trial_count = sizes.size() + 1;  // + the distribution run
  auto run = [&](size_t index) -> TrialResult {
    TrialResult r;
    if (index < sizes.size()) {
      const int n = sizes[index];
      ExpOverlay net(n, 42 + static_cast<uint64_t>(n));
      r.lookups = args.smoke ? 100 : (n >= 4096 ? 500 : 1000);
      for (int i = 0; i < r.lookups; ++i) {
        U128 key = net.overlay->RandomKey();
        PastryNode* expected = net.overlay->GloballyClosestLiveNode(key);
        auto ctx = net.RouteOnce(key);
        if (!ctx.has_value()) {
          continue;
        }
        r.total_hops += static_cast<double>(ctx->trace.size());
        r.max_hops = std::max(r.max_hops, static_cast<int>(ctx->trace.size()));
        if (net.overlay->node(ctx->delivered_at)->id() == expected->id()) {
          ++r.correct;
        }
      }
      return r;
    }
    // Hop-count distribution at a fixed N (the Pastry paper's figure 4
    // analog).
    ExpOverlay net(dist_n, 777);
    if (trace.enabled()) {
      // Trace the distribution run: every hop of every lookup becomes a
      // "pastry.hop" span. Arming the tracer changes no simulation decision,
      // so traced and untraced runs stay byte-identical in --json output.
      net.overlay->network().tracer().Enable();
    }
    r.histogram.assign(kHistBuckets, 0);
    for (int i = 0; i < dist_lookups; ++i) {
      auto ctx = net.RouteOnce(net.overlay->RandomKey());
      if (ctx.has_value() && ctx->trace.size() < r.histogram.size()) {
        r.histogram[ctx->trace.size()]++;
      }
    }
    // The registry holds the hop-count histogram, per-rule hop attribution,
    // and message totals accumulated over the distribution run; snapshot it
    // here, before the worker's simulation stack dies.
    r.metrics = net.overlay->network().metrics().ToJson();
    if (trace.enabled()) {
      r.spans = net.overlay->network().tracer().SpansJson();
      r.spans_dropped = net.overlay->network().tracer().dropped();
    }
    return r;
  };

  auto commit = [&](size_t index, TrialResult& r) {
    if (index == 0) {
      std::printf("%8s %10s %10s %10s %10s %12s\n", "N", "lookups", "avg hops",
                  "max hops", "bound", "correct");
    }
    if (index < sizes.size()) {
      const int n = sizes[index];
      double bound = std::ceil(Log16(n));
      std::printf("%8d %10d %10.2f %10d %10.0f %11.1f%%\n", n, r.lookups,
                  r.total_hops / r.lookups, r.max_hops, bound,
                  100.0 * r.correct / r.lookups);
      JsonValue row = JsonValue::Object();
      row.Set("n", n);
      row.Set("lookups", r.lookups);
      row.Set("avg_hops", r.total_hops / r.lookups);
      row.Set("max_hops", r.max_hops);
      row.Set("bound", bound);
      row.Set("correct_frac", static_cast<double>(r.correct) / r.lookups);
      json.AddRow("hops_vs_n", std::move(row));
      return;
    }
    std::printf(
        "\nHop distribution, N=%d (expect mass at <= ceil(log_16 N) = %.0f):\n",
        dist_n, std::ceil(Log16(dist_n)));
    for (int h = 0; h < 7; ++h) {
      std::printf(
          "  hops=%d : %5.1f%% %s\n", h, 100.0 * r.histogram[h] / dist_lookups,
          std::string(static_cast<size_t>(60.0 * r.histogram[h] / dist_lookups),
                      '#')
              .c_str());
    }
    JsonValue dist = JsonValue::Object();
    dist.Set("n", dist_n);
    dist.Set("lookups", dist_lookups);
    JsonValue hist = JsonValue::Array();
    for (size_t h = 0; h < r.histogram.size(); ++h) {
      JsonValue bucket = JsonValue::Object();
      bucket.Set("hops", static_cast<int>(h));
      bucket.Set("count", r.histogram[h]);
      hist.Append(std::move(bucket));
    }
    dist.Set("histogram", std::move(hist));
    json.Set("hop_distribution", std::move(dist));
    json.SetMetricsJson(std::move(r.metrics));
    trace.SetSpansJson(std::move(r.spans), r.spans_dropped);
  };

  TrialOptions trial_opts;
  trial_opts.threads = args.threads;
  // Overlay construction dominates trial cost; run the big overlays first so
  // the pool drains evenly.
  std::vector<double> costs;
  for (int n : sizes) {
    costs.push_back(static_cast<double>(n));
  }
  costs.push_back(static_cast<double>(dist_n));
  trial_opts.work_order = LargestFirstOrder(costs);
  RunTrials(trial_opts, trial_count, run, commit);

  return json.Finish() && trace.Finish() ? 0 : 1;
}
