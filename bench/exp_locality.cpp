// E4 — Route locality.
//
// HotOS text: "the average distance traveled by a message, in terms of the
// proximity metric, is only 50% higher than the corresponding 'distance' of
// the source and destination in the underlying network" (ref [11]).
// Ablation: locality-aware state construction ON vs OFF.
#include "bench/exp_util.h"

namespace {

double MeasureRatio(past::ExpOverlay* net, int lookups) {
  using namespace past;
  double ratio_sum = 0;
  int counted = 0;
  for (int i = 0; i < lookups; ++i) {
    U128 key = net->overlay->RandomKey();
    auto ctx = net->RouteOnce(key);
    if (!ctx.has_value() || ctx->trace.empty()) {
      continue;
    }
    double direct =
        net->overlay->network().Proximity(ctx->source.addr, ctx->delivered_at);
    if (direct < 1.0) {
      continue;  // src == dst region; ratio meaningless
    }
    ratio_sum += RouteDistance(ctx->trace) / direct;
    ++counted;
  }
  return counted > 0 ? ratio_sum / counted : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "locality");
  PrintHeader("E4: route distance / direct proximity distance",
              "locality-aware Pastry: ~1.5x the direct distance");

  const std::vector<int> sizes =
      args.smoke ? std::vector<int>{200} : std::vector<int>{1000, 4000};
  const int lookups = args.smoke ? 50 : 400;
  std::printf("%10s %8s %18s %18s\n", "topology", "N", "locality ON",
              "locality OFF");

  struct Trial {
    TopologyKind kind;
    const char* name;
    int n;
  };
  std::vector<Trial> trials;
  for (auto [kind, name] : {std::make_pair(TopologyKind::kSphere, "sphere"),
                            std::make_pair(TopologyKind::kPlane, "plane")}) {
    for (int n : sizes) {
      trials.push_back({kind, name, n});
    }
  }

  struct TrialResult {
    double on = 0, off = 0;
    JsonValue metrics;
  };
  auto run = [&](size_t index) -> TrialResult {
    const Trial& t = trials[index];
    ExpOverlay with(t.n, 900 + static_cast<uint64_t>(t.n), /*locality=*/true,
                    /*randomized=*/false, t.kind);
    ExpOverlay without(t.n, 900 + static_cast<uint64_t>(t.n), /*locality=*/false,
                       /*randomized=*/false, t.kind);
    TrialResult r;
    r.on = MeasureRatio(&with, lookups);
    r.off = MeasureRatio(&without, lookups);
    r.metrics = with.overlay->network().metrics().ToJson();
    return r;
  };
  auto commit = [&](size_t index, TrialResult& r) {
    const Trial& t = trials[index];
    std::printf("%10s %8d %17.2fx %17.2fx\n", t.name, t.n, r.on, r.off);

    JsonValue row = JsonValue::Object();
    row.Set("topology", t.name);
    row.Set("n", t.n);
    row.Set("ratio_locality_on", r.on);
    row.Set("ratio_locality_off", r.off);
    json.AddRow("distance_ratio", std::move(row));
    json.SetMetricsJson(std::move(r.metrics));
  };

  TrialOptions trial_opts;
  trial_opts.threads = args.threads;
  std::vector<double> costs;
  for (const Trial& t : trials) {
    costs.push_back(static_cast<double>(t.n));
  }
  trial_opts.work_order = LargestFirstOrder(costs);
  RunTrials(trial_opts, trials.size(), run, commit);

  std::printf("\nThe ON column should sit near the paper's ~1.5x; the OFF\n");
  std::printf("ablation (random bootstrap, no proximity-based table slots)\n");
  std::printf("shows why the heuristics matter.\n");
  return json.Finish() ? 0 : 1;
}
