// E6 — Fault tolerance of routing.
//
// HotOS text: (a) "with concurrent node failures, eventual delivery is
// guaranteed unless floor(l/2) nodes with adjacent nodeIds fail
// simultaneously"; (b) "a randomized routing protocol ensures that a retried
// operation will eventually be routed around the malicious node"; (c) failed
// nodes are detected via timeouts and tables are repaired.
#include "bench/exp_util.h"

namespace {

using namespace past;

// Advances the simulation in 1 s steps after a crash, recording the first
// simulated second at which every live leaf set is exact.
struct ExactClock {
  Overlay* overlay;
  int elapsed_s = 0;
  int exact_at_s = -1;  // -1: not yet exact

  void Run(SimTime duration) {
    for (SimTime t = 0; t < duration; t += kMicrosPerSecond) {
      overlay->Run(kMicrosPerSecond);
      ++elapsed_s;
      if (exact_at_s < 0 && overlay->AuditLeafSets().exact()) {
        exact_at_s = elapsed_s;
      }
    }
  }
};

// Launches `count` lookups concurrently, runs the simulation for `window`,
// and returns (successes, avg hops of successful lookups).
std::pair<int, double> BatchLookups(Overlay* overlay, std::vector<ExpApp>* apps,
                                    int count, SimTime window, ExactClock* clock) {
  struct Query {
    U128 key;
    NodeAddr expected;
  };
  std::vector<Query> queries;
  for (int t = 0; t < count; ++t) {
    U128 key = overlay->RandomKey();
    PastryNode* expected = overlay->GloballyClosestLiveNode(key);
    overlay->RandomLiveNode()->Route(key, 1, {});
    queries.push_back({key, expected->addr()});
  }
  clock->Run(window);
  int ok = 0;
  double hops = 0;
  for (const Query& q : queries) {
    for (const DeliverContext& ctx : (*apps)[q.expected].delivered) {
      if (ctx.key == q.key) {
        ++ok;
        hops += static_cast<double>(ctx.trace.size());
        break;
      }
    }
  }
  for (auto& app : *apps) {
    app.delivered.clear();
  }
  return {ok, ok > 0 ? hops / ok : 0.0};
}

}  // namespace

int main(int argc, char** argv) {
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "fault_tolerance");
  const int kCrashN = args.smoke ? 200 : 600;
  const int kCrashLookups = args.smoke ? 50 : 200;
  PrintHeader("E6a: routing success under crash failures (l=32)",
              "delivery guaranteed unless floor(l/2)=16 adjacent nodes fail");

  std::printf("%12s %16s %16s %12s %14s %16s\n", "failed", "success (fresh)",
              "success (healed)", "avg hops", "leaf exact (s)", "notices/failure");
  const std::vector<double> crash_fracs = {0.05, 0.10, 0.20, 0.30};

  struct CrashResult {
    int ok_fresh = 0;
    int ok_healed = 0;
    double hops_healed = 0;
    int leaf_exact_s = -1;
    double notices_per_failure = 0;
    JsonValue metrics;
  };
  auto run_crash = [&](size_t index) -> CrashResult {
    const double frac = crash_fracs[index];
    OverlayOptions opts;
    opts.seed = 60 + static_cast<uint64_t>(frac * 100);
    opts.pastry.keep_alive_period = 1 * kMicrosPerSecond;
    opts.pastry.failure_timeout = 3 * kMicrosPerSecond;
    opts.pastry.death_quarantine = 6 * kMicrosPerSecond;
    Overlay overlay(opts);
    overlay.Build(kCrashN);
    std::vector<ExpApp> apps(overlay.size());
    for (size_t i = 0; i < overlay.size(); ++i) {
      overlay.node(i)->SetApp(&apps[i]);
    }
    Rng rng(5);
    int to_kill = static_cast<int>(kCrashN * frac);
    int killed = 0;
    while (killed < to_kill) {
      size_t victim = rng.UniformU64(overlay.size());
      if (overlay.node(victim)->active()) {
        overlay.node(victim)->Fail();
        ++killed;
      }
    }
    Counter* notices = overlay.network().metrics().GetCounter("pastry.failure_notices_sent");
    const uint64_t notices_before = notices->value();
    CrashResult r;
    ExactClock clock{&overlay};
    // Fresh: routed immediately after the crashes (per-hop acks must cope).
    double hops_fresh;
    std::tie(r.ok_fresh, hops_fresh) =
        BatchLookups(&overlay, &apps, kCrashLookups, 20 * kMicrosPerSecond, &clock);
    (void)hops_fresh;
    // Healed: after the repair protocols ran.
    clock.Run(30 * kMicrosPerSecond);
    std::tie(r.ok_healed, r.hops_healed) =
        BatchLookups(&overlay, &apps, kCrashLookups, 20 * kMicrosPerSecond, &clock);
    r.leaf_exact_s = clock.exact_at_s;
    r.notices_per_failure = static_cast<double>(notices->value() - notices_before) / killed;
    r.metrics = overlay.network().metrics().ToJson();
    return r;
  };
  auto commit_crash = [&](size_t index, CrashResult& r) {
    const double frac = crash_fracs[index];
    std::printf("%11.0f%% %15.1f%% %15.1f%% %12.2f %14d %16.1f\n", frac * 100,
                100.0 * r.ok_fresh / kCrashLookups,
                100.0 * r.ok_healed / kCrashLookups, r.hops_healed, r.leaf_exact_s,
                r.notices_per_failure);

    JsonValue row = JsonValue::Object();
    row.Set("failed_frac", frac);
    row.Set("success_fresh", static_cast<double>(r.ok_fresh) / kCrashLookups);
    row.Set("success_healed", static_cast<double>(r.ok_healed) / kCrashLookups);
    row.Set("avg_hops_healed", r.hops_healed);
    // First simulated second after the crash at which every live leaf set was
    // exact (-1: not within the 70 s the row runs).
    row.Set("leaf_exact_s", r.leaf_exact_s);
    row.Set("notices_per_failure", r.notices_per_failure);
    json.AddRow("crash_failures", std::move(row));
    json.SetMetricsJson(std::move(r.metrics));
  };

  TrialOptions trial_opts;
  trial_opts.threads = args.threads;
  RunTrials(trial_opts, crash_fracs.size(), run_crash, commit_crash);

  const int kMalN = args.smoke ? 150 : 300;
  const int kQueries = args.smoke ? 40 : 150;
  PrintHeader("E6b: client retries vs malicious forwarders",
              "randomized routing lets a retried query evade bad nodes");
  std::printf("%12s %14s %22s %22s\n", "malicious", "retries", "deterministic",
              "randomized");
  const std::vector<double> mal_fracs = {0.1, 0.2};
  const int retry_budgets[3] = {1, 3, 8};

  struct MalResult {
    double success[2][3] = {};  // [mode][retry_budget]
  };
  auto run_mal = [&](size_t index) -> MalResult {
    const double frac = mal_fracs[index];
    MalResult r;
    for (int mode = 0; mode < 2; ++mode) {
      OverlayOptions opts;
      opts.seed = 77;
      opts.pastry.keep_alive_period = 0;  // no failures here, only droppers
      opts.pastry.per_hop_acks = false;   // malicious nodes ack but drop
      opts.pastry.randomized_routing = mode == 1;
      opts.pastry.randomize_epsilon = 0.3;
      Overlay overlay(opts);
      overlay.Build(kMalN);
      std::vector<ExpApp> apps(overlay.size());
      for (size_t i = 0; i < overlay.size(); ++i) {
        overlay.node(i)->SetApp(&apps[i]);
      }
      Rng rng(123);
      for (size_t i = 0; i < overlay.size(); ++i) {
        if (rng.Bernoulli(frac)) {
          overlay.node(i)->SetMalicious(true);
        }
      }
      // Pick honest (src, key) pairs.
      struct Query {
        PastryNode* src;
        U128 key;
        NodeAddr expected;
        bool reached = false;
      };
      std::vector<Query> queries;
      while (static_cast<int>(queries.size()) < kQueries) {
        U128 key = overlay.RandomKey();
        PastryNode* expected = overlay.GloballyClosestLiveNode(key);
        PastryNode* src = overlay.RandomLiveNode();
        if (src->malicious() || expected->malicious() || src == expected) {
          continue;
        }
        queries.push_back({src, key, expected->addr(), false});
      }
      // Retry rounds; record success at each budget.
      for (int round = 0; round < retry_budgets[2]; ++round) {
        for (Query& q : queries) {
          if (!q.reached) {
            q.src->Route(q.key, 1, {});
          }
        }
        overlay.RunAll();
        for (Query& q : queries) {
          for (const DeliverContext& ctx : apps[q.expected].delivered) {
            if (ctx.key == q.key) {
              q.reached = true;
              break;
            }
          }
        }
        for (auto& app : apps) {
          app.delivered.clear();
        }
        for (int b = 0; b < 3; ++b) {
          if (round + 1 == retry_budgets[b]) {
            int ok = 0;
            for (const Query& q : queries) {
              ok += q.reached ? 1 : 0;
            }
            r.success[mode][b] = 100.0 * ok / kQueries;
          }
        }
      }
    }
    return r;
  };
  auto commit_mal = [&](size_t index, MalResult& r) {
    const double frac = mal_fracs[index];
    for (int b = 0; b < 3; ++b) {
      std::printf("%11.0f%% %14d %21.1f%% %21.1f%%\n", frac * 100,
                  retry_budgets[b], r.success[0][b], r.success[1][b]);

      JsonValue row = JsonValue::Object();
      row.Set("malicious_frac", frac);
      row.Set("retries", retry_budgets[b]);
      row.Set("success_deterministic", r.success[0][b] / 100.0);
      row.Set("success_randomized", r.success[1][b] / 100.0);
      json.AddRow("malicious_forwarders", std::move(row));
    }
  };
  RunTrials(trial_opts, mal_fracs.size(), run_mal, commit_mal);

  std::printf("\nWith retries, the randomized column should rise toward 100%%\n");
  std::printf("while deterministic routing keeps failing on the same path.\n");
  return json.Finish() ? 0 : 1;
}
