// Shared helpers for the experiment binaries.
//
// Each exp_*.cc binary regenerates one table/figure-equivalent from the
// paper's evaluation claims (see DESIGN.md section 4 and EXPERIMENTS.md) and
// prints it in a fixed-width table with the paper's expectation alongside.
//
// Every binary also accepts:
//   --json <path>   additionally write a machine-readable BENCH_*.json
//                   document: {"experiment", "results", "metrics"} where
//                   "metrics" is the final MetricsRegistry dump
//   --smoke         shrink the workload to seconds (used by the bench_smoke
//                   ctest); results are structurally complete but not
//                   statistically meaningful
//   --threads <n>   fan independent trials across n worker threads
//                   (default: hardware_concurrency; 1 = fully sequential).
//                   Output is byte-identical regardless of n.
//   --trace-out <path>  write the operation-span trace of the run's
//                   representative simulation as {"experiment", "spans",
//                   "dropped"}; tools/past_stats --chrome converts it to
//                   Chrome trace-event JSON. Binaries without span sources
//                   reject the flag.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/mutex.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/pastry/overlay.h"
#include "src/storage/past_network.h"

namespace past {

// Resolves a --threads argument: 0 means "use every hardware thread".
inline int ResolveThreads(int threads) {
  if (threads > 0) {
    return threads;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

// Command-line contract shared by every exp_* binary.
struct ExpArgs {
  std::string json_path;   // empty: no JSON output
  std::string trace_path;  // empty: tracing off
  bool smoke = false;
  int threads = 0;  // 0 = hardware_concurrency

  static ExpArgs Parse(int argc, char** argv) {
    ExpArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        args.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
        args.trace_path = argv[++i];
      } else if (std::strcmp(argv[i], "--smoke") == 0) {
        args.smoke = true;
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        args.threads = std::atoi(argv[++i]);
        if (args.threads < 0) {
          std::fprintf(stderr, "--threads must be >= 0\n");
          std::exit(2);
        }
      } else {
        std::fprintf(stderr,
                     "usage: %s [--json <path>] [--trace-out <path>] [--smoke]"
                     " [--threads <n>]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    return args;
  }
};

// Single-producer-slot commit queue between trial workers and the committing
// thread: workers Push() results keyed by trial index, the caller Take()s
// them strictly in ascending index order. Lock discipline over the slots is
// declared with PAST_GUARDED_BY and checked at compile time under Clang
// (-Wthread-safety); see src/common/mutex.h.
template <typename Result>
class TrialCommitQueue {
 public:
  explicit TrialCommitQueue(size_t count) : done_(count) {}

  // Worker side: deposit the finished trial and wake the committer.
  void Push(size_t index, Result r) PAST_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      done_[index].emplace(std::move(r));
    }
    cv_.NotifyOne();
  }

  // Committer side: block until trial `index` is deposited, then claim it.
  Result Take(size_t index) PAST_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!done_[index].has_value()) {
      cv_.Wait(&mu_);
    }
    Result r = std::move(*done_[index]);
    done_[index].reset();
    return r;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::vector<std::optional<Result>> done_ PAST_GUARDED_BY(mu_);
};

// Execution policy for RunTrials().
struct TrialOptions {
  int threads = 1;  // 0 = hardware_concurrency
  // Optional execution-order permutation of [0, count) — e.g. largest trial
  // first to minimize makespan. Commit order is always ascending trial
  // index, so the permutation cannot affect output.
  std::vector<size_t> work_order;
};

// Fans `count` independent trials across a worker pool and commits results
// strictly in trial-index order, making stdout and --json output
// byte-identical to a sequential run.
//
// Contract:
//   - run(index) executes on a worker thread (or inline when threads == 1).
//     It must build its own fully isolated simulation stack — EventQueue,
//     Topology, Network, MetricsRegistry all live inside Overlay /
//     PastNetwork instances constructed inside the callback — and must not
//     print or touch any shared mutable state.
//   - commit(index, result) executes on the calling thread, in ascending
//     index order; all printing and ExpJson recording belongs here.
//
// With threads == 1 (or a single trial) this degenerates to a plain inline
// loop: no pool, no buffering — exactly the pre-parallel behavior.
template <typename RunFn, typename CommitFn>
void RunTrials(const TrialOptions& options, size_t count, RunFn run,
               CommitFn commit) {
  using Result = std::invoke_result_t<RunFn&, size_t>;
  const int threads = ResolveThreads(options.threads);
  if (threads == 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      Result r = run(i);
      commit(i, r);
    }
    return;
  }

  std::vector<size_t> order = options.work_order;
  if (order.empty()) {
    order.resize(count);
    for (size_t i = 0; i < count; ++i) {
      order[i] = i;
    }
  }

  TrialCommitQueue<Result> queue(count);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    while (true) {
      size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= order.size()) {
        return;
      }
      size_t index = order[slot];
      queue.Push(index, run(index));
    }
  };
  std::vector<std::thread> pool;
  size_t n_workers = std::min(static_cast<size_t>(threads), count);
  pool.reserve(n_workers);
  for (size_t t = 0; t < n_workers; ++t) {
    pool.emplace_back(worker);
  }
  for (size_t i = 0; i < count; ++i) {
    Result r = queue.Take(i);
    commit(i, r);
  }
  for (auto& t : pool) {
    t.join();
  }
}

// Convenience: descending-cost execution order for trials whose relative
// costs are known up front (largest first minimizes makespan).
inline std::vector<size_t> LargestFirstOrder(const std::vector<double>& costs) {
  std::vector<size_t> order(costs.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&costs](size_t a, size_t b) {
    return costs[a] > costs[b];
  });
  return order;
}

// Accumulates an experiment's machine-readable output and writes it on
// Finish(). With no --json flag every call is a cheap no-op, so experiment
// code records rows unconditionally.
class ExpJson {
 public:
  ExpJson(const ExpArgs& args, const char* experiment)
      : path_(args.json_path), root_(JsonValue::Object()) {
    root_.Set("experiment", experiment);
    root_.Set("smoke", args.smoke);
    root_.Set("results", JsonValue::Object());
  }

  bool enabled() const { return !path_.empty(); }

  // Appends `row` to the "results.<section>" array.
  void AddRow(const char* section, JsonValue row) {
    if (!enabled()) {
      return;
    }
    JsonValue* results = MutableResults();
    const JsonValue* existing = results->Find(section);
    JsonValue array = existing != nullptr ? *existing : JsonValue::Array();
    array.Append(std::move(row));
    results->Set(section, std::move(array));
  }

  // Sets "results.<key>" directly (summary scalars or nested objects).
  void Set(const char* key, JsonValue value) {
    if (!enabled()) {
      return;
    }
    MutableResults()->Set(key, std::move(value));
  }

  // Snapshots a registry into the top-level "metrics" member. Typically
  // called once, on the final (largest) simulation of the run.
  void SetMetrics(const MetricsRegistry& metrics) {
    if (!enabled()) {
      return;
    }
    root_.Set("metrics", metrics.ToJson());
  }

  // Same, but from an already-dumped snapshot — used by parallel trials,
  // where the registry dies with the worker's simulation stack and only the
  // JSON dump travels back to the committing thread.
  void SetMetricsJson(JsonValue metrics) {
    if (!enabled()) {
      return;
    }
    root_.Set("metrics", std::move(metrics));
  }

  // Writes the document. Returns false (and prints to stderr) on I/O error.
  bool Finish() {
    if (!enabled()) {
      return true;
    }
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
      return false;
    }
    out << root_.Dump(2) << "\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "failed writing %s\n", path_.c_str());
      return false;
    }
    std::printf("\nwrote %s\n", path_.c_str());
    return true;
  }

 private:
  JsonValue* MutableResults() {
    // Find() is const; members are stable, so the cast is safe here.
    return const_cast<JsonValue*>(root_.Find("results"));
  }

  std::string path_;
  JsonValue root_;
};

// Writes a --trace-out span dump: {"experiment", "spans": [...], "dropped"}.
// Like ExpJson, a no-op when the flag was not given, and the spans can come
// either from a live Tracer or from an already-dumped JSON array (parallel
// trials ship the dump back to the committing thread).
class ExpTrace {
 public:
  ExpTrace(const ExpArgs& args, const char* experiment)
      : path_(args.trace_path), experiment_(experiment),
        spans_(JsonValue::Array()) {}

  bool enabled() const { return !path_.empty(); }

  void SetSpans(const Tracer& tracer) {
    if (enabled()) {
      spans_ = tracer.SpansJson();
      dropped_ = tracer.dropped();
    }
  }
  void SetSpansJson(JsonValue spans, uint64_t dropped) {
    if (enabled()) {
      spans_ = std::move(spans);
      dropped_ = dropped;
    }
  }

  bool Finish() {
    if (!enabled()) {
      return true;
    }
    JsonValue root = JsonValue::Object();
    root.Set("experiment", experiment_);
    root.Set("spans", std::move(spans_));
    root.Set("dropped", dropped_);
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
      return false;
    }
    out << root.Dump(2) << "\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "failed writing %s\n", path_.c_str());
      return false;
    }
    std::printf("wrote %s\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
  const char* experiment_;
  JsonValue spans_;
  uint64_t dropped_ = 0;
};

// Records deliveries for routing experiments.
struct ExpApp : public PastryApp {
  std::vector<DeliverContext> delivered;
  void Deliver(const DeliverContext& ctx, ByteSpan) override {
    delivered.push_back(ctx);
  }
};

// An overlay with ExpApps attached to every node and heartbeats disabled
// (routing experiments run without failures, so the queue can drain fully).
class ExpOverlay {
 public:
  ExpOverlay(int n, uint64_t seed, bool locality = true, bool randomized = false,
             TopologyKind topology = TopologyKind::kSphere) {
    OverlayOptions opts;
    opts.seed = seed;
    opts.topology = topology;
    opts.pastry.keep_alive_period = 0;
    opts.pastry.locality_aware = locality;
    opts.pastry.randomized_routing = randomized;
    opts.nearest_bootstrap = locality;
    opts.network.expected_endpoints = static_cast<size_t>(n);
    overlay = std::make_unique<Overlay>(opts);
    overlay->Build(n);
    AttachApps();
  }

  void AttachApps() {
    apps.resize(overlay->size());
    for (size_t i = 0; i < overlay->size(); ++i) {
      overlay->node(i)->SetApp(&apps[i]);
    }
  }

  // Routes one message from a random node and returns the delivery context.
  std::optional<DeliverContext> RouteOnce(const U128& key, PastryNode* src = nullptr,
                                          uint8_t replica_k = 0) {
    if (src == nullptr) {
      src = overlay->RandomLiveNode();
    }
    src->Route(key, 1, {}, replica_k);
    overlay->RunAll();
    std::optional<DeliverContext> result;
    for (auto& app : apps) {
      if (!app.delivered.empty()) {
        result = app.delivered.back();
        app.delivered.clear();
      }
    }
    return result;
  }

  std::unique_ptr<Overlay> overlay;
  std::vector<ExpApp> apps;
};

inline double Log16(double n) { return std::log(n) / std::log(16.0); }

inline void PrintHeader(const char* title, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

// Percentile of a sorted vector.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

}  // namespace past

