// Trace replay — reproducible workloads as an artifact.
//
// Generates a mixed operation trace (inserts, Zipf lookups, reclaims,
// churn), serializes it to a diff-friendly text file, parses it back, and
// replays it against a PAST network. The same trace file can be replayed
// against different configurations to compare policies.
//
//   $ ./examples/trace_replay [trace-file]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/workload/replay.h"

using namespace past;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "/tmp/past-demo.trace";

  // 1. Generate and save a trace.
  Rng rng(20260704);
  TraceWorkloadOptions workload;
  workload.operations = 200;
  workload.clients = 40;
  workload.churn_weight = 0.04;
  workload.sizes.max_size = 16 << 10;
  Trace trace = GenerateTrace(workload, &rng);
  {
    std::ofstream out(path);
    out << trace.Serialize();
  }
  std::printf("wrote %zu operations (%zu inserts) to %s\n", trace.size(),
              trace.InsertCount(), path);

  // 2. Load it back (what a user replaying a shipped trace would do).
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<Trace> loaded = Trace::Parse(buffer.str());
  if (!loaded.ok()) {
    std::printf("failed to parse %s: %s\n", path, StatusCodeName(loaded.status()));
    return 1;
  }

  // 3. Replay against two configurations: caching on vs off.
  for (bool caching : {true, false}) {
    PastNetworkOptions options;
    options.overlay.seed = 99;
    options.broker.modulus_pool = 4;
    options.overlay.pastry.keep_alive_period = 1 * kMicrosPerSecond;
    options.overlay.pastry.failure_timeout = 3 * kMicrosPerSecond;
    options.overlay.pastry.death_quarantine = 6 * kMicrosPerSecond;
    options.past.cache_policy =
        caching ? CachePolicy::kGreedyDualSize : CachePolicy::kNone;
    PastNetwork net(options);
    net.Build(40);

    ReplayResult result = ReplayTrace(loaded.value(), &net);
    const uint64_t cache_hits =
        net.overlay().network().metrics().FindCounter("cache.hits")->value();
    std::printf(
        "\nreplay with caching %s:\n"
        "  inserts   %d ok / %d failed\n"
        "  lookups   %d ok / %d failed / %d skipped (reclaimed)\n"
        "  reclaims  %d ok\n"
        "  churn     %d crashes, %d joins\n"
        "  cache     %llu hits across the network\n",
        caching ? "ON " : "OFF", result.inserts_ok, result.inserts_failed,
        result.lookups_ok, result.lookups_failed, result.lookups_skipped,
        result.reclaims_ok, result.crashes, result.joins,
        static_cast<unsigned long long>(cache_hits));
  }
  std::printf("\nIdentical trace, different policies: the text file is the\n");
  std::printf("reproducible unit of comparison.\n");
  return 0;
}
