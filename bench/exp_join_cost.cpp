// E3 — Cost of node arrival.
//
// HotOS text: "after a node failure or the arrival of a new node, the
// invariants in all affected routing tables can be restored by exchanging
// O(log_2b N) messages".
#include "bench/exp_util.h"

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "join_cost");
  PrintHeader("E3: messages exchanged per node join vs N",
              "join restores invariants with O(log_16 N) messages");

  std::printf("%8s %14s %14s %16s\n", "N", "msgs/join", "log16 N",
              "msgs / log16 N");
  const std::vector<int> sizes =
      args.smoke ? std::vector<int>{128, 256} : std::vector<int>{128, 512, 2048, 8192};

  struct TrialResult {
    uint64_t per_join = 0;
    JsonValue metrics;
  };

  auto run = [&](size_t index) -> TrialResult {
    const int n = sizes[index];
    ExpOverlay net(n, 4242);
    // Average over a batch of joins at this size.
    const int joins = args.smoke ? 5 : 20;
    const Counter* sent = net.overlay->network().metrics().FindCounter("net.sent");
    const uint64_t before = sent->value();
    for (int j = 0; j < joins; ++j) {
      net.overlay->AddNode();
    }
    TrialResult r;
    r.per_join = (sent->value() - before) / static_cast<uint64_t>(joins);
    r.metrics = net.overlay->network().metrics().ToJson();
    return r;
  };
  auto commit = [&](size_t index, TrialResult& r) {
    const int n = sizes[index];
    std::printf("%8d %14llu %14.2f %16.1f\n", n,
                static_cast<unsigned long long>(r.per_join), Log16(n),
                static_cast<double>(r.per_join) / Log16(n));

    JsonValue row = JsonValue::Object();
    row.Set("n", n);
    row.Set("msgs_per_join", r.per_join);
    row.Set("msgs_per_log16n", static_cast<double>(r.per_join) / Log16(n));
    json.AddRow("join_cost_vs_n", std::move(row));
    json.SetMetricsJson(std::move(r.metrics));
  };

  TrialOptions trial_opts;
  trial_opts.threads = args.threads;
  std::vector<double> costs(sizes.begin(), sizes.end());
  trial_opts.work_order = LargestFirstOrder(costs);
  RunTrials(trial_opts, sizes.size(), run, commit);

  std::printf("\nThe msgs/log16N column should stay roughly constant: join\n");
  std::printf("traffic = rows from each of ~log16 N path hops + leaf set +\n");
  std::printf("neighborhood handover + announcements to every state entry.\n");
  return json.Finish() ? 0 : 1;
}
