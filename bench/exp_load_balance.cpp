// E11 — Statistical storage load balance.
//
// HotOS text, Section 2: "(3) the number of files assigned to each node is
// roughly balanced", following "from the uniformly distributed, quasi-random
// identifiers assigned to each node and file". This measures the per-node
// file-count and byte distributions after a large insertion workload.
#include "bench/exp_util.h"
#include "src/workload/workload.h"

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "load_balance");
  PrintHeader("E11: per-node storage load after a large insert workload (k=3)",
              "uniform nodeIds/fileIds keep the number of files per node "
              "roughly balanced");

  PastNetworkOptions options;
  options.overlay.seed = 11001;
  options.overlay.pastry.keep_alive_period = 0;
  options.broker.modulus_pool = 8;
  options.past.cache_policy = CachePolicy::kNone;
  options.past.default_replication = 3;
  options.past.request_timeout = 10 * kMicrosPerSecond;
  options.default_node_capacity = 64 << 20;  // ample: isolate placement, not policy
  options.default_user_quota = ~0ULL >> 2;
  PastNetwork net(options);
  const int kNodes = args.smoke ? 60 : 200;
  net.Build(kNodes);

  Rng rng(5);
  FileSizeModel sizes;
  sizes.max_size = 64 << 10;
  const int kFiles = args.smoke ? 300 : 2000;
  int accepted = 0;
  for (int i = 0; i < kFiles; ++i) {
    auto r = net.InsertSyntheticSync(net.RandomLiveNode(), "lb-" + std::to_string(i),
                                     sizes.Sample(&rng), 3);
    accepted += r.ok() ? 1 : 0;
  }

  std::vector<double> file_counts, bytes;
  for (size_t i = 0; i < net.size(); ++i) {
    file_counts.push_back(static_cast<double>(net.node(i)->store().file_count()));
    bytes.push_back(static_cast<double>(net.node(i)->store().used()));
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) {
      s += x;
    }
    return s / static_cast<double>(v.size());
  };
  auto cv = [&](const std::vector<double>& v) {
    double m = mean(v);
    double var = 0;
    for (double x : v) {
      var += (x - m) * (x - m);
    }
    var /= static_cast<double>(v.size());
    return std::sqrt(var) / m;
  };

  double expect_mean = 3.0 * accepted / kNodes;
  std::printf("inserted %d files x 3 replicas over %d nodes\n", accepted, kNodes);
  std::printf("\n%18s %10s %10s %10s %10s %8s\n", "metric", "p5", "median", "p95",
              "max", "CV");
  std::printf("%18s %10.1f %10.1f %10.1f %10.1f %8.2f\n", "files per node",
              Percentile(file_counts, 0.05), Percentile(file_counts, 0.5),
              Percentile(file_counts, 0.95), Percentile(file_counts, 1.0),
              cv(file_counts));
  std::printf("%18s %10.0f %10.0f %10.0f %10.0f %8.2f\n", "bytes per node",
              Percentile(bytes, 0.05), Percentile(bytes, 0.5),
              Percentile(bytes, 0.95), Percentile(bytes, 1.0), cv(bytes));

  for (const auto& [name, values] :
       {std::make_pair("files_per_node", &file_counts),
        std::make_pair("bytes_per_node", &bytes)}) {
    JsonValue row = JsonValue::Object();
    row.Set("metric", name);
    row.Set("p5", Percentile(*values, 0.05));
    row.Set("median", Percentile(*values, 0.5));
    row.Set("p95", Percentile(*values, 0.95));
    row.Set("max", Percentile(*values, 1.0));
    row.Set("cv", cv(*values));
    json.AddRow("load_distribution", std::move(row));
  }
  json.Set("accepted_inserts", JsonValue(accepted));
  json.SetMetrics(net.overlay().network().metrics());
  std::printf("\nMean: %.1f files/node. Reference band for the CV: pure\n", expect_mean);
  std::printf("balls-into-bins would give ~%.2f; k-closest placement inherits the\n",
              1.0 / std::sqrt(expect_mean));
  std::printf("exponential spread of id-space arcs, smoothed over k=3 arcs,\n");
  std::printf("~%.2f. A measured CV inside that band is the paper's \"roughly\n",
              1.0 / std::sqrt(3.0));
  std::printf("balanced\"; byte loads are wider because sizes are heavy-tailed\n");
  std::printf("(E7's storage management, not placement, evens those out).\n");
  return json.Finish() ? 0 : 1;
}
