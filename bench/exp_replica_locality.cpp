// E5 — Which replica does a lookup reach first?
//
// HotOS text: "among 5 replicated copies of a file, Pastry is able to find
// the 'nearest' copy in 76% of all lookups and it finds one of the two
// 'nearest' copies in 92% of all lookups" (ref [11]).
#include <algorithm>

#include "bench/exp_util.h"

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "replica_locality");
  PrintHeader("E5: proximity rank of the first replica reached (k=5)",
              "nearest replica reached in ~76% of lookups; one of the two "
              "nearest in ~92%");

  const int kN = args.smoke ? 300 : 4000;
  const int kReplicas = 5;
  const int kFiles = args.smoke ? 30 : 300;
  const int kLookupsPerFile = args.smoke ? 2 : 4;

  ExpOverlay net(kN, 31337);
  Overlay& overlay = *net.overlay;

  std::vector<int> rank_counts(kReplicas + 1, 0);
  int total = 0;
  Rng rng(7);

  for (int f = 0; f < kFiles; ++f) {
    U128 file_key = overlay.RandomKey();
    // The replica set: the k live nodes numerically closest to the key
    // (exactly where PAST stores the file).
    std::vector<std::pair<U128, PastryNode*>> ranked;
    for (size_t i = 0; i < overlay.size(); ++i) {
      ranked.emplace_back(overlay.node(i)->id().RingDistance(file_key),
                          overlay.node(i));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<PastryNode*> replicas;
    for (int i = 0; i < kReplicas; ++i) {
      replicas.push_back(ranked[static_cast<size_t>(i)].second);
    }

    for (int l = 0; l < kLookupsPerFile; ++l) {
      PastryNode* client = overlay.node(rng.PickIndex(overlay.size()));
      // Route as a PAST lookup: deliverable at any of the k replica holders.
      auto ctx = net.RouteOnce(file_key, client, kReplicas);
      if (!ctx.has_value()) {
        continue;
      }
      // The node that served the lookup is the first replica holder reached:
      // a decider on the route, or else the delivering node.
      std::vector<NodeAddr> reached;
      for (const RouteHop& hop : ctx->trace) {
        reached.push_back(hop.node);
      }
      reached.push_back(ctx->delivered_at);
      PastryNode* serving = nullptr;
      for (NodeAddr addr : reached) {
        for (PastryNode* r : replicas) {
          if (r->addr() == addr) {
            serving = r;
            break;
          }
        }
        if (serving != nullptr) {
          break;
        }
      }
      if (serving == nullptr) {
        continue;  // delivered at a (k+1)-closest node due to a leaf-view edge
      }
      // Rank the serving replica by proximity to the client.
      std::vector<std::pair<double, PastryNode*>> by_proximity;
      for (PastryNode* r : replicas) {
        by_proximity.emplace_back(overlay.network().Proximity(client->addr(), r->addr()),
                                  r);
      }
      std::sort(by_proximity.begin(), by_proximity.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (int rank = 0; rank < kReplicas; ++rank) {
        if (by_proximity[static_cast<size_t>(rank)].second == serving) {
          rank_counts[static_cast<size_t>(rank)]++;
          ++total;
          break;
        }
      }
    }
  }

  std::printf("N=%d, %d files x %d lookups (%d classified)\n", kN, kFiles,
              kLookupsPerFile, total);
  std::printf("%22s %10s %12s\n", "replica reached", "share", "cumulative");
  double cumulative = 0;
  const char* labels[] = {"nearest", "2nd nearest", "3rd nearest", "4th nearest",
                          "5th nearest"};
  for (int rank = 0; rank < kReplicas; ++rank) {
    double share = 100.0 * rank_counts[static_cast<size_t>(rank)] / total;
    cumulative += share;
    std::printf("%22s %9.1f%% %11.1f%%\n", labels[rank], share, cumulative);

    JsonValue row = JsonValue::Object();
    row.Set("rank", rank + 1);
    row.Set("share", share / 100.0);
    row.Set("cumulative", cumulative / 100.0);
    json.AddRow("replica_rank", std::move(row));
  }
  json.Set("classified_lookups", JsonValue(total));
  json.SetMetrics(overlay.network().metrics());
  std::printf("\nPaper reference points: nearest 76%%, one-of-two-nearest 92%%.\n");
  return json.Finish() ? 0 : 1;
}
