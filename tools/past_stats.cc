// past_stats — offline reader for experiment --json and --trace-out dumps.
//
// Subcommands:
//   past_stats summary <exp.json>
//       Prints the quantile table of every log-histogram in the dump's
//       "metrics" section (count, p50/p90/p99/p999, mean, max) and the
//       per-rule routing-hop breakdown from the pastry.route.rule.* counters.
//   past_stats trace <trace.json>
//       Prints a per-name span summary (count, total/mean duration) of a
//       --trace-out dump, plus the dropped-span count.
//   past_stats chrome <trace.json> <out.json>
//       Converts a --trace-out dump to Chrome trace-event JSON (complete
//       "X" events, microsecond timestamps) loadable in Perfetto or
//       chrome://tracing. Spans keep their id/parent/trace_id and
//       annotations in "args"; the recording node becomes the tid.
//   past_stats layers <include-graph.json>
//       Renders the layer-DAG include graph that `past_lint --graph-out`
//       emits: one row per architecture layer with rank, group, include
//       fan-out/fan-in, and suppressed (lint:allow-layer) edge counts, plus
//       the total back-edge count (0 in a clean tree).
//
// Output is a pure function of the input file (no clocks, no locale), so
// ctest can diff it byte-for-byte across runs and thread counts.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"

namespace past {
namespace {

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "past_stats: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool LoadJson(const char* path, JsonValue* doc) {
  std::string text;
  if (!ReadFile(path, &text)) {
    return false;
  }
  if (!JsonValue::Parse(text, doc)) {
    std::fprintf(stderr, "past_stats: %s is not valid JSON\n", path);
    return false;
  }
  return true;
}

double Num(const JsonValue* v) { return v != nullptr && v->is_number() ? v->AsDouble() : 0.0; }

// --- summary ----------------------------------------------------------------

int Summary(const char* path) {
  JsonValue doc;
  if (!LoadJson(path, &doc)) {
    return 1;
  }
  const JsonValue* experiment = doc.Find("experiment");
  std::printf("experiment: %s\n",
              experiment != nullptr && experiment->is_string()
                  ? experiment->AsString().c_str()
                  : "?");

  const JsonValue* log_hists = doc.FindPath("metrics/log_histograms");
  if (log_hists != nullptr && log_hists->is_object() &&
      !log_hists->members().empty()) {
    std::printf("\n%-28s %10s %10s %10s %10s %10s %12s %12s\n", "latency/value",
                "count", "p50", "p90", "p99", "p999", "mean", "max");
    for (const auto& [name, h] : log_hists->members()) {
      std::printf("%-28s %10.0f %10.1f %10.1f %10.1f %10.1f %12.1f %12.1f\n",
                  name.c_str(), Num(h.Find("count")), Num(h.Find("p50")),
                  Num(h.Find("p90")), Num(h.Find("p99")), Num(h.Find("p999")),
                  Num(h.Find("mean")), Num(h.Find("max")));
    }
  } else {
    std::printf("\n(no log_histograms section in %s)\n", path);
  }

  const JsonValue* counters = doc.FindPath("metrics/counters");
  if (counters != nullptr && counters->is_object()) {
    constexpr const char* kRulePrefix = "pastry.route.rule.";
    double total = 0.0;
    std::vector<std::pair<std::string, double>> rules;
    for (const auto& [name, v] : counters->members()) {
      if (name.rfind(kRulePrefix, 0) == 0) {
        rules.emplace_back(name.substr(std::strlen(kRulePrefix)), Num(&v));
        total += Num(&v);
      }
    }
    if (!rules.empty() && total > 0.0) {
      std::printf("\nrouting-hop attribution (%0.f hops):\n", total);
      for (const auto& [rule, count] : rules) {
        std::printf("  %-18s %10.0f  %5.1f%%\n", rule.c_str(), count,
                    100.0 * count / total);
      }
    }
  }

  const JsonValue* timeseries = doc.FindPath("results/timeseries");
  if (timeseries != nullptr && timeseries->is_array()) {
    std::printf("\ntimeseries: %zu rows", timeseries->size());
    if (timeseries->size() > 0) {
      const JsonValue& last = timeseries->at(timeseries->size() - 1);
      std::printf(" (t = %.0f us at last row)", Num(last.Find("t_us")));
    }
    std::printf("\n");
  }
  return 0;
}

// --- trace ------------------------------------------------------------------

const JsonValue* SpansOf(const JsonValue& doc, const char* path) {
  const JsonValue* spans = doc.Find("spans");
  if (spans == nullptr || !spans->is_array()) {
    std::fprintf(stderr, "past_stats: %s has no \"spans\" array\n", path);
    return nullptr;
  }
  return spans;
}

int TraceSummary(const char* path) {
  JsonValue doc;
  if (!LoadJson(path, &doc)) {
    return 1;
  }
  const JsonValue* spans = SpansOf(doc, path);
  if (spans == nullptr) {
    return 1;
  }
  struct NameStats {
    uint64_t count = 0;
    double total_us = 0.0;
  };
  std::map<std::string, NameStats> by_name;  // sorted for stable output
  for (const JsonValue& s : spans->items()) {
    const JsonValue* name = s.Find("name");
    if (name == nullptr || !name->is_string()) {
      continue;
    }
    NameStats& st = by_name[name->AsString()];
    ++st.count;
    st.total_us += Num(s.Find("end_us")) - Num(s.Find("start_us"));
  }
  std::printf("%zu spans, %.0f dropped\n", spans->size(),
              Num(doc.Find("dropped")));
  std::printf("%-24s %10s %14s %14s\n", "span", "count", "total_us", "mean_us");
  for (const auto& [name, st] : by_name) {
    std::printf("%-24s %10llu %14.0f %14.1f\n", name.c_str(),
                static_cast<unsigned long long>(st.count), st.total_us,
                st.total_us / static_cast<double>(st.count));
  }
  return 0;
}

// --- chrome conversion ------------------------------------------------------

int Chrome(const char* in_path, const char* out_path) {
  JsonValue doc;
  if (!LoadJson(in_path, &doc)) {
    return 1;
  }
  const JsonValue* spans = SpansOf(doc, in_path);
  if (spans == nullptr) {
    return 1;
  }
  JsonValue events = JsonValue::Array();
  for (const JsonValue& s : spans->items()) {
    const JsonValue* name = s.Find("name");
    if (name == nullptr || !name->is_string()) {
      continue;
    }
    const std::string& full = name->AsString();
    JsonValue ev = JsonValue::Object();
    ev.Set("name", full);
    // Category = the layer prefix ("past", "pastry"), so the viewer can
    // filter by layer.
    ev.Set("cat", full.substr(0, full.find('.')));
    ev.Set("ph", "X");  // complete event: ts + dur, both microseconds
    ev.Set("ts", Num(s.Find("start_us")));
    ev.Set("dur", Num(s.Find("end_us")) - Num(s.Find("start_us")));
    ev.Set("pid", 0);
    ev.Set("tid", Num(s.Find("node")));
    JsonValue args = JsonValue::Object();
    args.Set("id", Num(s.Find("id")));
    args.Set("parent", Num(s.Find("parent")));
    args.Set("trace_id", Num(s.Find("trace_id")));
    if (const JsonValue* ann = s.Find("annotations");
        ann != nullptr && ann->is_object()) {
      for (const auto& [key, value] : ann->members()) {
        args.Set(key, value);
      }
    }
    ev.Set("args", std::move(args));
    events.Append(std::move(ev));
  }
  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", "ms");
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "past_stats: cannot open %s for writing\n", out_path);
    return 1;
  }
  out << root.Dump(2) << "\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "past_stats: failed writing %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s (%zu events)\n", out_path,
              root.Find("traceEvents")->size());
  return 0;
}

// --- layer-DAG include graph ------------------------------------------------

// Renders the include graph past_lint --graph-out emits: one row per
// architecture layer with its file fan-out/fan-in and any surviving
// back-edges (allowed=false should be impossible in a clean tree — the lint
// gate fails first — but the reader still surfaces them).
int Layers(const char* path) {
  JsonValue doc;
  if (!LoadJson(path, &doc)) {
    return 1;
  }
  const JsonValue* layers = doc.Find("layers");
  const JsonValue* edges = doc.Find("edges");
  if (layers == nullptr || !layers->is_array() || edges == nullptr ||
      !edges->is_array()) {
    std::fprintf(stderr,
                 "past_stats: %s has no layers/edges arrays (emit it with "
                 "past_lint --graph-out)\n",
                 path);
    return 1;
  }
  struct LayerStats {
    double rank = 0;
    std::string group;
    uint64_t out_edges = 0;   // includes leaving this layer's files
    uint64_t in_edges = 0;    // includes pointing at this layer
    uint64_t suppressed = 0;  // lint:allow-layer edges from this layer
  };
  std::vector<std::string> order;  // table order = rank order as emitted
  std::map<std::string, LayerStats> by_dir;
  for (const JsonValue& l : layers->items()) {
    const JsonValue* dir = l.Find("dir");
    if (dir == nullptr || !dir->is_string()) {
      continue;
    }
    LayerStats& st = by_dir[dir->AsString()];
    st.rank = Num(l.Find("rank"));
    const JsonValue* group = l.Find("group");
    st.group = group != nullptr && group->is_string() ? group->AsString() : "?";
    order.push_back(dir->AsString());
  }
  uint64_t back_edges = 0;
  for (const JsonValue& e : edges->items()) {
    const JsonValue* from = e.Find("from_layer");
    const JsonValue* to = e.Find("to_layer");
    if (from == nullptr || !from->is_string() || to == nullptr ||
        !to->is_string()) {
      continue;
    }
    LayerStats& src = by_dir[from->AsString()];
    ++src.out_edges;
    ++by_dir[to->AsString()].in_edges;
    const JsonValue* allowed = e.Find("allowed");
    const JsonValue* suppressed = e.Find("suppressed");
    if (suppressed != nullptr && suppressed->is_bool() &&
        suppressed->AsBool()) {
      ++src.suppressed;
    }
    if (allowed != nullptr && allowed->is_bool() && !allowed->AsBool()) {
      ++back_edges;
    }
  }
  std::printf("%zu layers, %zu include edges, back-edges: %llu\n\n",
              order.size(), edges->size(),
              static_cast<unsigned long long>(back_edges));
  std::printf("%-18s %5s %-12s %9s %9s %10s\n", "layer", "rank", "group",
              "out-edges", "in-edges", "suppressed");
  for (const std::string& dir : order) {
    const LayerStats& st = by_dir[dir];
    std::printf("%-18s %5.0f %-12s %9llu %9llu %10llu\n", dir.c_str(), st.rank,
                st.group.c_str(),
                static_cast<unsigned long long>(st.out_edges),
                static_cast<unsigned long long>(st.in_edges),
                static_cast<unsigned long long>(st.suppressed));
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: past_stats summary <exp.json>\n"
               "       past_stats trace <trace.json>\n"
               "       past_stats chrome <trace.json> <out.json>\n"
               "       past_stats layers <include-graph.json>\n");
  return 2;
}

}  // namespace
}  // namespace past

int main(int argc, char** argv) {
  if (argc < 2) {
    return past::Usage();
  }
  if (std::strcmp(argv[1], "summary") == 0 && argc == 3) {
    return past::Summary(argv[2]);
  }
  if (std::strcmp(argv[1], "trace") == 0 && argc == 3) {
    return past::TraceSummary(argv[2]);
  }
  if (std::strcmp(argv[1], "chrome") == 0 && argc == 4) {
    return past::Chrome(argv[2], argv[3]);
  }
  if (std::strcmp(argv[1], "layers") == 0 && argc == 3) {
    return past::Layers(argv[2]);
  }
  return past::Usage();
}
