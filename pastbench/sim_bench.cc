// pastbench_sim — the simulator half of the PAST benchmark.
//
// Runs one workload over a simulated PastNetwork whose nodes keep durable
// stores under --dir, checks every output, and prints one JSON document with
// the end-to-end metrics, the per-layer metrics and the run's parameters:
//
//   pastbench_sim --workload sparse_reads --seed 1 --seconds 15 --trace 0
//       --dir .bench_build/run [--trace-out spans.json]
//
// Workloads (see pastbench/README.md for why each exists):
//   sparse_reads  5 client ops per simulated second over a prepopulated
//                 set of small files, with a slow crash/restart churn;
//   burst_writes  200 ops per simulated second, mostly real-content inserts.
//
// The library is used unchanged. Per-layer times are taken from outside:
// the benchmark times its own calls into EventQueue::RunUntil, into the
// PastNode client API and into RestartNode, and a forwarding PastryApp
// installed with PastryNode::SetApp times the outermost storage callbacks.
// With --trace 0 none of that instrumentation is installed; with --trace 1
// every timed call is also kept as a span and dumped in the shape
// `past_stats trace` and `past_stats chrome` read.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/diskstore/disk_store.h"
#include "src/obs/json.h"
#include "src/storage/messages.h"
#include "src/storage/past_network.h"
#include "src/workload/workload.h"

using namespace past;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload definitions -----------------------------------------------------

// Shared by both workloads: the network and the replication factor.
constexpr int kNodes = 200;
constexpr uint32_t kReplicas = 3;
// Latency samples each op type needs, so that p99 has at least ten beyond it.
constexpr size_t kMinSamples = 1000;

struct Spec {
  std::string name;
  int clients = 0;             // access points issuing ops; never crashed
  double rate = 0;             // offered client ops per simulated second
  double insert_frac = 0;
  uint64_t max_size = 0;       // FileSizeModel clamp
  size_t prepopulate = 0;      // files inserted during set-up
  double zipf_s = 0;           // > 0: lookups Zipf over the prepopulated set
  size_t recent_window = 0;    // zipf_s == 0: lookups uniform over the newest
  SimTime churn_period = 0;    // one crash per period (0 = no churn)
  SimTime down_time = 0;       // a crashed node restarts after this long
  double sim_s_per_wall_s = 0; // timed-phase length: seconds * this, in sim s
};

bool SpecFor(const std::string& name, Spec* out) {
  Spec s;
  s.name = name;
  if (name == "sparse_reads") {
    s.clients = 100;
    s.rate = 5.0;
    s.insert_frac = 0.2;
    s.max_size = 16 << 10;
    s.prepopulate = 300;
    s.zipf_s = 0.8;
    s.churn_period = 30 * kMicrosPerSecond;
    s.down_time = 10 * kMicrosPerSecond;
    s.sim_s_per_wall_s = 100;
  } else if (name == "burst_writes") {
    s.clients = 20;
    s.rate = 200.0;
    s.insert_frac = 0.8;
    s.max_size = 256 << 10;
    s.prepopulate = 50;
    s.recent_window = 200;
    s.sim_s_per_wall_s = 2.0;
  } else {
    return false;
  }
  *out = s;
  return true;
}

PastNetworkOptions NetworkOptionsFor(uint64_t seed, const std::string& state_dir) {
  PastNetworkOptions o;
  o.overlay.seed = seed;
  o.broker.modulus_pool = 8;
  // past_cli's deployment liveness settings.
  o.overlay.pastry.keep_alive_period = 1 * kMicrosPerSecond;
  o.overlay.pastry.failure_timeout = 3 * kMicrosPerSecond;
  o.overlay.pastry.death_quarantine = 6 * kMicrosPerSecond;
  o.past.default_replication = kReplicas;
  o.past.state_dir = state_dir;
  return o;
}

// Deterministic content of workload file `index`.
Bytes FileContent(uint64_t seed, size_t index, uint64_t size) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  return rng.RandomBytes(size);
}

// --- wall-clock spans ---------------------------------------------------------

// Spans of the benchmark's own calls, in the ExpTrace dump shape. Kept in
// memory until the run ends; timestamps are fractional microseconds since
// the recorder was created.
class SpanLog {
 public:
  struct Rec {
    uint64_t parent;
    const char* name;
    uint32_t node;
    double start_us;
    double end_us;
  };

  explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  // Records a span; returns its id (1-based), or 0 when off. A span opened
  // with end_us == start_us is finished later with Close().
  uint64_t Add(const char* name, uint32_t node, uint64_t parent, double start_us,
               double end_us) {
    if (!on_) {
      return 0;
    }
    spans_.push_back(Rec{parent, name, node, start_us, end_us});
    return spans_.size();
  }
  void Close(uint64_t id, double end_us) {
    if (id != 0) {
      spans_[id - 1].end_us = end_us;
    }
  }
  const std::vector<Rec>& spans() const { return spans_; }

  bool Dump(const std::string& path, const std::string& experiment) const {
    JsonValue arr = JsonValue::Array();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      JsonValue s = JsonValue::Object();
      s.Set("id", static_cast<uint64_t>(i + 1));
      s.Set("parent", r.parent);
      s.Set("trace_id", static_cast<uint64_t>(r.parent == 0 ? i + 1 : r.parent));
      s.Set("name", r.name);
      s.Set("node", static_cast<uint64_t>(r.node));
      s.Set("start_us", r.start_us);
      s.Set("end_us", r.end_us);
      arr.Append(std::move(s));
    }
    JsonValue root = JsonValue::Object();
    root.Set("experiment", experiment);
    root.Set("spans", std::move(arr));
    root.Set("dropped", 0);
    std::ofstream out(path, std::ios::trunc);
    out << root.Dump(0) << "\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Rec> spans_;
};

// Wall-time accumulators of the timed phase. The benchmark's top-level
// calls (RunUntil chunks, client calls, RestartNode) never overlap; storage
// callbacks nest inside them, and a top-level call's self time excludes its
// nested callbacks.
struct Ledger {
  double run_until_s = 0;       // inside EventQueue::RunUntil, callbacks included
  double run_until_self_s = 0;  // ... minus nested storage callbacks
  double callback_s = 0;        // outermost PastryApp callbacks
  double client_self_s = 0;     // synchronous part of PastNode::Insert/Lookup
  double restart_self_s = 0;    // PastNetwork::RestartNode
  uint64_t events = 0;
  uint64_t restarts = 0;
  uint64_t current = 0;    // span id of the open top-level call
  double nested_s = 0;     // callback time nested in the open top-level call
};

// Times one top-level call; Finish() returns its self seconds.
class TopCall {
 public:
  TopCall(Ledger* ledger, SpanLog* spans, const char* name, uint32_t node)
      : ledger_(ledger), spans_(spans), start_(spans->NowUs()) {
    id_ = spans_->Add(name, node, 0, start_, start_);
    ledger_->current = id_;
    ledger_->nested_s = 0;
  }
  double Finish() {
    const double end = spans_->NowUs();
    spans_->Close(id_, end);
    ledger_->current = 0;
    total_s_ = (end - start_) * 1e-6;
    return total_s_ - ledger_->nested_s;
  }
  double total_s() const { return total_s_; }

 private:
  Ledger* ledger_;
  SpanLog* spans_;
  double start_;
  uint64_t id_ = 0;
  double total_s_ = 0;
};

// Forwarding application shim: times the outermost storage-layer callback.
// SendDirect self-sends re-enter PastNode synchronously, so nested calls
// are folded into the outermost one through a shared depth counter.
class TimedApp : public PastryApp {
 public:
  TimedApp(PastNode* inner, Ledger* ledger, SpanLog* spans, int* depth)
      : inner_(inner), ledger_(ledger), spans_(spans), depth_(depth) {}

  void Deliver(const DeliverContext& ctx, ByteSpan payload) override {
    Scope s(this);
    inner_->Deliver(ctx, payload);
  }
  bool Forward(const U128& key, uint32_t app_type, const NodeDescriptor& next,
               Bytes* payload) override {
    Scope s(this);
    return inner_->Forward(key, app_type, next, payload);
  }
  void ReceiveDirect(const NodeDescriptor& from, uint32_t app_type,
                     ByteSpan payload) override {
    Scope s(this);
    inner_->ReceiveDirect(from, app_type, payload);
  }
  void OnLeafSetChanged() override {
    Scope s(this);
    inner_->OnLeafSetChanged();
  }

 private:
  struct Scope {
    explicit Scope(TimedApp* app) : app(app), outer(++*app->depth_ == 1) {
      if (outer) {
        start = app->spans_->NowUs();
      }
    }
    ~Scope() {
      --*app->depth_;
      if (outer) {
        const double end = app->spans_->NowUs();
        app->ledger_->callback_s += (end - start) * 1e-6;
        app->ledger_->nested_s += (end - start) * 1e-6;
        app->spans_->Add("past.callback", app->inner_->overlay()->addr(),
                         app->ledger_->current, start, end);
      }
    }
    TimedApp* app;
    bool outer;
    double start = 0;
  };

  PastNode* inner_;
  Ledger* ledger_;
  SpanLog* spans_;
  int* depth_;
};

// --- the run ------------------------------------------------------------------

struct FileRec {
  uint64_t size = 0;
  FileId id;
  bool acked = false;
  size_t client = 0;  // node index that inserted it
};

struct LookupCheck {
  size_t file = 0;
  FileCertificate cert;
  Bytes content;
};

struct Counters {
  uint64_t sent, bytes_sent, maint, reroutes, failures, served_cache, served_store,
      fetches, replicas, diverted, verify_hit, verify_miss, disk_bytes, fsyncs,
      compactions, hops_count;
  double hops_sum;
};

uint64_t CounterValue(const MetricsRegistry& m, const char* name) {
  const Counter* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

Counters Snapshot(const MetricsRegistry& m) {
  Counters c{};
  c.sent = CounterValue(m, "net.sent");
  c.bytes_sent = CounterValue(m, "net.bytes_sent");
  c.maint = CounterValue(m, "pastry.maintenance_msgs_sent");
  c.reroutes = CounterValue(m, "pastry.reroutes");
  c.failures = CounterValue(m, "pastry.failures_detected");
  c.served_cache = CounterValue(m, "past.lookups_served_cache");
  c.served_store = CounterValue(m, "past.lookups_served_store");
  c.fetches = CounterValue(m, "past.maintenance_fetches");
  c.replicas = CounterValue(m, "past.replicas_stored");
  c.diverted = CounterValue(m, "past.diverted_accepted");
  c.verify_hit = CounterValue(m, "crypto.verify_cache_hit");
  c.verify_miss = CounterValue(m, "crypto.verify_cache_miss");
  c.disk_bytes = CounterValue(m, "disk.bytes_written");
  c.fsyncs = CounterValue(m, "disk.fsyncs");
  c.compactions = CounterValue(m, "disk.compactions");
  if (const Histogram* h = m.FindHistogram("pastry.route.hops")) {
    c.hops_count = h->count();
    c.hops_sum = h->sum();
  }
  return c;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Nearest-rank quantile of `v` (sorted in place), in the unit of the input.
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  return (*v)[std::min(v->size() - 1, rank == 0 ? 0 : rank - 1)];
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) {
      break;
    }
    if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  return total;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

class Run {
 public:
  Run(const Spec& spec, uint64_t seed, double seconds, const std::string& dir,
      bool traced, SpanLog* spans)
      : spec_(spec), seed_(seed), seconds_(seconds), dir_(dir), traced_(traced),
        spans_(spans) {}

  ~Run() {
    if (net_ != nullptr) {
      for (size_t i = 0; i < net_->size(); ++i) {
        net_->node(i)->overlay()->SetApp(net_->node(i));
      }
    }
  }

  // Builds the network and inserts the prepopulated files. Returns false
  // when a prepopulated insert fails.
  bool SetUp() {
    const double t0 = spans_->NowUs();
    net_ = std::make_unique<PastNetwork>(NetworkOptionsFor(seed_, dir_));
    net_->Build(kNodes);
    const double t1 = spans_->NowUs();
    spans_->Add("bench.build", 0, 0, t0, t1);
    if (traced_) {
      shims_.resize(net_->size());
      for (size_t i = 0; i < net_->size(); ++i) {
        InstallShim(i);
      }
    }
    MakeSchedule();
    // Prepopulate: every insert started at once, then run to completion.
    for (size_t f = 0; f < spec_.prepopulate; ++f) {
      StartInsert(f, net_->queue().Now());
    }
    Drain(60 * kMicrosPerSecond);
    spans_->Add("bench.prepopulate", 0, 0, t1, spans_->NowUs());
    build_s_ = (t1 - t0) * 1e-6;
    setup_failed_ = failed_;
    return failed_ == 0 && outstanding_ == 0;
  }

  // Advances an idle network (no client ops) `sim_s` simulated seconds and
  // returns the wall milliseconds per simulated second.
  double IdleWallMsPerSimS(int sim_s) {
    const auto t0 = Clock::now();
    net_->Run(sim_s * kMicrosPerSecond);
    return SecondsSince(t0) * 1000.0 / sim_s;
  }

  // The timed phase: the open-loop schedule, interleaved with churn, then
  // drained. Stops issuing early if the wall clock passes `cap_s`; Check()
  // then fails the run.
  void TimedPhase(double cap_s) {
    before_ = Snapshot(net_->overlay().network().metrics());
    ledger_ = Ledger{};
    phase_start_sim_ = net_->queue().Now();
    const auto t0 = Clock::now();
    const double span_t0 = spans_->NowUs();
    size_t next_crash = 0;
    std::deque<std::pair<SimTime, size_t>> down;  // (restart time, node)
    for (const Op& op : ops_) {
      if (SecondsSince(t0) > cap_s) {
        truncated_ = true;
        break;
      }
      const SimTime at = phase_start_sim_ + op.at;
      while (!down.empty() && down.front().first <= at) {
        RunChunk(down.front().first);
        Restart(down.front().second);
        down.pop_front();
      }
      RunChunk(at);
      // A crash waits for an instant with no client op in flight: a request
      // whose only copy sits on the crashing node would be lost, and PAST
      // clients do not retry. Ops started later still meet the dead node.
      if (next_crash < crashes_due_.size() && phase_start_sim_ + crashes_due_[next_crash].first <= at &&
          outstanding_ == 0) {
        const size_t victim = crashes_due_[next_crash++].second;
        if (net_->node(victim)->overlay()->active()) {
          net_->CrashNode(victim);
          ++crashes_;
          down.push_back({at + spec_.down_time, victim});
        }
      }
      if (traced_) {
        TopCall call(&ledger_, spans_, op.insert ? "past.client.insert" : "past.client.lookup",
                     net_->node(op.client)->overlay()->addr());
        Start(op, at);
        ledger_.client_self_s += call.Finish();
      } else {
        Start(op, at);
      }
      ++timed_ops_;
    }
    // Long enough for a lookup that times out once and is retried.
    Drain(4 * net_->options().past.request_timeout);
    timed_wall_s_ = SecondsSince(t0);
    phase_sim_s_ = static_cast<double>(net_->queue().Now() - phase_start_sim_) /
                   kMicrosPerSecond;
    phase_span_ = {span_t0, spans_->NowUs()};
    after_ = Snapshot(net_->overlay().network().metrics());
    phase_ledger_ = ledger_;  // Check() keeps running the network afterwards
  }

  // Restarts every node still down, lets maintenance settle, then checks
  // lookups and replica counts, and that the timed phase ran in full with
  // enough latency samples. Returns the number of failed checks.
  uint64_t Check() {
    for (size_t i = 0; i < net_->size(); ++i) {
      if (!net_->node(i)->overlay()->active()) {
        Restart(i);
      }
    }
    net_->Run(15 * kMicrosPerSecond);
    uint64_t bad = 0;
    for (const LookupCheck& c : checks_) {
      const FileRec& f = files_[c.file];
      const auto digest = Sha256::Hash(ByteSpan(c.content.data(), c.content.size()));
      const bool ok = c.cert.file_id == f.id &&
                      Bytes(digest.begin(), digest.end()) == c.cert.content_hash &&
                      c.content == FileContent(seed_, c.file, f.size);
      bad += ok ? 0 : 1;
    }
    for (const FileRec& f : files_) {
      if (f.acked && net_->CountReplicas(f.id) < static_cast<int>(kReplicas)) {
        ++bad;
      }
    }
    if (truncated_) {
      ++bad;
      ++failure_reasons_["timed phase cut short by the wall-clock cap"];
    }
    if (insert_ms_.size() < kMinSamples || lookup_ms_.size() < kMinSamples) {
      ++bad;
      ++failure_reasons_["fewer than 1000 insert or lookup latency samples"];
    }
    check_failures_ = bad;
    return bad;
  }

  // --- results ----------------------------------------------------------------

  JsonValue EndToEnd(double setup_s) {
    const uint64_t ops = timed_completed();
    std::vector<double> ins = insert_ms_, look = lookup_ms_;
    JsonValue m = JsonValue::Object();
    m.Set("setup_s", setup_s);
    m.Set("insert_p50_ms", Quantile(&ins, 0.50));
    m.Set("insert_p99_ms", Quantile(&ins, 0.99));
    m.Set("lookup_p50_ms", Quantile(&look, 0.50));
    m.Set("lookup_p99_ms", Quantile(&look, 0.99));
    m.Set("msgs_per_op", Ratio(static_cast<double>(after_.sent - before_.sent), ops));
    m.Set("bytes_per_op",
          Ratio(static_cast<double>(after_.bytes_sent - before_.bytes_sent), ops));
    m.Set("peak_rss_mb", PeakRssMb());
    m.Set("disk_bytes_per_user_byte",
          Ratio(static_cast<double>(DirBytes(dir_)), static_cast<double>(UserBytes())));
    return m;
  }

  JsonValue PerLayer() {
    const double ops = static_cast<double>(timed_completed());
    const Counters& a = after_;
    const Counters& b = before_;
    const double crashes = static_cast<double>(crashes_);
    const Ledger& l = phase_ledger_;
    JsonValue m = JsonValue::Object();
    m.Set("sim.events_per_op", Ratio(static_cast<double>(l.events), ops));
    m.Set("sim.ns_per_event",
          Ratio(l.run_until_s * 1e9, static_cast<double>(l.events)));
    m.Set("pastry.maintenance_frac",
          Ratio(static_cast<double>(a.maint - b.maint), static_cast<double>(a.sent - b.sent)));
    m.Set("pastry.maintenance_msgs_per_node_s",
          Ratio(static_cast<double>(a.maint - b.maint), kNodes * phase_sim_s_));
    m.Set("pastry.self_frac", Ratio(l.run_until_self_s, timed_wall_s_));
    m.Set("pastry.hops_per_route",
          Ratio(a.hops_sum - b.hops_sum, static_cast<double>(a.hops_count - b.hops_count)));
    m.Set("pastry.reroutes_per_op", Ratio(static_cast<double>(a.reroutes - b.reroutes), ops));
    m.Set("pastry.failures_detected_per_crash",
          Ratio(static_cast<double>(a.failures - b.failures), crashes));
    m.Set("storage.callback_us_per_op", Ratio(l.callback_s * 1e6, ops));
    m.Set("storage.callback_frac", Ratio(l.callback_s, timed_wall_s_));
    m.Set("storage.client_us_per_op", Ratio(l.client_self_s * 1e6, ops));
    m.Set("storage.replicas_per_insert",
          Ratio(static_cast<double>(a.replicas + a.diverted - b.replicas - b.diverted),
                static_cast<double>(timed_inserts_ok_)));
    m.Set("storage.cache_served_frac",
          Ratio(static_cast<double>(a.served_cache - b.served_cache),
                static_cast<double>(a.served_cache + a.served_store - b.served_cache -
                                    b.served_store)));
    m.Set("storage.maintenance_fetches_per_crash",
          Ratio(static_cast<double>(a.fetches - b.fetches), crashes));
    m.Set("storage.restart_ms",
          Ratio(l.restart_self_s * 1e3, static_cast<double>(l.restarts)));
    m.Set("crypto.rsa_verifies_per_op",
          Ratio(static_cast<double>(a.verify_miss - b.verify_miss), ops));
    m.Set("crypto.verify_hit_ratio",
          Ratio(static_cast<double>(a.verify_hit - b.verify_hit),
                static_cast<double>(a.verify_hit + a.verify_miss - b.verify_hit -
                                    b.verify_miss)));
    m.Set("disk.bytes_written_per_user_byte",
          Ratio(static_cast<double>(a.disk_bytes - b.disk_bytes),
                static_cast<double>(timed_user_bytes_)));
    m.Set("disk.fsyncs_per_op", Ratio(static_cast<double>(a.fsyncs - b.fsyncs), ops));
    m.Set("disk.compactions", static_cast<double>(a.compactions - b.compactions));
    return m;
  }

  JsonValue Details() {
    JsonValue d = JsonValue::Object();
    d.Set("timed_ops_started", timed_ops_);
    d.Set("timed_ops_completed", timed_completed());
    d.Set("insert_samples", static_cast<uint64_t>(insert_ms_.size()));
    d.Set("lookup_samples", static_cast<uint64_t>(lookup_ms_.size()));
    d.Set("timed_sim_s", phase_sim_s_);
    d.Set("crashes", crashes_);
    d.Set("lookup_checks", static_cast<uint64_t>(checks_.size()));
    d.Set("lookup_retries", lookup_retries_);
    d.Set("check_failures", check_failures_);
    d.Set("user_bytes", UserBytes());
    d.Set("truncated_by_wall_cap", truncated_);
    JsonValue reasons = JsonValue::Object();
    for (const auto& [reason, n] : failure_reasons_) {
      reasons.Set(reason, n);
    }
    d.Set("failure_reasons", std::move(reasons));
    return d;
  }

  // The traced ledger: self time per layer from the recorded spans of the
  // timed phase, plus the unattributed remainder of timed wall time.
  JsonValue LedgerTable(uint64_t* violations) {
    const auto& sp = spans_->spans();
    std::vector<double> child_us(sp.size() + 1, 0.0);
    *violations = 0;
    double top_us = 0;
    double last_end = phase_span_.first;
    for (size_t i = 0; i < sp.size(); ++i) {
      const SpanLog::Rec& r = sp[i];
      if (r.start_us < phase_span_.first || r.end_us > phase_span_.second) {
        continue;
      }
      if (r.parent == 0) {
        top_us += r.end_us - r.start_us;
        // Top-level spans are sequential calls: they must not overlap.
        if (r.start_us < last_end) {
          ++*violations;
        }
        last_end = r.end_us;
      } else {
        const SpanLog::Rec& p = sp[r.parent - 1];
        if (r.start_us < p.start_us || r.end_us > p.end_us) {
          ++*violations;
        }
        child_us[r.parent] += r.end_us - r.start_us;
      }
    }
    struct Row {
      const char* layer;
      double us = 0;
    };
    std::vector<Row> rows = {{"sim+pastry (RunUntil self)"},
                             {"storage callbacks"},
                             {"storage client calls"},
                             {"restart (RestartNode)"}};
    for (size_t i = 0; i < sp.size(); ++i) {
      const SpanLog::Rec& r = sp[i];
      if (r.start_us < phase_span_.first || r.end_us > phase_span_.second) {
        continue;
      }
      const double self = r.end_us - r.start_us - child_us[i + 1];
      const std::string name = r.name;
      if (name == "sim.run_until") {
        rows[0].us += self;
      } else if (name == "past.callback") {
        rows[1].us += self;
      } else if (name.rfind("past.client.", 0) == 0) {
        rows[2].us += self;
      } else if (name == "past.restart_node") {
        rows[3].us += self;
      }
    }
    const double wall_us = phase_span_.second - phase_span_.first;
    JsonValue table = JsonValue::Array();
    double sum = 0;
    for (const Row& r : rows) {
      JsonValue row = JsonValue::Object();
      row.Set("layer", r.layer);
      row.Set("self_ms", r.us / 1e3);
      row.Set("share", Ratio(r.us, wall_us));
      table.Append(std::move(row));
      sum += r.us;
    }
    unattributed_frac_ = Ratio(wall_us - top_us, wall_us);
    JsonValue row = JsonValue::Object();
    row.Set("layer", "unattributed");
    row.Set("self_ms", (wall_us - top_us) / 1e3);
    row.Set("share", unattributed_frac_);
    table.Append(std::move(row));
    sum += wall_us - top_us;
    JsonValue out = JsonValue::Object();
    out.Set("rows", std::move(table));
    out.Set("timed_wall_ms", wall_us / 1e3);
    out.Set("sum_ms", sum / 1e3);
    out.Set("nesting_violations", *violations);
    return out;
  }
  double unattributed_frac() const { return unattributed_frac_; }

  double ops_per_s() const {
    return Ratio(static_cast<double>(timed_completed()), timed_wall_s_);
  }
  uint64_t timed_completed() const { return insert_ms_.size() + lookup_ms_.size(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_ + check_failures_; }
  uint64_t setup_failed() const { return setup_failed_; }
  double build_s() const { return build_s_; }

  // Contents and certificates of (up to `max_files`) acknowledged files, for
  // the per-byte layer timings.
  void Sample(size_t max_files, std::vector<Bytes>* contents,
              std::vector<FileCertificate>* certs) {
    for (size_t i = 0; i < files_.size() && contents->size() < max_files; ++i) {
      const FileRec& f = files_[i];
      const FileCertificate* cert = f.acked ? net_->node(f.client)->OwnedFileCert(f.id)
                                            : nullptr;
      if (cert != nullptr) {
        contents->push_back(FileContent(seed_, i, f.size));
        certs->push_back(*cert);
      }
    }
  }
  RsaPublicKey broker_key() { return net_->broker().public_key(); }
  NodeDescriptor a_client() { return net_->node(0)->overlay()->descriptor(); }

 private:
  struct Op {
    SimTime at = 0;  // offset from the start of the timed phase
    bool insert = false;
    size_t client = 0;
    size_t file = 0;  // insert: new file index; sparse lookups: Zipf pick
  };

  void MakeSchedule() {
    Rng rng(seed_ ^ 0x5ca1ab1e);
    FileSizeModel sizes;
    sizes.max_size = spec_.max_size;
    auto new_file = [&](size_t client) {
      FileRec f;
      f.size = sizes.Sample(&rng);
      f.client = client;
      files_.push_back(f);
      return files_.size() - 1;
    };
    auto pick_client = [&] { return static_cast<size_t>(rng.UniformU64(spec_.clients)); };
    for (size_t i = 0; i < spec_.prepopulate; ++i) {
      new_file(pick_client());
    }
    ZipfDistribution zipf(std::max<size_t>(spec_.prepopulate, 1),
                          spec_.zipf_s > 0 ? spec_.zipf_s : 1.0);
    const SimTime horizon =
        static_cast<SimTime>(seconds_ * spec_.sim_s_per_wall_s * kMicrosPerSecond);
    double t = 0;
    for (;;) {
      t += rng.Exponential(spec_.rate) * kMicrosPerSecond;
      if (t >= static_cast<double>(horizon)) {
        break;
      }
      Op op;
      op.at = static_cast<SimTime>(t);
      op.client = pick_client();
      op.insert = rng.Bernoulli(spec_.insert_frac);
      if (op.insert) {
        op.file = new_file(op.client);
      } else if (spec_.zipf_s > 0) {
        op.file = zipf.Sample(&rng);
      }
      ops_.push_back(op);
    }
    if (spec_.churn_period > 0) {
      // Victims come from the non-client nodes, one down at a time.
      for (SimTime at = spec_.churn_period / 2; at + spec_.down_time < horizon;
           at += spec_.churn_period) {
        const size_t victim =
            spec_.clients + rng.UniformU64(kNodes - spec_.clients);
        crashes_due_.push_back({at, victim});
      }
    }
    lookup_rng_ = Rng(seed_ ^ 0x10c4);
  }

  void InstallShim(size_t i) {
    shims_[i] = std::make_unique<TimedApp>(net_->node(i), &ledger_, spans_, &depth_);
    net_->node(i)->overlay()->SetApp(shims_[i].get());
  }

  void RunChunk(SimTime until) {
    if (!traced_) {
      net_->queue().RunUntil(until);
      return;
    }
    TopCall call(&ledger_, spans_, "sim.run_until", 0);
    ledger_.events += net_->queue().RunUntil(until);
    ledger_.run_until_self_s += call.Finish();
    ledger_.run_until_s += call.total_s();
  }

  void Start(const Op& op, SimTime at) {
    if (op.insert) {
      StartInsert(op.file, at);
    } else {
      StartLookup(op, at);
    }
  }

  // Drives the queue until no client op is outstanding or `budget` of
  // simulated time passes; ops still outstanding then count as failed.
  void Drain(SimTime budget) {
    const SimTime deadline = net_->queue().Now() + budget;
    while (outstanding_ > 0 && net_->queue().Now() < deadline) {
      RunChunk(std::min(net_->queue().Now() + 100 * kMicrosPerMilli, deadline));
    }
    failed_ += outstanding_;
    if (outstanding_ > 0) {
      failure_reasons_["no reply before the drain deadline"] += outstanding_;
    }
    outstanding_ = 0;
  }

  void Restart(size_t i) {
    if (!traced_) {
      net_->RestartNode(i);
      return;
    }
    TopCall call(&ledger_, spans_, "past.restart_node", net_->node(i)->overlay()->addr());
    net_->RestartNode(i);
    InstallShim(i);
    ledger_.restart_self_s += call.Finish();
    ++ledger_.restarts;
  }

  bool in_timed_phase() const { return phase_start_sim_ >= 0; }

  void Complete(SimTime at, bool insert, StatusCode status) {
    --outstanding_;
    if (status != StatusCode::kOk) {
      ++failed_;
      ++failure_reasons_[std::string(insert ? "insert: " : "lookup: ") +
                         StatusCodeName(status)];
      return;
    }
    if (!in_timed_phase()) {
      return;
    }
    const SimTime lat = net_->queue().Now() - at;
    (insert ? insert_ms_ : lookup_ms_).push_back(static_cast<double>(lat) / 1000.0);
  }

  void StartInsert(size_t file, SimTime at) {
    FileRec& f = files_[file];
    PastNode* client = net_->node(f.client);
    ++attempted_;
    ++outstanding_;
    const bool timed = in_timed_phase();
    client->Insert("f" + std::to_string(file), FileContent(seed_, file, f.size), kReplicas,
                   [this, file, at, timed](Result<FileId> r) {
                     if (r.ok()) {
                       FileRec& rec = files_[file];
                       rec.id = r.value();
                       rec.acked = true;
                       acked_.push_back(file);
                       if (timed) {
                         ++timed_inserts_ok_;
                         timed_user_bytes_ += rec.size;
                       }
                     }
                     Complete(at, true, r.status());
                   });
  }

  void StartLookup(const Op& op, SimTime at) {
    size_t file = op.file;
    if (spec_.zipf_s <= 0) {
      const size_t window = std::min(acked_.size(), spec_.recent_window);
      file = acked_[acked_.size() - 1 - lookup_rng_.UniformU64(window)];
    }
    // A node refuses a second concurrent lookup of the same file, so the op
    // moves to the next access point without one in flight.
    size_t client = op.client;
    for (int tries = 0; tries < spec_.clients && lookups_in_flight_.count({client, file}) > 0;
         ++tries) {
      client = (client + 1) % spec_.clients;
    }
    ++attempted_;
    ++outstanding_;
    LookupAttempt(client, file, at, /*retry=*/false);
  }

  // A client whose lookup times out asks once more, as a PAST client would:
  // under churn, a request can reach a node that neither holds the file nor
  // reaches a holder. The retry shows as a slow lookup; a second miss fails.
  void LookupAttempt(size_t client, size_t file, SimTime at, bool retry) {
    lookups_in_flight_.insert({client, file});
    net_->node(client)->Lookup(
        files_[file].id, [this, client, file, at, retry](Result<PastNode::LookupOutcome> r) {
          lookups_in_flight_.erase({client, file});
          if (r.ok()) {
            checks_.push_back({file, r.value().cert, std::move(r.value().content)});
          } else if (!retry) {
            ++lookup_retries_;
            LookupAttempt(client, file, at, true);
            return;
          }
          Complete(at, false, r.status());
        });
  }

  uint64_t UserBytes() const {
    uint64_t total = 0;
    for (const FileRec& f : files_) {
      total += f.acked ? f.size : 0;
    }
    return total;
  }

  Spec spec_;
  uint64_t seed_;
  double seconds_;
  std::string dir_;
  bool traced_;
  SpanLog* spans_;

  std::unique_ptr<PastNetwork> net_;
  std::vector<std::unique_ptr<TimedApp>> shims_;
  int depth_ = 0;
  Ledger ledger_;
  Ledger phase_ledger_;

  std::vector<FileRec> files_;
  std::vector<size_t> acked_;
  std::vector<Op> ops_;
  std::vector<std::pair<SimTime, size_t>> crashes_due_;  // (offset, victim)
  Rng lookup_rng_{0};

  SimTime phase_start_sim_ = -1;
  double phase_sim_s_ = 0;
  double timed_wall_s_ = 0;
  std::pair<double, double> phase_span_{0, 0};
  Counters before_{};
  Counters after_{};
  bool truncated_ = false;
  double unattributed_frac_ = 0;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t setup_failed_ = 0;
  uint64_t check_failures_ = 0;
  uint64_t outstanding_ = 0;
  uint64_t timed_ops_ = 0;
  uint64_t timed_inserts_ok_ = 0;
  uint64_t timed_user_bytes_ = 0;
  uint64_t crashes_ = 0;
  std::vector<double> insert_ms_;
  std::vector<double> lookup_ms_;
  std::vector<LookupCheck> checks_;
  double build_s_ = 0;
  std::map<std::string, uint64_t> failure_reasons_;
  std::set<std::pair<size_t, size_t>> lookups_in_flight_;  // (client, file)
  uint64_t lookup_retries_ = 0;
};

// --- per-byte layer timings ---------------------------------------------------

// Keeps the timed loops' results observable so they are not optimized away.
volatile uint8_t g_sink = 0;

// Runs `body` (one pass over the inputs) until at least `min_s` of wall time
// has passed; returns seconds per pass.
template <typename F>
double TimePerPass(double min_s, F&& body) {
  const auto t0 = Clock::now();
  int passes = 0;
  do {
    body();
    ++passes;
  } while (SecondsSince(t0) < min_s);
  return SecondsSince(t0) / passes;
}

JsonValue MicroLayers(const std::vector<Bytes>& contents,
                      const std::vector<FileCertificate>& certs, const RsaPublicKey& broker,
                      const NodeDescriptor& client, const std::string& disk_dir) {
  double mb = 0;
  for (const Bytes& c : contents) {
    mb += static_cast<double>(c.size()) / 1e6;
  }
  uint8_t sink = 0;
  JsonValue m = JsonValue::Object();
  m.Set("crypto.sha256_mb_per_s", mb / TimePerPass(0.2, [&] {
                                    for (const Bytes& c : contents) {
                                      sink ^= Sha256::Hash(ByteSpan(c.data(), c.size()))[0];
                                    }
                                  }));
  const size_t n_certs = std::min<size_t>(certs.size(), 200);
  m.Set("crypto.cert_verify_us", 1e6 / static_cast<double>(n_certs) *
                                     TimePerPass(0.2, [&] {
                                       for (size_t i = 0; i < n_certs; ++i) {
                                         sink ^= certs[i].Verify(broker, nullptr) ? 1 : 0;
                                       }
                                     }));
  m.Set("codec.store_replica_mb_per_s", mb / TimePerPass(0.2, [&] {
                                          for (size_t i = 0; i < contents.size(); ++i) {
                                            StoreReplicaPayload p;
                                            p.cert = certs[i];
                                            p.content = contents[i];
                                            p.client = client;
                                            Bytes wire = p.Encode();
                                            StoreReplicaPayload back;
                                            sink ^= StoreReplicaPayload::Decode(
                                                        ByteSpan(wire.data(), wire.size()),
                                                        &back)
                                                        ? 1
                                                        : 0;
                                          }
                                        }));
  // DiskStore::Put under the nodes' flush policy (PastConfig::disk defaults).
  std::filesystem::remove_all(disk_dir);
  Result<std::unique_ptr<DiskStore>> store = DiskStore::Open(disk_dir, DiskStoreOptions{});
  double append = 0;
  if (store.ok()) {
    Bytes key_bytes(U160::kBytes, 0);
    uint64_t n = 0;
    append = mb / TimePerPass(0.2, [&] {
               for (const Bytes& c : contents) {
                 ++n;
                 std::memcpy(key_bytes.data(), &n, sizeof(n));
                 const U160 key = U160::FromBytes(ByteSpan(key_bytes.data(), key_bytes.size()));
                 sink ^= store.value()->Put(key, ByteSpan(c.data(), c.size())) ==
                                 StatusCode::kOk
                             ? 1
                             : 0;
               }
             });
    store.value().reset();
  }
  std::filesystem::remove_all(disk_dir);
  m.Set("disk.append_mb_per_s", append);
  g_sink = sink;
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setups = 5;
  std::string dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--setups") {
      a->setups = std::max(1, std::atoi(v));
    } else if (flag == "--dir") {
      a->dir = v;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0;
}

// Moves the process to the k-th (mod count) CPU of those it was allowed
// when first called. Two virtual CPUs can run this program at speeds far
// apart at the same moment, so repeats of the same work go to different CPUs.
void PinToCpu(int k) {
  static cpu_set_t allowed;
  static int count = -1;
  if (count < 0) {
    CPU_ZERO(&allowed);
    count = sched_getaffinity(0, sizeof(allowed), &allowed) == 0 ? CPU_COUNT(&allowed) : 0;
  }
  for (int cpu = 0, seen = 0; count > 0 && cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == k % count) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pastbench_sim --workload sparse_reads|burst_writes --seed N "
                 "--seconds S --trace 0|1 --dir DIR [--trace-out FILE] [--setups K]\n");
    return 2;
  }
  Spec spec;
  if (!SpecFor(args.workload, &spec)) {
    std::fprintf(stderr, "pastbench_sim: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const double cap_s = 3 * args.seconds;
  SpanLog untraced(false);
  JsonValue out = JsonValue::Object();
  uint64_t attempted = 0, failed = 0;

  if (!args.trace) {
    // Set up several times (identical inputs, rotating over the CPUs) and
    // report the fastest; the last network runs the timed phase. On a shared
    // host a virtual CPU runs this program up to about 1.5x slower, for
    // seconds to minutes, while the host runs other work next to it, so
    // set-up times fall in two clusters and their median jumps between them;
    // the fastest does not. One more set-up runs first and is not counted:
    // the process's first network also pays for growing the heap and for
    // cold file-system caches, which later ones reuse.
    std::vector<double> setups, builds;
    std::unique_ptr<Run> run;
    for (int i = 0; i <= args.setups; ++i) {
      PinToCpu(i);
      run.reset();
      std::filesystem::remove_all(args.dir);
      run = std::make_unique<Run>(spec, args.seed, args.seconds, args.dir, false, &untraced);
      const auto t0 = Clock::now();
      const bool ok = run->SetUp();
      setups.push_back(SecondsSince(t0));
      builds.push_back(run->build_s());
      if (!ok) {
        break;
      }
    }
    if (run->setup_failed() == 0) {
      run->TimedPhase(cap_s);
      run->Check();
    }
    attempted = run->attempted();
    failed = run->failed();
    out.Set("end_to_end",
            run->EndToEnd(Min(std::vector<double>(setups.begin() + 1, setups.end()))));
    JsonValue d = run->Details();
    // Recorded, not gated: the slow spells above also last longer than a
    // run, so wall-clock throughput spreads past any allowed bound.
    d.Set("ops_per_s", run->ops_per_s());
    JsonValue st = JsonValue::Array();
    for (double s : setups) {
      st.Append(s);
    }
    d.Set("setup_s_samples", std::move(st));
    JsonValue bs = JsonValue::Array();
    for (double b : builds) {
      bs.Append(b);
    }
    d.Set("build_s_samples", std::move(bs));
    out.Set("details", std::move(d));
  } else {
    // The traced pass runs between two untraced passes over the same inputs,
    // each on a fresh network; their mean is the tracing-overhead baseline
    // (bracketing cancels the warm-up the first pass pays).
    auto untraced_pass = [&] {
      std::filesystem::remove_all(args.dir);
      Run base(spec, args.seed, args.seconds, args.dir, false, &untraced);
      if (!base.SetUp()) {
        return 0.0;
      }
      base.TimedPhase(cap_s);
      return base.ops_per_s();
    };
    const double untraced_before = untraced_pass();
    std::filesystem::remove_all(args.dir);
    SpanLog spans(true);
    JsonValue per_layer = JsonValue::Object();
    double traced_ops_per_s = 0;
    {
      Run run(spec, args.seed, args.seconds, args.dir, true, &spans);
      if (run.SetUp()) {
        per_layer.Set("sim.idle_wall_ms_per_sim_s", run.IdleWallMsPerSimS(5));
        run.TimedPhase(cap_s);
        run.Check();
      }
      attempted = run.attempted();
      failed = run.failed();
      traced_ops_per_s = run.ops_per_s();
      uint64_t violations = 0;
      out.Set("ledger", run.LedgerTable(&violations));
      if (violations > 0) {
        ++failed;  // the spans do not nest: the ledger cannot be trusted
      }
      const JsonValue counted = run.PerLayer();
      for (const auto& [k, v] : counted.members()) {
        per_layer.Set(k, v);
      }
      per_layer.Set("ledger.unattributed_frac", run.unattributed_frac());
      std::vector<Bytes> contents;
      std::vector<FileCertificate> certs;
      run.Sample(400, &contents, &certs);
      if (!contents.empty()) {
        const JsonValue micro = MicroLayers(contents, certs, run.broker_key(), run.a_client(),
                                            args.dir + "-micro");
        for (const auto& [k, v] : micro.members()) {
          per_layer.Set(k, v);
        }
      }
      out.Set("details", run.Details());
    }
    if (!args.trace_out.empty() && !spans.Dump(args.trace_out, "pastbench." + spec.name)) {
      ++failed;
    }
    const double baseline = (untraced_before + untraced_pass()) / 2;
    per_layer.Set("ops_per_s", baseline);
    per_layer.Set("trace.overhead_frac",
                  baseline > 0 ? 1.0 - traced_ops_per_s / baseline : 0.0);
    out.Set("per_layer", std::move(per_layer));
  }
  std::filesystem::remove_all(args.dir);

  JsonValue params = JsonValue::Object();
  params.Set("workload", spec.name);
  params.Set("seed", args.seed);
  params.Set("nodes", kNodes);
  params.Set("clients", spec.clients);
  params.Set("rate_ops_per_sim_s", spec.rate);
  params.Set("insert_frac", spec.insert_frac);
  params.Set("max_file_bytes", spec.max_size);
  params.Set("k", static_cast<uint64_t>(kReplicas));
  params.Set("prepopulate", static_cast<uint64_t>(spec.prepopulate));
  params.Set("zipf_s", spec.zipf_s);
  params.Set("churn_period_s", static_cast<double>(spec.churn_period) / kMicrosPerSecond);
  params.Set("keep_alive_s", 1.0);
  params.Set("failure_timeout_s", 3.0);
  params.Set("sync_every", static_cast<uint64_t>(DiskStoreOptions{}.sync_every));
  params.Set("timed_sim_s_scheduled", args.seconds * spec.sim_s_per_wall_s);
  out.Set("params", std::move(params));
  out.Set("attempted", attempted);
  out.Set("failed", failed);
  std::printf("%s\n", out.Dump(0).c_str());
  return 0;
}
