// Micro-benchmarks (google-benchmark) for the building blocks: hashing,
// checksums, RSA/smartcard operations, id algebra, routing-table and
// leaf-set operations, wire codecs, the cache, and the disk log engine.
//
// Accepts the same flags as the exp_* binaries in addition to the native
// google-benchmark ones:
//   --json <path>   write a BENCH_micro.json document with one row per
//                   benchmark (name, iterations, times, counters)
//   --smoke         cut --benchmark_min_time down so the whole suite runs
//                   in seconds
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/diskstore/disk_store.h"
#include "src/diskstore/sharded_store.h"
#include "src/net/frame.h"
#include "src/net/socket_transport.h"
#include "src/obs/json.h"
#include "src/obs/log_histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/pastry/leaf_set.h"
#include "src/pastry/messages.h"
#include "src/pastry/node_intern.h"
#include "src/pastry/overlay.h"
#include "src/pastry/routing_table.h"
#include "src/sim/event_queue.h"
#include "src/sim/timer_wheel.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"
#include "src/storage/cache.h"
#include "src/storage/verify_cache.h"

namespace past {
namespace {

// Self-cleaning mkdtemp directory for the disk-log benchmarks.
struct ScratchDir {
  ScratchDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "past-bench-XXXXXX").string();
    PAST_CHECK_MSG(mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
    path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string Sub(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

void BM_Sha1(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(ByteSpan(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  Rng rng(2);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(ByteSpan(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32c(benchmark::State& state) {
  Rng rng(12);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(ByteSpan(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(3);
  Bytes key = rng.RandomBytes(32);
  Bytes data = rng.RandomBytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_RsaKeygen(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaKeyPair::Generate(static_cast<int>(state.range(0)), &rng));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_RsaSign(benchmark::State& state) {
  Rng rng(5);
  RsaKeyPair kp = RsaKeyPair::Generate(static_cast<int>(state.range(0)), &rng);
  Bytes msg = rng.RandomBytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaSignMessage(kp, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  Rng rng(6);
  RsaKeyPair kp = RsaKeyPair::Generate(static_cast<int>(state.range(0)), &rng);
  Bytes msg = rng.RandomBytes(256);
  Bytes sig = RsaSignMessage(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaVerifyMessage(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

// The two ModExp paths head to head: the Montgomery dispatch against the
// schoolbook reference, same signing-shaped workload (full-width base and
// exponent, odd modulus).
void BM_ModExp(benchmark::State& state) {
  Rng rng(8);
  const int bits = static_cast<int>(state.range(0));
  RsaKeyPair kp = RsaKeyPair::Generate(bits, &rng);
  BigNum base = BigNum::FromBytes(rng.RandomBytes(static_cast<size_t>(bits) / 8 - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigNum::ModExp(base, kp.d, kp.pub.n));
  }
}
BENCHMARK(BM_ModExp)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_ModExpReference(benchmark::State& state) {
  Rng rng(8);
  const int bits = static_cast<int>(state.range(0));
  RsaKeyPair kp = RsaKeyPair::Generate(bits, &rng);
  BigNum base = BigNum::FromBytes(rng.RandomBytes(static_cast<size_t>(bits) / 8 - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigNum::ModExpReference(base, kp.d, kp.pub.n));
  }
}
BENCHMARK(BM_ModExpReference)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

// Steady-state verify through the memo cache (everything hits): the cost of
// a repeated certificate check after the first verification paid for it.
void BM_VerifyCacheHit(benchmark::State& state) {
  Rng rng(9);
  RsaKeyPair kp = RsaKeyPair::Generate(static_cast<int>(state.range(0)), &rng);
  Bytes msg = rng.RandomBytes(256);
  Bytes sig = RsaSignMessage(kp, msg);
  VerifyCache cache(64, nullptr);
  PAST_CHECK(cache.VerifyMessage(kp.pub, msg, sig));  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.VerifyMessage(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_VerifyCacheHit)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_U128Digits(benchmark::State& state) {
  Rng rng(7);
  U128 id = rng.NextU128();
  U128 key = rng.NextU128();
  for (auto _ : state) {
    benchmark::DoNotOptimize(id.SharedPrefixLength(key, 4));
    benchmark::DoNotOptimize(key.Digit(5, 4));
    benchmark::DoNotOptimize(id.RingDistance(key));
  }
}
BENCHMARK(BM_U128Digits);

void BM_RoutingTableLookup(benchmark::State& state) {
  Rng rng(8);
  PastryConfig config;
  NodeId self = rng.NextU128();
  RoutingTable table(self, config, nullptr);
  for (int i = 0; i < 2000; ++i) {
    table.MaybeAdd(NodeDescriptor{rng.NextU128(), static_cast<NodeAddr>(i)});
  }
  U128 key = rng.NextU128();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.EntryForKey(key));
    key = key.Add(U128(0x1234, 0x9876543210ULL));
  }
}
BENCHMARK(BM_RoutingTableLookup);

void BM_LeafSetInsert(benchmark::State& state) {
  Rng rng(9);
  NodeId self = rng.NextU128();
  for (auto _ : state) {
    state.PauseTiming();
    LeafSet leaf(self, 32);
    state.ResumeTiming();
    for (int i = 0; i < 100; ++i) {
      leaf.MaybeAdd(NodeDescriptor{rng.NextU128(), static_cast<NodeAddr>(i)});
    }
    benchmark::DoNotOptimize(leaf.size());
  }
}
BENCHMARK(BM_LeafSetInsert);

void BM_RouteMsgCodec(benchmark::State& state) {
  Rng rng(10);
  RouteMsg msg;
  msg.key = rng.NextU128();
  msg.source = NodeDescriptor{rng.NextU128(), 7};
  msg.app_type = 100;
  msg.seq = 12345;
  msg.payload = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes wire = EncodeMessage(msg);
    Reader r(ByteSpan(wire.data(), wire.size()));
    PastryMsgType type;
    (void)DecodeHeader(&r, &type);
    RouteMsg out;
    benchmark::DoNotOptimize(DecodeBodyStrict(&r, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RouteMsgCodec)->Arg(64)->Arg(4096);

void BM_CacheGdsInsertGet(benchmark::State& state) {
  Rng rng(11);
  Cache cache(CachePolicy::kGreedyDualSize);
  std::vector<FileCertificate> certs;
  for (int i = 0; i < 500; ++i) {
    FileCertificate cert;
    cert.file_id = rng.NextU160();
    cert.file_size = 1 + rng.UniformU64(8192);
    certs.push_back(cert);
  }
  size_t i = 0;
  for (auto _ : state) {
    const FileCertificate& cert = certs[i % certs.size()];
    if (!cache.Contains(cert.file_id)) {
      cache.Insert(cert, {}, 1 << 20);
    }
    benchmark::DoNotOptimize(cache.Get(cert.file_id));
    ++i;
  }
}
BENCHMARK(BM_CacheGdsInsertGet);

// Appends value_bytes records to the log at the given sync_every policy
// (0: buffered appends, isolating the encode + CRC + write path; 1: one
// fsync per Put — the per-operation durability floor BM_GroupCommitAppend
// is measured against). Keys rotate over a fixed pool so compaction bounds
// the on-disk footprint however long the benchmark runs.
void BM_LogAppend(benchmark::State& state) {
  ScratchDir scratch;
  DiskStoreOptions options;
  options.sync_every = static_cast<uint32_t>(state.range(1));
  auto store = DiskStore::Open(scratch.Sub("log"), options);
  PAST_CHECK_MSG(store.ok(), "open failed");
  Rng rng(13);
  const Bytes value = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  std::vector<U160> keys;
  for (int i = 0; i < 1024; ++i) {
    Bytes raw = rng.RandomBytes(U160::kBytes);
    keys.push_back(U160::FromBytes(ByteSpan(raw.data(), raw.size())));
  }
  size_t i = 0;
  for (auto _ : state) {
    StatusCode status =
        store.value()->Put(keys[i++ % keys.size()], ByteSpan(value.data(), value.size()));
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_LogAppend)
    ->Args({256, 0})
    ->Args({4096, 0})
    ->Args({256, 1})
    ->UseRealTime();

// Durable (fsync-acknowledged) appends through the sharded group-commit
// engine with 4 client threads: concurrent Puts coalesce into one batched
// fsync per shard, so acknowledged-insert throughput should beat the
// BM_LogAppend sync_every=1 floor by well over the batching factor the
// serving sweep banks on (>= 3x is the recorded acceptance bar).
void BM_GroupCommitAppend(benchmark::State& state) {
  static ScratchDir* scratch = nullptr;
  static std::unique_ptr<ShardedDiskStore> store;
  if (state.thread_index() == 0) {
    scratch = new ScratchDir();
    DiskStoreOptions options;
    options.shard_count = 4;
    options.group_commit = true;
    options.commit_batch_max = 64;
    options.commit_delay_us = 200;
    auto opened = ShardedDiskStore::Open(scratch->Sub("log"), options);
    PAST_CHECK_MSG(opened.ok(), "open failed");
    store = std::move(opened).value();
  }
  Rng rng(15 + static_cast<uint64_t>(state.thread_index()));
  const Bytes value = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  std::vector<U160> keys;
  for (int i = 0; i < 1024; ++i) {
    Bytes raw = rng.RandomBytes(U160::kBytes);
    keys.push_back(U160::FromBytes(ByteSpan(raw.data(), raw.size())));
  }
  size_t i = 0;
  // The state loop's entry barrier orders thread 0's Open() before any
  // thread's first Put; the exit barrier orders every Put before teardown.
  for (auto _ : state) {
    StatusCode status = store->Put(keys[i++ % keys.size()],
                                   ByteSpan(value.data(), value.size()));
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  if (state.thread_index() == 0) {
    store.reset();
    delete scratch;
    scratch = nullptr;
  }
}
BENCHMARK(BM_GroupCommitAppend)->Arg(256)->Threads(4)->UseRealTime();

// Open()-time recovery: replays a log of range(0) live records (the reboot
// cost a PAST node pays before serving its replicas again).
void BM_LogReplay(benchmark::State& state) {
  ScratchDir scratch;
  const std::string dir = scratch.Sub("log");
  DiskStoreOptions options;
  Rng rng(14);
  {
    auto store = DiskStore::Open(dir, options);
    PAST_CHECK_MSG(store.ok(), "open failed");
    const Bytes value = rng.RandomBytes(512);
    for (int64_t i = 0; i < state.range(0); ++i) {
      Bytes raw = rng.RandomBytes(U160::kBytes);
      (void)store.value()->Put(U160::FromBytes(ByteSpan(raw.data(), raw.size())),
                               ByteSpan(value.data(), value.size()));
    }
    (void)store.value()->Sync();
  }
  uint64_t replayed = 0;
  for (auto _ : state) {
    auto reopened = DiskStore::Open(dir, options);
    PAST_CHECK_MSG(reopened.ok(), "replay failed");
    replayed = reopened.value()->stats().replayed_records;
    benchmark::DoNotOptimize(reopened);
  }
  state.counters["replayed_records"] =
      benchmark::Counter(static_cast<double>(replayed));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(replayed));
}
BENCHMARK(BM_LogReplay)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// --- simulation hot paths (BENCH_sim.json baseline) --------------------------
//
// The discrete-event scheduler and the message network are the two inner
// loops every experiment drives millions of times; these benchmarks pin
// their per-operation cost so regressions show up in the BENCH_sim.json
// trajectory.

// Schedule + fire throughput: range(0) events per batch, drained after each
// batch so the queue returns to steady state (slab fully recycled).
void BM_EventQueueScheduleFire(benchmark::State& state) {
  EventQueue queue;
  const int batch = static_cast<int>(state.range(0));
  uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      queue.After(i % 128, [&fired] { ++fired; });
    }
    queue.RunAll();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(64)->Arg(4096);

// Schedule + cancel: every event is cancelled before it can fire — the
// pattern of per-hop ack timers, which are almost always cancelled.
void BM_EventQueueScheduleCancel(benchmark::State& state) {
  EventQueue queue;
  const int batch = static_cast<int>(state.range(0));
  std::vector<EventQueue::EventId> ids(static_cast<size_t>(batch));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      ids[static_cast<size_t>(i)] = queue.After(1000 + i, [] {});
    }
    for (int i = 0; i < batch; ++i) {
      queue.Cancel(ids[static_cast<size_t>(i)]);
    }
    queue.RunAll();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(64)->Arg(4096);

// Timer-wheel schedule + fire throughput with quantized deadlines, the
// keep-alive pattern: range(0) timers per batch land on 16 shared buckets,
// so the underlying queue sees ~16 events instead of range(0).
void BM_TimerWheelSchedule(benchmark::State& state) {
  EventQueue queue;
  TimerWheel wheel(&queue, 64);
  const int batch = static_cast<int>(state.range(0));
  uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      wheel.After(1000 + (i % 16) * 64, [&fired] { ++fired; });
    }
    queue.RunAll();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_TimerWheelSchedule)->Arg(64)->Arg(4096);

// Steady-state interning: the handle-table hit path (hash + two indexed
// loads) every compact-structure insert and resolve pays at scale.
void BM_NodeIdIntern(benchmark::State& state) {
  Rng rng(33);
  std::vector<NodeDescriptor> descs;
  for (int i = 0; i < 8192; ++i) {
    descs.push_back(NodeDescriptor{rng.NextU128(), static_cast<NodeAddr>(i + 1)});
  }
  NodeInternTable table;
  table.Reserve(descs.size());
  for (const NodeDescriptor& d : descs) {
    (void)table.Intern(d);
  }
  size_t i = 0;
  for (auto _ : state) {
    NodeInternTable::Handle h = table.Intern(descs[i & 8191]);
    benchmark::DoNotOptimize(table.id(h));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NodeIdIntern);

// One full keep-alive round at N=10k: every node's wheel timer fires,
// heartbeats its two ring neighbours, and reschedules. Items processed = node
// ticks, so the per-node maintenance cost is the reported rate's reciprocal.
void BM_KeepAliveTick(benchmark::State& state) {
  OverlayOptions opts;
  opts.seed = 3401;
  opts.pastry.keep_alive_period = 1 * kMicrosPerSecond;
  opts.pastry.keep_alive_quantum = 100 * kMicrosPerMilli;
  opts.pastry.failure_timeout = 4 * kMicrosPerSecond;
  opts.network.expected_endpoints = 10000;
  Overlay overlay(opts);
  overlay.BuildFast(10000);
  for (auto _ : state) {
    overlay.Run(opts.pastry.keep_alive_period);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_KeepAliveTick)->Unit(benchmark::kMillisecond)->Iterations(3);

struct NullReceiver : NetReceiver {
  uint64_t received = 0;
  size_t bytes = 0;
  void OnMessage(NodeAddr, ByteSpan wire) override {
    ++received;
    bytes += wire.size();
  }
};

// Send() cost alone: the scheduling half of a message hop (latency sampling,
// metric updates, closure construction). The queue is drained outside the
// timed region.
void BM_NetworkSend(benchmark::State& state) {
  EventQueue queue;
  Rng topo_rng(21);
  Topology topo(TopologyKind::kSphere, 1000.0, &topo_rng);
  Network net(&queue, &topo, NetworkConfig{}, 22);
  NullReceiver receivers[2];
  NodeAddr a = net.Register(&receivers[0]);
  NodeAddr b = net.Register(&receivers[1]);
  Rng payload_rng(23);
  const Bytes payload = payload_rng.RandomBytes(static_cast<size_t>(state.range(0)));
  int in_flight = 0;
  for (auto _ : state) {
    net.Send(a, b, Bytes(payload));
    if (++in_flight == 4096) {
      state.PauseTiming();
      queue.RunAll();
      in_flight = 0;
      state.ResumeTiming();
    }
  }
  queue.RunAll();
  benchmark::DoNotOptimize(receivers[1].received);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkSend)->Arg(64)->Arg(1024);

// Full send -> deliver round trips in batches: what a routed hop costs the
// simulator end to end.
void BM_NetworkDeliver(benchmark::State& state) {
  EventQueue queue;
  Rng topo_rng(24);
  Topology topo(TopologyKind::kSphere, 1000.0, &topo_rng);
  Network net(&queue, &topo, NetworkConfig{}, 25);
  NullReceiver receivers[8];
  std::vector<NodeAddr> addrs;
  for (auto& r : receivers) {
    addrs.push_back(net.Register(&r));
  }
  Rng payload_rng(26);
  const Bytes payload = payload_rng.RandomBytes(static_cast<size_t>(state.range(0)));
  const int batch = 1024;
  size_t i = 0;
  for (auto _ : state) {
    for (int m = 0; m < batch; ++m) {
      net.Send(addrs[i % addrs.size()], addrs[(i + 1) % addrs.size()],
               Bytes(payload));
      ++i;
    }
    queue.RunAll();
  }
  uint64_t total = 0;
  for (const auto& r : receivers) {
    total += r.received;
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_NetworkDeliver)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);

// --- real-socket transport (BENCH_net.json baseline) -------------------------
// The socket backend carries every inter-daemon byte in a real cluster;
// these pin the frame codec and the full loopback path so transport
// regressions show up in the BENCH_net.json trajectory.

// Frame codec alone: encode a payload into a wire frame and decode it back.
// CRC32C over the payload dominates at the larger sizes.
void BM_FrameCodec(benchmark::State& state) {
  Rng rng(31);
  const Bytes payload = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes frame = EncodeFrame(7, 9, ByteSpan(payload.data(), payload.size()));
    FrameHeader header;
    ByteSpan body;
    FrameError err = DecodeFrame(ByteSpan(frame.data(), frame.size()),
                                 1u << 20, &header, &body);
    PAST_CHECK_MSG(err == FrameError::kNone, "codec round-trip failed");
    benchmark::DoNotOptimize(body);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameCodec)->Arg(64)->Arg(1200)->Arg(16384);

// Full loopback delivery through two SocketTransports on 127.0.0.1: Send()
// at one endpoint, busy-poll both until the receiver has the message.
// Covers frame encode, the syscalls, kernel loopback, decode hardening, and
// delivery. 1200 rides the UDP datagram path, 16384 the cached-TCP path.
void BM_NetLoopback(benchmark::State& state) {
  struct CountSink : NetReceiver {
    uint64_t count = 0;
    void OnMessage(NodeAddr, ByteSpan) override { ++count; }
  };
  SocketTransport a;
  SocketTransport b;
  PAST_CHECK_MSG(a.Open() == StatusCode::kOk, "open failed");
  PAST_CHECK_MSG(b.Open() == StatusCode::kOk, "open failed");
  CountSink sink_a;
  CountSink sink_b;
  NodeAddr a_addr = a.Register(&sink_a);
  NodeAddr b_addr = b.Register(&sink_b);
  Rng rng(32);
  const Bytes payload = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  uint64_t want = 0;
  for (auto _ : state) {
    a.Send(a_addr, b_addr, payload);
    ++want;
    // One message in flight at a time: loopback never drops it, so this
    // terminates; the spin bound catches a broken transport.
    uint64_t spins = 0;
    while (sink_b.count < want) {
      (void)a.PollOnce(0);
      (void)b.PollOnce(0);
      PAST_CHECK_MSG(++spins < 100000000ull, "loopback delivery wedged");
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NetLoopback)->Arg(1200)->Arg(16384)->Unit(benchmark::kMicrosecond);

// --- observability primitives -----------------------------------------------
// The tracing and quantile instruments sit on every client-op and hop path;
// these benchmarks pin both the armed cost and the disabled fast path so the
// "cheap enough to stay on" claim is checked by BENCH_obs.json, not asserted.

// One client-op span as the storage layer records it: start, one annotation,
// end. range(0)=0 measures the disabled branch-and-return path (the cost
// every untraced run pays), range(0)=1 the armed path.
void BM_SpanOverhead(benchmark::State& state) {
  Tracer tracer;
  tracer.Enable(state.range(0) != 0);
  int64_t now = 0;
  for (auto _ : state) {
    uint64_t id = tracer.StartSpan("past.insert", now, 7);
    tracer.Annotate(id, "status", "ok");
    tracer.EndSpan(id, now + 100);
    now += 101;
    if (tracer.size() >= (1u << 16)) {
      state.PauseTiming();
      tracer.Clear();
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(tracer.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanOverhead)->Arg(0)->Arg(1);

// One latency sample: frexp + a handful of integer ops, no allocation once
// the bucket window covers the value range.
void BM_LogHistogramObserve(benchmark::State& state) {
  Rng rng(27);
  std::vector<double> values(4096);
  for (double& v : values) {
    v = 1.0 + rng.UniformDouble() * 1e6;  // ~20 octaves, like latencies
  }
  LogHistogram hist;
  size_t i = 0;
  for (auto _ : state) {
    hist.Observe(values[i++ & 4095]);
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LogHistogramObserve);

// One timeseries row over a representative column set (two counters, a
// gauge, a quantile histogram): the per-tick cost of the churn experiment's
// sampler.
void BM_TimeSeriesSample(benchmark::State& state) {
  MetricsRegistry metrics;
  metrics.GetCounter("net.sent")->Inc(12345);
  metrics.GetCounter("past.demotions")->Inc(67);
  metrics.GetGauge("sim.queue_depth")->Set(42.0);
  LogHistogram* lat = metrics.GetLogHistogram("past.lookup.latency_us");
  Rng rng(28);
  for (int i = 0; i < 10000; ++i) {
    lat->Observe(1.0 + rng.UniformDouble() * 1e5);
  }
  TimeSeriesSampler sampler(&metrics, 1000);
  sampler.Track("net.sent");
  sampler.Track("past.demotions");
  sampler.Track("sim.queue_depth");
  sampler.Track("past.lookup.latency_us");
  int64_t now = 0;
  for (auto _ : state) {
    sampler.Sample(now);
    now += 1000;
    if (sampler.rows() >= (1u << 14)) {
      state.PauseTiming();
      sampler = TimeSeriesSampler(&metrics, 1000);
      sampler.Track("net.sent");
      sampler.Track("past.demotions");
      sampler.Track("sim.queue_depth");
      sampler.Track("past.lookup.latency_us");
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(sampler.rows());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeSeriesSample)->Unit(benchmark::kMicrosecond);

// Console output plus a JSON row per run, written on Finish() in the same
// {"experiment", "results"} shape the exp_* binaries use.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      JsonValue row = JsonValue::Object();
      row.Set("name", run.benchmark_name());
      row.Set("iterations", static_cast<int64_t>(run.iterations));
      row.Set("real_time", run.GetAdjustedRealTime());
      row.Set("cpu_time", run.GetAdjustedCPUTime());
      row.Set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [name, counter] : run.counters) {
        row.Set(name, counter.value);
      }
      rows_.Append(std::move(row));
    }
  }

  bool Write(const std::string& path) {
    JsonValue root = JsonValue::Object();
    root.Set("experiment", "micro");
    JsonValue results = JsonValue::Object();
    results.Set("benchmarks", std::move(rows_));
    root.Set("results", std::move(results));
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return false;
    }
    out << root.Dump(2) << "\n";
    out.flush();
    if (!out) {
      return false;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

 private:
  JsonValue rows_ = JsonValue::Array();
};

}  // namespace
}  // namespace past

int main(int argc, char** argv) {
  // Strip the exp-style flags before handing the rest to google-benchmark.
  std::string json_path;
  bool smoke = false;
  std::vector<char*> remaining;
  remaining.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      remaining.push_back(argv[i]);
    }
  }
  static char kMinTime[] = "--benchmark_min_time=0.01";
  if (smoke) {
    remaining.push_back(kMinTime);
  }
  int remaining_argc = static_cast<int>(remaining.size());
  benchmark::Initialize(&remaining_argc, remaining.data());
  if (benchmark::ReportUnrecognizedArguments(remaining_argc, remaining.data())) {
    return 1;
  }
  past::JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !reporter.Write(json_path)) {
    return 1;
  }
  return 0;
}
