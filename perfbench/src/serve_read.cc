// serve-read: read-only v2 query batches over four fixed tenant snapshots.
//
// Four CER-twin consumption matrices (32x32 cells x 120 daily slices) are
// published as identity snapshots, written as .stpt containers and loaded
// into one SnapshotRegistry behind an EventLoopServer. Four client
// connections then send batches drawn from a repeating pool, each batch
// addressed to a tenant drawn from a Zipf law: first a closed loop
// (query_qps), then an open loop at a fixed offered rate, timed from when
// each batch was due (query_p50_us, query_tail_us). Nothing publishes or
// swaps, and the pool fits the engines' LRU caches, so this is the workload
// on which the cache is hot.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "datagen/dataset.h"
#include "harness.h"
#include "obs/trace_context.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/registry.h"
#include "serve/snapshot.h"

namespace perfbench {
namespace {

using stpt::Rng;
using stpt::grid::ConsumptionMatrix;
using stpt::query::RangeQuery;
using stpt::query::Workload;

constexpr int kTenants = 4;
constexpr int kHouseholds = 400;  // per tenant
constexpr int kGrid = 32;
constexpr int kDays = 120;
constexpr int kConnections = 4;
/// 16,384 distinct queries in all, which the engines' LRU caches hold.
/// Batches of 128 keep the per-batch hand-offs between threads (wake-ups
/// whose CPU cost grows with the host's load) a small part of a query's
/// cost.
constexpr int kPoolBatches = 128;
constexpr int kBatchQueries = 128;
constexpr double kZipfExponent = 1.0;
/// Offered rate of the open-loop phase, in batches/s over all connections.
/// Fixed (not derived from the closed-loop result) so that two commits are
/// compared at the same load.
constexpr double kOpenLoopBatchesPerS = 500.0;
constexpr double kSegmentSeconds = 0.5;
/// The closed loop runs as consecutive segments of this length; its
/// figures are medians over them.
constexpr double kClosedSegmentSeconds = 0.5;
constexpr uint32_t kTraceSamplePeriod = 16;
constexpr int kSetupRepeats = 3;

std::string TenantName(int k) { return "utility" + std::to_string(k); }

struct PoolBatch {
  int tenant = 0;
  Workload queries;
  std::vector<double> expected;
};

/// One generation of the serving stack: the registry and its server.
struct Stack {
  std::unique_ptr<stpt::serve::SnapshotRegistry> registry;
  std::unique_ptr<stpt::serve::EventLoopServer> server;
};

/// Generates the tenants' matrices, writes their snapshots and starts a
/// server over them. Appends to `release_ms` the time each tenant took
/// from matrix to servable release (snapshot build, write, registry load).
/// Returns false (after recording why) on a program error.
bool SetUp(const Args& args, Result& result,
           std::vector<ConsumptionMatrix>& matrices, Stack& stack,
           std::vector<double>& release_ms) {
  matrices.clear();
  auto registry = stpt::serve::SnapshotRegistry::Create();
  if (!registry.ok()) {
    result.CheckFailed("registry: " + registry.status().ToString());
    return false;
  }
  stack.registry = std::move(*registry);
  const Rng base(args.seed);
  for (int k = 0; k < kTenants; ++k) {
    stpt::datagen::DatasetSpec spec = stpt::datagen::CerSpec();
    spec.num_households = kHouseholds;
    stpt::datagen::GenerateOptions gen;
    gen.grid_x = kGrid;
    gen.grid_y = kGrid;
    gen.hours = kDays * 24;
    Rng rng = base.Fork(static_cast<uint64_t>(k));
    auto ds = stpt::datagen::GenerateDataset(
        spec, stpt::datagen::SpatialDistribution::kLosAngeles, gen, rng);
    if (!ds.ok()) {
      result.CheckFailed("datagen: " + ds.status().ToString());
      return false;
    }
    auto matrix = stpt::datagen::BuildConsumptionMatrix(*ds, 24);
    if (!matrix.ok()) {
      result.CheckFailed("matrix: " + matrix.status().ToString());
      return false;
    }
    const uint64_t r0 = NowNs();
    stpt::serve::SnapshotMeta meta;
    meta.algorithm = "identity";
    const std::string path =
        args.tmp_dir + "/serve/" + TenantName(k) + stpt::serve::kSnapshotExtension;
    const auto written = stpt::serve::WriteSnapshot(
        stpt::serve::Snapshot::FromMatrix(*matrix, meta), path);
    if (!written.ok()) {
      result.CheckFailed("write snapshot: " + written.ToString());
      return false;
    }
    auto epoch = stack.registry->LoadFile({TenantName(k), "0"}, path);
    if (!epoch.ok()) {
      result.CheckFailed("load snapshot: " + epoch.status().ToString());
      return false;
    }
    release_ms.push_back(static_cast<double>(NowNs() - r0) * 1e-6);
    matrices.push_back(std::move(*matrix));
  }
  auto server = stpt::serve::EventLoopServer::Create(
      stack.registry.get(), stpt::serve::EventLoopOptions{});
  if (!server.ok()) {
    result.CheckFailed("server: " + server.status().ToString());
    return false;
  }
  stack.server = std::move(*server);
  if (const auto st = stack.server->Start(); !st.ok()) {
    result.CheckFailed("server start: " + st.ToString());
    return false;
  }
  return true;
}

std::vector<PoolBatch> MakePool(const Args& args,
                                const std::vector<ConsumptionMatrix>& matrices) {
  Rng rng = Rng(args.seed).Fork(0x9001);
  std::vector<double> cdf;
  double total = 0.0;
  for (int k = 0; k < kTenants; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf.push_back(total);
  }
  std::vector<PoolBatch> pool(kPoolBatches);
  for (PoolBatch& batch : pool) {
    const double u = rng.Uniform(0.0, total);
    batch.tenant = static_cast<int>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    batch.tenant = std::min(batch.tenant, kTenants - 1);
    const ConsumptionMatrix& m = matrices[static_cast<size_t>(batch.tenant)];
    batch.queries = RandomBoxes(m.dims(), kBatchQueries, rng);
    for (const RangeQuery& q : batch.queries) {
      batch.expected.push_back(NaiveBoxSum(m, q));
    }
  }
  return pool;
}

/// Per-connection tallies; merged after the threads join.
struct ClientLog {
  uint64_t batches = 0;
  std::vector<double> latency_us;   // open loop: due -> response
  std::vector<double> lateness_us;  // open loop: due -> send
  std::vector<int> segment;         // open loop: segment of each sample
  std::vector<std::string> errors;
  double cpu_s = 0.0;  // the client thread's CPU time
  /// Sampled requests: trace id -> client round trip (send -> response).
  std::unordered_map<std::string, double> traced_rtt_us;
};

class Runner {
 public:
  Runner(const Args& args, const std::vector<PoolBatch>& pool,
         const std::vector<double>& abs_totals, int port)
      : args_(args), pool_(pool), abs_totals_(abs_totals), port_(port) {}

  /// Sends one pool batch and checks the response. Returns false (and logs
  /// into `log.errors`) on a wire error or a wrong answer.
  bool Send(stpt::serve::Client& client, size_t index, uint64_t request_no,
            int conn, ClientLog& log, double* send_s, double* recv_s) {
    const PoolBatch& batch = pool_[index];
    stpt::obs::TraceContext ctx;
    if (args_.trace) {
      ctx = stpt::obs::MakeTraceContext(
          trace_base_, (static_cast<uint64_t>(conn) << 40) | request_no,
          kTraceSamplePeriod);
    }
    *send_s = NowSeconds();
    auto response =
        client.QueryTenant(TenantName(batch.tenant), "0", batch.queries, 0, ctx);
    *recv_s = NowSeconds();
    if (!response.ok()) {
      log.errors.push_back("query: " + response.status().ToString());
      return false;
    }
    if (ctx.sampled) {
      log.traced_rtt_us[stpt::obs::TraceIdHex(ctx)] = (*recv_s - *send_s) * 1e6;
    }
    ++log.batches;
    if (response->epoch != 1) {
      log.errors.push_back("response epoch " + std::to_string(response->epoch) +
                           " != loaded epoch 1");
      return false;
    }
    if (response->answers.size() != batch.expected.size()) {
      log.errors.push_back("answer count mismatch");
      return false;
    }
    for (size_t i = 0; i < batch.expected.size(); ++i) {
      double expected = batch.expected[i];
      if (args_.corrupt && index == 0 && i == 0) expected += 1.0;
      if (!AnswerMatches(response->answers[i], expected,
                         abs_totals_[static_cast<size_t>(batch.tenant)])) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "tenant %d batch %zu query %zu: served %.17g, naive %.17g",
                      batch.tenant, index, i, response->answers[i], expected);
        log.errors.push_back(buf);
        return false;
      }
    }
    return true;
  }

  /// Closed loop: every connection sends its next batch as soon as the
  /// previous one is answered, for `seconds`. With `passes` > 0 the
  /// connections instead split that many passes over the pool between them
  /// (the warm-up). Segment `segment` starts each connection at its own
  /// place in the pool.
  std::vector<ClientLog> ClosedLoop(double seconds, int passes = 0, int segment = 0) {
    std::vector<ClientLog> logs(kConnections);
    std::vector<std::thread> threads;
    const double end_s = NowSeconds() + seconds;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<size_t>(c)];
        const double cpu0 = ThreadCpuSeconds();
        auto client = stpt::serve::Client::Connect("127.0.0.1", port_);
        if (!client.ok()) {
          log.errors.push_back("connect: " + client.status().ToString());
          return;
        }
        size_t index = (static_cast<size_t>(c) * pool_.size() / kConnections +
                        static_cast<size_t>(segment) * 131) % pool_.size();
        const uint64_t quota = passes * pool_.size() / kConnections;
        double send_s = 0.0, recv_s = 0.0;
        for (uint64_t n = 0; passes > 0 ? n < quota : NowSeconds() < end_s; ++n) {
          if (!Send(*client, index, (static_cast<uint64_t>(segment) << 32) | n, c,
                    log, &send_s, &recv_s)) {
            break;
          }
          index = (index + 1) % pool_.size();
        }
        log.cpu_s = ThreadCpuSeconds() - cpu0;
      });
    }
    for (std::thread& t : threads) t.join();
    return logs;
  }

  /// Open loop: connection c owns every kConnections-th slot of one fixed
  /// schedule at kOpenLoopBatchesPerS; a batch is timed from its due time.
  std::vector<ClientLog> OpenLoop(int segments, double start_s) {
    std::vector<ClientLog> logs(kConnections);
    std::vector<std::thread> threads;
    const double period_s = 1.0 / kOpenLoopBatchesPerS;
    const uint64_t slots = static_cast<uint64_t>(
        std::llround(segments * kSegmentSeconds * kOpenLoopBatchesPerS));
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<size_t>(c)];
        auto client = stpt::serve::Client::Connect("127.0.0.1", port_);
        if (!client.ok()) {
          log.errors.push_back("connect: " + client.status().ToString());
          return;
        }
        log.latency_us.reserve(slots / kConnections + 1);
        log.lateness_us.reserve(slots / kConnections + 1);
        log.segment.reserve(slots / kConnections + 1);
        for (uint64_t slot = static_cast<uint64_t>(c); slot < slots;
             slot += kConnections) {
          const double due_s = start_s + static_cast<double>(slot) * period_s;
          while (NowSeconds() < due_s) {
            const double wait = due_s - NowSeconds();
            if (wait > 200e-6) {
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(wait - 100e-6));
            }
          }
          double send_s = 0.0, recv_s = 0.0;
          // Trace streams of this phase are disjoint from the closed loop's.
          if (!Send(*client, slot % pool_.size(), slot | (uint64_t{1} << 39), c,
                    log, &send_s, &recv_s)) {
            return;
          }
          log.latency_us.push_back((recv_s - due_s) * 1e6);
          log.lateness_us.push_back((send_s - due_s) * 1e6);
          log.segment.push_back(
              static_cast<int>((due_s - start_s) / kSegmentSeconds));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return logs;
  }

 private:
  const Args& args_;
  const std::vector<PoolBatch>& pool_;
  const std::vector<double>& abs_totals_;
  int port_;
  const Rng trace_base_{0x7ACE};
};

bool Merge(const std::vector<ClientLog>& logs, Result& result,
           ClientLog& merged) {
  bool ok = true;
  for (const ClientLog& log : logs) {
    merged.batches += log.batches;
    merged.latency_us.insert(merged.latency_us.end(), log.latency_us.begin(),
                             log.latency_us.end());
    merged.lateness_us.insert(merged.lateness_us.end(), log.lateness_us.begin(),
                              log.lateness_us.end());
    merged.segment.insert(merged.segment.end(), log.segment.begin(),
                          log.segment.end());
    merged.cpu_s += log.cpu_s;
    merged.traced_rtt_us.insert(log.traced_rtt_us.begin(),
                                log.traced_rtt_us.end());
    for (const std::string& e : log.errors) {
      result.CheckFailed(e);
      ok = false;
    }
  }
  return ok;
}

/// Mean self time of each event-loop stage over the sampled requests whose
/// client round trip is known; `unattributed` is the mean round trip minus
/// the stage means.
void ReportLoopStages(const ClientLog& open, Result& result) {
  static const std::vector<std::pair<std::string, std::string>> kStages = {
      {"serve/queue", "loop.queue_us"},
      {"serve/parse", "loop.parse_us"},
      {"serve/dispatch_wait", "loop.dispatch_wait_us"},
      {"serve/exec", "loop.exec_us"},
      {"serve/write", "loop.write_us"}};
  std::map<std::string, double> stage_sum_us;
  std::map<std::string, int> seen;
  for (const stpt::obs::TraceSpan& span :
       stpt::obs::TraceStore::Global().Snapshot()) {
    stpt::obs::TraceContext id;
    id.trace_hi = span.trace_hi;
    id.trace_lo = span.trace_lo;
    const std::string hex = stpt::obs::TraceIdHex(id);
    if (open.traced_rtt_us.count(hex) == 0) continue;
    stage_sum_us[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
    if (span.name == "serve/exec") ++seen[hex];
  }
  // Only requests whose spans all survived the store's bound count.
  double rtt_sum = 0.0;
  for (const auto& [hex, count] : seen) rtt_sum += open.traced_rtt_us.at(hex);
  const double n = static_cast<double>(std::max<size_t>(seen.size(), 1));
  double attributed = 0.0;
  for (const auto& [span_name, metric] : kStages) {
    const double mean = stage_sum_us[span_name] / n;
    attributed += mean;
    result.Metric(metric, mean, "us");
  }
  result.Metric("loop.unattributed_us", rtt_sum / n - attributed, "us");
  std::printf("# loop stages: %zu sampled requests\n", seen.size());
}

/// In-process floors on the workload's own batches: the engine's
/// AnswerBatch and a raw PrefixSum3D::BoxSum over the same queries.
void ReportEngineFloors(const std::vector<PoolBatch>& pool,
                        const std::vector<ConsumptionMatrix>& matrices,
                        Stack& stack, Result& result) {
  constexpr int kPasses = 20;
  uint64_t queries = 0;
  const uint64_t a0 = NowNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const PoolBatch& batch : pool) {
      auto gen = stack.registry->Route(TenantName(batch.tenant), "0");
      if (!gen.ok()) continue;
      auto answers = (*gen)->engine->AnswerBatch(batch.queries);
      if (answers.ok()) queries += answers->size();
    }
  }
  const uint64_t a1 = NowNs();
  std::vector<stpt::grid::PrefixSum3D> prefixes;
  for (const ConsumptionMatrix& m : matrices) prefixes.emplace_back(m);
  double sink = 0.0;
  uint64_t boxes = 0;
  const uint64_t b0 = NowNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const PoolBatch& batch : pool) {
      const auto& prefix = prefixes[static_cast<size_t>(batch.tenant)];
      for (const RangeQuery& q : batch.queries) {
        sink += prefix.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1);
        ++boxes;
      }
    }
  }
  const uint64_t b1 = NowNs();
  if (sink == 12345.678) std::printf("#\n");  // keeps the loop observable
  result.Metric("serve.answer_ns_per_query",
                static_cast<double>(a1 - a0) / std::max<uint64_t>(queries, 1),
                "ns");
  result.Metric("serve.boxsum_ns_per_query",
                static_cast<double>(b1 - b0) / std::max<uint64_t>(boxes, 1),
                "ns");
}

}  // namespace

void RunServeRead(const Args& args, Result& result) {
  if (!MakeDirs(args.tmp_dir + "/serve")) {
    result.CheckFailed("cannot create " + args.tmp_dir + "/serve");
    return;
  }
  // Set-up is repeated and its median reported; the last stack serves.
  std::vector<ConsumptionMatrix> matrices;
  Stack stack;
  StealMeter steal;
  std::vector<double> setup_cpu_s, release_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (stack.server) stack.server->Stop();
    stack = Stack{};
    const double c0 = ProcessCpuSeconds();
    if (!SetUp(args, result, matrices, stack, release_ms)) return;
    setup_cpu_s.push_back(ProcessCpuSeconds() - c0);
  }
  const std::vector<PoolBatch> pool = MakePool(args, matrices);
  std::vector<double> abs_totals;
  for (const ConsumptionMatrix& m : matrices) {
    abs_totals.push_back(AbsTotal(m));
  }
  Runner runner(args, pool, abs_totals, stack.server->port());
  auto& global = stpt::obs::Registry::Global();
  const uint64_t dispatched0 = ReadCounter(global, "stpt_exec_regions_dispatched_total");
  const uint64_t inline0 = ReadCounter(global, "stpt_exec_regions_inline_total");
  const HistTotals region0 = ReadHistogram(global, "stpt_exec_region_ns");

  // Half the run closed-loop, half open-loop, both in whole segments.
  const int closed_segments =
      std::max(1, static_cast<int>(args.seconds / 2.0 / kClosedSegmentSeconds));
  const int segments =
      std::max(1, static_cast<int>(args.seconds / 2.0 / kSegmentSeconds));
  // One untimed pass over the pool fills the engines' caches first.
  ClientLog warm;
  if (!Merge(runner.ClosedLoop(0.0, /*passes=*/1), result, warm)) return;
  // Per closed-loop segment: throughput, and the CPU time of the program's
  // threads (event loop, exec pool) per query, i.e. the process's CPU time
  // minus that of the benchmark's client threads.
  uint64_t closed_batches = 0;
  std::vector<double> segment_qps, segment_cpu_us;
  for (int k = 0; k < closed_segments; ++k) {
    const double t0 = NowSeconds();
    const double cpu0 = ProcessCpuSeconds();
    ClientLog closed;
    const bool closed_ok =
        Merge(runner.ClosedLoop(kClosedSegmentSeconds, 0, k + 1), result, closed);
    const double cpu_s = ProcessCpuSeconds() - cpu0 - closed.cpu_s;
    const double wall_s = NowSeconds() - t0;
    closed_batches += closed.batches;
    if (!closed_ok) {
      result.Attempted(warm.batches + closed_batches);
      return;
    }
    const double queries = static_cast<double>(closed.batches) * kBatchQueries;
    segment_qps.push_back(queries / wall_s);
    segment_cpu_us.push_back(cpu_s * 1e6 / queries);
  }
  stpt::obs::TraceStore::Global().Clear();
  ClientLog open;
  const double open_start_s = NowSeconds() + 0.05;
  const bool open_ok = Merge(runner.OpenLoop(segments, open_start_s), result, open);

  result.Attempted(warm.batches + closed_batches + open.batches);
  if (!open_ok) return;

  std::vector<std::vector<double>> by_segment(static_cast<size_t>(segments));
  for (size_t i = 0; i < open.latency_us.size(); ++i) {
    const size_t s = std::min(static_cast<size_t>(std::max(open.segment[i], 0)),
                              by_segment.size() - 1);
    by_segment[s].push_back(open.latency_us[i]);
  }
  // Per half-second segment: p50 and tail (one stall moves one segment's
  // figures, not the run's), then the median over the segments.
  std::vector<double> p50s, tails;
  Tail tail;
  for (const std::vector<double>& samples : by_segment) {
    if (samples.empty()) continue;
    tail = TailPercentile(samples);
    tails.push_back(tail.value);
    p50s.push_back(Median(samples));
  }
  std::printf(
      "# query_tail_us: p%g of %zu samples per %gs segment, %zu segments "
      "(%zu open-loop batches at %g/s); %.1f%% of the VM's CPU time stolen\n",
      tail.percentile, tail.samples, kSegmentSeconds, tails.size(),
      open.latency_us.size(), kOpenLoopBatchesPerS, 100.0 * steal.Share());

  const double cpu_us_per_query = CpuCostQuartile(segment_cpu_us);
  PrintFigure("query_qps", Median(segment_qps), "queries/s");
  PrintFigure("query_p50_us", Median(p50s), "us");
  PrintFigure("query_tail_us", Median(tails), "us");
  PrintFigure("release_ms", Median(release_ms), "ms");
  PrintFigure("cpu_us_per_item", cpu_us_per_query, "us per query");
  PrintFigure("cpu_us_per_item_p50", Median(segment_cpu_us), "us per query");
  if (!args.trace) {
    ReportEndToEnd(result, Median(setup_cpu_s), cpu_us_per_query);
    stack.server->Stop();
    return;
  }
  ReportLoopStages(open, result);
  const uint64_t ops = warm.batches + closed_batches + open.batches;
  const HistTotals region1 = ReadHistogram(global, "stpt_exec_region_ns");
  result.Metric("exec.regions_dispatched",
                static_cast<double>(ReadCounter(global, "stpt_exec_regions_dispatched_total") -
                                    dispatched0) / static_cast<double>(ops),
                "count/op");
  result.Metric("exec.regions_inline",
                static_cast<double>(ReadCounter(global, "stpt_exec_regions_inline_total") -
                                    inline0) / static_cast<double>(ops),
                "count/op");
  result.Metric("exec.dispatched_region_us",
                region1.count > region0.count
                    ? (region1.sum - region0.sum) * 1e-3 /
                          static_cast<double>(region1.count - region0.count)
                    : 0.0,
                "us");
  uint64_t hits = 0, answered = 0;
  for (const auto& info : stack.registry->List()) {
    hits += info.stats.cache_hits;
    answered += info.stats.queries;
  }
  result.Metric("serve.cache_hit_ratio",
                static_cast<double>(hits) / std::max<uint64_t>(answered, 1),
                "ratio");
  ReportEngineFloors(pool, matrices, stack, result);
  result.Metric("gen.lateness_p50_us", Median(open.lateness_us), "us");
  result.Metric("gen.lateness_max_us",
                open.lateness_us.empty()
                    ? 0.0
                    : *std::max_element(open.lateness_us.begin(),
                                        open.lateness_us.end()),
                "us");
  stack.server->Stop();
}

}  // namespace perfbench
