// live-ingest: the continuous w-event path, end to end over the wire.
//
// Two CER-twin fleets are replayed in time order, one reading per household
// per hour at the household's home cell. Each feeder connection streams its
// fleet as kReadingBatch frames (one hour per frame) to its own tenant shard
// (16x16 cells, a 48-slice ring of hourly slices, day-long w-event window);
// every epoch writes its .stpt container to a snapshot directory in the
// run's scratch directory. Two query connections read the first shard for
// as long as it hot-swaps, each one batch per hourly frame the shard acks,
// so every swap leaves that shard's cache cold. Pacing the probes by the
// feed, not by the clock, keeps their number per round fixed, so that the
// server's CPU time per reading does not grow with the wall time a round
// takes.
//
// The pipeline runs without a WAL: its fsync at every epoch made the
// republish time a measure of the VM's disk, which slowed with every run
// (README.md).
//
// The readings do not depend on --seed: where a shard's accountant runs
// dry depends on the data and the noise, and the stream deliberately runs
// past that point (the accountant is sized for a fixed horizon, but the
// ring admits slices forever). Every reading after it is rejected, and
// those rejections are this workload's failed operations, the same count in
// every round. The seed drives the query pool. A round's operations are its
// readings; the query batches are probes whose count follows the length of
// the swap phase.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dataset.h"
#include "dp/audit_ledger.h"
#include "harness.h"
#include "ingest/clock.h"
#include "ingest/pipeline.h"
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
using stpt::serve::MeterReading;

constexpr int kShards = 2;
/// Per shard. 1000 meters make an hourly frame of 1000 readings, so that
/// the per-frame hand-offs between threads are a small part of a
/// reading's cost.
constexpr int kHouseholds = 1000;
constexpr int kGrid = 16;
constexpr int kRingSlices = 48;   // ct: two days of hourly slices
constexpr int kWindow = 24;       // w-event window: one day
constexpr double kEpsilon = 1.0;  // per window
constexpr double kDissimilarityFraction = 0.2;
constexpr int kDays = 8;          // replayed per round
constexpr int kEpochHours = 6;    // publish every 6 hours of readings
constexpr int kQueryClients = 2;
constexpr int kQueryBatch = 16;
constexpr int kQueryPool = 64;
constexpr uint32_t kTraceSamplePeriod = 8;
constexpr int kSetupRepeats = 9;
constexpr const char* kExhausted = "accountant_exhausted";

std::string TenantName(int s) { return std::string("fleet-") + char('a' + s); }

/// Where IngestPipeline writes a shard's audit ledger: the configured
/// ledger path, suffixed with the shard for every non-default shard.
std::string LedgerPath(const std::string& dir, const std::string& tenant) {
  return dir + "/ledger.jsonl." + tenant + ".0";
}

/// The hourly frames of one shard's fleet, in time order.
using Fleet = std::vector<std::vector<MeterReading>>;

bool MakeFleet(int shard, Fleet& fleet, Result& result) {
  stpt::datagen::DatasetSpec spec = stpt::datagen::CerSpec();
  spec.num_households = kHouseholds;
  stpt::datagen::GenerateOptions gen;
  gen.grid_x = kGrid;
  gen.grid_y = kGrid;
  gen.hours = kDays * 24;
  Rng rng(0xF1EE7 + static_cast<uint64_t>(shard));
  auto ds = stpt::datagen::GenerateDataset(
      spec, stpt::datagen::SpatialDistribution::kLosAngeles, gen, rng);
  if (!ds.ok()) {
    result.CheckFailed("datagen: " + ds.status().ToString());
    return false;
  }
  fleet.assign(static_cast<size_t>(gen.hours), {});
  for (int t = 0; t < gen.hours; ++t) {
    auto& frame = fleet[static_cast<size_t>(t)];
    frame.reserve(ds->households.size());
    for (size_t h = 0; h < ds->households.size(); ++h) {
      const auto& house = ds->households[h];
      frame.push_back({static_cast<uint64_t>(h), house.cell_x, house.cell_y, t,
                       house.series[static_cast<size_t>(t)]});
    }
  }
  return true;
}

/// One generation of the ingest stack; rounds get a fresh one so that
/// state (and memory) does not carry over.
struct Stack {
  std::string dir, snap_dir;
  stpt::ingest::SystemClock clock;
  std::unique_ptr<stpt::serve::SnapshotRegistry> registry;
  std::unique_ptr<stpt::ingest::IngestPipeline> pipeline;
  std::unique_ptr<stpt::serve::EventLoopServer> server;

  ~Stack() {
    if (server) server->Stop();
  }
};

bool StartStack(const std::string& dir, Stack& stack, Result& result) {
  stack.dir = dir;
  stack.snap_dir = dir + "/snapshots";
  if (!MakeDirs(stack.snap_dir)) {
    result.CheckFailed("cannot create " + dir);
    return false;
  }
  auto registry = stpt::serve::SnapshotRegistry::Create();
  if (!registry.ok()) {
    result.CheckFailed("registry: " + registry.status().ToString());
    return false;
  }
  stack.registry = std::move(*registry);
  stpt::ingest::IngestOptions options;
  options.dims = {kGrid, kGrid, kRingSlices};
  options.epoch_readings = static_cast<int64_t>(kEpochHours) * kHouseholds;
  options.window = kWindow;
  options.epsilon = kEpsilon;
  options.dissimilarity_fraction = kDissimilarityFraction;
  options.unit_sensitivity = stpt::datagen::CerSpec().clip_factor;
  options.snapshot_dir = stack.snap_dir;
  options.ledger_path = dir + "/ledger.jsonl";
  options.max_shards = kShards;
  auto pipeline = stpt::ingest::IngestPipeline::Create(stack.registry.get(),
                                                       &stack.clock, options);
  if (!pipeline.ok()) {
    result.CheckFailed("pipeline: " + pipeline.status().ToString());
    return false;
  }
  stack.pipeline = std::move(*pipeline);
  auto server = stpt::serve::EventLoopServer::Create(
      stack.registry.get(), stpt::serve::EventLoopOptions{});
  if (!server.ok()) {
    result.CheckFailed("server: " + server.status().ToString());
    return false;
  }
  stack.server = std::move(*server);
  stack.server->set_ingest_sink(stack.pipeline.get());
  if (const auto st = stack.server->Start(); !st.ok()) {
    result.CheckFailed("server start: " + st.ToString());
    return false;
  }
  return true;
}

/// Splits a streaming charge's stage name, "<prefix>/t<slice>/<kind>".
bool ParseStage(const std::string& stage, int64_t* t, std::string* kind) {
  const size_t slash = stage.rfind('/');
  if (slash == std::string::npos || slash == 0) return false;
  const size_t mark = stage.rfind("/t", slash - 1);
  if (mark == std::string::npos) return false;
  *kind = stage.substr(slash + 1);
  const std::string digits = stage.substr(mark + 2, slash - mark - 2);
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *t = std::stoll(digits);
  return true;
}

/// The accountant budget IngestPipeline sizes each shard to when
/// accountant_epsilon is left at 0 (documented in ingest/pipeline.h).
double AccountantCap() {
  return kEpsilon * (static_cast<double>(kRingSlices) / kWindow + 2.0);
}

/// The publication charge the w-event publisher asks for at slice `t`:
/// half the window's publication budget that the publications of the
/// slices before it, within the window, left unspent. Computed from the
/// shard's ledger, apart from the publisher.
double NextPublicationCharge(const std::vector<stpt::dp::AuditRecord>& records,
                             int64_t t) {
  double spent = 0.0;
  for (const stpt::dp::AuditRecord& r : records) {
    int64_t rt = 0;
    std::string kind;
    if (ParseStage(r.stage, &rt, &kind) && kind == "pub" && rt > t - kWindow &&
        rt < t) {
      spent += r.epsilon;
    }
  }
  return (kEpsilon * (1.0 - kDissimilarityFraction) - spent) / 2.0;
}

struct FeederLog {
  uint64_t readings = 0, accepted = 0, clamped = 0, rejected = 0;
  uint64_t epochs = 0;  // distinct epochs seen in acks
  std::vector<double> republish_ms;
  std::vector<double> admit_us;
  double elapsed_s = 0.0;  // feed wall time, minus the in-process audits
  double cpu_s = 0.0;      // this client thread's CPU time
  std::vector<std::string> errors;
};

struct QueryRecord {
  uint64_t epoch = 0;
  int pool_index = 0;
  std::vector<double> answers;
};

struct QueryLog {
  std::vector<double> latency_us;   // send -> response
  std::vector<double> lateness_us;  // frame acked -> send
  std::vector<QueryRecord> records;
  std::vector<std::string> errors;
  double cpu_s = 0.0;  // this client thread's CPU time
  /// Generations routed after responses (traced runs), for cache counters.
  std::map<uint64_t, std::shared_ptr<const stpt::serve::ShardGeneration>> generations;
};

class Round {
 public:
  Round(const Args& args, const std::vector<Fleet>& fleets,
        const std::vector<Workload>& pool, Stack& stack)
      : args_(args), fleets_(fleets), pool_(pool), stack_(stack) {}

  void Feed(int shard, FeederLog& log) {
    const double cpu0 = ThreadCpuSeconds();
    FeedFleet(shard, log);
    log.cpu_s = ThreadCpuSeconds() - cpu0;
  }

  void Query(int client_no, QueryLog& log) {
    const double cpu0 = ThreadCpuSeconds();
    QueryShard(client_no, log);
    log.cpu_s = ThreadCpuSeconds() - cpu0;
  }

 private:
  void FeedFleet(int shard, FeederLog& log) {
    auto client = stpt::serve::Client::Connect("127.0.0.1", stack_.server->port());
    if (!client.ok()) {
      log.errors.push_back("connect: " + client.status().ToString());
      if (shard == 0) FrameAcked(-1.0, /*stalled=*/true);
      return;
    }
    const std::string tenant = TenantName(shard);
    const Rng trace_base(0x7ACE0 + static_cast<uint64_t>(shard));
    uint64_t last_epoch = 0;
    size_t last_epoch_frame = 0;
    double audit_s = 0.0;
    const Fleet& fleet = fleets_[static_cast<size_t>(shard)];
    const double t0 = NowSeconds();
    for (size_t n = 0; n <= fleet.size(); ++n) {
      // The last frame is empty: the flush that seals the newest slices.
      static const std::vector<MeterReading> kFlush;
      const auto& frame = n < fleet.size() ? fleet[n] : kFlush;
      stpt::obs::TraceContext ctx;
      if (args_.trace) {
        ctx = stpt::obs::MakeTraceContext(trace_base, n, kTraceSamplePeriod);
      }
      const double s0 = NowSeconds();
      auto ack = client->Ingest(tenant, "0", frame, ctx);
      const double s1 = NowSeconds();
      if (!ack.ok()) {
        log.errors.push_back(tenant + ": ingest: " + ack.status().ToString());
        break;
      }
      uint64_t expected = frame.size();
      if (args_.corrupt && shard == 0 && n == 0) expected += 1;
      if (ack->accepted + ack->clamped + ack->rejected != expected) {
        log.errors.push_back(tenant + " frame " + std::to_string(n) +
                             ": accepted + clamped + rejected != batch size");
        break;
      }
      if (ack->epoch < last_epoch) {
        log.errors.push_back(tenant + ": ack epoch went backward");
        break;
      }
      log.readings += frame.size();
      log.accepted += ack->accepted;
      log.clamped += ack->clamped;
      log.rejected += ack->rejected;
      if (ack->epoch > last_epoch) {
        if (!frame.empty()) log.republish_ms.push_back((s1 - s0) * 1e3);
        if (shard == 0 && !swapping_) {  // only this thread writes it
          log.errors.push_back(tenant + ": a new epoch after the swap phase ended");
          break;
        }
        log.epochs += ack->epoch - last_epoch;
        last_epoch = ack->epoch;
        last_epoch_frame = n;
        shard_epoch_[shard].store(last_epoch);
      } else if (!frame.empty()) {
        log.admit_us.push_back((s1 - s0) * 1e6);
      }
      // A publish is due every kEpochHours frames; one that brings no new
      // epoch failed, and the shard swaps no more.
      const bool stalled = last_epoch > 0 && n >= last_epoch_frame + kEpochHours;
      if (shard == 0) FrameAcked(s1, stalled);
      if (ack->rejected > 0) {
        const double a0 = NowSeconds();
        const bool spent = stalled && AccountantSpent(tenant, last_epoch, log);
        audit_s += NowSeconds() - a0;
        if (!spent) {
          if (!stalled) {
            log.errors.push_back(tenant + " frame " + std::to_string(n) +
                                 ": readings rejected while the shard still publishes");
          }
          break;
        }
      }
    }
    log.elapsed_s = NowSeconds() - t0 - audit_s;
    if (shard == 0) FrameAcked(-1.0, /*stalled=*/true);
  }

  void QueryShard(int client_no, QueryLog& log) {
    auto client = stpt::serve::Client::Connect("127.0.0.1", stack_.server->port());
    if (!client.ok()) {
      log.errors.push_back("connect: " + client.status().ToString());
      return;
    }
    const std::string tenant = TenantName(0);
    const Rng trace_base(0x7ACE9 + static_cast<uint64_t>(client_no));
    uint64_t last_epoch = 0;
    // One batch per frame the shard acks, for as long as it swaps: feeder 0
    // ends the phase when a due publish brings no new epoch, or when its
    // feed ends. Frames acked before the first epoch have nothing to read.
    for (int k = 0;; ++k) {
      double acked_s = 0.0;
      {
        std::unique_lock<std::mutex> lock(frame_mu_);
        frame_cv_.wait(lock, [&] {
          return !swapping_ || frame_ack_s_.size() > static_cast<size_t>(k);
        });
        if (!swapping_) break;
        acked_s = frame_ack_s_[static_cast<size_t>(k)];
      }
      if (shard_epoch_[0].load() == 0) continue;
      const int index = (k * kQueryClients + client_no) % kQueryPool;
      stpt::obs::TraceContext ctx;
      if (args_.trace) {
        ctx = stpt::obs::MakeTraceContext(trace_base, static_cast<uint64_t>(k),
                                          kTraceSamplePeriod);
      }
      const double send_s = NowSeconds();
      auto response =
          client->QueryTenant(tenant, "0", pool_[static_cast<size_t>(index)], 0, ctx);
      const double recv_s = NowSeconds();
      if (!response.ok()) {
        log.errors.push_back("query: " + response.status().ToString());
        return;
      }
      if (response->epoch < last_epoch) {
        log.errors.push_back("query client saw its epoch go backward");
        return;
      }
      last_epoch = response->epoch;
      log.latency_us.push_back((recv_s - send_s) * 1e6);
      log.lateness_us.push_back((send_s - acked_s) * 1e6);
      log.records.push_back({response->epoch, index, std::move(response->answers)});
      if (args_.trace) {
        auto gen = stack_.registry->Route(tenant, "0");
        if (gen.ok()) log.generations.emplace((*gen)->epoch, *gen);
      }
    }
  }

  /// Feeder 0 has an ack for its next frame at `acked_s`; a stalled shard
  /// (or the end of the feed) ends the swap phase.
  void FrameAcked(double acked_s, bool stalled) {
    {
      std::lock_guard<std::mutex> lock(frame_mu_);
      if (stalled) {
        swapping_ = false;
      } else {
        frame_ack_s_.push_back(acked_s);
      }
    }
    frame_cv_.notify_all();
  }

  /// A reading of a stalled shard may only be rejected once that shard's
  /// accountant is spent: its epoch is still the last one acked, the
  /// newest slice in its ledger passed the dissimilarity test but never
  /// published, and the budget left is below the publication charge that
  /// slice asks for.
  bool AccountantSpent(const std::string& tenant, uint64_t last_epoch,
                       FeederLog& log) {
    auto audit = stack_.pipeline->Audit(tenant, "0");
    std::ifstream file(LedgerPath(stack_.dir, tenant));
    std::stringstream text;
    text << file.rdbuf();
    const auto records = stpt::dp::AuditLedger::ParseJsonl(text.str());
    int64_t pending = -1;
    bool published = false;
    for (const stpt::dp::AuditRecord& r : records) {
      int64_t t = 0;
      std::string kind;
      if (!ParseStage(r.stage, &t, &kind)) continue;
      if (t > pending) published = false;
      pending = std::max(pending, t);
      if (t == pending && kind == "pub") published = true;
    }
    const double remaining =
        audit.ok() ? AccountantCap() - audit->consumed_epsilon : -1.0;
    const double charge =
        pending >= 0 ? NextPublicationCharge(records, pending) : 0.0;
    if (!audit.ok() || audit->epoch != last_epoch || pending < 0 || published ||
        remaining >= charge) {
      char buf[240];
      std::snprintf(buf, sizeof(buf),
                    "%s: readings rejected while the accountant could still pay "
                    "(epoch %llu, last acked %llu; slice %lld %s; %.9g left, "
                    "next charge %.9g)",
                    tenant.c_str(),
                    static_cast<unsigned long long>(audit.ok() ? audit->epoch : 0),
                    static_cast<unsigned long long>(last_epoch),
                    static_cast<long long>(pending),
                    published ? "published" : "pending", remaining, charge);
      log.errors.push_back(buf);
      return false;
    }
    return true;
  }

  const Args& args_;
  const std::vector<Fleet>& fleets_;
  const std::vector<Workload>& pool_;
  Stack& stack_;
  std::atomic<uint64_t> shard_epoch_[kShards] = {};
  std::mutex frame_mu_;
  std::condition_variable frame_cv_;
  /// True while the first shard still swaps in new epochs.
  bool swapping_ = true;
  /// When each of the first shard's frames was acked, during the swaps.
  std::vector<double> frame_ack_s_;
};

/// Reads back the container a shard wrote for `epoch`
/// (<tenant>.<tile>.p<seq>.stpt; the registry epoch equals the publish
/// sequence number).
stpt::StatusOr<stpt::serve::Snapshot> ReadEpoch(const Stack& stack, int shard,
                                                uint64_t epoch) {
  return stpt::serve::ReadSnapshot(stack.snap_dir + "/" + TenantName(shard) +
                                   ".0.p" + std::to_string(epoch) +
                                   stpt::serve::kSnapshotExtension);
}

/// Per-round figures, medians of which are reported.
struct RoundStats {
  double readings_per_s = 0.0;
  /// CPU time of the program's threads (event loop, exec pool, pipeline)
  /// per reading fed; the benchmark's client threads are not counted.
  double cpu_us_per_reading = 0.0;
  double republish_p50_ms = 0.0, query_p50_us = 0.0;  // this round's medians
  uint64_t readings = 0, admitted = 0, clamped = 0, rejected = 0, epochs = 0;
  uint64_t queries = 0;
  uint64_t snapshot_bytes = 0, snapshots = 0;
};

}  // namespace

void RunLive(const Args& args, Result& result) {
  StealMeter steal;
  // Set-up: the fleets and a started stack, repeated for the median.
  std::vector<Fleet> fleets(kShards);
  std::vector<double> setup_cpu_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double c0 = ProcessCpuSeconds();
    for (int s = 0; s < kShards; ++s) {
      if (!MakeFleet(s, fleets[static_cast<size_t>(s)], result)) return;
    }
    Stack stack;
    if (!StartStack(args.tmp_dir + "/live/setup", stack, result)) return;
    setup_cpu_s.push_back(ProcessCpuSeconds() - c0);
  }
  RemoveTree(args.tmp_dir + "/live/setup");
  std::vector<Workload> pool;
  Rng qrng = Rng(args.seed).Fork(0x11FE);
  for (int i = 0; i < kQueryPool; ++i) {
    pool.push_back(RandomBoxes({kGrid, kGrid, kRingSlices}, kQueryBatch, qrng));
  }

  std::vector<RoundStats> rounds;
  std::vector<double> republish_ms, admit_us, lateness_us;
  std::vector<double> apply_us, publish_ms, swap_us, answer_ns, boxsum_ns;
  std::vector<double> dispatched, inlined, region_us;
  uint64_t swaps = 0, cache_hits = 0, cache_queries = 0;
  auto& global = stpt::obs::Registry::Global();
  const double end_s = NowSeconds() + args.seconds;
  while (rounds.size() < 2 || NowSeconds() < end_s) {
    const int round_no = static_cast<int>(rounds.size());
    const std::string dir = args.tmp_dir + "/live/r" + std::to_string(round_no);
    Stack stack;
    if (!StartStack(dir, stack, result)) return;
    stpt::obs::TraceStore::Global().Clear();
    const uint64_t dispatched0 = ReadCounter(global, "stpt_exec_regions_dispatched_total");
    const uint64_t inline0 = ReadCounter(global, "stpt_exec_regions_inline_total");
    const HistTotals region0 = ReadHistogram(global, "stpt_exec_region_ns");

    Round round(args, fleets, pool, stack);
    std::vector<FeederLog> feeders(kShards);
    std::vector<QueryLog> queries(kQueryClients);
    const double cpu0 = ProcessCpuSeconds();
    {
      std::vector<std::thread> threads;
      for (int s = 0; s < kShards; ++s) {
        threads.emplace_back([&, s] { round.Feed(s, feeders[static_cast<size_t>(s)]); });
      }
      for (int c = 0; c < kQueryClients; ++c) {
        threads.emplace_back([&, c] { round.Query(c, queries[static_cast<size_t>(c)]); });
      }
      for (std::thread& t : threads) t.join();
    }
    double program_cpu_s = ProcessCpuSeconds() - cpu0;
    for (const FeederLog& f : feeders) program_cpu_s -= f.cpu_s;
    for (const QueryLog& q : queries) program_cpu_s -= q.cpu_s;
    double feed_s = 0.0;
    for (const FeederLog& f : feeders) feed_s = std::max(feed_s, f.elapsed_s);

    RoundStats rs;
    std::vector<double> round_republish_ms, round_query_us;
    bool ok = true;
    for (const FeederLog& f : feeders) {
      for (const std::string& e : f.errors) {
        result.CheckFailed(e);
        ok = false;
      }
      rs.readings += f.readings;
      rs.admitted += f.accepted + f.clamped;
      rs.clamped += f.clamped;
      rs.rejected += f.rejected;
      rs.epochs += f.epochs;
      republish_ms.insert(republish_ms.end(), f.republish_ms.begin(), f.republish_ms.end());
      round_republish_ms.insert(round_republish_ms.end(), f.republish_ms.begin(),
                                f.republish_ms.end());
      admit_us.insert(admit_us.end(), f.admit_us.begin(), f.admit_us.end());
    }
    for (const QueryLog& q : queries) {
      for (const std::string& e : q.errors) {
        result.CheckFailed(e);
        ok = false;
      }
      rs.queries += q.records.size();
      round_query_us.insert(round_query_us.end(), q.latency_us.begin(), q.latency_us.end());
      lateness_us.insert(lateness_us.end(), q.lateness_us.begin(), q.lateness_us.end());
    }
    result.Attempted(rs.readings);
    result.Failed(kExhausted, rs.rejected);
    if (!ok) return;
    rs.readings_per_s = static_cast<double>(rs.admitted) / feed_s;
    rs.cpu_us_per_reading = program_cpu_s * 1e6 / static_cast<double>(rs.readings);
    rs.republish_p50_ms = Median(round_republish_ms);
    rs.query_p50_us = Median(round_query_us);

    // --- Checks after the final flush. ---
    for (int s = 0; s < kShards; ++s) {
      auto audit = stack.pipeline->Audit(TenantName(s), "0");
      if (!audit.ok()) {
        result.CheckFailed("audit: " + audit.status().ToString());
        return;
      }
      if (std::memcmp(&audit->ledger_composed_epsilon, &audit->consumed_epsilon,
                      sizeof(double)) != 0 ||
          audit->consumed_epsilon > AccountantCap()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: ledger eps %.17g, accountant eps %.17g, cap %.17g",
                      TenantName(s).c_str(), audit->ledger_composed_epsilon,
                      audit->consumed_epsilon, AccountantCap());
        result.CheckFailed(buf);
        return;
      }
      // The served shard answers from the last container on disk.
      auto last = ReadEpoch(stack, s, audit->epoch);
      if (!last.ok()) {
        result.CheckFailed("read last snapshot: " + last.status().ToString());
        return;
      }
      auto client = stpt::serve::Client::Connect("127.0.0.1", stack.server->port());
      auto served = client.ok() ? client->QueryTenant(TenantName(s), "0", pool[0])
                                : stpt::StatusOr<stpt::serve::TenantQueryResponse>(
                                      client.status());
      if (!served.ok() || served->epoch != audit->epoch) {
        result.CheckFailed(TenantName(s) + ": final query failed or saw a stale epoch");
        return;
      }
      const double scale = AbsTotal(last->sanitized);
      for (size_t i = 0; i < pool[0].size(); ++i) {
        if (!AnswerMatches(served->answers[i], NaiveBoxSum(last->sanitized, pool[0][i]),
                           scale)) {
          result.CheckFailed(TenantName(s) + ": final answer differs from the last .stpt");
          return;
        }
      }
    }
    // Every answer during the swaps matches the container of the epoch
    // that produced it.
    std::map<uint64_t, stpt::serve::Snapshot> by_epoch;
    for (const QueryLog& q : queries) {
      for (const QueryRecord& rec : q.records) {
        auto it = by_epoch.find(rec.epoch);
        if (it == by_epoch.end()) {
          auto snap = ReadEpoch(stack, 0, rec.epoch);
          if (!snap.ok()) {
            result.CheckFailed("read epoch snapshot: " + snap.status().ToString());
            return;
          }
          it = by_epoch.emplace(rec.epoch, std::move(*snap)).first;
        }
        const ConsumptionMatrix& m = it->second.sanitized;
        const Workload& batch = pool[static_cast<size_t>(rec.pool_index)];
        const double scale = AbsTotal(m);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (!AnswerMatches(rec.answers[i], NaiveBoxSum(m, batch[i]), scale)) {
            result.CheckFailed("query answer differs from its epoch's .stpt");
            return;
          }
        }
      }
    }
    for (const auto& entry : std::filesystem::directory_iterator(stack.snap_dir)) {
      rs.snapshot_bytes += FileBytes(entry.path().string());
      ++rs.snapshots;
    }
    if (!rounds.empty() && (rs.rejected != rounds.front().rejected ||
                            rs.epochs != rounds.front().epochs)) {
      result.CheckFailed("replaying the same fleet changed the rejected or epoch count");
      return;
    }

    if (args.trace) {
      for (const stpt::obs::TraceSpan& span :
           stpt::obs::TraceStore::Global().Snapshot()) {
        const double us = static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
        if (span.name == "ingest/apply") apply_us.push_back(us);
        if (span.name == "ingest/publish") publish_ms.push_back(us * 1e-3);
      }
      const HistTotals swap = ReadHistogram(stack.registry->metrics(),
                                            "stpt_registry_swap_latency_ns");
      if (swap.count > 0) swap_us.push_back(swap.sum * 1e-3 / swap.count);
      swaps += ReadCounter(stack.registry->metrics(), "stpt_registry_swaps_total");
      for (const QueryLog& q : queries) {
        for (const auto& [epoch, gen] : q.generations) {
          const auto stats = gen->engine->stats();
          cache_hits += stats.cache_hits;
          cache_queries += stats.queries;
        }
      }
      const uint64_t batches = feeders.size() + rs.readings / kHouseholds + rs.queries;
      dispatched.push_back(static_cast<double>(
          ReadCounter(global, "stpt_exec_regions_dispatched_total") - dispatched0) / batches);
      inlined.push_back(static_cast<double>(
          ReadCounter(global, "stpt_exec_regions_inline_total") - inline0) / batches);
      const HistTotals region1 = ReadHistogram(global, "stpt_exec_region_ns");
      if (region1.count > region0.count) {
        region_us.push_back((region1.sum - region0.sum) * 1e-3 /
                            static_cast<double>(region1.count - region0.count));
      }
      // Engine floors on the round's own query batches, last generation.
      auto gen = stack.registry->Route(TenantName(0), "0");
      auto last = ReadEpoch(stack, 0, gen.ok() ? (*gen)->epoch : 0);
      if (gen.ok() && last.ok()) {
        constexpr int kPasses = 50;
        uint64_t n = 0;
        const uint64_t a0 = NowNs();
        for (int p = 0; p < kPasses; ++p) {
          for (const Workload& b : pool) {
            auto answers = (*gen)->engine->AnswerBatch(b);
            if (answers.ok()) n += answers->size();
          }
        }
        const uint64_t a1 = NowNs();
        answer_ns.push_back(static_cast<double>(a1 - a0) / std::max<uint64_t>(n, 1));
        const stpt::grid::PrefixSum3D prefix(last->sanitized);
        double sink = 0.0;
        const uint64_t b0 = NowNs();
        for (int p = 0; p < kPasses; ++p) {
          for (const Workload& b : pool) {
            for (const RangeQuery& q : b) {
              sink += prefix.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1);
            }
          }
        }
        const uint64_t b1 = NowNs();
        if (sink == 12345.678) std::printf("#\n");  // keeps the loop observable
        boxsum_ns.push_back(static_cast<double>(b1 - b0) /
                            static_cast<double>(kPasses * kQueryPool * kQueryBatch));
      }
    }
    rounds.push_back(rs);
    stack.server->Stop();
    stack.server.reset();
    stack.pipeline.reset();
    RemoveTree(dir);
  }

  const RoundStats& first = rounds.front();
  uint64_t query_batches = 0;
  for (const RoundStats& r : rounds) query_batches += r.queries;
  std::printf("# live: %zu rounds; per round %llu readings (%llu admitted, %llu "
              "clamped, %llu rejected), %llu epochs; %llu query batches in all, "
              "every one sent while fleet-a swapped\n",
              rounds.size(), static_cast<unsigned long long>(first.readings),
              static_cast<unsigned long long>(first.admitted),
              static_cast<unsigned long long>(first.clamped),
              static_cast<unsigned long long>(first.rejected),
              static_cast<unsigned long long>(first.epochs),
              static_cast<unsigned long long>(query_batches));
  std::vector<double> throughput, republish_p50, query_p50, cpu_us;
  for (const RoundStats& r : rounds) {
    throughput.push_back(r.readings_per_s);
    republish_p50.push_back(r.republish_p50_ms);
    query_p50.push_back(r.query_p50_us);
    cpu_us.push_back(r.cpu_us_per_reading);
  }
  std::printf("# live: figures are medians of per-round figures (%.1f%% of the "
              "VM's CPU time stolen)\n",
              100.0 * steal.Share());
  const Tail tail = TailPercentile(republish_ms);
  std::printf("# republish_tail_ms: p%g of %zu republish round trips\n",
              tail.percentile, tail.samples);

  PrintFigure("ingest_readings_per_s", Median(throughput), "readings/s");
  PrintFigure("republish_p50_ms", Median(republish_p50), "ms");
  PrintFigure("republish_tail_ms", tail.value, "ms");
  PrintFigure("live_query_p50_us", Median(query_p50), "us");
  PrintFigure("cpu_us_per_item", CpuCostQuartile(cpu_us), "us per reading");
  PrintFigure("cpu_us_per_item_p50", Median(cpu_us), "us per reading");
  if (!args.trace) {
    ReportEndToEnd(result, Median(setup_cpu_s), CpuCostQuartile(cpu_us));
    return;
  }
  const double n_rounds = static_cast<double>(rounds.size());
  double snap_bytes = 0, snaps = 0;
  for (const RoundStats& r : rounds) {
    snap_bytes += static_cast<double>(r.snapshot_bytes);
    snaps += static_cast<double>(r.snapshots);
  }
  result.Metric("exec.regions_dispatched", Median(dispatched), "count/op");
  result.Metric("exec.regions_inline", Median(inlined), "count/op");
  result.Metric("exec.dispatched_region_us", Median(region_us), "us");
  result.Metric("serve.answer_ns_per_query", Median(answer_ns), "ns");
  result.Metric("serve.boxsum_ns_per_query", Median(boxsum_ns), "ns");
  result.Metric("serve.cache_hit_ratio",
                static_cast<double>(cache_hits) / std::max<uint64_t>(cache_queries, 1),
                "ratio");
  result.Metric("registry.swap_us", Median(swap_us), "us");
  result.Metric("registry.swaps", static_cast<double>(swaps) / n_rounds, "count");
  result.Metric("ingest.admit_rtt_us", Median(admit_us), "us");
  result.Metric("ingest.apply_us", Median(apply_us), "us");
  result.Metric("ingest.publish_ms", Median(publish_ms), "ms");
  result.Metric("ingest.snapshot_mb_per_epoch", snap_bytes / std::max(snaps, 1.0) / 1e6, "MB");
  result.Metric("ingest.epochs", static_cast<double>(first.epochs), "count");
  result.Metric("ingest.clamped", static_cast<double>(first.clamped), "count");
  result.Metric("ingest.rejected", static_cast<double>(first.rejected), "count");
  result.Metric("gen.lateness_p50_us", Median(lateness_us), "us");
  result.Metric("gen.lateness_max_us",
                lateness_us.empty() ? 0.0
                                    : *std::max_element(lateness_us.begin(), lateness_us.end()),
                "us");
}

}  // namespace perfbench
