// offline-publish: the paper's batch job, end to end.
//
// A CER twin is generated from the seed and written as CSV (set-up). Each
// round then loads it (io::ReadDatasetCsv + datagen::BuildConsumptionMatrix,
// load_s), publishes it with STPT at eps = 30 on the 4-thread exec pool and
// writes the release as a .stpt snapshot (core::Stpt::Publish +
// serve::WriteSnapshot, publish_s), loads the snapshot into a
// SnapshotRegistry and answers a fixed random query set from it
// (release_mre_pct). CSV parsing and GRU training do nearly all the work;
// no wire, ingest or swap is involved.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/stpt.h"
#include "datagen/dataset.h"
#include "dp/audit_ledger.h"
#include "exec/thread_pool.h"
#include "harness.h"
#include "io/csv.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/registry.h"
#include "serve/snapshot.h"

namespace perfbench {
namespace {

using stpt::Rng;
using stpt::grid::ConsumptionMatrix;
using stpt::query::RangeQuery;

/// The evaluation-scale twin: 1000 households over 120 days on the 32x32
/// grid (a 97 MB CSV), published with t_train = ct / 2 as stpt_cli picks it.
constexpr int kHouseholds = 1000;
constexpr int kGrid = 32;
constexpr int kDays = 120;
constexpr int kHoursPerSlice = 24;
constexpr int kQuadtreeDepth = 3;  // as stpt_cli publish
constexpr double kEpsPattern = 10.0;
constexpr double kEpsSanitize = 20.0;
constexpr int kQueries = 4000;
constexpr size_t kEvalBatch = 32;
constexpr int kSetupRepeats = 3;

/// Per-round timings (seconds) and layer readouts.
struct Round {
  double load_s = 0, publish_s = 0;
  double cpu_s = 0;  // process CPU over load + publish (all pool lanes)
  double load_cpu_s = 0;
  double read_s = 0, build_s = 0, write_snapshot_s = 0, registry_load_s = 0;
  double pattern_s = 0, partition_s = 0, budget_s = 0, sanitize_s = 0;
  double train_s = 0;
  double matmul_calls = 0, matmul_us = 0, matmul_bwd_us = 0;
  double regions_dispatched = 0, regions_inline = 0, dispatched_region_us = 0;
  double laplace_draws = 0;
  double mre_pct = 0;
  std::vector<double> query_us;  // evaluation batch round trips
};

bool SameDataset(const stpt::datagen::SyntheticDataset& a,
                 const stpt::datagen::SyntheticDataset& b) {
  if (a.spec.name != b.spec.name ||
      a.spec.num_households != b.spec.num_households ||
      a.spec.mean_kwh != b.spec.mean_kwh || a.spec.std_kwh != b.spec.std_kwh ||
      a.spec.max_kwh != b.spec.max_kwh ||
      a.spec.clip_factor != b.spec.clip_factor || a.grid_x != b.grid_x ||
      a.grid_y != b.grid_y || a.hours != b.hours ||
      a.households.size() != b.households.size()) {
    return false;
  }
  for (size_t h = 0; h < a.households.size(); ++h) {
    const auto& x = a.households[h];
    const auto& y = b.households[h];
    if (x.cell_x != y.cell_x || x.cell_y != y.cell_y ||
        x.series.size() != y.series.size() ||
        std::memcmp(x.series.data(), y.series.data(),
                    x.series.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The benchmark's own aggregate: every reading clipped at the spec's clip
/// factor (paper Theorem 4), summed.
double ClippedReadingSum(const stpt::datagen::SyntheticDataset& ds) {
  double sum = 0.0;
  for (const auto& house : ds.households) {
    for (double v : house.series) sum += std::min(v, ds.spec.clip_factor);
  }
  return sum;
}

bool Bitwise(const ConsumptionMatrix& a, const ConsumptionMatrix& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

class Offline {
 public:
  Offline(const Args& args, Result& result) : args_(args), result_(result) {}

  /// Generates the dataset and writes it as CSV; the set-up being timed.
  bool SetUp() {
    stpt::datagen::DatasetSpec spec = stpt::datagen::CerSpec();
    spec.num_households = kHouseholds;
    stpt::datagen::GenerateOptions gen;
    gen.grid_x = kGrid;
    gen.grid_y = kGrid;
    gen.hours = kDays * 24;
    Rng rng = Rng(args_.seed).Fork(0x0FF);
    auto ds = stpt::datagen::GenerateDataset(
        spec, stpt::datagen::SpatialDistribution::kLosAngeles, gen, rng);
    if (!ds.ok()) return Fail("datagen: " + ds.status().ToString());
    dataset_ = std::move(*ds);
    csv_path_ = args_.tmp_dir + "/offline/dataset.csv";
    const auto written = stpt::io::WriteDatasetCsv(dataset_, csv_path_);
    if (!written.ok()) return Fail("write csv: " + written.ToString());
    return true;
  }

  /// Inputs the checks need, prepared after set-up and outside any timing.
  void PrepareChecks() {
    clipped_sum_ = ClippedReadingSum(dataset_);
    const int ct = kDays * 24 / kHoursPerSlice;
    t_train_ = ct / 2;
    const stpt::grid::Dims test_dims{kGrid, kGrid, ct - t_train_};
    Rng rng = Rng(args_.seed).Fork(0x0E7A1);
    queries_ = RandomBoxes(test_dims, kQueries, rng);
  }

  /// One full pass; false on a program error or a failed check.
  bool RunRound(int round_no, Round& r) {
    const auto profile0 = ProfileSnapshot();
    auto& global = stpt::obs::Registry::Global();
    const HistTotals pattern0 = ReadHistogram(global, "stpt_core_pattern_recognition_ns");
    const HistTotals partition0 = ReadHistogram(global, "stpt_core_partition_ns");
    const HistTotals budget0 = ReadHistogram(global, "stpt_core_budget_allocation_ns");
    const HistTotals sanitize0 = ReadHistogram(global, "stpt_core_sanitize_ns");
    const HistTotals region0 = ReadHistogram(global, "stpt_exec_region_ns");
    const uint64_t dispatched0 = ReadCounter(global, "stpt_exec_regions_dispatched_total");
    const uint64_t inline0 = ReadCounter(global, "stpt_exec_regions_inline_total");
    const uint64_t draws0 = ReadCounter(global, "stpt_dp_laplace_draws_total");

    // --- load_s: CSV on disk -> consumption matrix. ---
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t t0 = NowNs();
    auto ds = stpt::io::ReadDatasetCsv(csv_path_);
    const uint64_t t1 = NowNs();
    if (!ds.ok()) return Fail("read csv: " + ds.status().ToString());
    auto matrix = stpt::datagen::BuildConsumptionMatrix(*ds, kHoursPerSlice);
    const uint64_t t2 = NowNs();
    r.load_cpu_s = ProcessCpuSeconds() - cpu0;
    if (!matrix.ok()) return Fail("build matrix: " + matrix.status().ToString());

    // --- publish_s: matrix -> release on disk. ---
    stpt::core::StptConfig config = Config();
    stpt::dp::AuditLedger ledger;
    config.audit_ledger = &ledger;
    Rng noise = NoiseStream();
    const double unit = stpt::datagen::UnitSensitivity(ds->spec, kHoursPerSlice);
    const uint64_t t3 = NowNs();
    auto release = stpt::core::Stpt(config).Publish(*matrix, unit, noise);
    if (!release.ok()) return Fail("publish: " + release.status().ToString());
    stpt::serve::SnapshotMeta meta;
    meta.algorithm = "stpt";
    meta.eps_total = kEpsPattern + kEpsSanitize;
    meta.eps_pattern = kEpsPattern;
    meta.eps_sanitize = kEpsSanitize;
    meta.t_train = t_train_;
    const stpt::serve::Snapshot snapshot =
        stpt::serve::Snapshot::FromMatrix(release->sanitized, meta);
    const std::string snap_path = args_.tmp_dir + "/offline/release.stpt";
    const uint64_t t4 = NowNs();
    const auto written = stpt::serve::WriteSnapshot(snapshot, snap_path);
    const uint64_t t5 = NowNs();
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    if (!written.ok()) return Fail("write snapshot: " + written.ToString());

    r.load_s = static_cast<double>(t2 - t0) * 1e-9;
    r.publish_s = static_cast<double>(t5 - t3) * 1e-9;
    r.read_s = static_cast<double>(t1 - t0) * 1e-9;
    r.build_s = static_cast<double>(t2 - t1) * 1e-9;
    r.write_snapshot_s = static_cast<double>(t5 - t4) * 1e-9;
    r.pattern_s = HistDeltaSeconds(pattern0, "stpt_core_pattern_recognition_ns");
    r.partition_s = HistDeltaSeconds(partition0, "stpt_core_partition_ns");
    r.budget_s = HistDeltaSeconds(budget0, "stpt_core_budget_allocation_ns");
    r.sanitize_s = HistDeltaSeconds(sanitize0, "stpt_core_sanitize_ns");
    const auto profile1 = ProfileSnapshot();
    r.train_s = ProfileDelta(profile0, profile1, "nn/train").total_ns * 1e-9;
    const RegionTotals mm = ProfileDelta(profile0, profile1, "nn/MatMul");
    const RegionTotals mmb = ProfileDelta(profile0, profile1, "nn/MatMul.bwd");
    r.matmul_calls = static_cast<double>(mm.calls);
    r.matmul_us = mm.calls ? mm.total_ns * 1e-3 / mm.calls : 0.0;
    r.matmul_bwd_us = mmb.calls ? mmb.total_ns * 1e-3 / mmb.calls : 0.0;
    const HistTotals region1 = ReadHistogram(global, "stpt_exec_region_ns");
    r.regions_dispatched = static_cast<double>(
        ReadCounter(global, "stpt_exec_regions_dispatched_total") - dispatched0);
    r.regions_inline = static_cast<double>(
        ReadCounter(global, "stpt_exec_regions_inline_total") - inline0);
    r.dispatched_region_us =
        region1.count > region0.count
            ? (region1.sum - region0.sum) * 1e-3 /
                  static_cast<double>(region1.count - region0.count)
            : 0.0;
    r.laplace_draws = static_cast<double>(
        ReadCounter(global, "stpt_dp_laplace_draws_total") - draws0);

    // --- Serve the release over loopback and evaluate it. ---
    auto registry = stpt::serve::SnapshotRegistry::Create();
    if (!registry.ok()) return Fail("registry: " + registry.status().ToString());
    const uint64_t t6 = NowNs();
    auto epoch = (*registry)->LoadFile({"offline", "0"}, snap_path);
    const uint64_t t7 = NowNs();
    if (!epoch.ok()) return Fail("registry load: " + epoch.status().ToString());
    r.registry_load_s = static_cast<double>(t7 - t6) * 1e-9;
    std::vector<double> answers;
    if (!Evaluate(registry->get(), answers, r.query_us)) return false;

    // --- Checks, against the benchmark's own computations. ---
    if (!SameDataset(*ds, dataset_)) {
      return Fail("ReadDatasetCsv did not return the generated dataset");
    }
    const double total = matrix->TotalSum();
    if (std::fabs(total - clipped_sum_) > 1e-9 * std::fabs(clipped_sum_)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "matrix total %.17g != clipped sum %.17g",
                    total, clipped_sum_);
      return Fail(buf);
    }
    if (!CheckBudget(ledger, release->partition_epsilons)) return false;
    const ConsumptionMatrix& released = release->sanitized;
    if (round_no == 0) {
      first_release_ = released;
    } else if (!Bitwise(released, first_release_)) {
      return Fail("release differs from the first round's with the same noise seed");
    }
    const double abs_total = AbsTotal(released);
    double mre = 0.0;
    double truth_total = 0.0;
    std::vector<double> truths;
    for (const RangeQuery& q : queries_) {
      RangeQuery shifted = q;  // the release covers slices [t_train, ct)
      shifted.t0 += t_train_;
      shifted.t1 += t_train_;
      truths.push_back(NaiveBoxSum(*matrix, shifted));
    }
    for (int t = t_train_; t < matrix->dims().ct; ++t) {
      truth_total += NaiveBoxSum(*matrix, {0, kGrid - 1, 0, kGrid - 1, t, t});
    }
    const double floor =
        truth_total / static_cast<double>(kGrid * kGrid * (matrix->dims().ct - t_train_));
    for (size_t i = 0; i < queries_.size(); ++i) {
      const double expected = NaiveBoxSum(released, queries_[i]);
      if (!AnswerMatches(answers[i], expected, abs_total)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "query %zu: served %.17g, naive sum over release %.17g", i,
                      answers[i], expected);
        return Fail(buf);
      }
      mre += std::fabs(answers[i] - truths[i]) / std::max(truths[i], floor);
    }
    r.mre_pct = 100.0 * mre / static_cast<double>(queries_.size());
    return true;
  }

  /// Answers the evaluation queries through an EventLoopServer on
  /// loopback, one connection, kEvalBatch queries per v2 frame.
  bool Evaluate(stpt::serve::SnapshotRegistry* registry,
                std::vector<double>& answers, std::vector<double>& rtt_us) {
    auto server =
        stpt::serve::EventLoopServer::Create(registry, stpt::serve::EventLoopOptions{});
    if (!server.ok()) return Fail("server: " + server.status().ToString());
    if (const auto st = (*server)->Start(); !st.ok()) {
      return Fail("server start: " + st.ToString());
    }
    auto client = stpt::serve::Client::Connect("127.0.0.1", (*server)->port());
    if (!client.ok()) return Fail("connect: " + client.status().ToString());
    for (size_t i = 0; i < queries_.size(); i += kEvalBatch) {
      const size_t end = std::min(queries_.size(), i + kEvalBatch);
      const stpt::query::Workload batch(queries_.begin() + i, queries_.begin() + end);
      const uint64_t s0 = NowNs();
      auto response = client->QueryTenant("offline", "0", batch);
      rtt_us.push_back(static_cast<double>(NowNs() - s0) * 1e-3);
      if (!response.ok()) return Fail("query: " + response.status().ToString());
      if (response->epoch != 1 || response->answers.size() != batch.size()) {
        return Fail("evaluation response has the wrong epoch or size");
      }
      answers.insert(answers.end(), response->answers.begin(), response->answers.end());
    }
    (*server)->Stop();
    return true;
  }

  /// The 1-thread publish of the traced run: same seed, must be bitwise
  /// equal to the 4-thread release. Returns nn.train_s at 1 thread.
  bool OneThreadTrainSeconds(double* train_s) {
    stpt::exec::SetThreads(1);
    auto ds = stpt::io::ReadDatasetCsv(csv_path_);
    auto matrix = ds.ok() ? stpt::datagen::BuildConsumptionMatrix(*ds, kHoursPerSlice)
                          : stpt::StatusOr<ConsumptionMatrix>(ds.status());
    bool ok = matrix.ok();
    if (ok) {
      Rng noise = NoiseStream();
      const auto profile0 = ProfileSnapshot();
      auto release = stpt::core::Stpt(Config()).Publish(
          *matrix, stpt::datagen::UnitSensitivity(ds->spec, kHoursPerSlice), noise);
      *train_s = ProfileDelta(profile0, ProfileSnapshot(), "nn/train").total_ns * 1e-9;
      ok = release.ok() && Bitwise(release->sanitized, first_release_);
    }
    stpt::exec::SetThreads(kExecThreads);
    return ok ? true : Fail("the 1-thread release differs from the 4-thread one");
  }

 private:
  stpt::core::StptConfig Config() const {
    stpt::core::StptConfig config;
    config.eps_pattern = kEpsPattern;
    config.eps_sanitize = kEpsSanitize;
    config.t_train = t_train_;
    config.quadtree_depth = kQuadtreeDepth;
    return config;
  }

  Rng NoiseStream() const { return Rng(args_.seed).Fork(0); }

  bool Fail(const std::string& what) {
    result_.CheckFailed(what);
    return false;
  }

  static double HistDeltaSeconds(const HistTotals& before, const char* name) {
    const HistTotals after = ReadHistogram(stpt::obs::Registry::Global(), name);
    return (after.sum - before.sum) * 1e-9;
  }

  /// The ledger composes to what the accountant reports (the exported
  /// gauge), bit for bit, and to the benchmark's own composition of the
  /// release: pattern stage plus the largest partition budget (partitions
  /// are disjoint, so they compose in parallel).
  bool CheckBudget(const stpt::dp::AuditLedger& ledger,
                   const std::vector<double>& partition_eps) {
    const double composed = ledger.ComposedEpsilon();
    const double consumed = ReadGauge(stpt::obs::Registry::Global(),
                                      "stpt_core_epsilon_consumed");
    double expected = kEpsPattern;
    double sanitize_max = 0.0, sanitize_sum = 0.0;
    for (double e : partition_eps) {
      sanitize_max = std::max(sanitize_max, e);
      sanitize_sum += e;
    }
    expected += sanitize_max;
    if (args_.corrupt) expected += 1e-6;
    char buf[200];
    if (std::memcmp(&composed, &consumed, sizeof(double)) != 0) {
      std::snprintf(buf, sizeof(buf), "ledger eps %.17g != ConsumedEpsilon %.17g",
                    composed, consumed);
      return Fail(buf);
    }
    if (std::memcmp(&composed, &expected, sizeof(double)) != 0) {
      std::snprintf(buf, sizeof(buf),
                    "ledger eps %.17g != eps_pattern + max partition eps %.17g",
                    composed, expected);
      return Fail(buf);
    }
    if (composed > kEpsPattern + kEpsSanitize ||
        std::fabs(sanitize_sum - kEpsSanitize) > 1e-9 * kEpsSanitize) {
      std::snprintf(buf, sizeof(buf),
                    "budget split: composed %.17g, partition eps sum %.17g",
                    composed, sanitize_sum);
      return Fail(buf);
    }
    last_eps_ = composed;
    return true;
  }

 public:
  double last_eps() const { return last_eps_; }

 private:
  const Args& args_;
  Result& result_;
  stpt::datagen::SyntheticDataset dataset_;
  std::string csv_path_;
  double clipped_sum_ = 0.0;
  int t_train_ = 0;
  std::vector<RangeQuery> queries_;
  ConsumptionMatrix first_release_;
  double last_eps_ = 0.0;
};

template <typename F>
double MeanOf(const std::vector<Round>& rounds, F field) {
  double sum = 0.0;
  for (const Round& r : rounds) sum += field(r);
  return sum / static_cast<double>(rounds.size());
}

}  // namespace

void RunOffline(const Args& args, Result& result) {
  if (!MakeDirs(args.tmp_dir + "/offline")) {
    result.CheckFailed("cannot create " + args.tmp_dir + "/offline");
    return;
  }
  StealMeter steal;
  Offline offline(args, result);
  std::vector<double> setup_cpu_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double c0 = ProcessCpuSeconds();
    if (!offline.SetUp()) return;
    setup_cpu_s.push_back(ProcessCpuSeconds() - c0);
  }
  offline.PrepareChecks();

  // Whole rounds until the run length is used up, at least two: every round
  // publishes with the same noise stream, and its release must equal the
  // first round's bit for bit.
  std::vector<Round> rounds;
  const double end_s = NowSeconds() + args.seconds;
  while (rounds.size() < 2 || NowSeconds() < end_s) {
    Round r;
    result.Attempted(1);
    if (!offline.RunRound(static_cast<int>(rounds.size()), r)) return;
    rounds.push_back(r);
  }
  std::printf("# offline: %zu rounds of load + publish + serve; figures are "
              "medians over the rounds (%.1f%% of the VM's CPU time stolen)\n",
              rounds.size(), 100.0 * steal.Share());

  const auto median = [&](auto field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(field(r));
    return Median(v);
  };
  const double readings = static_cast<double>(kHouseholds) * kDays * 24;
  const double mre = rounds.front().mre_pct;
  PrintFigure("load_s", median([](const Round& r) { return r.load_s; }), "s");
  PrintFigure("publish_s", median([](const Round& r) { return r.publish_s; }), "s");
  PrintFigure("items_per_s",
              median([&](const Round& r) { return readings / (r.load_s + r.publish_s); }),
              "readings/s");
  PrintFigure("release_mre_pct", mre, "%");
  PrintFigure("eval_query_p50_us",
              median([](const Round& r) { return Median(r.query_us); }), "us");
  // A run holds two or three rounds, too few for a low quantile to be
  // steadier than their median (live-ingest and serve-read have dozens of
  // units and report the first quartile, harness.h).
  std::vector<double> load_cpu_s, publish_cpu_s;
  for (const Round& r : rounds) {
    load_cpu_s.push_back(r.load_cpu_s);
    publish_cpu_s.push_back(r.cpu_s - r.load_cpu_s);
  }
  const double cpu_us_per_reading =
      median([&](const Round& r) { return r.cpu_s * 1e6 / readings; });
  PrintFigure("cpu_us_per_item", cpu_us_per_reading, "us per reading");
  PrintFigure("load_cpu_s", Median(load_cpu_s), "s");
  PrintFigure("publish_cpu_s", Median(publish_cpu_s), "s");
  if (!args.trace) {
    ReportEndToEnd(result, Median(setup_cpu_s), cpu_us_per_reading);
    return;
  }

  // Per-layer figures are means over the rounds, so that the layer times
  // and offline.unattributed_s add up to the mean load_s + publish_s.
  double one_thread_train_s = 0.0;
  if (!offline.OneThreadTrainSeconds(&one_thread_train_s)) return;
  const auto mean = [&](double Round::*field) {
    return MeanOf(rounds, [field](const Round& r) { return r.*field; });
  };
  const double load = mean(&Round::load_s), publish = mean(&Round::publish_s);
  std::printf("# traced end-to-end: load_s=%.6f publish_s=%.6f (means over rounds)\n",
              load, publish);
  const double dataset_mb =
      static_cast<double>(FileBytes(args.tmp_dir + "/offline/dataset.csv")) / 1e6;
  result.Metric("io.read_dataset_s", mean(&Round::read_s), "s");
  result.Metric("io.read_dataset_mb_per_s", dataset_mb / mean(&Round::read_s), "MB/s");
  result.Metric("io.write_snapshot_s", mean(&Round::write_snapshot_s), "s");
  result.Metric("datagen.build_matrix_s", mean(&Round::build_s), "s");
  result.Metric("core.pattern_s", mean(&Round::pattern_s), "s");
  result.Metric("core.partition_s", mean(&Round::partition_s), "s");
  result.Metric("core.budget_s", mean(&Round::budget_s), "s");
  result.Metric("core.sanitize_s", mean(&Round::sanitize_s), "s");
  result.Metric("nn.train_s", mean(&Round::train_s), "s");
  result.Metric("nn.matmul_calls", mean(&Round::matmul_calls), "count");
  result.Metric("nn.matmul_us_per_call", mean(&Round::matmul_us), "us");
  result.Metric("nn.matmul_bwd_us_per_call", mean(&Round::matmul_bwd_us), "us");
  result.Metric("exec.regions_dispatched", mean(&Round::regions_dispatched), "count/op");
  result.Metric("exec.regions_inline", mean(&Round::regions_inline), "count/op");
  result.Metric("exec.dispatched_region_us", mean(&Round::dispatched_region_us), "us");
  result.Metric("exec.train_speedup_4v1", one_thread_train_s / mean(&Round::train_s), "x");
  result.Metric("dp.laplace_draws", mean(&Round::laplace_draws), "count");
  result.Metric("core.release_mre_pct", mre, "%");
  result.Metric("dp.eps_consumed", offline.last_eps(), "eps");
  result.Metric("registry.load_ms", mean(&Round::registry_load_s) * 1e3, "ms");
  const double attributed = mean(&Round::read_s) + mean(&Round::build_s) +
                            mean(&Round::pattern_s) + mean(&Round::partition_s) +
                            mean(&Round::budget_s) + mean(&Round::sanitize_s) +
                            mean(&Round::write_snapshot_s);
  result.Metric("offline.unattributed_s", load + publish - attributed, "s");
}

}  // namespace perfbench
