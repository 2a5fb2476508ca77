#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "obs/trace.h"

namespace perfbench {

using stpt::grid::ConsumptionMatrix;
using stpt::query::RangeQuery;

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Failed(const std::string& reason, uint64_t n) {
  if (n > 0) failures_[reason] += n;
}

void Result::CheckFailed(const std::string& what) {
  ++check_failures_;
  // Cap the noise: the first few mismatches say what is wrong.
  if (check_failures_ <= 10) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

void Result::FillPerLayer() {
  static const char* const kPerLayer[][2] = {
      {"io.read_dataset_s", "s"},          {"io.read_dataset_mb_per_s", "MB/s"},
      {"io.write_snapshot_s", "s"},        {"datagen.build_matrix_s", "s"},
      {"core.pattern_s", "s"},             {"core.partition_s", "s"},
      {"core.budget_s", "s"},              {"core.sanitize_s", "s"},
      {"core.release_mre_pct", "%"},       {"nn.train_s", "s"},
      {"nn.matmul_calls", "count"},        {"nn.matmul_us_per_call", "us"},
      {"nn.matmul_bwd_us_per_call", "us"}, {"exec.regions_dispatched", "count/op"},
      {"exec.regions_inline", "count/op"}, {"exec.dispatched_region_us", "us"},
      {"exec.train_speedup_4v1", "x"},     {"dp.laplace_draws", "count"},
      {"dp.eps_consumed", "eps"},          {"serve.answer_ns_per_query", "ns"},
      {"serve.boxsum_ns_per_query", "ns"}, {"serve.cache_hit_ratio", "ratio"},
      {"loop.queue_us", "us"},             {"loop.parse_us", "us"},
      {"loop.dispatch_wait_us", "us"},     {"loop.exec_us", "us"},
      {"loop.write_us", "us"},             {"loop.unattributed_us", "us"},
      {"registry.load_ms", "ms"},          {"registry.swap_us", "us"},
      {"registry.swaps", "count"},         {"ingest.admit_rtt_us", "us"},
      {"ingest.apply_us", "us"},           {"ingest.publish_ms", "ms"},
      {"ingest.snapshot_mb_per_epoch", "MB"},
      {"ingest.epochs", "count"},          {"ingest.clamped", "count"},
      {"ingest.rejected", "count"},        {"gen.lateness_p50_us", "us"},
      {"gen.lateness_max_us", "us"},       {"offline.unattributed_s", "s"},
  };
  std::vector<Entry> ordered;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Entry& e) { return e.name == name; });
    ordered.push_back(it != metrics_.end() ? *it : Entry{name, 0.0, unit});
  }
  metrics_ = std::move(ordered);
}

void ReportEndToEnd(Result& result, double setup_cpu_s, double cpu_us_per_item) {
  result.Metric("setup_s", setup_cpu_s, "s");
  result.Metric("peak_rss_mb", PeakRssMb(), "MB");
  result.Metric("cpu_us_per_item", cpu_us_per_item, "us");
}

void PrintFigure(const char* name, double value, const char* unit) {
  std::printf("# figure %s=%.6g %s\n", name, value, unit);
}

uint64_t Result::failed() const {
  uint64_t total = 0;
  for (const auto& [reason, n] : failures_) total += n;
  return total;
}

std::string Result::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double CpuCostQuartile(const std::vector<double>& per_unit) {
  return Quantile(per_unit, 0.25);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// The steal field of the aggregate cpu line of /proc/stat; 0 when the
/// file or field is missing.
uint64_t ReadStealTicks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line)) return 0;
  std::istringstream fields(line);
  std::string cpu;
  uint64_t value = 0;
  fields >> cpu;
  for (int i = 0; i < 8 && (fields >> value); ++i) {
  }
  return fields ? value : 0;
}

}  // namespace

StealMeter::StealMeter() : t0_(NowSeconds()), ticks0_(ReadStealTicks()) {}

double StealMeter::Share() const {
  const double span = NowSeconds() - t0_;
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const uint64_t ticks = ReadStealTicks();
  return span > 0 && ticks >= ticks0_
             ? static_cast<double>(ticks - ticks0_) / (span * 100.0 * cpus)
             : 0.0;
}

Tail TailPercentile(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (n * (1.0 - p / 100.0) >= 10.0) tail.percentile = p;
  }
  tail.value = Quantile(values, tail.percentile / 100.0);
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double NaiveBoxSum(const ConsumptionMatrix& m, const RangeQuery& q) {
  const auto& d = m.dims();
  const std::vector<double>& v = m.data();
  double sum = 0.0;
  for (int x = q.x0; x <= q.x1; ++x) {
    for (int y = q.y0; y <= q.y1; ++y) {
      const size_t row = (static_cast<size_t>(x) * d.cy + y) * d.ct;
      for (int t = q.t0; t <= q.t1; ++t) sum += v[row + t];
    }
  }
  return sum;
}

double AbsTotal(const ConsumptionMatrix& m) {
  double total = 0.0;
  for (double v : m.data()) total += std::fabs(v);
  return total;
}

bool AnswerMatches(double served, double expected, double abs_total) {
  return std::fabs(served - expected) <= 1e-9 * (abs_total + 1.0);
}

std::vector<RangeQuery> RandomBoxes(const stpt::grid::Dims& dims, int count,
                                    stpt::Rng& rng) {
  std::vector<RangeQuery> out(static_cast<size_t>(count));
  auto span = [&](int extent, int& lo, int& hi) {
    const int a = static_cast<int>(rng.UniformInt(0, extent - 1));
    const int b = static_cast<int>(rng.UniformInt(0, extent - 1));
    lo = std::min(a, b);
    hi = std::max(a, b);
  };
  for (RangeQuery& q : out) {
    span(dims.cx, q.x0, q.x1);
    span(dims.cy, q.y0, q.y1);
    span(dims.ct, q.t0, q.t1);
  }
  return out;
}

std::map<std::string, RegionTotals> ProfileSnapshot() {
  std::map<std::string, RegionTotals> out;
  for (const stpt::obs::RegionEntry& e : stpt::obs::TraceProfile()) {
    out[e.region] = {e.calls, e.total_ns};
  }
  return out;
}

RegionTotals ProfileDelta(const std::map<std::string, RegionTotals>& before,
                          const std::map<std::string, RegionTotals>& after,
                          const std::string& region) {
  RegionTotals delta;
  const auto a = after.find(region);
  if (a == after.end()) return delta;
  delta = a->second;
  const auto b = before.find(region);
  if (b != before.end()) {
    delta.calls -= b->second.calls;
    delta.total_ns -= b->second.total_ns;
  }
  return delta;
}

HistTotals ReadHistogram(stpt::obs::Registry& registry,
                         const std::string& name) {
  stpt::obs::Histogram* h =
      registry.GetHistogram(name, "", stpt::obs::LatencyBucketsNs());
  if (h == nullptr) return {};
  return {h->Count(), h->Sum()};
}

uint64_t ReadCounter(stpt::obs::Registry& registry, const std::string& name) {
  stpt::obs::Counter* c = registry.GetCounter(name, "");
  return c == nullptr ? 0 : c->Value();
}

double ReadGauge(stpt::obs::Registry& registry, const std::string& name) {
  stpt::obs::Gauge* g = registry.GetGauge(name, "");
  return g == nullptr ? 0.0 : g->Value();
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec && std::filesystem::is_directory(path);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace perfbench
