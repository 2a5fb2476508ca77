// Shared plumbing for the perfbench workloads: arguments, the result record
// printed as the final JSON line, timing statistics, the benchmark's own
// (program-independent) range sums, and readers for the program's existing
// observability surfaces (region profile, metric registries).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "grid/consumption_matrix.h"
#include "obs/metrics.h"
#include "query/range_query.h"

namespace perfbench {

/// Exec pool size of every workload: the 4 cores of the reference host.
inline constexpr int kExecThreads = 4;

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Benchmark-only: corrupt one expected value so the run must fail.
  bool corrupt = false;
  /// Scratch directory for the run's files; removed by run.py.
  std::string tmp_dir;
};

/// Everything one run reports. Metrics keep insertion order.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(const std::string& reason, uint64_t n);
  /// Records a failed correctness check (printed to stderr at once).
  void CheckFailed(const std::string& what);

  bool correct() const { return check_failures_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const;
  const std::map<std::string, uint64_t>& failures() const { return failures_; }

  /// Adds every per-layer metric this run did not measure, as 0: the
  /// traced result lists them all, whichever layers the workload touches.
  void FillPerLayer();

  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  std::map<std::string, uint64_t> failures_;
  uint64_t check_failures_ = 0;
};

/// The gated end-to-end metrics, common to all workloads (README.md says
/// what each one measures on each workload): the set-up's CPU seconds,
/// the peak resident set, and the program's CPU microseconds per item.
void ReportEndToEnd(Result& result, double setup_cpu_s, double cpu_us_per_item);

/// Prints one of the workload's own figures as a `# figure` line.
void PrintFigure(const char* name, double value, const char* unit);

/// Wall clock (steady) in seconds / nanoseconds.
double NowSeconds();
uint64_t NowNs();

double Median(std::vector<double> values);
/// The first quartile of a run's per-unit CPU costs, which the gated
/// cpu_us_per_item reports on live-ingest and serve-read. Every unit of a run does the same work, and
/// host interference only ever adds CPU time (cold caches after the
/// hypervisor descheduled a vCPU, wake-ups that take longer), so the low
/// quartile follows the program and leaves out the units that a burst
/// inflated; a change to the program moves every unit alike.
double CpuCostQuartile(const std::vector<double>& per_unit);

/// CPU time charged to this process (all threads) / to the calling thread,
/// in seconds. The kernel charges neither the time a thread waits for a
/// CPU nor, with paravirtual steal accounting, the time the hypervisor
/// takes from the VM; the gated metrics are CPU time for that reason
/// (README.md, Why CPU time).
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Share of the VM's CPU time stolen by the hypervisor since construction,
/// from the steal field of /proc/stat (0 where it is missing). Printed
/// beside the wall-clock figures, which it moves.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  double t0_;
  uint64_t ticks0_;
};

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  size_t samples = 0;
};
Tail TailPercentile(const std::vector<double>& values);

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

/// Sum over the inclusive box, by direct iteration over the matrix storage.
/// Deliberately independent of the program's prefix sums.
double NaiveBoxSum(const stpt::grid::ConsumptionMatrix& m,
                   const stpt::query::RangeQuery& q);

/// Sum of |v| over the matrix: the scale for answer tolerances.
double AbsTotal(const stpt::grid::ConsumptionMatrix& m);

/// True when a served answer matches the naive sum up to the rounding a
/// prefix-sum evaluation may introduce at this matrix's scale.
bool AnswerMatches(double served, double expected, double abs_total);

/// Uniform random boxes (each axis: two uniform points, sorted).
std::vector<stpt::query::RangeQuery> RandomBoxes(const stpt::grid::Dims& dims,
                                                 int count, stpt::Rng& rng);

/// Region-profile readout (obs::TraceProfile), keyed by region name.
struct RegionTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
};
std::map<std::string, RegionTotals> ProfileSnapshot();
RegionTotals ProfileDelta(const std::map<std::string, RegionTotals>& before,
                          const std::map<std::string, RegionTotals>& after,
                          const std::string& region);

/// Count and sum of a registered histogram; the registry returns the
/// existing handle for a name it already holds.
struct HistTotals {
  uint64_t count = 0;
  double sum = 0.0;
};
HistTotals ReadHistogram(stpt::obs::Registry& registry, const std::string& name);
uint64_t ReadCounter(stpt::obs::Registry& registry, const std::string& name);
double ReadGauge(stpt::obs::Registry& registry, const std::string& name);

/// Creates `path` (and parents); false on failure.
bool MakeDirs(const std::string& path);
/// Removes `path` recursively; ignores errors.
void RemoveTree(const std::string& path);
/// Size of a regular file in bytes (0 if missing).
uint64_t FileBytes(const std::string& path);

/// The workloads. Each fills `result`; a program error or a failed check
/// is recorded there and makes the run incorrect.
void RunOffline(const Args& args, Result& result);
void RunLive(const Args& args, Result& result);
void RunServeRead(const Args& args, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
