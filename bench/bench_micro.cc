// Micro-benchmarks of the substrate layers: DP mechanisms, transforms,
// prefix sums, quadtree construction, tensor ops, model steps, dataset CSV
// loading, and the end-to-end STPT pipeline at 1 vs N exec threads.
//
// The hot kernel families (MatMul, radix-2 FFT, Haar DWT, prefix-sum
// scans, Laplace batch sampling) are registered once per available kernel
// backend, keyed "/backend:<name>", so a single run emits naive and avx2
// rows side by side and the perf gate (tools/perf_gate.py) can diff
// like-for-like entries across PRs.
//
// Results are written to BENCH_micro.json (google-benchmark JSON format,
// with the exec thread count and kernel backend in the context) unless
// --benchmark_out= is given, so the perf trajectory is machine-readable
// across PRs.

#include <benchmark/benchmark.h>

#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "dp/mechanisms.h"
#include "exec/thread_pool.h"
#include "grid/consumption_matrix.h"
#include "grid/quadtree.h"
#include "io/csv.h"
#include "kernels/backend.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "signal/fft.h"

namespace {

using namespace stpt;

void BM_LaplaceSample(benchmark::State& state) {
  Rng rng(1);
  auto mech = dp::LaplaceMechanism::Create(1.0, 1.0);
  double acc = 0.0;
  for (auto _ : state) acc += mech->AddNoise(1.0, rng);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_LaplaceSample);

void BM_BluesteinDft(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::complex<double>> data(220);  // the paper's series length
  for (auto& v : data) v = {rng.NextDouble(), 0.0};
  for (auto _ : state) {
    auto out = signal::Dft(data, false);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BluesteinDft);

grid::ConsumptionMatrix RandomMatrix(grid::Dims dims, uint64_t seed) {
  Rng rng(seed);
  auto m = grid::ConsumptionMatrix::Create(dims);
  for (auto& v : m->mutable_data()) v = rng.NextDouble();
  return std::move(m).value();
}

void BM_PrefixSumBuild(benchmark::State& state) {
  const auto m = RandomMatrix({32, 32, 120}, 5);
  for (auto _ : state) {
    grid::PrefixSum3D ps(m);
    benchmark::DoNotOptimize(ps);
  }
}
BENCHMARK(BM_PrefixSumBuild)->Unit(benchmark::kMicrosecond);

void BM_PrefixSumQuery(benchmark::State& state) {
  const auto m = RandomMatrix({32, 32, 120}, 6);
  const grid::PrefixSum3D ps(m);
  Rng rng(7);
  double acc = 0.0;
  for (auto _ : state) {
    const int x0 = static_cast<int>(rng.UniformInt(0, 15));
    acc += ps.BoxSum(x0, x0 + 10, 3, 20, 10, 100);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PrefixSumQuery);

void BM_QuadtreeBuild(benchmark::State& state) {
  const auto m = RandomMatrix({32, 32, 220}, 8);
  for (auto _ : state) {
    auto levels = grid::BuildQuadtreeLevels(m, 100, state.range(0));
    benchmark::DoNotOptimize(levels);
  }
}
BENCHMARK(BM_QuadtreeBuild)->Arg(2)->Arg(5)->Unit(benchmark::kMicrosecond);

void BM_MatMul(benchmark::State& state) {
  Rng rng(9);
  const int n = state.range(0);
  const nn::Tensor a = nn::Tensor::Randn({n, n}, rng, 1.0);
  const nn::Tensor b = nn::Tensor::Randn({n, n}, rng, 1.0);
  for (auto _ : state) {
    auto c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

// MatMul wall clock vs exec worker count; args are {matrix size, threads}.
// The 1-thread rows are the serial baseline for the speedup trajectory; the
// 32 and 64 rows (the GRU hidden-state shapes) place kMatMulParallelFlops.
void BM_MatMulThreads(benchmark::State& state) {
  exec::SetThreads(static_cast<int>(state.range(1)));
  Rng rng(9);
  const int n = static_cast<int>(state.range(0));
  const nn::Tensor a = nn::Tensor::Randn({n, n}, rng, 1.0);
  const nn::Tensor b = nn::Tensor::Randn({n, n}, rng, 1.0);
  for (auto _ : state) {
    auto c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c);
  }
  exec::SetThreads(0);  // restore env/hardware default
}
BENCHMARK(BM_MatMulThreads)
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Unit(benchmark::kMicrosecond);

// A CER-shaped dataset CSV (200 households, 60 days, ~4.8 MB) held in memory.
const std::string& DatasetCsvText() {
  static const std::string* text = [] {
    datagen::DatasetSpec spec = datagen::CerSpec();
    spec.num_households = 200;
    datagen::GenerateOptions opts;
    opts.grid_x = opts.grid_y = 16;
    opts.hours = 60 * 24;
    Rng rng(11);
    auto ds = datagen::GenerateDataset(spec, datagen::SpatialDistribution::kUniform,
                                       opts, rng);
    const auto path =
        (std::filesystem::temp_directory_path() / "stpt_bench_micro_dataset.csv").string();
    if (!ds.ok() || !io::WriteDatasetCsv(*ds, path).ok()) std::abort();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());
    return new std::string(bytes.str());
  }();
  return *text;
}

// Dataset CSV load throughput (bytes_per_second = file MB/s).
void BM_ReadDatasetCsv(benchmark::State& state) {
  const std::string& text = DatasetCsvText();
  for (auto _ : state) {
    std::istringstream in(text);
    auto ds = io::ReadDatasetCsv(in);
    if (!ds.ok()) state.SkipWithError(ds.status().ToString().c_str());
    benchmark::DoNotOptimize(ds);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ReadDatasetCsv)->Unit(benchmark::kMillisecond);

// The floor under BM_ReadDatasetCsv: the same bytes pulled through
// istream::read in the parser's 1 MiB blocks, with no parsing at all.
void BM_ReadDatasetCsvFloor(benchmark::State& state) {
  const std::string& text = DatasetCsvText();
  std::vector<char> block(size_t{1} << 20);
  for (auto _ : state) {
    std::istringstream in(text);
    while (in.read(block.data(), static_cast<std::streamsize>(block.size()))) {
    }
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ReadDatasetCsvFloor)->Unit(benchmark::kMillisecond);

// End-to-end STPT publish (detail scale, shortened training) at 1 vs 4
// exec threads — the headline wall-clock number for the pipeline. Each
// repetition averages the publishes of half a second (6-8 of them), so a
// median over repetitions does not hang on one noisy publish.
void BM_StptPublish(benchmark::State& state) {
  exec::SetThreads(static_cast<int>(state.range(0)));
  static const bench::Instance* inst = new bench::Instance(bench::MakeInstance(
      datagen::CerSpec(), datagen::SpatialDistribution::kUniform,
      bench::Scale::kDetail, 4242));
  core::StptConfig cfg = bench::DefaultStptConfig(bench::Scale::kDetail);
  cfg.training.epochs = 4;
  for (auto _ : state) {
    Rng rng(1234);
    auto res = core::Stpt(cfg).Publish(inst->cons, inst->unit_sensitivity, rng);
    benchmark::DoNotOptimize(res);
  }
  exec::SetThreads(0);
}
BENCHMARK(BM_StptPublish)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

// ---- Per-backend kernel rows ---------------------------------------------
// Each hot kernel family runs against an explicit backend instance so one
// bench invocation produces a naive row and (on capable CPUs) an avx2 row
// under distinct names — the perf gate needs both for speedup checks.

void KernelMatMul(benchmark::State& state, const kernels::Backend* backend) {
  Rng rng(9);
  const int n = static_cast<int>(state.range(0));
  kernels::MatMulShape shape;
  shape.m = shape.n = shape.k = n;
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> b(a.size());
  std::vector<double> c(a.size());
  for (auto& v : a) v = rng.NextDouble();
  for (auto& v : b) v = rng.NextDouble();
  for (auto _ : state) {
    backend->MatMulFwd(a.data(), b.data(), c.data(), shape);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * shape.flops());
}

void KernelFftPow2(benchmark::State& state, const kernels::Backend* backend) {
  Rng rng(2);
  std::vector<std::complex<double>> data(state.range(0));
  for (auto& v : data) v = {rng.NextDouble(), 0.0};
  for (auto _ : state) {
    auto copy = data;
    auto status = backend->FftPow2(copy.data(), copy.size(), false);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(copy);
  }
}

void KernelHaar(benchmark::State& state, const kernels::Backend* backend) {
  Rng rng(4);
  std::vector<double> data(state.range(0));
  for (auto& v : data) v = rng.NextDouble();
  for (auto _ : state) {
    auto out = backend->HaarForward(data);
    benchmark::DoNotOptimize(out);
  }
}

void KernelPrefixSum(benchmark::State& state, const kernels::Backend* backend) {
  const auto m = RandomMatrix({32, 32, 120}, 5);
  for (auto _ : state) {
    grid::PrefixSum3D ps(m, backend);
    benchmark::DoNotOptimize(ps);
  }
}

void KernelLaplaceBatch(benchmark::State& state, const kernels::Backend* backend) {
  Rng rng(12);
  std::vector<double> in(state.range(0));
  std::vector<double> out(in.size());
  for (auto& v : in) v = rng.NextDouble();
  const Rng base = rng.Fork(0);
  for (auto _ : state) {
    backend->LaplaceBatch(in.data(), out.data(), in.size(), 1.0, base);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void RegisterKernelBenchmarks() {
  for (const std::string& name : kernels::Registry::Names()) {
    auto created = kernels::Registry::Create(name);
    if (!created.ok()) continue;
    const kernels::Backend* backend = *created;
    const std::string key = "/backend:" + name;
    benchmark::RegisterBenchmark(("BM_KernelMatMul" + key).c_str(),
                                 KernelMatMul, backend)
        ->Arg(128)
        ->Arg(256)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_KernelFftPow2" + key).c_str(),
                                 KernelFftPow2, backend)
        ->Arg(1024)
        ->Arg(8192);
    benchmark::RegisterBenchmark(("BM_KernelHaar" + key).c_str(), KernelHaar,
                                 backend)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_KernelPrefixSum" + key).c_str(),
                                 KernelPrefixSum, backend)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_KernelLaplaceBatch" + key).c_str(),
                                 KernelLaplaceBatch, backend)
        ->Arg(1 << 14);
  }
}

void BM_GruCellForwardBackward(benchmark::State& state) {
  Rng rng(10);
  nn::GruCell cell(16, 16, rng);
  const nn::Tensor x = nn::Tensor::Randn({32, 16}, rng, 1.0);
  const nn::Tensor h = nn::Tensor::Randn({32, 16}, rng, 1.0);
  const nn::Tensor target = nn::Tensor::Randn({32, 16}, rng, 1.0);
  for (auto _ : state) {
    cell.ZeroGrad();
    nn::Tensor loss = nn::MseLoss(cell.Forward(x, h), target);
    loss.Backward();
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_GruCellForwardBackward)->Unit(benchmark::kMicrosecond);

void BM_SelfAttention(benchmark::State& state) {
  Rng rng(11);
  nn::SelfAttention attn(16, rng);
  const nn::Tensor x = nn::Tensor::Randn({32, 6, 16}, rng, 1.0);
  for (auto _ : state) {
    auto out = attn.Forward(x);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SelfAttention)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Split argv: google-benchmark owns --benchmark_*, the strict FlagSet
  // owns everything else (--threads/--profile/--metrics), and the JSON
  // report defaults to BENCH_micro.json.
  std::vector<char*> bench_args;
  std::vector<const char*> our_args;
  bench_args.push_back(argv[0]);
  our_args.push_back(argv[0]);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
      bench_args.push_back(argv[i]);
    } else {
      our_args.push_back(argv[i]);
    }
  }
  FlagSet flags;
  if (const Status st = bench::InitBenchRuntime(
          static_cast<int>(our_args.size()), our_args.data(), flags);
      !st.ok()) {
    std::fprintf(stderr, "error: %s\nflags:\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  static char out_flag[] = "--benchmark_out=BENCH_micro.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    bench_args.push_back(out_flag);
    bench_args.push_back(fmt_flag);
  }
  RegisterKernelBenchmarks();
  int n = static_cast<int>(bench_args.size());
  benchmark::Initialize(&n, bench_args.data());
  benchmark::AddCustomContext("stpt_threads", std::to_string(exec::Threads()));
  benchmark::AddCustomContext("stpt_kernel_backend", kernels::Default()->name());
  benchmark::AddCustomContext("stpt_avx2", kernels::CpuHasAvx2() ? "1" : "0");
  if (benchmark::ReportUnrecognizedArguments(n, bench_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
