// Differential checker sweep for the kernel backend API: every available
// backend is run against the naive oracle over RNG-filled inputs, across
// odd and power-of-two shapes and at 1 and 8 exec threads. Scan, Haar, and
// sampler kernels must match bitwise; MatMul and FFT to a small relative
// epsilon (backend.h documents the tolerance policy). Also covers the
// registry / default-dispatch surface and the cross-backend bit-identity of
// the ingest incremental prefix maintenance.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "grid/consumption_matrix.h"
#include "ingest/incremental_prefix.h"
#include "kernels/backend.h"
#include "kernels/checker.h"
#include "kernels/internal.h"

namespace stpt::kernels {
namespace {

constexpr double kMatMulEps = 1e-12;
constexpr double kFftEps = 1e-11;

std::vector<const Backend*> AllBackends() {
  std::vector<const Backend*> out;
  for (const auto& name : Registry::Names()) {
    auto created = Registry::Create(name);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (created.ok()) out.push_back(*created);
  }
  return out;
}

/// Runs each test body at the parameterized exec thread count; kernels
/// dispatch onto the pool internally, so this exercises both the serial and
/// the partitioned code paths of every backend.
class KernelSweepTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { exec::SetThreads(GetParam()); }
  void TearDown() override { exec::SetThreads(0); }
};

TEST_P(KernelSweepTest, MatMulAgreesWithOracle) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  // Sizes past 64 put odd, non-square and transposed shapes (17x128x128,
  // 128x17x128, 65x65x65, 64x65x64, ...) over the parallel-dispatch
  // threshold, so the row-partitioned forward and backward paths are
  // checked too.
  const int sizes[] = {1, 3, 7, 17, 64, 65, 128};
  static_assert(int64_t{17} * 128 * 128 >= kMatMulParallelFlops);
  static_assert(int64_t{65} * 65 * 65 >= kMatMulParallelFlops);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 100;
    for (int m : sizes) {
      for (int n : sizes) {
        for (int k : sizes) {
          MatMulShape s;
          s.m = m;
          s.n = n;
          s.k = k;
          ASSERT_TRUE(checker.CheckMatMul(s, ++seed, kMatMulEps).ok())
              << backend->name() << " m=" << m << " n=" << n << " k=" << k;
          s.transpose_b = true;
          ASSERT_TRUE(checker.CheckMatMul(s, ++seed, kMatMulEps).ok())
              << backend->name() << " (transposed) m=" << m << " n=" << n
              << " k=" << k;
        }
      }
    }
  }
}

TEST_P(KernelSweepTest, BatchedMatMulAgreesWithOracle) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 900;
    // The second shape is over the parallel-dispatch threshold, so the
    // per-batch and shared-B backward partitions are checked as well.
    static_assert(int64_t{2} * 48 * 65 * 43 >= kMatMulParallelFlops);
    for (const auto [m, n, k] : {std::array{5, 9, 33}, std::array{48, 65, 43}}) {
      for (int batch : {2, 3}) {
        for (bool b_batched : {false, true}) {
          for (bool transpose_b : {false, true}) {
            MatMulShape s;
            s.batch = batch;
            s.m = m;
            s.n = n;
            s.k = k;
            s.b_batched = b_batched;
            s.transpose_b = transpose_b;
            const Status st = checker.CheckMatMul(s, ++seed, kMatMulEps);
            ASSERT_TRUE(st.ok())
                << backend->name() << " m=" << m << " n=" << n << " k=" << k
                << " batch=" << batch << " b_batched=" << b_batched
                << " transpose_b=" << transpose_b << ": " << st.ToString();
          }
        }
      }
    }
  }
}

TEST_P(KernelSweepTest, FftAgreesWithOracle) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 200;
    for (size_t n : {1u, 2u, 4u, 8u, 64u, 1024u}) {
      const Status st = checker.CheckFft(n, ++seed, kFftEps);
      ASSERT_TRUE(st.ok()) << backend->name() << " n=" << n << ": "
                           << st.ToString();
    }
  }
}

TEST_P(KernelSweepTest, HaarBitExactAcrossBackends) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 300;
    for (size_t n : {1u, 2u, 4u, 8u, 256u, 4096u}) {
      const Status st = checker.CheckHaar(n, ++seed);
      ASSERT_TRUE(st.ok()) << backend->name() << " n=" << n << ": "
                           << st.ToString();
    }
  }
}

TEST_P(KernelSweepTest, ScanBitExactAcrossBackends) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  struct Case {
    int cx, cy, ct, t_lo;
  };
  const Case cases[] = {
      {1, 1, 1, 0},  {3, 5, 7, 0},   {4, 4, 16, 0},  {5, 3, 9, 4},
      {8, 8, 32, 0}, {8, 8, 32, 31}, {7, 11, 13, 6}, {16, 16, 40, 20},
  };
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 400;
    for (const Case& c : cases) {
      const Status st = checker.CheckScan(c.cx, c.cy, c.ct, c.t_lo, ++seed);
      ASSERT_TRUE(st.ok()) << backend->name() << " cx=" << c.cx
                           << " cy=" << c.cy << " ct=" << c.ct
                           << " t_lo=" << c.t_lo << ": " << st.ToString();
    }
  }
}

TEST_P(KernelSweepTest, SamplersBitExactAcrossBackends) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 500;
    // Straddle the internal parallel-dispatch threshold and the 4-wide
    // vector width (tails of 1..3 elements).
    for (size_t n : {1u, 3u, 5u, 4095u, 4097u, 16384u}) {
      for (double scale : {0.5, 2.0}) {
        const Status st = checker.CheckLaplace(n, scale, ++seed);
        ASSERT_TRUE(st.ok()) << backend->name() << " n=" << n
                             << " scale=" << scale << ": " << st.ToString();
      }
    }
    for (size_t n : {1u, 7u, 1000u}) {
      for (double alpha : {0.5, 0.9}) {
        const Status st = checker.CheckGeometric(n, alpha, ++seed);
        ASSERT_TRUE(st.ok()) << backend->name() << " n=" << n
                             << " alpha=" << alpha << ": " << st.ToString();
      }
    }
  }
}

// Denormal operands must not change results: the bit-exact kernels perform
// the identical operation chain (denormals included), and MatMul stays
// within epsilon because both backends compute in double throughout (no
// flush-to-zero mode is ever enabled).
TEST_P(KernelSweepTest, DenormalInputsAgree) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  // Large enough that the 8-thread run takes the parallel MatMul path.
  const int n = 65;
  static_assert(int64_t{65} * 65 * 65 >= kMatMulParallelFlops);
  std::vector<double> a(n * n), b(n * n);
  Rng rng(42);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble() * 4.9e-324 * 1e3;  // subnormal magnitudes
    b[i] = rng.NextDouble();
  }
  MatMulShape s;
  s.m = s.n = s.k = n;
  std::vector<double> c_ref(n * n), c_test(n * n);
  for (const Backend* backend : AllBackends()) {
    // NaN fill: a row the backend skips cannot pass on the previous
    // backend's output. Sums are ~1e-319, so 1e-321 is ~200 subnormal ulps.
    std::fill(c_test.begin(), c_test.end(), std::nan(""));
    naive->MatMulFwd(a.data(), b.data(), c_ref.data(), s);
    backend->MatMulFwd(a.data(), b.data(), c_test.data(), s);
    for (size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_NEAR(c_ref[i], c_test[i], 1e-321) << backend->name() << " " << i;
    }
    // Scans over denormals must be bitwise identical.
    std::vector<double> s_ref(a), s_test(a);
    naive->ScanT(s_ref.data(), s_ref.data(), n, n, 0);
    backend->ScanT(s_test.data(), s_test.data(), n, n, 0);
    ASSERT_EQ(0,
              std::memcmp(s_ref.data(), s_test.data(), n * n * sizeof(double)))
        << backend->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelSweepTest, ::testing::Values(1, 8));

// ---- Validation surface ----------------------------------------------------

TEST(KernelValidationTest, FftRejectsBadSizes) {
  for (const Backend* backend : AllBackends()) {
    std::vector<std::complex<double>> buf(3);
    EXPECT_FALSE(backend->FftPow2(buf.data(), 3, false).ok())
        << backend->name();
    EXPECT_FALSE(backend->FftPow2(buf.data(), 0, false).ok())
        << backend->name();
  }
}

TEST(KernelValidationTest, HaarRejectsBadSizes) {
  for (const Backend* backend : AllBackends()) {
    EXPECT_FALSE(backend->HaarForward({1.0, 2.0, 3.0}).ok()) << backend->name();
    EXPECT_FALSE(backend->HaarForward({}).ok()) << backend->name();
    EXPECT_FALSE(backend->HaarInverse({1.0, 2.0, 3.0}).ok()) << backend->name();
  }
}

// ---- Registry / dispatch ---------------------------------------------------

TEST(KernelRegistryTest, NaiveAlwaysFirst) {
  const auto names = Registry::Names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ("naive", names[0]);
}

TEST(KernelRegistryTest, Avx2ListedIffSupported) {
  const auto names = Registry::Names();
  const bool listed =
      names.size() > 1 && names[1] == "avx2";
  EXPECT_EQ(CpuHasAvx2(), listed);
  EXPECT_EQ(CpuHasAvx2(), GetBackend(BackendKind::kAvx2) != nullptr);
}

TEST(KernelRegistryTest, CreateResolvesSpecs) {
  auto naive = Registry::Create("naive");
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ("naive", (*naive)->name());

  auto autod = Registry::Create("auto");
  ASSERT_TRUE(autod.ok());
  EXPECT_EQ(CpuHasAvx2() ? "avx2" : "naive", (*autod)->name());

  auto avx2 = Registry::Create("avx2");
  if (CpuHasAvx2()) {
    ASSERT_TRUE(avx2.ok());
    EXPECT_EQ("avx2", (*avx2)->name());
  } else {
    EXPECT_EQ(StatusCode::kFailedPrecondition, avx2.status().code());
  }

  EXPECT_EQ(StatusCode::kInvalidArgument,
            Registry::Create("bogus").status().code());
}

TEST(KernelRegistryTest, StrictSetDefaultRejectsUnknown) {
  const Backend* before = Default();
  EXPECT_EQ(StatusCode::kInvalidArgument, SetDefault("sse9").code());
  EXPECT_EQ(before, Default());  // unchanged on error
  ASSERT_TRUE(SetDefault("naive").ok());
  EXPECT_EQ("naive", Default()->name());
  ASSERT_TRUE(SetDefault("auto").ok());
  SetDefault(before);
}

// ---- Ingest incremental prefix across backends -----------------------------

// Replays one mutation sequence under each backend as the process default
// and requires the final prefix tables to be memcmp-equal — the streaming
// tier's incremental rescans must be unobservable not just across thread
// counts but across kernel implementations.
TEST(KernelIngestTest, IncrementalPrefixBitIdenticalAcrossBackends) {
  const grid::Dims dims{6, 5, 24};
  auto run = [&](const Backend* backend) {
    const Backend* before = Default();
    SetDefault(backend);
    auto inc = ingest::IncrementalPrefix::Create(dims);
    EXPECT_TRUE(inc.ok());
    Rng rng(777);
    for (int round = 0; round < 8; ++round) {
      const int lo = static_cast<int>(rng.UniformInt(0, dims.ct - 1));
      for (int i = 0; i < 40; ++i) {
        const int x = static_cast<int>(rng.UniformInt(0, dims.cx - 1));
        const int y = static_cast<int>(rng.UniformInt(0, dims.cy - 1));
        const int t = static_cast<int>(rng.UniformInt(lo, dims.ct - 1));
        EXPECT_TRUE(inc->Add(x, y, t, rng.NextDouble()).ok());
      }
      inc->Flush();
    }
    std::vector<double> prefix = inc->prefix();
    // The incremental table must equal a from-scratch build on the same
    // backend as well.
    const grid::PrefixSum3D full(inc->matrix(), backend);
    EXPECT_EQ(0, std::memcmp(prefix.data(), full.raw().data(),
                             prefix.size() * sizeof(double)));
    SetDefault(before);
    return prefix;
  };

  const auto backends = AllBackends();
  const std::vector<double> baseline = run(backends[0]);
  for (size_t i = 1; i < backends.size(); ++i) {
    const std::vector<double> other = run(backends[i]);
    ASSERT_EQ(baseline.size(), other.size());
    EXPECT_EQ(0, std::memcmp(baseline.data(), other.data(),
                             baseline.size() * sizeof(double)))
        << backends[i]->name();
  }
}

}  // namespace
}  // namespace stpt::kernels
