// Tests for the stpt::exec runtime: ParallelFor correctness under
// contention, exception propagation, serial/parallel equivalence, the
// Rng fork-by-index determinism contract, and thread-count invariance of
// the full STPT pipeline.

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stpt.h"
#include "datagen/dataset.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "exec/timing.h"
#include "kernels/internal.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace stpt {
namespace {

/// Restores the default worker count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { exec::SetThreads(0); }
};

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadGuard guard;
  exec::SetThreads(4);
  constexpr int64_t kN = 10007;
  std::vector<std::atomic<int>> hits(kN);
  exec::ParallelFor(kN, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, ContendedAccumulationIsComplete) {
  ThreadGuard guard;
  exec::SetThreads(8);
  constexpr int64_t kN = 100000;
  std::atomic<int64_t> sum{0};
  exec::ParallelFor(kN, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ParallelForTest, RangeVariantCoversPartition) {
  ThreadGuard guard;
  exec::SetThreads(3);
  constexpr int64_t kN = 1000;
  std::vector<int> hits(kN, 0);
  exec::ParallelForRange(kN, [&](int64_t begin, int64_t end) {
    ASSERT_LE(begin, end);
    for (int64_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelForTest, ZeroAndTinySizes) {
  ThreadGuard guard;
  exec::SetThreads(4);
  int calls = 0;
  exec::ParallelFor(0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  exec::ParallelFor(1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, PropagatesException) {
  ThreadGuard guard;
  exec::SetThreads(4);
  EXPECT_THROW(
      exec::ParallelFor(1000,
                        [](int64_t i) {
                          if (i == 417) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable after a failed region.
  std::atomic<int> ok{0};
  exec::ParallelFor(100, [&](int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 100);
}

TEST(ParallelForTest, NestedRegionsDoNotDeadlock) {
  ThreadGuard guard;
  exec::SetThreads(4);
  std::atomic<int64_t> total{0};
  exec::ParallelFor(8, [&](int64_t) {
    exec::ParallelFor(8, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForTest, SerialAndParallelMatMulBitIdentical) {
  // Large enough that the 7-thread product takes the pool's row-partitioned
  // path rather than running inline.
  constexpr int kM = 96, kK = 64, kN = 56;
  static_assert(int64_t{kM} * kK * kN >= kernels::kMatMulParallelFlops);
  Rng rng(7);
  const nn::Tensor a = nn::Tensor::Randn({kM, kK}, rng, 1.0);
  const nn::Tensor b = nn::Tensor::Randn({kK, kN}, rng, 1.0);
  ThreadGuard guard;
  exec::SetThreads(1);
  const nn::Tensor c1 = nn::MatMul(a, b);
  exec::SetThreads(7);
  const nn::Tensor c7 = nn::MatMul(a, b);
  ASSERT_EQ(c1.numel(), c7.numel());
  for (size_t i = 0; i < c1.numel(); ++i) {
    EXPECT_EQ(c1.data()[i], c7.data()[i]) << i;
  }
}

TEST(ThreadPoolTest, ParseThreadsValueAcceptsOnlyCleanPositiveIntegers) {
  // STPT_THREADS parsing used to take atoi-style prefixes ("4abc" -> 4)
  // and treat negatives as huge unsigned counts. The parser now accepts
  // exactly [1, kMaxThreads] spelled as plain digits, and anything else
  // reports invalid (0) so the caller falls back to hardware threads.
  EXPECT_EQ(exec::ParseThreadsValue("1"), 1);
  EXPECT_EQ(exec::ParseThreadsValue("4"), 4);
  EXPECT_EQ(exec::ParseThreadsValue("4096"), exec::kMaxThreads);

  EXPECT_EQ(exec::ParseThreadsValue(nullptr), 0);
  EXPECT_EQ(exec::ParseThreadsValue(""), 0);
  EXPECT_EQ(exec::ParseThreadsValue("0"), 0);
  EXPECT_EQ(exec::ParseThreadsValue("-2"), 0);
  EXPECT_EQ(exec::ParseThreadsValue("4abc"), 0);
  EXPECT_EQ(exec::ParseThreadsValue(" 4"), 0);
  EXPECT_EQ(exec::ParseThreadsValue("4 "), 0);
  EXPECT_EQ(exec::ParseThreadsValue("+4"), 0);
  EXPECT_EQ(exec::ParseThreadsValue("4097"), 0);
  EXPECT_EQ(exec::ParseThreadsValue("99999999999999999999"), 0);
}

TEST(ThreadPoolTest, RespectsConfiguredWorkerCount) {
  ThreadGuard guard;
  exec::SetThreads(3);
  EXPECT_EQ(exec::Threads(), 3);
  EXPECT_EQ(exec::GlobalPool().num_workers(), 3);
  exec::SetThreads(0);
  EXPECT_GE(exec::Threads(), 1);
}

TEST(RngForkTest, IndexedForkIsDeterministicAndConst) {
  const Rng base(123);
  Rng a = base.Fork(5);
  Rng b = base.Fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
  // The const fork must not advance the parent.
  Rng parent1(123), parent2(123);
  (void)parent1.Fork(99);
  EXPECT_EQ(parent1.NextUint64(), parent2.NextUint64());
}

TEST(RngForkTest, DistinctStreamsDiffer) {
  const Rng base(42);
  Rng a = base.Fork(0);
  Rng b = base.Fork(1);
  int diff = 0;
  for (int i = 0; i < 16; ++i) diff += a.NextUint64() != b.NextUint64();
  EXPECT_GT(diff, 12);
}

TEST(RngForkTest, SubstreamsDoNotOverlap) {
  // 64-bit outputs from xoshiro substreams: any repeated value across (or
  // within) streams would be an astronomically unlikely collision, so an
  // overlap shows up as duplicates.
  const Rng base(2024);
  std::set<uint64_t> seen;
  constexpr int kStreams = 8;
  constexpr int kDraws = 4096;
  for (int s = 0; s < kStreams; ++s) {
    Rng sub = base.Fork(static_cast<uint64_t>(s));
    for (int i = 0; i < kDraws; ++i) seen.insert(sub.NextUint64());
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kStreams) * kDraws);
}

TEST(RngForkTest, IndexedForkIndependentOfMutatingFork) {
  // Mutating Fork() advances the parent; indexed forks from the *same*
  // state before and after must therefore differ, while indexed forks of
  // equal state agree. Guards against accidentally coupling the two.
  Rng parent(9);
  Rng before = parent.Fork(3);
  (void)parent.Fork();
  Rng after = parent.Fork(3);
  EXPECT_NE(before.NextUint64(), after.NextUint64());
}

TEST(ScopedTimerTest, AggregatesIntoProfileAndJson) {
  exec::ResetTimings();
  {
    exec::ScopedTimer t("test/region_a");
  }
  {
    exec::ScopedTimer t("test/region_a");
  }
  {
    exec::ScopedTimer t("test/region_b");
  }
  const auto profile = exec::TimingProfile();
  uint64_t calls_a = 0, calls_b = 0;
  for (const auto& e : profile) {
    if (e.region == "test/region_a") calls_a = e.calls;
    if (e.region == "test/region_b") calls_b = e.calls;
  }
  EXPECT_EQ(calls_a, 2u);
  EXPECT_EQ(calls_b, 1u);
  const std::string json = exec::TimingsJson();
  EXPECT_NE(json.find("\"test/region_a\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
  exec::ResetTimings();
}

/// End-to-end determinism: the sanitized release must be bit-identical at
/// 1 and N threads for the same seed (the acceptance contract of the exec
/// layer).
TEST(ExecIntegrationTest, StptPublishBitIdenticalAcrossThreadCounts) {
  datagen::DatasetSpec spec = datagen::CerSpec();
  spec.num_households = 60;
  datagen::GenerateOptions opts;
  opts.grid_x = opts.grid_y = 8;
  opts.hours = 40 * 24;
  Rng gen_rng(77);
  auto ds = datagen::GenerateDataset(spec, datagen::SpatialDistribution::kUniform,
                                     opts, gen_rng);
  ASSERT_TRUE(ds.ok());
  auto cons = datagen::BuildConsumptionMatrix(*ds, 24);
  ASSERT_TRUE(cons.ok());
  core::StptConfig cfg;
  cfg.eps_pattern = 10.0;
  cfg.eps_sanitize = 20.0;
  cfg.t_train = 20;
  cfg.quadtree_depth = 2;
  cfg.quantization_levels = 4;
  cfg.training.epochs = 2;
  const double unit = datagen::UnitSensitivity(spec, 24);

  ThreadGuard guard;
  exec::SetThreads(1);
  Rng rng1(555);
  auto res1 = core::Stpt(cfg).Publish(*cons, unit, rng1);
  ASSERT_TRUE(res1.ok());

  exec::SetThreads(8);
  Rng rng8(555);
  auto res8 = core::Stpt(cfg).Publish(*cons, unit, rng8);
  ASSERT_TRUE(res8.ok());

  EXPECT_EQ(res1->sanitized.data(), res8->sanitized.data());
  EXPECT_EQ(res1->pattern.data(), res8->pattern.data());
}

}  // namespace
}  // namespace stpt
