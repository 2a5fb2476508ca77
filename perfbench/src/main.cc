// perfbench — the repository's end-to-end benchmark binary (driven by
// run.py, which builds it and owns the scratch directory).
//
//   perfbench --workload <offline-publish|live-ingest|serve-read>
//             --seed <n> --seconds <s> --trace <0|1> --tmp <dir>
//             [--commit <id>] [--corrupt 1]
//
// Prints a header, the operations attempted and failed by reason, and as
// its last stdout line one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exits 0 only when every
// output check passed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/thread_pool.h"
#include "harness.h"
#include "kernels/backend.h"
#include "obs/log.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<offline-publish|live-ingest|serve-read> --seed <n> "
               "--seconds <s> --trace <0|1> --tmp <dir> [--commit <id>] "
               "[--corrupt 1]\n",
               why);
  std::exit(2);
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &n)) Usage("--seed must be a non-negative integer");
      args.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &n) || n < 1 || n > 600) {
        Usage("--seconds must be an integer in [1, 600]");
      }
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseU64(value, &n) || n > 1) Usage("--trace must be 0 or 1");
      args.trace = n == 1;
      have_trace = true;
    } else if (flag == "--corrupt") {
      if (!ParseU64(value, &n) || n > 1) Usage("--corrupt must be 0 or 1");
      args.corrupt = n == 1;
    } else if (flag == "--tmp") {
      args.tmp_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      args.tmp_dir.empty()) {
    Usage("--workload, --seed, --seconds, --trace and --tmp are required");
  }
#ifndef NDEBUG
  Usage("refusing to benchmark a build without NDEBUG (not Release)");
#endif
  if (SanitizedBuild()) Usage("refusing to benchmark a sanitizer build");

  stpt::obs::SetLogLevel(stpt::obs::LogLevel::kError);
  stpt::exec::SetThreads(perfbench::kExecThreads);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf(
      "# commit=%s build=Release kernel_backend=%s exec_threads=%d nproc=%ld\n",
      commit.c_str(), stpt::kernels::Default()->name().c_str(),
      stpt::exec::Threads(), sysconf(_SC_NPROCESSORS_ONLN));
  std::fflush(stdout);

  perfbench::Result result;
  if (args.workload == "offline-publish") {
    perfbench::RunOffline(args, result);
  } else if (args.workload == "live-ingest") {
    perfbench::RunLive(args, result);
  } else if (args.workload == "serve-read") {
    perfbench::RunServeRead(args, result);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (result.attempted() == 0) result.CheckFailed("no operation was attempted");
  if (args.trace) result.FillPerLayer();

  std::printf("# ops workload=%s attempted=%llu failed=%llu",
              args.workload.c_str(),
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()));
  for (const auto& [reason, count] : result.failures()) {
    std::printf(" failed.%s=%llu", reason.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n%s\n", result.Json().c_str());
  return result.correct() ? 0 : 1;
}
