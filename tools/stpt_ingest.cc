// stpt_ingest — synthetic meter-reading feeder for a --ingest server.
//
//   stpt_ingest --port=P [--host=127.0.0.1] [--tenant=] [--tile=]
//               [--dims=8,8,64] [--slices=16] [--t-offset=0]
//               [--readings=4096] [--batch=256] [--seed=7] [--kwh-max=5.0]
//               [--no-flush] [--fail-on=reject] [--threads=N] [--trace=path]
//               [--log-level=warn] [--trace-sample=N]
//
// Generates --readings synthetic readings spread in time order over
// --slices timesteps starting at --t-offset of a --dims grid (cells and
// loads drawn from a seeded Rng, so a fixed seed replays the identical
// stream), sends them as kReadingBatch frames of --batch readings each,
// and finishes with an empty batch that forces the server to publish any
// trailing partial epoch (suppress with --no-flush). A nonzero --t-offset
// continues a shard a previous invocation left open — the w-event release
// is immutable once published, so re-streaming timesteps an earlier run
// already covered would be rejected as late. Prints accepted/clamped/
// rejected counts, the shard's final epoch, and sustained readings/s.
//
// `--fail-on` picks the admission outcomes that fail the run: `reject`
// (the default) exits nonzero if any reading is rejected, `clamp` also
// fails on sensitivity-clamped readings, and `none` only reports. All
// modes still fail when the final epoch never advanced past zero
// (nothing was published).
//
// `--trace-sample=N` attaches a deterministic per-batch trace context,
// head-sampled 1/N. Sampled batches chain accept → republish → registry
// swap spans in the server's trace store (`stpt_serve trace`). The trace
// ids fork off their own Rng stream, so the reading stream — and the DP
// release it produces — is bit-identical with tracing on or off.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "exec/timing.h"
#include "kernels/backend.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/client.h"
#include "serve/wire.h"

namespace {

using namespace stpt;

int Fail(const Status& status) {
  std::fprintf(stderr, "stpt_ingest: %s\n", status.ToString().c_str());
  return 1;
}

FlagSet MakeFlags() {
  FlagSet flags;
  flags.DefineString("host", "127.0.0.1", "server host");
  flags.DefineInt("port", 0, "server port (required)");
  flags.DefineString("tenant", "", "target tenant ('' = default shard)");
  flags.DefineString("tile", "", "target tile ('' = default tile)");
  flags.DefineString("dims", "8,8,64", "CX,CY,CT grid the readings land in");
  flags.DefineInt("slices", 16, "spread readings over N timesteps");
  flags.DefineInt("t-offset", 0,
                  "first timestep to stream (continue a prior run's shard)");
  flags.DefineInt("readings", 4096, "total readings to stream");
  flags.DefineInt("batch", 256, "readings per kReadingBatch frame");
  flags.DefineInt("seed", 7, "generator seed");
  flags.DefineDouble("kwh-max", 5.0, "loads drawn uniformly from [0, max)");
  flags.DefineBool("no-flush", false, "skip the final forced-publish batch");
  flags.DefineString("fail-on", "reject",
                     "admission outcomes that fail the run "
                     "(reject, clamp, none)");
  flags.DefineInt("threads", 0, "exec pool size (0 = hardware)");
  flags.DefineString("trace", "", "write Chrome trace-event JSON here");
  flags.DefineString("log-level", "warn", "debug|info|warn|error|off");
  flags.DefineString("kernel-backend", "auto", "kernel backend (naive, avx2, auto)");
  flags.DefineInt("trace-sample", 0,
                  "attach trace contexts, head-sampled 1/N (0 = untraced)");
  return flags;
}

int Run(const FlagSet& flags) {
  if (flags.GetInt("port") <= 0) {
    return Fail(Status::InvalidArgument("--port is required"));
  }
  int cx = 0, cy = 0, ct = 0;
  if (std::sscanf(flags.GetString("dims").c_str(), "%d,%d,%d", &cx, &cy,
                  &ct) != 3 ||
      cx <= 0 || cy <= 0 || ct <= 0) {
    return Fail(Status::InvalidArgument("--dims wants positive CX,CY,CT"));
  }
  const int64_t total = flags.GetInt("readings");
  const int64_t batch_size = flags.GetInt("batch");
  const int64_t t_offset = flags.GetInt("t-offset");
  // Checked before the clamp below, which would otherwise turn an offset
  // past the grid into a non-positive --slices.
  if (t_offset < 0 || t_offset >= ct) {
    return Fail(Status::InvalidArgument("--t-offset must lie inside the grid"));
  }
  const int64_t slices =
      std::min<int64_t>(flags.GetInt("slices"), ct - t_offset);
  if (total <= 0 || batch_size <= 0 || slices <= 0) {
    return Fail(Status::InvalidArgument(
        "--readings, --batch and --slices must be positive"));
  }
  const std::string fail_on = flags.GetString("fail-on");
  if (fail_on != "reject" && fail_on != "clamp" && fail_on != "none") {
    return Fail(Status::InvalidArgument(
        "--fail-on wants reject, clamp or none"));
  }

  auto client = serve::Client::Connect(
      flags.GetString("host"), static_cast<int>(flags.GetInt("port")));
  if (!client.ok()) return Fail(client.status());

  const std::string tenant = flags.GetString("tenant");
  const std::string tile = flags.GetString("tile");
  const double kwh_max = flags.GetDouble("kwh-max");
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  // Trace ids come from their own base Rng (MakeTraceContext forks it
  // without advancing), so the reading stream above replays identically
  // whether or not tracing is on.
  const uint32_t trace_sample =
      static_cast<uint32_t>(flags.GetInt("trace-sample"));
  const Rng trace_base(static_cast<uint64_t>(flags.GetInt("seed")));
  uint64_t batch_index = 0;
  auto next_trace = [&]() {
    return trace_sample > 0
               ? obs::MakeTraceContext(trace_base, batch_index++, trace_sample)
               : obs::TraceContext{};
  };

  // Readings per timestep, in time order so the server never sees a "late"
  // slice: reading i lands on t = i / per_slice.
  const int64_t per_slice = (total + slices - 1) / slices;

  uint64_t accepted = 0, clamped = 0, rejected = 0, epoch = 0;
  std::vector<serve::MeterReading> pending;
  pending.reserve(static_cast<size_t>(batch_size));
  const int64_t start_ns = exec::NowNanos();
  for (int64_t i = 0; i < total; ++i) {
    serve::MeterReading r;
    r.meter_id = static_cast<uint64_t>(i);
    r.x = static_cast<int32_t>(rng.UniformInt(0, cx - 1));
    r.y = static_cast<int32_t>(rng.UniformInt(0, cy - 1));
    r.t = static_cast<int32_t>(t_offset + i / per_slice);
    r.kwh = rng.Uniform(0.0, kwh_max);
    pending.push_back(r);
    if (static_cast<int64_t>(pending.size()) == batch_size || i + 1 == total) {
      auto ack = client->Ingest(tenant, tile, pending, next_trace());
      if (!ack.ok()) return Fail(ack.status());
      accepted += ack->accepted;
      clamped += ack->clamped;
      rejected += ack->rejected;
      epoch = ack->epoch;
      pending.clear();
    }
  }
  if (!flags.GetBool("no-flush")) {
    auto ack = client->Ingest(tenant, tile, {}, next_trace());
    if (!ack.ok()) return Fail(ack.status());
    epoch = ack->epoch;
  }
  const double elapsed_s =
      static_cast<double>(exec::NowNanos() - start_ns) * 1e-9;

  std::printf(
      "streamed %lld readings (%llu accepted, %llu clamped, %llu rejected) "
      "over %lld slices: epoch %llu, %.0f readings/s\n",
      static_cast<long long>(total), static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(clamped),
      static_cast<unsigned long long>(rejected),
      static_cast<long long>(slices), static_cast<unsigned long long>(epoch),
      static_cast<double>(total) / (elapsed_s > 0 ? elapsed_s : 1e-9));
  if (fail_on != "none" && rejected != 0) {
    std::fprintf(stderr, "stpt_ingest: server rejected %llu readings\n",
                 static_cast<unsigned long long>(rejected));
    return 1;
  }
  if (fail_on == "clamp" && clamped != 0) {
    std::fprintf(stderr, "stpt_ingest: server clamped %llu readings\n",
                 static_cast<unsigned long long>(clamped));
    return 1;
  }
  if (epoch == 0) {
    std::fprintf(stderr, "stpt_ingest: no epoch was published\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stpt;
  FlagSet flags = MakeFlags();
  if (const Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "error: %s\nflags for 'stpt_ingest':\n%s",
                 st.ToString().c_str(), flags.Usage().c_str());
    return 2;
  }
  if (flags.Provided("threads")) {
    exec::SetThreads(static_cast<int>(flags.GetInt("threads")));
  }
  obs::LogLevel log_level;
  if (!obs::ParseLogLevel(flags.GetString("log-level"), &log_level)) {
    std::fprintf(stderr, "error: bad --log-level '%s'\n",
                 flags.GetString("log-level").c_str());
    return 2;
  }
  obs::SetLogLevel(log_level);
  if (flags.Provided("kernel-backend")) {
    if (const Status st = kernels::SetDefault(flags.GetString("kernel-backend"));
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (flags.Provided("trace")) {
    obs::RegisterCurrentThreadName("main");
    obs::StartTraceEvents();
  }
  const int rc = Run(flags);
  if (flags.Provided("trace")) {
    obs::StopTraceEvents();
    if (!obs::WriteChromeTrace(flags.GetString("trace"))) {
      std::fprintf(stderr, "error: cannot write trace path '%s'\n",
                   flags.GetString("trace").c_str());
      return 1;
    }
  }
  return rc;
}
