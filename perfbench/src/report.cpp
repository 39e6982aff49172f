#include <functional>

#include "fixture.hpp"
#include "src/serving/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

EngineSnap snap(const mtsr::serving::Engine& engine) {
  const mtsr::serving::Engine::Stats st = engine.stats();
  const mtsr::serving::SchedulerStats& sc = st.scheduler;
  EngineSnap s;
  s.rounds = static_cast<double>(sc.rounds);
  s.passes = static_cast<double>(sc.passes);
  s.fused_passes = static_cast<double>(sc.fused_passes);
  s.windows = static_cast<double>(sc.windows);
  s.dedup_lookups = static_cast<double>(sc.dedup_lookups);
  s.dedup_hits = static_cast<double>(sc.dedup_hits);
  s.queue_peak = sc.max_queue_depth;
  s.wall_s = st.wall_seconds;
  for (const auto& sh : st.shards) {
    s.busy_s += sh.busy_seconds;
    s.workers += sh.workers;
    s.growth += static_cast<double>(sh.arena.growth_events);
  }
  for (const auto& ss : st.sessions) {
    s.growth += static_cast<double>(ss.arena.growth_events);
  }
  return s;
}

namespace {

template <typename Op>
EngineSnap combine(const EngineSnap& a, const EngineSnap& b, Op op) {
  EngineSnap s;
  s.rounds = op(a.rounds, b.rounds);
  s.passes = op(a.passes, b.passes);
  s.fused_passes = op(a.fused_passes, b.fused_passes);
  s.windows = op(a.windows, b.windows);
  s.dedup_lookups = op(a.dedup_lookups, b.dedup_lookups);
  s.dedup_hits = op(a.dedup_hits, b.dedup_hits);
  s.busy_s = op(a.busy_s, b.busy_s);
  s.wall_s = op(a.wall_s, b.wall_s);
  s.growth = op(a.growth, b.growth);
  return s;
}

}  // namespace

EngineSnap operator-(const EngineSnap& after, const EngineSnap& before) {
  EngineSnap s = combine(after, before, std::minus<double>());
  s.workers = after.workers;
  s.queue_peak = after.queue_peak;
  return s;
}

EngineSnap operator+(const EngineSnap& a, const EngineSnap& b) {
  EngineSnap s = combine(a, b, std::plus<double>());
  s.workers = b.workers;
  s.queue_peak = b.queue_peak;
  return s;
}

void set_serving_metrics(RunResult& result, const EngineSnap& phase,
                         double pushes) {
  result.set("serving.windows_per_pass", ratio(phase.windows, phase.passes),
             "windows");
  result.set("serving.fused_pass_ratio",
             ratio(phase.fused_passes, phase.passes), "ratio");
  result.set("serving.dedup_hit_ratio",
             ratio(phase.dedup_hits, phase.dedup_lookups), "ratio");
  result.set("serving.dedup_lookups", phase.dedup_lookups, "count");
  result.set("serving.rounds_per_push", ratio(phase.rounds, pushes), "ratio");
  // The scheduler keeps only a running peak, so this covers warm-up too.
  result.set("serving.block_queue_peak",
             static_cast<double>(phase.queue_peak), "count");
  result.set("serving.utilization",
             ratio(phase.busy_s, phase.wall_s * phase.workers), "ratio");
}

void set_core_metrics(RunResult& result, const std::vector<Span>& predicts,
                      double traced_wall_s, const std::vector<Span>& loads) {
  std::vector<double> predict_ms;
  double windows = 0, busy_s = 0;
  for (const Span& s : predicts) {
    predict_ms.push_back(s.ms());
    windows += static_cast<double>(s.value);
    busy_s += s.ms() * 1e-3;
  }
  std::vector<double> load_ms;
  for (const Span& s : loads) load_ms.push_back(s.ms());
  result.set("core.predict_calls", static_cast<double>(predict_ms.size()),
             "count");
  result.set("core.predict_p50_ms",
             predict_ms.empty() ? 0 : median(predict_ms), "ms");
  result.set("core.windows_per_s", ratio(windows, traced_wall_s),
             "windows/s");
  result.set("core.predict_busy_share", ratio(busy_s, traced_wall_s),
             "ratio");
  result.set("core.load_checkpoint_ms", load_ms.empty() ? 0 : median(load_ms),
             "ms");
}

void set_idle_layers(RunResult& result, bool net_idle, bool online_idle) {
  if (net_idle) {
    for (const char* name : {"net.server_p50_ms", "net.server_p99_ms",
                             "net.wire_p50_ms", "loadgen.late_p99_ms"}) {
      result.set(name, 0, "ms");
    }
    result.set("net.max_queue_depth", 0, "count");
    result.set("net.bytes_per_push", 0, "bytes");
  }
  if (online_idle) {
    result.set("online.round_ms", 0, "ms");
    result.set("online.checkpoint_round_ms", 0, "ms");
    for (const char* name :
         {"online.steps", "online.promoted", "online.rejected"}) {
      result.set(name, 0, "count");
    }
    result.set("online.holdout_nrmse", 0, "ratio");
  }
}

void set_probe_metrics(RunResult& result, SpanLog& log) {
  const std::int64_t windows = mtsr::serving::SchedulerConfig{}.fuse_cap;
  const ProbeResult p = probe_kernels(
      kZipperChannels, kZipperChannels * 9, windows * kWindow * kWindow, log);
  result.set("tensor.matmul_gflops", p.matmul_gflops, "GFLOP/s");
  result.set("tensor.matmul_bytes", p.matmul_bytes, "bytes");
  result.set("tensor.gemm_u8s8_gops", p.gemm_u8s8_gops, "GOP/s");
  result.set("tensor.gemm_u8s8_bytes", p.gemm_u8s8_bytes, "bytes");
}

}  // namespace perfbench
