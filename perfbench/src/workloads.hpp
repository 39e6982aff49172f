// The three benchmark workloads. Each builds its own fixture, measures,
// checks its outputs and returns every metric of its mode (end-to-end when
// options.trace is false, per-layer when true).
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "src/serving/engine.hpp"

namespace perfbench {

/// serve_float / serve_int8_fanout: wire sessions over one loopback
/// connection against net::Server, open-loop latency then closed-loop
/// capacity.
[[nodiscard]] RunResult run_serve(const Options& options, SpanLog& log);

/// train_online: in-process serving of a drifted stream with
/// online::Trainer rounds between pushes.
[[nodiscard]] RunResult run_train(const Options& options, SpanLog& log);

// ---- Per-layer reporting shared by the workloads -----------------------------

/// Engine counters at a phase boundary, or (after operator-) over a phase.
struct EngineSnap {
  double rounds = 0, passes = 0, fused_passes = 0, windows = 0;
  double dedup_lookups = 0, dedup_hits = 0;
  double busy_s = 0;  ///< pool worker busy time
  double wall_s = 0;
  double growth = 0;  ///< arena growth events, sessions + shards
  int workers = 0;
  std::int64_t queue_peak = 0;  ///< scheduler running peak (not a counter)
};
[[nodiscard]] EngineSnap snap(const mtsr::serving::Engine& engine);
/// Counter deltas; workers and queue_peak come from `after`.
[[nodiscard]] EngineSnap operator-(const EngineSnap& after,
                                   const EngineSnap& before);
/// Sums the counters of two phases; workers and queue_peak from `b`.
[[nodiscard]] EngineSnap operator+(const EngineSnap& a, const EngineSnap& b);

/// serving.* over `phase` (a delta), with `pushes` served in it.
void set_serving_metrics(RunResult& result, const EngineSnap& phase,
                         double pushes);

/// core.*: the timed Model wrapper's predict spans over `traced_wall_s`
/// seconds of traced work, plus its load_checkpoint spans.
void set_core_metrics(RunResult& result, const std::vector<Span>& predicts,
                      double traced_wall_s, const std::vector<Span>& loads);

/// Layers a workload leaves idle report 0, so every run emits one schema.
void set_idle_layers(RunResult& result, bool net_idle, bool online_idle);

/// tensor.*: the GEMM probe at the generator's widest lowered shape.
void set_probe_metrics(RunResult& result, SpanLog& log);

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0;
}

}  // namespace perfbench
