#include "src/serving/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/table.hpp"

namespace mtsr::serving {

Engine::Engine() : pool_baseline_(pool_shard_stats()) {}

void Engine::set_shards(int n) { set_num_shards(n); }

void Engine::register_model(const std::string& name,
                            std::shared_ptr<Model> model) {
  check(!name.empty(), "Engine::register_model: empty name");
  check(model != nullptr, "Engine::register_model: null model");
  // A fresh slot per registration preserves the documented semantics:
  // sessions opened against the old registration keep it; reload_model is
  // the call that swaps a slot under its open sessions.
  models_[name] = std::make_shared<ModelSlot>(std::move(model));
}

void Engine::reload_model(const std::string& name, const std::string& path) {
  auto it = models_.find(name);
  check(it != models_.end(), "Engine: unknown model \"" + name + "\"");
  std::shared_ptr<Model> next;
  try {
    // Build the replacement entirely off to the side. The nested-region
    // guard keeps this thread's parallel_for calls serial, so a reload
    // running beside a serving thread never contends for the pool's single
    // in-flight task.
    detail::NestedParallelRegion nested;
    next = it->second->acquire().model->load_checkpoint(path);
  } catch (...) {
    ++reloads_failed_;
    throw;
  }
  reload_model(name, std::move(next));
}

void Engine::reload_model(const std::string& name,
                          std::shared_ptr<Model> next) {
  auto it = models_.find(name);
  check(it != models_.end(), "Engine: unknown model \"" + name + "\"");
  check(next != nullptr, "Engine::reload_model: null model");
  const std::shared_ptr<ModelSlot>& slot = it->second;
  try {
    // A swap must be transparent to every open session on this slot: the
    // rolling history was sized and gathered for the OLD model's contract.
    for (const auto& [id, session] : sessions_) {
      if (session->slot_ != slot) continue;
      check(next->temporal_length() == session->temporal_length(),
            "session " + std::to_string(id) + " holds " +
                std::to_string(session->temporal_length()) +
                " frames of history but the replacement needs " +
                std::to_string(next->temporal_length()));
      const ModelInputs needs = next->inputs();
      check(needs.coarse_history == session->needs_.coarse_history &&
                needs.fine_latest == session->needs_.fine_latest,
            "session " + std::to_string(id) +
                " gathers different inputs than the replacement consumes");
      next->validate(session->stream_);
    }
  } catch (const std::exception& e) {
    ++reloads_failed_;
    throw ContractViolation("Engine::reload_model(\"" + name +
                            "\"): replacement rejected, old model keeps "
                            "serving: " +
                            e.what());
  }
  slot->swap(std::move(next));
  ++reloads_applied_;
}

bool Engine::has_model(const std::string& name) const {
  return models_.count(name) > 0;
}

std::shared_ptr<Model> Engine::model(const std::string& name) const {
  auto it = models_.find(name);
  check(it != models_.end(), "Engine: unknown model \"" + name + "\"");
  return it->second->acquire().model;
}

std::vector<std::string> Engine::model_names() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, _] : models_) names.push_back(name);
  return names;
}

Engine::SessionId Engine::open_session(SessionConfig config) {
  auto it = models_.find(config.model);
  check(it != models_.end(),
        "Engine: unknown model \"" + config.model + "\"");
  const SessionId id = next_id_++;
  sessions_[id] = std::make_unique<Session>(it->second, std::move(config),
                                            &scheduler_);
  return id;
}

Session& Engine::session(SessionId id) {
  auto it = sessions_.find(id);
  check(it != sessions_.end(),
        "Engine: unknown session " + std::to_string(id));
  return *it->second;
}

const Session& Engine::session(SessionId id) const {
  auto it = sessions_.find(id);
  check(it != sessions_.end(),
        "Engine: unknown session " + std::to_string(id));
  return *it->second;
}

void Engine::close_session(SessionId id) {
  check(sessions_.erase(id) == 1,
        "Engine: unknown session " + std::to_string(id));
}

std::string Engine::stream_key(SessionId id, const Session& s) const {
  const std::string& tag = s.config().stream;
  return tag.empty() ? "session-" + std::to_string(id) : tag;
}

std::optional<Tensor> Engine::push(SessionId id, const Tensor& fine_snapshot) {
  return std::move(serve({id}, {&fine_snapshot}, /*one_feed=*/false)[0]);
}

std::vector<std::optional<Tensor>> Engine::push_all(
    const std::vector<SessionId>& ids, const std::vector<Tensor>& frames) {
  check(ids.size() == frames.size(), "Engine::push_all: one frame per id");
  std::vector<const Tensor*> ptrs;
  ptrs.reserve(frames.size());
  for (const Tensor& frame : frames) ptrs.push_back(&frame);
  return serve(ids, ptrs, /*one_feed=*/false);
}

std::vector<std::optional<Tensor>> Engine::push_fused(
    const std::vector<SessionId>& ids, const Tensor& fine_snapshot) {
  return serve(ids, std::vector<const Tensor*>(ids.size(), &fine_snapshot),
               /*one_feed=*/true);
}

std::vector<std::optional<Tensor>> Engine::serve(
    const std::vector<SessionId>& ids,
    const std::vector<const Tensor*>& frames, bool one_feed) {
  std::vector<Session*> sessions;
  sessions.reserve(ids.size());
  for (const SessionId id : ids) sessions.push_back(&session(id));
  // Runs after the scheduler accepted every frame and before any session
  // admits one, so a rejected call publishes nothing. One publication per
  // distinct stream per round: fan-out consumers of one tagged feed carry
  // byte-identical frames, so only the first occurrence of each key
  // publishes, and a push_fused round (one feed by definition) publishes
  // once, under the first session's key.
  const auto publish = [&] {
    if (!frame_sink_) return;
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < ids.size() && !(one_feed && i > 0); ++i) {
      std::string key = stream_key(ids[i], *sessions[i]);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      frame_sink_(key, *frames[i]);
      seen.push_back(std::move(key));
    }
  };
  return scheduler_.serve(sessions, frames, publish);
}

Engine::Stats Engine::stats() const {
  Stats stats;
  stats.sessions.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    SessionStats s;
    s.id = id;
    s.model = session->model()->name();
    s.rows = session->config().rows;
    s.cols = session->config().cols;
    s.window = session->config().window;
    s.temporal_length = session->temporal_length();
    s.frames_until_ready = session->frames_until_ready();
    s.inference_count = session->inference_count();
    s.coarsen_skips = session->coarsen_skips();
    stats.sessions.push_back(std::move(s));
  }
  stats.scheduler = scheduler_.stats();
  stats.reloads_applied = reloads_applied_.load();
  stats.reloads_failed = reloads_failed_.load();
  if (online_stats_) stats.online = online_stats_();

  // Per-shard breakdown: scheduler dispatch counters joined with the
  // pool's busy-time telemetry, both relative to this engine's lifetime.
  stats.wall_seconds = created_.seconds();
  const std::vector<PoolShardStats> pool = pool_shard_stats();
  const std::vector<SchedulerShardStats> sched = scheduler_.shard_stats();
  int total_workers = 0;
  double total_busy = 0.0;
  stats.shards.reserve(pool.size());
  for (const PoolShardStats& p : pool) {
    ShardStats s;
    s.shard = p.shard;
    s.workers = p.workers;
    s.busy_seconds = p.busy_seconds;
    for (const PoolShardStats& b : pool_baseline_) {
      if (b.shard == p.shard) {
        s.busy_seconds -= b.busy_seconds;
        break;
      }
    }
    for (const SchedulerShardStats& ss : sched) {
      if (ss.shard != p.shard) continue;
      s.rounds = ss.stats.rounds;
      s.passes = ss.stats.passes;
      s.fused_passes = ss.stats.fused_passes;
      s.windows = ss.stats.windows;
      s.max_queue_depth = ss.stats.max_queue_depth;
      s.memo_entries = ss.stats.memo_entries;
      s.arena = ss.stats.arena;
      break;
    }
    total_workers += s.workers;
    total_busy += s.busy_seconds;
    stats.shards.push_back(std::move(s));
  }
  if (stats.wall_seconds > 0 && total_workers > 0) {
    stats.utilization =
        total_busy / (stats.wall_seconds * static_cast<double>(total_workers));
  }
  return stats;
}

std::string render_stats_table(const Engine::Stats& stats) {
  Table table({"session", "model", "grid", "window", "S", "warm-up",
               "inferences", "skips"});
  for (const Engine::SessionStats& s : stats.sessions) {
    table.add_row({std::to_string(s.id), s.model,
                   std::to_string(s.rows) + "x" + std::to_string(s.cols),
                   std::to_string(s.window), std::to_string(s.temporal_length),
                   std::to_string(s.frames_until_ready),
                   std::to_string(s.inference_count),
                   std::to_string(s.coarsen_skips)});
  }
  std::string out = table.render();

  // Per-shard breakdown: which worker groups carried the serving load, and
  // how busy their workers actually were.
  if (!stats.shards.empty()) {
    Table shard_table({"shard", "workers", "rounds", "passes", "fused",
                       "windows", "queue", "arena cap", "busy s"});
    char cell[64];
    for (const Engine::ShardStats& s : stats.shards) {
      std::snprintf(cell, sizeof(cell), "%.2f", s.busy_seconds);
      shard_table.add_row(
          {std::to_string(s.shard), std::to_string(s.workers),
           std::to_string(s.rounds), std::to_string(s.passes),
           std::to_string(s.fused_passes), std::to_string(s.windows),
           std::to_string(s.max_queue_depth),
           fmt_bytes(s.arena.capacity_bytes), cell});
    }
    out += shard_table.render();
    char util_line[160];
    std::snprintf(util_line, sizeof(util_line),
                  "pool: %zu shard%s, utilisation %.1f%% "
                  "(busy-worker-seconds / wall-seconds over %.1fs)\n",
                  stats.shards.size(), stats.shards.size() == 1 ? "" : "s",
                  100.0 * stats.utilization, stats.wall_seconds);
    out += util_line;
  }

  // Scheduler summary: the cross-session dispatch counters a deployment
  // watches, and the arena growth it alarms on.
  const SchedulerStats& sch = stats.scheduler;
  char line[256];
  std::snprintf(line, sizeof(line),
                "scheduler: %lld rounds, %lld passes (%lld fused), "
                "%lld windows, max queue %lld\n",
                static_cast<long long>(sch.rounds),
                static_cast<long long>(sch.passes),
                static_cast<long long>(sch.fused_passes),
                static_cast<long long>(sch.windows),
                static_cast<long long>(sch.max_queue_depth));
  out += line;
  out += "fused batch sizes:";
  bool any = false;
  for (std::size_t b = 0; b < sch.fused_histogram.size(); ++b) {
    if (sch.fused_histogram[b] == 0) continue;
    any = true;
    std::snprintf(line, sizeof(line), " %zux%lld", b,
                  static_cast<long long>(sch.fused_histogram[b]));
    out += line;
  }
  if (!any) out += " (none)";
  out += "\n";
  const double rate =
      sch.dedup_lookups > 0
          ? 100.0 * static_cast<double>(sch.dedup_hits) /
                static_cast<double>(sch.dedup_lookups)
          : 0.0;
  std::snprintf(line, sizeof(line),
                "dedup: %lld/%lld hits (%.1f%%), %lld memo entries; "
                "reloads: %lld applied, %lld failed; arenas: %s cap, "
                "%lld growth\n",
                static_cast<long long>(sch.dedup_hits),
                static_cast<long long>(sch.dedup_lookups), rate,
                static_cast<long long>(sch.memo_entries),
                static_cast<long long>(stats.reloads_applied),
                static_cast<long long>(stats.reloads_failed),
                fmt_bytes(sch.arena.capacity_bytes).c_str(),
                static_cast<long long>(sch.arena.growth_events));
  out += line;

  // Front-door summary: the request-level counters a deployment pages on —
  // tail latency against the SLO, admission-queue depth against its cap,
  // and the reject/evict counts that say the door is shedding load.
  if (stats.front_door.has_value()) {
    const FrontDoorStats& fd = *stats.front_door;
    std::snprintf(line, sizeof(line),
                  "front door: %lld requests (%lld open / %lld push / "
                  "%lld close / %lld stats) over %lld conns (%lld open), "
                  "%lld served, %lld warm-up\n",
                  static_cast<long long>(fd.requests),
                  static_cast<long long>(fd.opens),
                  static_cast<long long>(fd.pushes),
                  static_cast<long long>(fd.closes),
                  static_cast<long long>(fd.stats_calls),
                  static_cast<long long>(fd.connections_accepted),
                  static_cast<long long>(fd.connections_open),
                  static_cast<long long>(fd.served),
                  static_cast<long long>(fd.warmups));
    out += line;
    std::snprintf(line, sizeof(line),
                  "  latency p50 %.2f ms, p99 %.2f ms, p999 %.2f ms, max "
                  "%.2f ms; SLO %.0f ms: %lld violations\n",
                  fd.p50_ms, fd.p99_ms, fd.p999_ms, fd.max_ms, fd.slo_ms,
                  static_cast<long long>(fd.slo_violations));
    out += line;
    std::snprintf(line, sizeof(line),
                  "  queue depth %lld now / %lld peak (cap %lld), %lld "
                  "rejected (backpressure), %lld errors, %lld evicted "
                  "slow clients, %lld protocol errors; %s in, %s out\n",
                  static_cast<long long>(fd.queue_depth),
                  static_cast<long long>(fd.max_queue_depth),
                  static_cast<long long>(fd.queue_cap),
                  static_cast<long long>(fd.rejected),
                  static_cast<long long>(fd.errors),
                  static_cast<long long>(fd.evicted),
                  static_cast<long long>(fd.protocol_errors),
                  fmt_bytes(fd.bytes_in).c_str(),
                  fmt_bytes(fd.bytes_out).c_str());
    out += line;
  }

  // Continuous-learning summary: is the model serving fresh weights, and
  // is the trainer keeping up with the tap (drops mean the stream outruns
  // the fine-tune loop; staleness growing with rejections means the gate
  // is refusing what the trainer learns).
  if (stats.online.has_value()) {
    const OnlineTrainerStats& ot = *stats.online;
    std::snprintf(line, sizeof(line),
                  "online trainer: %s, %lld steps / %lld batches; tap %lld "
                  "buffered, %lld published, %lld dropped over %lld "
                  "stream%s\n",
                  ot.running ? "running" : "stopped",
                  static_cast<long long>(ot.steps),
                  static_cast<long long>(ot.batches),
                  static_cast<long long>(ot.tap_frames),
                  static_cast<long long>(ot.tap_published),
                  static_cast<long long>(ot.tap_dropped),
                  static_cast<long long>(ot.tap_streams),
                  ot.tap_streams == 1 ? "" : "s");
    out += line;
    std::snprintf(line, sizeof(line),
                  "  checkpoints: %lld emitted, %lld promoted, %lld "
                  "rejected; staleness %.1f s",
                  static_cast<long long>(ot.candidates),
                  static_cast<long long>(ot.promoted),
                  static_cast<long long>(ot.rejected), ot.staleness_seconds);
    out += line;
    if (ot.holdout_nrmse >= 0) {
      std::snprintf(line, sizeof(line),
                    "; holdout NRMSE %.4f (serving %.4f)",
                    ot.holdout_nrmse, ot.serving_nrmse);
      out += line;
    }
    out += "\n";
  }
  return out;
}

}  // namespace mtsr::serving
