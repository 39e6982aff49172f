// serving::Engine — the unified inference-serving front end.
//
// The gateway deployment of the paper (Section 6) is a process that serves
// many streams continuously. The engine is that process's core: models are
// registered once by name (a trained ZipNet, any SuperResolver baseline, a
// checkpoint restored offline), sessions multiplex any number of concurrent
// streams — different cities, different MTSR instances, different models —
// and every inference dispatches through the engine's Scheduler, which
// fuses compatible stitch blocks across concurrently served sessions into
// shared generator passes, memoises blocks for fan-out consumers of one
// stream, and gives checkpoint hot-reload its block-boundary atomicity.
//
// Ownership rules:
//  * the engine owns its sessions; close_session() or the engine's
//    destruction frees them (a Session& from session() does not outlive
//    either);
//  * models are shared_ptr so many sessions (and many engines) can serve
//    one set of weights; adapters over borrowed networks (ZipNetModel,
//    non-owning BaselineModel) additionally require the wrapped network to
//    outlive every engine it is registered with;
//  * the engine itself is single-threaded: calls into one engine must be
//    serialised by the caller (the pool and the shard runner threads below
//    it are the parallelism story) — with TWO exceptions: reload_model()
//    and stats() may run concurrently with push()/push_all()/push_fused();
//    the serving sessions pick a swap up at their next stitch-block
//    boundary, and stats() only reads the slots' mutex-guarded state plus
//    atomics. (The continuous learner relies on both: its trainer thread
//    promotes checkpoints into a serving engine and its telemetry is
//    polled from the serving side.) Neither may run concurrently with
//    open/close/register.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/stopwatch.hpp"
#include "src/serving/scheduler.hpp"
#include "src/serving/session.hpp"

namespace mtsr::serving {

/// Request-level telemetry of the network front door (net::Server). Lives
/// here rather than in src/net so Engine::Stats and render_stats_table can
/// carry it without the serving layer depending on the socket layer; the
/// server fills it from its admission queue and latency histogram.
/// Latency percentiles cover PUSH (serve) requests, measured from the
/// moment the request frame is fully parsed to the moment its response is
/// handed to the socket layer.
struct FrontDoorStats {
  std::int64_t connections_accepted = 0;
  std::int64_t connections_open = 0;
  std::int64_t requests = 0;  ///< complete request frames parsed, all verbs
  std::int64_t opens = 0, pushes = 0, closes = 0, stats_calls = 0;
  std::int64_t served = 0;   ///< push responses carrying a fine frame
  std::int64_t warmups = 0;  ///< push responses during session warm-up
  std::int64_t rejected = 0;     ///< backpressure rejections (retry-after)
  std::int64_t errors = 0;       ///< error responses sent
  std::int64_t evicted = 0;      ///< slow-client connections dropped
  std::int64_t protocol_errors = 0;  ///< malformed frames (connection cut)
  std::int64_t queue_depth = 0;      ///< admission queue, current
  std::int64_t max_queue_depth = 0;  ///< admission queue, peak
  std::int64_t queue_cap = 0;        ///< depth beyond which pushes reject
  std::int64_t slo_violations = 0;   ///< served pushes slower than slo_ms
  double slo_ms = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0, max_ms = 0;
  std::int64_t bytes_in = 0, bytes_out = 0;
};

/// Continuous-learning telemetry (online::Trainer). Lives here, like
/// FrontDoorStats, so Engine::Stats and render_stats_table can carry it
/// without the serving layer depending on src/online; the trainer fills it
/// via Engine::set_online_stats_source.
struct OnlineTrainerStats {
  bool running = false;       ///< background trainer thread alive
  std::int64_t steps = 0;     ///< fine-tune optimizer steps completed
  std::int64_t batches = 0;   ///< mini-batches consumed from the tap
  std::int64_t tap_frames = 0;     ///< frames currently buffered, all streams
  std::int64_t tap_published = 0;  ///< frames ever published into the tap
  std::int64_t tap_dropped = 0;    ///< drop-oldest evictions
  std::int64_t tap_streams = 0;    ///< distinct stream keys seen
  std::int64_t candidates = 0;     ///< checkpoints emitted by the trainer
  std::int64_t promoted = 0;       ///< candidates hot-reloaded into serving
  std::int64_t rejected = 0;       ///< candidates the holdout gate refused
  /// Seconds since serving weights last changed (trainer start or last
  /// promotion — the age of what serving is running).
  double staleness_seconds = 0;
  /// Holdout-window NRMSE of the newest candidate / of the weights serving
  /// when it was gated; negative until the first candidate is evaluated.
  double holdout_nrmse = -1;
  double serving_nrmse = -1;
};

/// Multi-model, multi-session inference server.
class Engine {
 public:
  using SessionId = std::int64_t;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- Model registry ------------------------------------------------------

  /// Registers `model` under `name`. Re-registering a name replaces the
  /// model for sessions opened afterwards; open sessions keep the instance
  /// they were created with (use reload_model to swap a name under its
  /// open sessions).
  void register_model(const std::string& name, std::shared_ptr<Model> model);

  /// Checkpoint hot-reload: asks the model currently registered under
  /// `name` to build a replacement from `path` (Model::load_checkpoint),
  /// validates the replacement against every open session serving that
  /// name, then atomically swaps the registry slot. Sessions dereference
  /// the slot at each stitch-block boundary, so an inference that is
  /// mid-stitch finishes its in-flight block on the old model and
  /// continues with the new one — zero blocks dropped or duplicated.
  /// All-or-nothing: any load or validation error throws (naming the first
  /// diverging parameter for shape mismatches) and the old model keeps
  /// serving, bit-identically. Safe to call from another thread while the
  /// serving thread is inside push()/push_all()/push_fused().
  void reload_model(const std::string& name, const std::string& path);

  /// Instance form of the hot-reload: swaps `name` to an already built
  /// model (e.g. "zipnet" -> a quantised twin) under the same validation
  /// and block-boundary atomicity.
  void reload_model(const std::string& name, std::shared_ptr<Model> next);

  [[nodiscard]] bool has_model(const std::string& name) const;
  [[nodiscard]] std::shared_ptr<Model> model(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> model_names() const;

  // ---- Sessions ------------------------------------------------------------

  /// Opens a stream against the model named by `config.model`. Throws when
  /// the model is unknown or rejects the stream geometry.
  [[nodiscard]] SessionId open_session(SessionConfig config);

  [[nodiscard]] Session& session(SessionId id);
  [[nodiscard]] const Session& session(SessionId id) const;
  void close_session(SessionId id);
  [[nodiscard]] std::int64_t session_count() const {
    return static_cast<std::int64_t>(sessions_.size());
  }

  /// One-session scheduler serve (publishes to the frame sink, unlike a
  /// direct Session::push). Every push form checks all of its frames
  /// (Session::frame_error) before publishing or admitting any: a wrong
  /// shape or a non-finite cell throws ContractViolation and leaves every
  /// session, and the sink, untouched.
  std::optional<Tensor> push(SessionId id, const Tensor& fine_snapshot);

  /// Feeds frames[i] into sessions ids[i] and serves all resulting
  /// inferences in ONE scheduler call: compatible stitch blocks fuse into
  /// shared generator passes across the sessions, and stream-tagged
  /// duplicates dedup. Outputs align with `ids`.
  std::vector<std::optional<Tensor>> push_all(
      const std::vector<SessionId>& ids, const std::vector<Tensor>& frames);

  /// Fan-out form of push_all: one snapshot delivered to every session in
  /// `ids` (N consumers of the same coarse feed).
  std::vector<std::optional<Tensor>> push_fused(
      const std::vector<SessionId>& ids, const Tensor& fine_snapshot);

  // ---- Continuous-learning hooks -------------------------------------------

  /// A frame publication hook on the serving path: called once per distinct
  /// stream per dispatch round, after the round's frames passed the frame
  /// check and BEFORE the round is scheduled, with the
  /// stream's key and the raw fine snapshot being pushed. The key is the
  /// session's stream tag when set; untagged sessions publish under
  /// "session-<id>". Fan-out consumers of one tagged feed (and push_fused
  /// rounds) publish their shared frame once. The sink runs on the serving
  /// thread and must be cheap and non-blocking — online::Trainer installs
  /// its FrameTap::publish here (a bounded drop-oldest copy). Install
  /// before serving starts; not safe to change mid-stream.
  using FrameSink =
      std::function<void(const std::string& stream_key, const Tensor& frame)>;
  void set_frame_sink(FrameSink sink) { frame_sink_ = std::move(sink); }

  /// Telemetry source for Stats::online (same pattern as the front door's
  /// stats join): online::Trainer registers its counters here so
  /// Engine::stats() and render_stats_table carry the trainer state. The
  /// callback is invoked from stats() and must be thread-safe against the
  /// trainer thread.
  void set_online_stats_source(std::function<OnlineTrainerStats()> source) {
    online_stats_ = std::move(source);
  }

  /// Reshards the pool (forwarding mtsr::set_num_shards): sessions opened
  /// afterwards spread across `n` worker groups, each serving its sessions
  /// on its own runner thread against shard-local memory. Throws while any
  /// session is open (shard assignment is fixed at open time) or from a
  /// parallel region; n < 1 restores the default (MTSR_SHARDS or the NUMA
  /// node count).
  void set_shards(int n);

  // ---- Telemetry -----------------------------------------------------------

  /// One session's serving counters. Sessions own no arena: every pass
  /// runs in its shard's arena (ShardStats::arena), where long-running
  /// deployments alarm on growth_events / capacity_bytes moving after
  /// warm-up.
  struct SessionStats {
    SessionId id = 0;
    std::string model;
    std::int64_t rows = 0, cols = 0, window = 0;
    std::int64_t temporal_length = 0;
    std::int64_t frames_until_ready = 0;
    std::int64_t inference_count = 0;
    /// Admit-time coarsenings skipped because the stream memo served every
    /// block that would have read them (dedup fan-out consumers only).
    std::int64_t coarsen_skips = 0;
    /// Always zero. Kept because perfbench's snap() sums it beside the
    /// shard arenas.
    Workspace::Stats arena;
  };
  /// One pool shard as this engine sees it: the scheduler's dispatch
  /// counters for sessions assigned there, joined with the pool's worker
  /// busy-time since the engine was constructed.
  struct ShardStats {
    int shard = 0;
    int workers = 0;  ///< pool worker slots (dedicated + dispatching caller)
    std::int64_t rounds = 0;
    std::int64_t passes = 0;
    std::int64_t fused_passes = 0;
    std::int64_t windows = 0;
    std::int64_t max_queue_depth = 0;  ///< peak block requests in one round
    std::int64_t memo_entries = 0;
    Workspace::Stats arena;   ///< the arena every pass of the shard runs in
    double busy_seconds = 0;  ///< worker-seconds spent in chunk bodies
  };
  struct Stats {
    std::vector<SessionStats> sessions;  ///< ascending session id
    SchedulerStats scheduler;            ///< aggregate dispatch counters
    std::vector<ShardStats> shards;      ///< per-shard breakdown
    std::int64_t reloads_applied = 0;    ///< successful hot-reloads
    std::int64_t reloads_failed = 0;     ///< rejected hot-reloads
    double wall_seconds = 0;  ///< since engine construction
    /// Pool utilisation since engine construction: busy-worker-seconds /
    /// (wall-seconds x total workers), in [0, 1]. Low values under load
    /// mean the scheduler is not keeping the shards fed.
    double utilization = 0;
    /// Socket-ingress telemetry, filled by the network front door
    /// (net::Server::stats()); absent when the engine has no front door.
    std::optional<FrontDoorStats> front_door;
    /// Continuous-learning telemetry, filled from the source registered by
    /// set_online_stats_source; absent when no trainer is attached.
    std::optional<OnlineTrainerStats> online;
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// Stream key a session publishes tap frames under.
  [[nodiscard]] std::string stream_key(SessionId id, const Session& s) const;
  /// The path every push form takes: scheduler serve, with the frame-sink
  /// publication (one per distinct stream key; only the first session's
  /// when `one_feed`) between the frame check and admission.
  std::vector<std::optional<Tensor>> serve(
      const std::vector<SessionId>& ids,
      const std::vector<const Tensor*>& frames, bool one_feed);
  std::map<std::string, std::shared_ptr<ModelSlot>> models_;
  FrameSink frame_sink_;  ///< continuous-learning tap (may be empty)
  std::function<OnlineTrainerStats()> online_stats_;
  SessionId next_id_ = 1;
  std::atomic<std::int64_t> reloads_applied_{0};
  std::atomic<std::int64_t> reloads_failed_{0};
  Stopwatch created_;  ///< utilisation baseline (wall side)
  std::vector<PoolShardStats> pool_baseline_;  ///< busy-time at construction
  // Declaration order is destruction order in reverse: sessions_ is
  // declared last so closing sessions release their stream memo refs into
  // a still-live scheduler.
  Scheduler scheduler_;
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
};

/// Renders engine statistics as the CLI telemetry table (one row per
/// session: stream geometry and serving counters; one row per shard:
/// dispatch counters, arena capacity and busy time) followed by the
/// scheduler summary (queue depth, fused-batch-size histogram, dedup hit
/// rate, hot-reloads, arena capacity and growth).
[[nodiscard]] std::string render_stats_table(const Engine::Stats& stats);

}  // namespace mtsr::serving
