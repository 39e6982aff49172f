// serving::Session — one live stream's state: rolling history, window
// cache, and the per-session half of the scheduled stitched-inference loop.
//
// A session owns everything one city/stream needs between requests: the
// last S frames, pre-coarsened per stitch window on arrival, so a
// steady-state inference re-aggregates nothing (re-normalising the full
// frame once per window per history step would be quadratic waste on
// city-scale grids).
//
// The inference LOOP does not live here: the session exposes a stepwise
// contract (admit → gather block → accumulate → finalize) that the serving
// Scheduler drives, fusing compatible blocks of concurrently served
// sessions into shared generator passes. The scheduler owns the memory a
// pass runs in — each block gathers straight into its rows of its shard's
// window batch, and every pass executes in its shard's Workspace arena —
// so a session holds no arena of its own.
//
// Determinism: session outputs are bit-identical across pool sizes —
// `block` never depends on the pool, a window's prediction does not depend
// on which pass or which rows it lands in, and stitch_accumulate fixes the
// float-add order.
//
// Input edge: a frame enters a session only after frame_error() accepts
// it — the right (rows, cols) shape and every cell finite. Every push path
// checks all of a call's frames before the engine's frame sink publishes
// any of them and before any session admits one, so a rejected call leaves
// no state behind.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "src/common/parallel.hpp"
#include "src/data/augmentation.hpp"
#include "src/serving/model.hpp"

namespace mtsr::serving {

class Scheduler;

/// Everything needed to open one stream.
struct SessionConfig {
  std::string model;  ///< registered model name (Engine::open_session)

  data::MtsrInstance instance = data::MtsrInstance::kUp4;
  std::int64_t rows = 0;  ///< full city grid
  std::int64_t cols = 0;
  std::int64_t window = 0;         ///< stitch window side w
  std::int64_t stitch_stride = 0;  ///< 0 -> window / 2

  data::NormStats stats;  ///< training-split normalisation
  bool log_transform = true;

  /// Stream identity for request-level dedup. Sessions opened with the
  /// same non-empty tag declare themselves fan-out consumers of one coarse
  /// feed: the scheduler memoises each block's prediction under a key that
  /// also covers the model generation, the stream geometry and a rolling
  /// hash of the actual frames pushed, so consumers share a single
  /// inference exactly when their histories are byte-identical — a
  /// mis-tagged stream degrades to independent serving, never to serving
  /// another stream's data. Empty (the default) disables dedup and the
  /// per-push frame hashing that feeds it.
  std::string stream;

  /// Window-local probe layout override. When null the session builds
  /// make_layout(instance, window, window) and owns it; a non-null layout
  /// is borrowed and must outlive the session.
  const data::ProbeLayout* layout = nullptr;

  /// Windows per generator pass (>= 0; negative values are rejected).
  /// kDefaultBlock (0) selects Scheduler::kFixedBlock. Either way the block
  /// never depends on the pool size, so session outputs are reproducible
  /// across deployments.
  static constexpr std::int64_t kDefaultBlock = 0;
  std::int64_t block = kDefaultBlock;

  /// Pulls grid geometry and normalisation from a dataset.
  [[nodiscard]] static SessionConfig from_dataset(
      std::string model, data::MtsrInstance instance,
      const data::TrafficDataset& dataset, std::int64_t window,
      std::int64_t stitch_stride);
};

/// One open stream. Feed raw fine snapshots with push(); once S frames have
/// been observed every push returns the stitched full-grid inference.
class Session {
 public:
  /// `scheduler` dispatches this session's stitch blocks (the engine
  /// passes its shared scheduler, which fuses blocks across every session
  /// it serves). A standalone session (null) lazily creates a private
  /// scheduler of its own.
  explicit Session(std::shared_ptr<ModelSlot> slot, SessionConfig config,
                   Scheduler* scheduler = nullptr);
  /// Convenience for standalone use: wraps `model` in a fresh (never
  /// hot-reloaded) slot.
  explicit Session(std::shared_ptr<Model> model, SessionConfig config,
                   Scheduler* scheduler = nullptr);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feeds the snapshot for the current interval (raw MB, rows × cols). In
  /// a deployment the gateway only holds probe aggregates; this models the
  /// measurement step by aggregating internally via the probe layout, so
  /// the model only ever sees coarse data (plus raw crops for baselines
  /// that re-derive their own aggregates). Returns the fine-grained
  /// full-grid inference in MB, or std::nullopt while warming up.
  std::optional<Tensor> push(const Tensor& fine_snapshot);

  /// Drops the rolling history.
  void reset();

  /// Why `fine_snapshot` cannot be pushed into this session — a shape
  /// other than (rows, cols), or a non-finite cell — or an empty string
  /// when it can. The one frame check of every push path (Scheduler::serve
  /// runs it on all frames of a call before admitting any; the network
  /// front door runs it before queueing a PUSH).
  [[nodiscard]] std::string frame_error(const Tensor& fine_snapshot) const;

  /// Frames still needed before inference starts.
  [[nodiscard]] std::int64_t frames_until_ready() const;

  /// Temporal window S required by the model.
  [[nodiscard]] std::int64_t temporal_length() const { return s_; }

  /// Inferences produced so far.
  [[nodiscard]] std::int64_t inference_count() const { return inferences_; }

  /// Admit-time coarsenings that were never needed: frames of a dedup
  /// fan-out consumer that left the history without any gather touching
  /// them, because the stream memo served every block. Always 0 for
  /// sessions without a stream tag (those coarsen eagerly on admit).
  [[nodiscard]] std::int64_t coarsen_skips() const { return coarsen_skips_; }

  [[nodiscard]] const SessionConfig& config() const { return config_; }

  /// The model currently serving this session — re-resolved from the
  /// registry slot, so the answer tracks checkpoint hot-reloads.
  [[nodiscard]] std::shared_ptr<Model> model() const {
    return slot_->acquire().model;
  }

  /// The pool shard this session is served on, fixed at open time: a
  /// stable hash of the stream tag (all fan-out consumers of one feed land
  /// on one shard, where their dedup memo lives), round-robin for untagged
  /// sessions. Fusion only combines sessions of one shard.
  [[nodiscard]] int shard() const { return shard_; }

 private:
  friend class Scheduler;
  friend class Engine;  ///< hot-reload validates against slot_/needs_/stream_

  struct FrameEntry {
    Tensor coarse_windows;  ///< (W, ci, ci): every stitch window, coarsened
    Tensor staged_raw;      ///< deferred normalise+coarsen staging (dedup)
    Tensor raw;             ///< raw frame; kept only for fine_latest models
  };

  // ---- Scheduler-facing stepwise contract ----------------------------------
  /// Absorbs one snapshot, already accepted by frame_error(), into the
  /// rolling history (and the dedup hash chain when the session is
  /// stream-tagged). Stream-tagged coarse-history
  /// sessions short-circuit ALL per-frame pre-aggregation — normalisation
  /// included, not just the per-window coarsening: a fan-out consumer whose
  /// blocks the stream memo serves never gathers, so any admit-time work
  /// beyond the dedup hash would be pure waste
  /// (ensure_history_coarsened() runs both steps on demand).
  void admit(const Tensor& fine_snapshot);
  /// Normalises + coarsens any history frame still holding its raw staging
  /// tensor (gather_block runs it first).
  void ensure_history_coarsened();
  [[nodiscard]] bool warm() const {
    return static_cast<std::int64_t>(history_.size()) >= s_;
  }
  /// Shapes `batch` for a pass of `windows` windows of this session's
  /// geometry (buffers are reallocated only when the shape changes; views
  /// the model does not consume are left empty).
  void shape_batch(WindowBatch& batch, std::int64_t windows) const;
  /// Gathers windows [b0, b1) of the plan into rows [row, row + b1 - b0)
  /// of `batch`, which shape_batch() sized for the whole pass.
  void gather_block(std::int64_t b0, std::int64_t b1, WindowBatch& batch,
                    std::int64_t row);
  [[nodiscard]] ModelSlot::Ref resolve_model() const {
    return slot_->acquire();
  }
  /// Rolling hash over the raw bytes of the S frames currently in history
  /// (dedup-enabled sessions only; 0 otherwise).
  [[nodiscard]] std::uint64_t history_signature() const;
  void note_inference() { ++inferences_; }

  [[nodiscard]] Tensor normalize(const Tensor& raw) const;
  [[nodiscard]] Tensor denormalize(const Tensor& normalized) const;
  [[nodiscard]] Tensor coarsen_windows(const Tensor& normalized) const;
  [[nodiscard]] Scheduler& ensure_scheduler();

  std::shared_ptr<ModelSlot> slot_;
  SessionConfig config_;
  std::unique_ptr<data::ProbeLayout> owned_layout_;
  const data::ProbeLayout* layout_ = nullptr;
  StreamContext stream_;
  data::StitchPlan plan_;
  ModelInputs needs_;
  std::int64_t s_ = 1;
  std::int64_t stride_ = 0;
  std::int64_t inferences_ = 0;
  std::int64_t coarsen_skips_ = 0;  ///< deferred coarsenings never needed
  std::string dedup_prefix_;  ///< stream + geometry key prefix; empty = off
  bool stream_registered_ = false;  ///< holds a scheduler stream refcount
  int shard_ = 0;  ///< pool shard assignment (stable for the session's life)
  /// While the session is open, set_num_threads / set_num_shards /
  /// set_affinity_policy throw — the shard assignment above is made
  /// against the pool topology at open time.
  detail::PoolTopologyPin topology_pin_;

  std::deque<FrameEntry> history_;  ///< last <= S frames
  std::deque<std::uint64_t> frame_hashes_;  ///< parallel to history_

  Scheduler* scheduler_ = nullptr;  ///< shared (engine) or owned_scheduler_
  std::unique_ptr<Scheduler> owned_scheduler_;  ///< standalone fallback
};

}  // namespace mtsr::serving
