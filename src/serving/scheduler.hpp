// serving::Scheduler — admission and dispatch between Engine and Session:
// cross-session batch fusion, request-level dedup, and the block-boundary
// contract that makes checkpoint hot-reload atomic.
//
// The paper's deployment is one central controller inferring fine-grained
// traffic for a whole city from coarse probe streams; at "millions of
// users" scale that means many concurrent per-region sessions hammering
// one generator. Serving each session's stitch alone wastes the batched
// substrate underneath: N sessions issue N small window-batch GEMMs per
// block where one shared pass would do. The scheduler closes that gap:
//
//  * FUSION — each serve() call advances every warm session through its
//    stitch plan in lockstep dispatch rounds. Within a round, the block
//    requests of model-compatible sessions (same resolved model, same
//    window/temporal geometry, same normalisation) concatenate into shared
//    generator passes, capped at `fuse_cap` windows per pass so the fused
//    lowering matrices stay cache-resident, and the results scatter back
//    into each session's moving-average accumulators in place.
//  * DEDUP — sessions opened with the same SessionConfig::stream tag are
//    fan-out consumers of one coarse feed. Block predictions are memoised
//    under a content key (stream tag + geometry + model generation + a
//    rolling hash of the frames actually pushed + block range), so only
//    the first consumer of an epoch computes; the rest scatter the
//    memoised rows and receive bitwise-equal frames. The key covers the
//    frame bytes, so a mis-tagged stream degrades to independent serving.
//  * HOT-RELOAD — sessions re-resolve their ModelSlot at every dispatch
//    round, i.e. at stitch-block boundaries. Engine::reload_model swaps
//    the slot under a mutex; in-flight blocks finish on the model they
//    resolved, subsequent blocks see the replacement, and no block is ever
//    dropped or duplicated. The slot generation in the dedup key keeps
//    memoised predictions from outliving the weights that produced them.
//
// Numerics contract (the bit-identity boundary):
//  * a session served alone — every Engine::push — follows its plan's
//    block sequence: bit-identical at every pool size;
//  * dedup'd consumers scatter the same memoised rows: bitwise-equal
//    frames by construction;
//  * fused passes are bit-identical to unfused serving: int8 models
//    accumulate in exact s32, and every float product runs one panel
//    kernel whose per-element result is a fixed ascending-k fold, so a
//    window's output does not depend on which windows share its pass.
//
// One pass path: after dedup, a round's compute requests are grouped and
// capped into passes; each member gathers straight into its rows of the
// shard's one WindowBatch, every pass — one session's or several — runs
// under the shard's Workspace arena, and the rows scatter into the
// sessions' stitch accumulators on the dispatch thread. Once a shard has
// run one pass at the fuse cap for each model and stream geometry it
// serves, no pass composition grows its arena again.
//
// Failure: a throwing predict (or any check after it) unwinds the whole
// serve() call. Every session of the call keeps the frame it admitted and
// none gets output for it — inference counts move only when the call
// returns — and the shard arenas are rewound to empty. Memo entries that
// passes stored before the failure stay: they are content-keyed and exact.
//
// Threading: the scheduler is topology-aware. Sessions are assigned to
// pool shards at open time (stable stream hash for fan-out consumers, so
// one stream's dedup memo lives on one shard; round-robin otherwise), and
// serve() partitions its sessions by shard: each shard's dispatch loop runs
// on that shard's runner thread (run_on_shard) against per-shard state —
// its own window batch, execution arena and dedup memo — so shards never
// share mutable state and their GEMM panels first-touch shard-local memory.
// The caller serves its own shard inline. ModelSlot resolution is the only
// state shared with a concurrent reloader, and it is mutex-serialised.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/workspace.hpp"
#include "src/serving/session.hpp"

namespace mtsr::serving {

struct SchedulerConfig {
  /// Maximum windows per generator pass. It keeps a fused pass inside the
  /// measured per-window sweet spot of gateway-class cores (the lowered
  /// column matrices of a window-20 block stop being cache-resident past
  /// ~4 windows), and it bounds the shard arena: once a shard has run one
  /// pass of fuse_cap windows for each model and stream geometry it
  /// serves, no pass composition grows its arena again.
  static constexpr std::int64_t fuse_cap = 4;
};

/// Dispatch telemetry, cumulative since construction. A production
/// deployment alarms on queue depth and dedup hit rate the same way it
/// alarms on arena growth.
struct SchedulerStats {
  std::int64_t rounds = 0;        ///< dispatch rounds executed
  std::int64_t passes = 0;        ///< model predict() calls issued
  std::int64_t fused_passes = 0;  ///< passes combining > 1 session
  std::int64_t windows = 0;       ///< windows served through passes
  std::int64_t max_queue_depth = 0;  ///< peak block requests in one round
  /// fused_histogram[b] = passes that ran b windows (index 0 unused).
  std::vector<std::int64_t> fused_histogram;
  std::int64_t dedup_lookups = 0;  ///< block requests with dedup enabled
  std::int64_t dedup_hits = 0;     ///< requests served from the memo
  std::int64_t memo_entries = 0;   ///< live memoised block predictions
  Workspace::Stats arena;          ///< pass execution arena(s)
};

/// One pool shard's slice of the scheduler: its dispatch counters plus the
/// worker slots backing it. stats() aggregates these; Engine::stats() joins
/// them with the pool's busy-time telemetry.
struct SchedulerShardStats {
  int shard = 0;
  int workers = 0;  ///< pool worker slots of this shard
  SchedulerStats stats;
};

/// The admission-and-dispatch layer. One scheduler serves all sessions of
/// an engine; a standalone Session lazily owns a private one.
class Scheduler {
 public:
  /// Default sub-batch (SessionConfig::block == kDefaultBlock): two
  /// windows per block keeps a window-20 block's lowered matrices
  /// cache-resident on a gateway-class core and is a pure constant, so
  /// session outputs never depend on the pool size. GEMM pool scaling
  /// comes from column chunking inside each (possibly fused) pass, not
  /// from the block.
  static constexpr std::int64_t kFixedBlock = 2;

  /// Per-shard state is created lazily as shards first serve.
  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Feeds frames[i] into sessions[i] (one snapshot each, distinct
  /// sessions) and serves every resulting inference, fusing compatible
  /// blocks across the warm sessions. Returns one entry per session:
  /// the stitched full-grid inference, or nullopt while warming up.
  /// Outputs land in input order regardless of fusion. A throw from a
  /// pass (the model's own exception) propagates after every shard has
  /// stopped: each session keeps the frame it admitted, none gets output
  /// or an inference count for it.
  ///
  /// Every frame is checked (Session::frame_error) before any session
  /// admits one: a bad frame throws ContractViolation and leaves every
  /// session as it was. `on_accepted`, when set, runs once between that
  /// check and the first admission (the engine publishes to its frame
  /// sink there).
  [[nodiscard]] std::vector<std::optional<Tensor>> serve(
      std::span<Session* const> sessions, std::span<const Tensor* const> frames,
      const std::function<void()>& on_accepted = {});

  /// Aggregate counters across every shard.
  [[nodiscard]] SchedulerStats stats() const;
  /// Per-shard counters (index == shard id), for shards that have served.
  [[nodiscard]] std::vector<SchedulerShardStats> shard_stats() const;

  /// Stream memo lifetime: each dedup-enabled session holds one reference
  /// on its stream prefix (in its assigned shard's memo); when the last
  /// consumer of a stream closes, the stream's memoised predictions are
  /// freed instead of lingering until the next serve of that tag.
  void retain_stream(const std::string& prefix, int shard);
  void release_stream(const std::string& prefix, int shard);

 private:
  struct Active;
  struct Request;

  /// Everything one pool shard serves with. No two shards ever touch the
  /// same Shard, so concurrent serve_shard calls need no locking.
  struct Shard {
    Workspace ws;       ///< every pass of this shard executes here
    WindowBatch batch;  ///< the pass's gathered windows (resized on demand)

    /// Content-addressed block predictions for stream-tagged sessions,
    /// plus per-stream bookkeeping so entries die as soon as their
    /// stream's history moves on (bounded by blocks-per-frame per stream).
    std::unordered_map<std::string, Tensor> memo;
    struct StreamMemo {
      std::uint64_t signature = 0;
      std::vector<std::string> keys;
    };
    std::unordered_map<std::string, StreamMemo> streams;
    std::unordered_map<std::string, std::int64_t> stream_refs;

    SchedulerStats stats;
  };

  /// The shard for index `s`, growing the table to the pool's shard count
  /// on demand (shards are never destroyed while the scheduler lives, so
  /// per-shard counters survive topology-legal reconfigurations).
  [[nodiscard]] Shard& shard(int s);

  /// One shard's dispatch loop: every round of `acts`, run on the shard's
  /// runner thread (or inline when the caller already is that shard).
  void serve_shard(Shard& sh, std::span<Active* const> acts,
                   std::vector<std::optional<Tensor>>& outputs);

  void evict_stale_memo(Shard& sh, const Session& session,
                        std::uint64_t signature);
  void drop_stream_entries(Shard& sh, const std::string& prefix);
  /// The content-addressed dedup key of one block request.
  [[nodiscard]] static std::string block_key(const Session& session,
                                             std::uint64_t generation,
                                             std::uint64_t signature,
                                             std::int64_t b0, std::int64_t b1);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mtsr::serving
