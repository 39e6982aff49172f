// Shared parallel execution engine: a persistent thread pool driving
// deterministic index-range parallelism.
//
// Every compute layer (tensor GEMM kernels, conv lowering, batch-norm,
// pooling, the baselines and the GAN trainer) schedules work through
// parallel_for / parallel_for_chunks instead of spawning ad-hoc threads.
//
// Determinism contract: [0, n) is split into parallel_chunk_count(n)
// contiguous chunks whose geometry depends ONLY on n — never on the pool
// size. Each index is processed exactly once, in ascending order within its
// chunk, and per-chunk accumulator slots reduced in slot order therefore
// yield bit-identical results for every pool size (1, 2, hardware, ...).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

namespace mtsr {

/// Chunk body: processes the contiguous index range [begin, end). `slot` is
/// the chunk index in [0, parallel_chunk_count(n)) — use it to index
/// per-chunk accumulator slots for deterministic reductions.
using ChunkBody =
    std::function<void(std::int64_t begin, std::int64_t end, int slot)>;

/// Current total worker count across all shards (>= 1). Defaults to
/// hardware_concurrency, clamped to >= 1; the MTSR_THREADS environment
/// variable overrides the default.
[[nodiscard]] int num_threads();

/// Resizes the pool to `n` workers total (n >= 1); n < 1 restores the
/// default (MTSR_THREADS or hardware_concurrency). Must not be called from
/// inside a parallel region, and throws while serving sessions are open
/// (they pin the pool topology for their lifetime).
void set_num_threads(int n);

/// Number of worker shards the pool is split into (>= 1). Each shard is an
/// independent worker group with its own in-flight task; a thread's
/// parallel_for dispatches into the shard it belongs to (current_shard()),
/// so shards execute concurrently without contending. Defaults to one shard
/// per detected NUMA node; the MTSR_SHARDS environment variable overrides
/// the default.
[[nodiscard]] int num_shards();

/// Reshards the pool into `n` worker groups; n < 1 restores the default
/// (MTSR_SHARDS or the NUMA node count). The total worker count is divided
/// as evenly as possible across shards (every shard keeps at least its
/// participating caller slot). Same restrictions as set_num_threads.
void set_num_shards(int n);

/// Worker slots of shard `s` (dedicated workers plus the participating
/// caller), >= 1.
[[nodiscard]] int shard_size(int shard);

/// The shard this thread's parallel_for calls dispatch into. 0 for ordinary
/// threads; shard runner threads (run_on_shard) and pool workers report
/// their own shard.
[[nodiscard]] int current_shard();

/// Runs `fn` on shard `shard`'s dedicated runner thread, where
/// current_shard() == shard, so every parallel_for inside `fn` fans out over
/// that shard's workers (and allocations first-touch that shard's memory
/// under compact affinity). Tasks of one shard run serially in submission
/// order; distinct shards run concurrently. The returned future rethrows
/// `fn`'s exception.
std::future<void> run_on_shard(int shard, std::function<void()> fn);

/// Cumulative per-shard pool telemetry since process start. busy_seconds is
/// the summed wall time worker slots (including participating callers)
/// spent executing chunk bodies — divide a delta by wall time x workers for
/// a utilisation ratio.
struct PoolShardStats {
  int shard = 0;
  int workers = 0;  ///< slots of this shard (dedicated + caller)
  std::int64_t tasks = 0;
  double busy_seconds = 0.0;
};
[[nodiscard]] std::vector<PoolShardStats> pool_shard_stats();

/// Number of chunks (== accumulator slots) parallel_for_chunks will use for
/// a trip count of n. Depends only on n, never on the pool size.
[[nodiscard]] int parallel_chunk_count(std::int64_t n);

/// Runs `body` over [0, n) split into parallel_chunk_count(n) contiguous
/// chunks, distributed over the pool. Blocks until all chunks finish;
/// rethrows the first chunk exception. Nested calls (from inside a chunk)
/// execute serially on the calling thread.
void parallel_for_chunks(std::int64_t n, const ChunkBody& body);

/// Like parallel_for_chunks but guarantees each chunk spans at least
/// `min_grain` indices (except a final short chunk when n < min_grain).
/// Chunk count is clamp(n / min_grain, 1, parallel_chunk_count(n)) — still
/// a pure function of n, never of the pool size. Use for kernels whose
/// per-chunk setup (tile packing, scratch buffers) must amortise over a
/// minimum block of work.
void parallel_for_grain(std::int64_t n, std::int64_t min_grain,
                        const ChunkBody& body);

/// Element-wise convenience wrapper: runs fn(i) for every i in [0, n) with
/// the same chunking/determinism guarantees as parallel_for_chunks.
template <typename Fn>
void parallel_for(std::int64_t n, Fn&& fn) {
  parallel_for_chunks(n, [&fn](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
  });
}

namespace detail {
/// Permanently marks the calling thread as being inside a parallel region,
/// so its parallel_for calls run serially and never contend with the
/// pool's in-flight task. Used by dedicated stage threads (StageExecutor);
/// pool workers get the same flag from the pool itself.
void mark_thread_inside_parallel_region();

/// Scoped form of the flag above: while alive, the current thread's
/// parallel_for calls execute serially, then the previous state is
/// restored. Lets side-band work (e.g. building a replacement model during
/// a checkpoint hot-reload) run on any thread without ever scheduling into
/// the pool — whose single in-flight task may belong to a concurrently
/// serving thread.
class NestedParallelRegion {
 public:
  NestedParallelRegion();
  ~NestedParallelRegion();
  NestedParallelRegion(const NestedParallelRegion&) = delete;
  NestedParallelRegion& operator=(const NestedParallelRegion&) = delete;

 private:
  bool previous_;
};

/// While any instance is alive, set_num_threads / set_num_shards /
/// set_affinity_policy throw: serving sessions hold one for their lifetime
/// because their shard assignment is made against the pool topology at
/// open time, and the scheduler keeps its batch, arena and memo per shard.
class PoolTopologyPin {
 public:
  PoolTopologyPin();
  ~PoolTopologyPin();
  PoolTopologyPin(const PoolTopologyPin&) = delete;
  PoolTopologyPin& operator=(const PoolTopologyPin&) = delete;
};
}  // namespace detail

/// A dedicated background thread for pipeline-stage tasks that must overlap
/// pool-parallel work (the GAN trainer assembles batch i+1 on it while step
/// i runs). Tasks run serially in submission order on the stage thread; the
/// thread counts as being inside a parallel region, so parallel_for calls
/// made from a task execute serially on the stage thread and never contend
/// with the pool's in-flight task.
class StageExecutor {
 public:
  /// The stage thread starts lazily on the first submit().
  StageExecutor();
  /// Drains pending tasks, then joins the stage thread.
  ~StageExecutor();
  StageExecutor(const StageExecutor&) = delete;
  StageExecutor& operator=(const StageExecutor&) = delete;

  /// Schedules `fn` after all previously submitted tasks. The returned
  /// future's get()/wait() blocks until the task finishes and rethrows any
  /// exception it raised.
  std::future<void> submit(std::function<void()> fn);

  /// Blocks until every task submitted so far has finished (queue empty and
  /// no task executing). Task exceptions stay in their futures — drain()
  /// never throws them. Exception-unwind paths use this to guarantee no
  /// in-flight stage task still touches state about to be torn down.
  void drain();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Deterministic parallel reduction: `body(begin, end)` produces one
/// partial value per chunk; partials are combined with `combine` in slot
/// order, so the result is bit-identical for every pool size.
template <typename T, typename Body, typename Combine>
[[nodiscard]] T parallel_reduce(std::int64_t n, T init, Body&& body,
                                Combine&& combine) {
  const int slots = parallel_chunk_count(n);
  if (slots <= 0) return init;
  std::vector<T> partials(static_cast<std::size_t>(slots), init);
  parallel_for_chunks(n, [&](std::int64_t begin, std::int64_t end, int slot) {
    partials[static_cast<std::size_t>(slot)] = body(begin, end);
  });
  T acc = init;
  for (int s = 0; s < slots; ++s) {
    acc = combine(acc, partials[static_cast<std::size_t>(s)]);
  }
  return acc;
}

}  // namespace mtsr
