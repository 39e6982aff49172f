#include "src/serving/session.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/common/check.hpp"
#include "src/serving/scheduler.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::serving {
namespace {

// FNV-1a over raw bytes: the content hash behind request-level dedup. Not
// cryptographic — it only has to make "same stream tag, different data"
// collisions vanishingly unlikely, and hashing a frame costs microseconds
// against the milliseconds its inference costs.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

SessionConfig SessionConfig::from_dataset(std::string model,
                                          data::MtsrInstance instance,
                                          const data::TrafficDataset& dataset,
                                          std::int64_t window,
                                          std::int64_t stitch_stride) {
  SessionConfig config;
  config.model = std::move(model);
  config.instance = instance;
  config.rows = dataset.rows();
  config.cols = dataset.cols();
  config.window = window;
  config.stitch_stride = stitch_stride;
  config.stats = dataset.stats();
  config.log_transform = dataset.log_transform();
  return config;
}

Session::Session(std::shared_ptr<ModelSlot> slot, SessionConfig config,
                 Scheduler* scheduler)
    : slot_(std::move(slot)), config_(std::move(config)),
      scheduler_(scheduler) {
  check(slot_ != nullptr, "Session: null model slot");
  check(config_.rows > 0 && config_.cols > 0, "Session: empty grid");
  check(config_.window > 0 && config_.window <= config_.rows &&
            config_.window <= config_.cols,
        "Session: window must fit the grid");
  check(config_.stats.stddev > 0.0, "Session: bad normalisation stats");
  check(config_.block >= 0, "Session: block must be >= 0");

  if (config_.layout != nullptr) {
    layout_ = config_.layout;
  } else {
    owned_layout_ =
        data::make_layout(config_.instance, config_.window, config_.window);
    layout_ = owned_layout_.get();
  }
  check(layout_->rows() == config_.window &&
            layout_->cols() == config_.window,
        "Session: layout geometry must match the window");

  stride_ = config_.stitch_stride > 0 ? config_.stitch_stride
                                      : config_.window / 2;
  check(stride_ > 0, "Session: stride must be positive");

  const std::shared_ptr<Model> model = slot_->acquire().model;
  s_ = model->temporal_length();
  check(s_ >= 1, "Session: model temporal length must be >= 1");
  needs_ = model->inputs();
  stream_ = StreamContext{layout_, config_.window, s_, config_.stats,
                          config_.log_transform};
  model->validate(stream_);

  const std::int64_t block =
      config_.block > 0 ? config_.block : Scheduler::kFixedBlock;
  plan_ = data::make_stitch_plan(config_.rows, config_.cols, config_.window,
                                 stride_, block);

  if (!config_.stream.empty()) {
    // Everything that shapes a block's prediction besides the frame bytes
    // and the model generation: two sessions whose prefixes match and whose
    // frame-hash chains match gather byte-identical batches under the same
    // stitch plan, so their block predictions are interchangeable. A
    // borrowed layout override is pinned by identity — it may aggregate
    // differently than make_layout(instance, window, window) would, and
    // the frame hash only sees bytes from BEFORE the aggregation; owned
    // layouts are derived from (instance, window) already in the prefix.
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "|%lldx%lld|w%lld|t%lld|i%d|S%lld|%c%c|%a,%a%c|L%p",
                  static_cast<long long>(config_.rows),
                  static_cast<long long>(config_.cols),
                  static_cast<long long>(config_.window),
                  static_cast<long long>(stride_),
                  static_cast<int>(config_.instance),
                  static_cast<long long>(s_),
                  needs_.coarse_history ? 'c' : '-',
                  needs_.fine_latest ? 'f' : '-',
                  static_cast<double>(config_.stats.mean),
                  static_cast<double>(config_.stats.stddev),
                  config_.log_transform ? 'L' : '-',
                  static_cast<const void*>(config_.layout));
    dedup_prefix_ = config_.stream + buf;
  }

  // Shard assignment, fixed for the session's lifetime (the topology pin
  // member keeps num_shards() from changing underneath it). Stream-tagged
  // sessions hash their dedup prefix so every fan-out consumer of one feed
  // lands on the shard holding that stream's memo; untagged sessions
  // round-robin so concurrent streams spread across the shards.
  const int shards = num_shards();
  if (!dedup_prefix_.empty()) {
    shard_ = static_cast<int>(
        fnv1a(dedup_prefix_.data(), dedup_prefix_.size()) %
        static_cast<std::uint64_t>(shards));
  } else if (shards > 1) {
    static std::atomic<std::uint64_t> next_shard{0};
    shard_ = static_cast<int>(next_shard.fetch_add(1) %
                              static_cast<std::uint64_t>(shards));
  }

  if (scheduler_ != nullptr && !dedup_prefix_.empty()) {
    scheduler_->retain_stream(dedup_prefix_, shard_);
    stream_registered_ = true;
  }
}

Session::Session(std::shared_ptr<Model> model, SessionConfig config,
                 Scheduler* scheduler)
    : Session(std::make_shared<ModelSlot>(std::move(model)),
              std::move(config), scheduler) {}

Session::~Session() {
  // Drop this consumer's claim on its stream memo: when the last session
  // of a stream tag closes, the scheduler frees that stream's memoised
  // predictions instead of holding them for the engine's lifetime.
  if (stream_registered_) scheduler_->release_stream(dedup_prefix_, shard_);
}

void Session::reset() {
  for (const FrameEntry& entry : history_) {
    if (!entry.staged_raw.empty()) ++coarsen_skips_;
  }
  history_.clear();
  frame_hashes_.clear();
}

std::int64_t Session::frames_until_ready() const {
  return std::max<std::int64_t>(
      s_ - static_cast<std::int64_t>(history_.size()), 0);
}

Tensor Session::normalize(const Tensor& raw) const {
  return data::normalize_frame(raw, config_.stats, config_.log_transform);
}

Tensor Session::denormalize(const Tensor& normalized) const {
  return data::denormalize_frame(normalized, config_.stats,
                                 config_.log_transform);
}

Tensor Session::coarsen_windows(const Tensor& normalized) const {
  const std::int64_t n_windows = plan_.window_count();
  const std::int64_t ci = layout_->input_side();
  const std::int64_t w = config_.window;
  Tensor out(Shape{n_windows, ci, ci});
  // Aggregating once per window ON ARRIVAL is what makes steady-state
  // inference gather-free: no window's aggregates are ever re-derived from
  // the full frame.
  parallel_for(n_windows, [&](std::int64_t i) {
    Tensor coarse = layout_->coarsen(
        crop2d(normalized, plan_.row_origin(i), plan_.col_origin(i), w, w));
    std::memcpy(out.data() + i * ci * ci, coarse.data(),
                sizeof(float) * static_cast<std::size_t>(ci * ci));
  });
  return out;
}

std::string Session::frame_error(const Tensor& fine_snapshot) const {
  if (fine_snapshot.rank() != 2 || fine_snapshot.dim(0) != config_.rows ||
      fine_snapshot.dim(1) != config_.cols) {
    return "frame shape does not match the session geometry";
  }
  if (!fine_snapshot.all_finite()) return "frame has a non-finite cell";
  return {};
}

void Session::admit(const Tensor& fine_snapshot) {
  FrameEntry entry;
  if (needs_.coarse_history) {
    if (dedup_prefix_.empty()) {
      entry.coarse_windows = coarsen_windows(normalize(fine_snapshot));
    } else {
      // Dedup-aware short-circuit: a fan-out consumer whose blocks the
      // stream memo serves never gathers this frame, so BOTH
      // pre-aggregation steps — the full-frame normalisation and the
      // per-window coarsening — are deferred until a gather actually needs
      // them (ensure_history_coarsened). A memo-served consumer's admit
      // cost collapses to the dedup hash plus one frame copy. Values are
      // unchanged either way — normalize and coarsen_windows are pure
      // functions of the raw frame.
      entry.staged_raw = fine_snapshot;
    }
  }
  if (needs_.fine_latest) entry.raw = fine_snapshot;
  history_.push_back(std::move(entry));
  if (!dedup_prefix_.empty()) {
    frame_hashes_.push_back(fnv1a(
        fine_snapshot.data(),
        sizeof(float) * static_cast<std::size_t>(fine_snapshot.size())));
  }
  if (static_cast<std::int64_t>(history_.size()) > s_) {
    if (!history_.front().staged_raw.empty()) ++coarsen_skips_;
    history_.pop_front();
    if (!frame_hashes_.empty()) frame_hashes_.pop_front();
  }
}

void Session::ensure_history_coarsened() {
  if (!needs_.coarse_history) return;
  for (FrameEntry& entry : history_) {
    if (entry.staged_raw.empty()) continue;
    entry.coarse_windows = coarsen_windows(normalize(entry.staged_raw));
    entry.staged_raw = Tensor();
  }
}

std::uint64_t Session::history_signature() const {
  if (dedup_prefix_.empty()) return 0;
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t fh : frame_hashes_) h = fnv1a(&fh, sizeof(fh), h);
  return h;
}

void Session::shape_batch(WindowBatch& batch, std::int64_t windows) const {
  const std::int64_t ci = layout_->input_side();
  const std::int64_t w = config_.window;
  const auto fit = [](Tensor& t, bool needed, const Shape& shape) {
    if (!needed) {
      if (!t.empty()) t = Tensor();
    } else if (t.shape() != shape) {
      t = Tensor(shape);
    }
  };
  fit(batch.coarse, needs_.coarse_history, Shape{windows, s_, ci, ci});
  fit(batch.fine_raw, needs_.fine_latest, Shape{windows, w, w});
}

void Session::gather_block(std::int64_t b0, std::int64_t b1,
                           WindowBatch& batch, std::int64_t row) {
  ensure_history_coarsened();
  const std::int64_t n = b1 - b0;
  const std::int64_t ci = layout_->input_side();
  const std::int64_t w = config_.window;
  if (needs_.coarse_history) {
    float* dst = batch.coarse.data() + row * s_ * ci * ci;
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t s = 0; s < s_; ++s) {
        const FrameEntry& entry = history_[static_cast<std::size_t>(s)];
        std::memcpy(dst + (j * s_ + s) * ci * ci,
                    entry.coarse_windows.data() + (b0 + j) * ci * ci,
                    sizeof(float) * static_cast<std::size_t>(ci * ci));
      }
    }
  }
  if (needs_.fine_latest) {
    const Tensor& raw = history_.back().raw;
    float* dst = batch.fine_raw.data() + row * w * w;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t r0 = plan_.row_origin(b0 + j);
      const std::int64_t c0 = plan_.col_origin(b0 + j);
      for (std::int64_t r = 0; r < w; ++r) {
        std::memcpy(dst + (j * w + r) * w,
                    raw.data() + (r0 + r) * config_.cols + c0,
                    sizeof(float) * static_cast<std::size_t>(w));
      }
    }
  }
}

Scheduler& Session::ensure_scheduler() {
  if (scheduler_ == nullptr) {
    owned_scheduler_ = std::make_unique<Scheduler>();
    scheduler_ = owned_scheduler_.get();
    if (!dedup_prefix_.empty()) {
      scheduler_->retain_stream(dedup_prefix_, shard_);
      stream_registered_ = true;
    }
  }
  return *scheduler_;
}

std::optional<Tensor> Session::push(const Tensor& fine_snapshot) {
  Session* self = this;
  const Tensor* frame = &fine_snapshot;
  return std::move(ensure_scheduler().serve({&self, 1}, {&frame, 1})[0]);
}

}  // namespace mtsr::serving
