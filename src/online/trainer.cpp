#include "src/online/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/metrics/metrics.hpp"
#include "src/nn/model_io.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::online {
namespace {

/// Copies every parameter and buffer of `src` into the architecture-equal
/// `dst` (the checkpoint round-trip without touching disk).
void copy_state(core::ZipNet& src, core::ZipNet& dst) {
  const auto sp = src.parameters();
  const auto dp = dst.parameters();
  check(sp.size() == dp.size(), "online::Trainer: parameter count mismatch");
  for (std::size_t i = 0; i < sp.size(); ++i) {
    check(dp[i]->value.shape() == sp[i]->value.shape(),
          "online::Trainer: parameter shape mismatch at " + sp[i]->name);
    dp[i]->value = sp[i]->value;
  }
  const auto sb = src.buffers();
  const auto db = dst.buffers();
  check(sb.size() == db.size(), "online::Trainer: buffer count mismatch");
  for (std::size_t i = 0; i < sb.size(); ++i) {
    *db[i].second = *sb[i].second;
  }
}

/// Architecture clone: mirrors the reference net's config (fresh Rng —
/// the weights are overwritten by copy_state right after).
std::unique_ptr<core::ZipNet> clone_generator(core::ZipNet& reference) {
  Rng rng(0);
  auto net = std::make_unique<core::ZipNet>(reference.config(), rng);
  copy_state(reference, *net);
  return net;
}

/// The gate's evaluation origins: four corners + centre of the grid,
/// deduplicated (small grids collapse them). Deterministic, so gate
/// decisions depend only on weights + holdout frames.
std::vector<std::pair<std::int64_t, std::int64_t>> gate_origins(
    std::int64_t rows, std::int64_t cols, std::int64_t window) {
  const std::int64_t rmax = rows - window;
  const std::int64_t cmax = cols - window;
  std::vector<std::pair<std::int64_t, std::int64_t>> origins{
      {0, 0}, {0, cmax}, {rmax, 0}, {rmax, cmax}, {rmax / 2, cmax / 2}};
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  return origins;
}

}  // namespace

TrainerConfig TrainerConfig::from_dataset(std::string model,
                                          data::MtsrInstance instance,
                                          const data::TrafficDataset& dataset,
                                          std::int64_t window) {
  TrainerConfig config;
  config.model = std::move(model);
  config.instance = instance;
  config.rows = dataset.rows();
  config.cols = dataset.cols();
  config.window = window;
  config.norm = dataset.stats();
  config.log_transform = dataset.log_transform();
  return config;
}

Trainer::Trainer(serving::Engine& engine, core::ZipNet& reference,
                 TrainerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      tap_(config_.tap_capacity),
      layout_(data::make_layout(config_.instance, config_.window,
                                config_.window)),
      temporal_(reference.config().temporal_length) {
  check(config_.rows >= config_.window && config_.cols >= config_.window &&
            config_.window > 0,
        "online::Trainer: bad stream geometry");
  check(config_.holdout_frames >= 1,
        "online::Trainer: holdout_frames must be >= 1");
  check(config_.rounds_per_checkpoint >= 1,
        "online::Trainer: rounds_per_checkpoint must be >= 1");
  check(config_.retain_checkpoints >= 1,
        "online::Trainer: retain_checkpoints must be >= 1");
  check(config_.recency_half_life > 0,
        "online::Trainer: recency_half_life must be positive");
  check(engine_.has_model(config_.model),
        "online::Trainer: engine has no model \"" + config_.model + "\"");

  net_ = clone_generator(reference);
  serving_twin_ = clone_generator(reference);
  Rng disc_rng(config_.trainer.seed + 1);
  disc_ = std::make_unique<core::Discriminator>(config_.discriminator,
                                                disc_rng);
  gan_ = std::make_unique<core::GanTrainer>(*net_, *disc_, config_.trainer);

  engine_.set_frame_sink(
      [this](const std::string& stream, const Tensor& frame) {
        tap_.publish(stream, frame);
      });
  engine_.set_online_stats_source([this] { return stats(); });
  staleness_.reset();
}

Trainer::~Trainer() {
  stop();
  // Detach the engine hooks that capture `this` (the engine usually
  // outlives the trainer). Callers must not race pushes or stats() against
  // trainer destruction — same rule as Engine::register_model.
  engine_.set_frame_sink({});
  engine_.set_online_stats_source({});
}

void Trainer::start() {
  if (running_.load()) return;
  stop_requested_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { loop(); });
}

void Trainer::stop() {
  stop_requested_.store(true);
  if (thread_.joinable()) thread_.join();
  running_.store(false);
}

void Trainer::loop() {
  // Everything this thread runs directly — optimizer steps, losses, a
  // whole-batch train step — executes serially under the nested-region
  // guard, never contending for the pool's in-flight task against a
  // concurrently serving thread. Replica-budget configs still fan their
  // slices out through the shard runner queues (run_on_shard is safe to
  // enqueue from here).
  detail::NestedParallelRegion nested;
  while (!stop_requested_.load()) {
    bool trained = false;
    try {
      trained = round();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      last_error_ = e.what();
      break;
    }
    if (!trained && !stop_requested_.load()) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config_.idle_wait_ms));
    }
  }
  running_.store(false);
}

int Trainer::run_rounds(int rounds) {
  check(!running_.load(),
        "online::Trainer::run_rounds: background trainer is running");
  int trained = 0;
  for (int r = 0; r < rounds; ++r) {
    if (round()) ++trained;
  }
  return trained;
}

std::string Trainer::active_stream() const {
  if (!config_.stream.empty()) return config_.stream;
  // Follow the busiest stream: deterministic (ties break by key order) and
  // robust to the caller not tagging its sessions.
  std::string best;
  std::int64_t best_depth = -1;
  for (const std::string& key : tap_.streams()) {
    const auto depth =
        static_cast<std::int64_t>(tap_.snapshot(key).size());
    if (depth > best_depth) {
      best_depth = depth;
      best = key;
    }
  }
  return best;
}

data::Sample Trainer::make_tap_sample(const std::vector<Tensor>& normalized,
                                      std::int64_t t, std::int64_t r0,
                                      std::int64_t c0) const {
  const std::int64_t w = config_.window;
  std::vector<Tensor> coarse;
  coarse.reserve(static_cast<std::size_t>(temporal_));
  for (std::int64_t s = t - temporal_ + 1; s <= t; ++s) {
    Tensor fine = crop2d(normalized[static_cast<std::size_t>(s)], r0, c0, w, w);
    coarse.push_back(layout_->coarsen(fine));
  }
  data::Sample sample;
  sample.input = stack0(coarse);
  sample.target =
      crop2d(normalized[static_cast<std::size_t>(t)], r0, c0, w, w);
  return sample;
}

bool Trainer::round() {
  const std::string stream = active_stream();
  if (stream.empty()) return false;
  const std::vector<Tensor> raw = tap_.snapshot(stream);
  const auto n = static_cast<std::int64_t>(raw.size());
  // Trainable targets are [S-1, n-1-holdout]; the newest holdout_frames
  // stay reserved for the gate (they need S-1 frames of history, which may
  // reach into the trainable range — histories overlap, targets never do).
  const std::int64_t newest_trainable = n - 1 - config_.holdout_frames;
  if (newest_trainable < temporal_ - 1) return false;

  std::vector<Tensor> normalized;
  normalized.reserve(raw.size());
  for (const Tensor& frame : raw) {
    normalized.push_back(
        data::normalize_frame(frame, config_.norm, config_.log_transform));
  }

  // Recency-weighted target draw: weight 2^(-age / half_life) against the
  // newest trainable frame, window origin uniform. The sample depends only
  // on the per-sample RNG stream and this round's snapshot.
  std::vector<double> weights(
      static_cast<std::size_t>(newest_trainable - (temporal_ - 1) + 1));
  for (std::size_t k = 0; k < weights.size(); ++k) {
    const auto t = static_cast<std::int64_t>(k) + temporal_ - 1;
    weights[k] = std::exp2(-static_cast<double>(newest_trainable - t) /
                           config_.recency_half_life);
  }
  const core::SampleSource source = [&](Rng& rng) {
    const std::int64_t t =
        temporal_ - 1 + static_cast<std::int64_t>(rng.categorical(weights));
    const std::int64_t r0 = rng.uniform_int(0, config_.rows - config_.window);
    const std::int64_t c0 = rng.uniform_int(0, config_.cols - config_.window);
    return make_tap_sample(normalized, t, r0, c0);
  };

  gan_->pretrain(source, config_.steps_per_round);
  std::int64_t new_steps = config_.steps_per_round;
  if (config_.adversarial_rounds > 0) {
    gan_->train(source, config_.adversarial_rounds);
    new_steps += static_cast<std::int64_t>(config_.adversarial_rounds) *
                 (config_.trainer.n_d * config_.trainer.critic_iters +
                  config_.trainer.n_g);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    steps_ += new_steps;
    batches_ += new_steps;  // one staged mini-batch per step
  }

  if (++rounds_since_checkpoint_ >= config_.rounds_per_checkpoint) {
    rounds_since_checkpoint_ = 0;
    emit_and_gate(raw, normalized);
  }
  return true;
}

double Trainer::holdout_nrmse(core::ZipNet& net,
                              const std::vector<Tensor>& raw,
                              const std::vector<Tensor>& normalized) {
  const auto n = static_cast<std::int64_t>(raw.size());
  const std::int64_t w = config_.window;
  const auto origins = gate_origins(config_.rows, config_.cols, w);
  double sum = 0.0;
  std::int64_t windows = 0;
  for (std::int64_t t = n - config_.holdout_frames; t < n; ++t) {
    if (t < temporal_ - 1) continue;  // not enough history yet
    for (const auto& [r0, c0] : origins) {
      const data::Sample sample = make_tap_sample(normalized, t, r0, c0);
      Workspace::Scope scope(Workspace::tls());
      Tensor pred = net.forward(stack0({sample.input}), /*training=*/false);
      Tensor fine = data::denormalize_frame(pred.reshape(Shape{w, w}),
                                            config_.norm,
                                            config_.log_transform);
      const Tensor truth =
          crop2d(raw[static_cast<std::size_t>(t)], r0, c0, w, w);
      // nrmse normalises by the ground-truth mean: skip windows of (near)
      // dead air, which would blow the ratio up on noise.
      if (truth.mean() <= 1e-6) continue;
      sum += metrics::nrmse(fine, truth);
      ++windows;
    }
  }
  return windows > 0 ? sum / static_cast<double>(windows) : 0.0;
}

std::string Trainer::checkpoint_path(std::int64_t serial) const {
  return config_.checkpoint_dir + "/" + config_.checkpoint_prefix + "-" +
         std::to_string(serial) + ".bin";
}

void Trainer::gc_checkpoints() {
  while (static_cast<std::int64_t>(retained_.size()) >
         config_.retain_checkpoints) {
    std::remove(retained_.front().c_str());
    retained_.erase(retained_.begin());
  }
}

void Trainer::emit_and_gate(const std::vector<Tensor>& raw,
                            const std::vector<Tensor>& normalized) {
  // Atomic candidate emission (save_tensors writes temp + rename): a crash
  // here never leaves a torn file for reload_model to trip on.
  const std::string path = checkpoint_path(next_serial_++);
  nn::save_model(path, *net_);

  // The holdout gate: candidate vs the weights serving right now, both on
  // the reserved newest frames, in denormalised units.
  const double cand = holdout_nrmse(*net_, raw, normalized);
  const double serving = holdout_nrmse(*serving_twin_, raw, normalized);
  const bool accept = cand <= serving * (1.0 + config_.max_nrmse_regression);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++candidates_;
    holdout_nrmse_ = cand;
    serving_nrmse_ = serving;
    retained_.push_back(path);
    gc_checkpoints();
  }

  if (accept) {
    // Promotion: the open sessions pick the candidate up at their next
    // stitch-block boundary (reload may run beside the serving thread).
    engine_.reload_model(config_.model, path);
    copy_state(*net_, *serving_twin_);
    std::lock_guard<std::mutex> lock(mu_);
    ++promoted_;
    staleness_.reset();
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    ++rejected_;
  }
}

serving::OnlineTrainerStats Trainer::stats() const {
  const FrameTapStats tap = tap_.stats();
  std::lock_guard<std::mutex> lock(mu_);
  serving::OnlineTrainerStats stats;
  stats.running = running_.load();
  stats.steps = steps_;
  stats.batches = batches_;
  stats.tap_frames = tap.buffered;
  stats.tap_published = tap.published;
  stats.tap_dropped = tap.dropped;
  stats.tap_streams = tap.streams;
  stats.candidates = candidates_;
  stats.promoted = promoted_;
  stats.rejected = rejected_;
  stats.staleness_seconds = staleness_.seconds();
  stats.holdout_nrmse = holdout_nrmse_;
  stats.serving_nrmse = serving_nrmse_;
  return stats;
}

std::string Trainer::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

std::vector<std::string> Trainer::retained_checkpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_;
}

}  // namespace mtsr::online
