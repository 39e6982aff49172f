#include "src/core/gan_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "src/common/check.hpp"
#include "src/nn/loss.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::core {
namespace {

/// Unwind guard: no in-flight stage task may outlive the pretrain/train
/// call whose sample source it captured.
struct StageDrainGuard {
  StageExecutor& executor;
  ~StageDrainGuard() { executor.drain(); }
};

}  // namespace

GanTrainer::GanTrainer(ZipNet& generator, Discriminator& discriminator,
                       GanTrainerConfig config)
    : generator_(generator),
      discriminator_(discriminator),
      config_(config),
      rng_(config.seed),
      split_(nn::resolve_train_split(config.replicas, config.batch_size)),
      opt_g_(generator.parameters(), config.learning_rate),
      opt_d_(discriminator.parameters(), config.learning_rate) {
  check(config_.batch_size > 0, "GanTrainerConfig: bad batch size");
  check(config_.n_d >= 1 && config_.n_g >= 1,
        "GanTrainerConfig: sub-epoch counts must be >= 1");
  check(config_.prob_clamp > 0.f && config_.prob_clamp < 0.5f,
        "GanTrainerConfig: bad prob clamp");
  check(config_.critic_iters >= 1, "GanTrainerConfig: critic_iters must "
        "be >= 1");
  check(config_.weight_clip >= 0.f,
        "GanTrainerConfig: negative weight_clip");
}

void GanTrainer::clip_critic_weights() {
  if (config_.weight_clip <= 0.f) return;
  const float c = config_.weight_clip;
  for (nn::Parameter* param : discriminator_.parameters()) {
    float* v = param->value.data();
    const std::int64_t n = param->value.size();
    for (std::int64_t i = 0; i < n; ++i) v[i] = std::clamp(v[i], -c, c);
  }
}

GanTrainer::Batch GanTrainer::build_batch(const SampleSource& source,
                                          std::uint64_t base_counter) {
  const std::int64_t m = config_.batch_size;
  std::vector<Tensor> inputs, targets;
  inputs.reserve(static_cast<std::size_t>(m));
  targets.reserve(static_cast<std::size_t>(m));
  for (std::int64_t b = 0; b < m; ++b) {
    // One private stream per global sample index: the drawn sample depends
    // only on (seed, counter), never on which thread assembles the batch or
    // how many replicas consume it.
    Rng sample_rng = rng_.stream(base_counter + static_cast<std::uint64_t>(b));
    data::Sample sample = source(sample_rng);
    inputs.push_back(std::move(sample.input));
    targets.push_back(std::move(sample.target));
  }
  const int slices = split_.slices;
  Batch batch;
  batch.rows = m;
  batch.inputs.reserve(static_cast<std::size_t>(slices));
  batch.targets.reserve(static_cast<std::size_t>(slices));
  for (int s = 0; s < slices; ++s) {
    const nn::SliceRange range = nn::train_slice_range(m, slices, s);
    std::vector<Tensor> in_slice(
        std::make_move_iterator(inputs.begin() + range.begin),
        std::make_move_iterator(inputs.begin() + range.end));
    std::vector<Tensor> tg_slice(
        std::make_move_iterator(targets.begin() + range.begin),
        std::make_move_iterator(targets.begin() + range.end));
    batch.inputs.push_back(stack0(in_slice));
    batch.targets.push_back(stack0(tg_slice));
    batch.target_elements += batch.targets.back().size();
  }
  return batch;
}

void GanTrainer::stage_batch(const SampleSource& source) {
  // The counter range is claimed here, on the caller's thread, so the
  // sample sequence is fixed before the stage thread ever runs.
  const std::uint64_t base = sample_counter_;
  sample_counter_ += static_cast<std::uint64_t>(config_.batch_size);
  staged_future_ = stager_.submit(
      [this, &source, base] { staged_ = build_batch(source, base); });
}

GanTrainer::Batch GanTrainer::take_staged() {
  staged_future_.get();
  return std::move(staged_);
}

// ---------------------------------------------------------------------------
// Phase 1: pre-training.
// ---------------------------------------------------------------------------

std::vector<double> GanTrainer::pretrain(const SampleSource& source,
                                         int steps) {
  check(steps >= 0, "pretrain: negative step count");
  std::vector<double> losses;
  losses.reserve(static_cast<std::size_t>(steps));
  if (steps == 0) return losses;
  StageDrainGuard drain{stager_};
  stage_batch(source);  // prefetch step 0
  for (int step = 0; step < steps; ++step) {
    Batch batch = take_staged();
    if (step + 1 < steps) stage_batch(source);  // overlap with compute
    losses.push_back(pretrain_step(batch));
  }
  return losses;
}

double GanTrainer::pretrain_step(const Batch& batch) {
  const int slices = static_cast<int>(batch.inputs.size());
  opt_g_.zero_grad();
  generator_.prepare_replica_slots(slices);
  std::vector<double> partial(static_cast<std::size_t>(slices), 0.0);
  nn::run_replicated(
      slices, split_.workers,
      [&](int s) {
        const auto si = static_cast<std::size_t>(s);
        Tensor pred = generator_.forward(batch.inputs[si], /*training=*/true);
        nn::SliceLossResult slice = nn::mse_loss_slice(
            pred, batch.targets[si], batch.target_elements);
        generator_.backward(slice.grad);
        partial[si] = slice.sum;
      },
      &last_arena_stats_);
  generator_.reduce_replica_slots(slices);
  opt_g_.step();
  double sum = 0.0;
  for (double p : partial) sum += p;
  return sum / static_cast<double>(batch.target_elements);
}

// ---------------------------------------------------------------------------
// Phase 2: discriminator sub-epoch.
// ---------------------------------------------------------------------------

double GanTrainer::train_discriminator_step(const Batch& batch,
                                                       GanRoundStats& stats) {
  const int slices = static_cast<int>(batch.inputs.size());
  struct Part {
    double real_sum = 0.0, fake_sum = 0.0;
    double p_real_sum = 0.0, p_fake_sum = 0.0;
  };
  std::vector<Part> parts(static_cast<std::size_t>(slices));
  opt_d_.zero_grad();
  discriminator_.prepare_replica_slots(slices);
  generator_.prepare_replica_slots(slices);  // inference forwards per slot
  nn::run_replicated(
      slices, split_.workers,
      [&](int s) {
        const auto si = static_cast<std::size_t>(s);
        Part part;
        Tensor p_real =
            discriminator_.forward(batch.targets[si], /*training=*/true);
        nn::SliceLossResult real =
            nn::bce_loss_slice(p_real, 1.f, batch.rows);
        discriminator_.backward(real.grad);

        Tensor fake = generator_.forward(batch.inputs[si], /*training=*/false);
        Tensor p_fake = discriminator_.forward(fake, /*training=*/true);
        nn::SliceLossResult fake_loss =
            nn::bce_loss_slice(p_fake, 0.f, batch.rows);
        discriminator_.backward(fake_loss.grad);

        part.real_sum = real.sum;
        part.fake_sum = fake_loss.sum;
        for (std::int64_t i = 0; i < p_real.dim(0); ++i) {
          part.p_real_sum += static_cast<double>(p_real.flat(i));
          part.p_fake_sum += static_cast<double>(p_fake.flat(i));
        }
        parts[si] = part;
      },
      &last_arena_stats_);
  // Folds slice gradient slots and merges the two deferred batch-norm
  // updates (real forward, then fake forward) in ascending slice order.
  discriminator_.reduce_replica_slots(slices);
  opt_d_.step();

  double real_sum = 0.0, fake_sum = 0.0, p_real_sum = 0.0, p_fake_sum = 0.0;
  for (const Part& part : parts) {
    real_sum += part.real_sum;
    fake_sum += part.fake_sum;
    p_real_sum += part.p_real_sum;
    p_fake_sum += part.p_fake_sum;
  }
  const double n = static_cast<double>(batch.rows);
  stats.d_real_prob = p_real_sum / n;
  stats.d_fake_prob = p_fake_sum / n;
  return real_sum / n + fake_sum / n;
}

// ---------------------------------------------------------------------------
// Phase 2: generator sub-epoch.
// ---------------------------------------------------------------------------

double GanTrainer::train_generator_step(const Batch& batch,
                                                   GanRoundStats& stats) {
  const int slices = static_cast<int>(batch.inputs.size());
  const std::int64_t n = batch.rows;  // FULL batch denominator everywhere
  const float clamp_lo = config_.prob_clamp;
  const float clamp_hi = 1.f - config_.prob_clamp;

  struct Part {
    double loss = 0.0, mse = 0.0;
  };
  std::vector<Part> parts(static_cast<std::size_t>(slices));
  opt_g_.zero_grad();
  opt_d_.zero_grad();  // absorbs the unused D-parameter gradients
  generator_.prepare_replica_slots(slices);
  discriminator_.prepare_replica_slots(slices);
  nn::run_replicated(
      slices, split_.workers,
      [&](int s) {
        const auto si = static_cast<std::size_t>(s);
        const Tensor& inputs = batch.inputs[si];
        const Tensor& targets = batch.targets[si];
        const std::int64_t ns = inputs.dim(0);

        Tensor pred = generator_.forward(inputs, /*training=*/true);
        Tensor probs = discriminator_.forward(pred, /*training=*/true);
        Tensor sq_err = nn::per_sample_sq_error(pred, targets);

        Tensor grad_probs(Shape{ns, 1});
        std::vector<float> mse_scale(static_cast<std::size_t>(ns));
        Part part;
        for (std::int64_t i = 0; i < ns; ++i) {
          const float di = std::clamp(probs.flat(i), clamp_lo, clamp_hi);
          const float se = sq_err.flat(i);
          switch (config_.loss_mode) {
            case LossMode::kEmpirical: {
              const float a = 1.f - 2.f * std::log(di);
              part.loss += static_cast<double>(a) * se;
              mse_scale[static_cast<std::size_t>(i)] =
                  a / static_cast<float>(n);
              grad_probs.flat(i) = (-2.f / di) * se / static_cast<float>(n);
              break;
            }
            case LossMode::kFixedSigma: {
              part.loss += static_cast<double>(se) -
                           2.0 * config_.sigma2 *
                               std::log(static_cast<double>(di));
              mse_scale[static_cast<std::size_t>(i)] =
                  1.f / static_cast<float>(n);
              grad_probs.flat(i) =
                  (-2.f * config_.sigma2 / di) / static_cast<float>(n);
              break;
            }
          }
          part.mse += se;
        }

        Tensor grad_pred = discriminator_.backward(grad_probs);

        const std::int64_t inner = pred.size() / ns;
        float* pgp = grad_pred.data();
        const float* pp = pred.data();
        const float* pt = targets.data();
        parallel_for(ns, [&](std::int64_t i) {
          const float scale = 2.f * mse_scale[static_cast<std::size_t>(i)];
          for (std::int64_t j = 0; j < inner; ++j) {
            const std::int64_t off = i * inner + j;
            pgp[off] += scale * (pp[off] - pt[off]);
          }
        });

        generator_.backward(grad_pred);
        parts[si] = part;
      },
      &last_arena_stats_);
  generator_.reduce_replica_slots(slices);
  // D's slice slots must drain too: the folded gradients land in D's main
  // accumulators (discarded by the next D-step zero_grad) and its deferred
  // batch-norm statistics get their update.
  discriminator_.reduce_replica_slots(slices);
  opt_g_.step();

  double loss = 0.0, mse_term = 0.0;
  for (const Part& part : parts) {
    loss += part.loss;
    mse_term += part.mse;
  }
  stats.g_mse = mse_term / static_cast<double>(batch.target_elements);
  return loss / static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// Driver loops.
// ---------------------------------------------------------------------------

void GanTrainer::set_generator_learning_rate(float lr) {
  opt_g_.set_learning_rate(lr);
}

std::vector<GanRoundStats> GanTrainer::train(const SampleSource& source,
                                             int rounds) {
  check(rounds >= 0, "train: negative round count");
  opt_g_.set_learning_rate(config_.adversarial_learning_rate);
  opt_d_.set_learning_rate(config_.adversarial_learning_rate);
  std::vector<GanRoundStats> history;
  history.reserve(static_cast<std::size_t>(rounds));
  if (rounds == 0) return history;

  // WGAN-style critic schedule: critic_iters multiplies the discriminator
  // sub-epochs per round (1 = Algorithm 1's n_D).
  const int d_steps = config_.n_d * config_.critic_iters;
  const std::int64_t total_batches =
      static_cast<std::int64_t>(rounds) * (d_steps + config_.n_g);
  std::int64_t consumed = 0;
  StageDrainGuard drain{stager_};
  stage_batch(source);
  auto next_batch = [&]() {
    Batch batch = take_staged();
    if (++consumed < total_batches) stage_batch(source);
    return batch;
  };

  for (int round = 0; round < rounds; ++round) {
    GanRoundStats stats;
    double d_loss = 0.0;
    for (int e = 0; e < d_steps; ++e) {
      Batch batch = next_batch();
      d_loss += train_discriminator_step(batch, stats);
      clip_critic_weights();
    }
    stats.d_loss = d_loss / d_steps;
    double g_loss = 0.0;
    for (int e = 0; e < config_.n_g; ++e) {
      Batch batch = next_batch();
      g_loss += train_generator_step(batch, stats);
    }
    stats.g_loss = g_loss / config_.n_g;
    history.push_back(stats);
  }
  return history;
}

}  // namespace mtsr::core
