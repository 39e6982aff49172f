// GanTrainer: Algorithm 1 of the paper.
//
// Training has two phases:
//  1. Pre-training — the generator alone is fit by MSE (Eq. 10) so the
//     discriminator cannot trivially reject early generator output.
//  2. Adversarial training — D and G are updated alternately (n_D then n_G
//     sub-epochs per round) with Adam at learning rate λ = 1e-4.
//
// Losses:
//  * Discriminator: Eq. 5, the standard adversarial objective (maximise
//    log D(real) + log(1 − D(G(input))); implemented as BCE minimisation).
//  * Generator: the paper's *empirical* loss Eq. 9,
//        L(Θ_G) = mean_t (1 − 2·log D(G(F))) · ‖D^H − G(F)‖²,
//    which replaces the fixed σ² trade-off of Eq. 8. Eq. 8 is also
//    implemented (LossMode::kFixedSigma) for the stability ablation bench.
//
// Execution: every step of every phase runs one path. The batch splits
// into micro-slices (geometry pure in the batch size — see nn/replica.hpp),
// slice forwards/backwards run on replica workers under slice-private
// gradient slots, and the slots reduce in fixed ascending-slice order, so
// trained parameters are bit-identical for every replica count and pool
// size. `replicas = -1` makes the whole batch one slice, run inline on the
// calling thread. Batch sampling + augmentation are staged on a dedicated
// input-pipeline thread, overlapping the next batch's assembly with the
// current step's compute. Sampling draws from counter-derived RNG streams
// (one per sample), never from a shared engine, so the sample sequence is
// independent of staging and replica scheduling.
#pragma once

#include <functional>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/core/discriminator.hpp"
#include "src/core/zipnet.hpp"
#include "src/data/augmentation.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/replica.hpp"

namespace mtsr::core {

/// Generator loss used during adversarial training.
enum class LossMode {
  kEmpirical,   ///< Eq. 9 (the paper's contribution)
  kFixedSigma,  ///< Eq. 8 with a manually set σ² weight
};

/// Draws one random training sample; implementations wrap the dataset +
/// augmentation machinery (see make_sample_source in pipeline.hpp).
using SampleSource = std::function<data::Sample(Rng&)>;

/// Trainer configuration (names follow Algorithm 1).
struct GanTrainerConfig {
  int batch_size = 8;          ///< m
  float learning_rate = 1e-4f; ///< pre-training λ
  /// λ for the adversarial phase. The paper uses 1e-4 throughout; at CPU
  /// scale pre-training runs hotter, and the adversarial refinement keeps
  /// the paper's gentle rate so Eq. 9's adversarial term polishes fidelity
  /// without undoing the MSE fit.
  float adversarial_learning_rate = 1e-4f;
  int n_d = 1;                 ///< discriminator sub-epochs per round
  int n_g = 1;                 ///< generator sub-epochs per round
  LossMode loss_mode = LossMode::kEmpirical;
  float sigma2 = 0.1f;         ///< σ² for LossMode::kFixedSigma
  float prob_clamp = 1e-4f;    ///< clamp D outputs to [c, 1-c] in logs
  /// WGAN-style critic stability controls (cf. the critic_iter /
  /// weight_clipping idiom of Wasserstein training loops). Online
  /// fine-tuning stresses GAN stability far harder than one-shot offline
  /// training, so both knobs exist as an ablation flag for the continuous
  /// learner; their defaults leave Algorithm 1 as written. `critic_iters`
  /// multiplies the discriminator sub-epochs
  /// per round (the critic trains critic_iters × n_D steps before each
  /// generator update); `weight_clip > 0` clamps every discriminator
  /// parameter to [-weight_clip, +weight_clip] after each critic step,
  /// the Lipschitz surrogate of weight-clipped WGAN. The critic keeps its
  /// probabilistic head (this is NOT the full Wasserstein objective —
  /// only its stability schedule).
  int critic_iters = 1;
  float weight_clip = 0.f;
  std::uint64_t seed = 23;
  /// Data-parallel replica workers per train step: -1 runs the whole batch
  /// as one slice inline on the calling thread, 0 resolves automatically
  /// (MTSR_TRAIN_REPLICAS, else one replica per pool shard, minimum 1 —
  /// results independent of pool geometry), >= 1 forces that many workers.
  /// See nn::resolve_train_split.
  int replicas = 0;
};

/// Per-round training telemetry.
struct GanRoundStats {
  double d_loss = 0.0;
  double g_loss = 0.0;
  double g_mse = 0.0;       ///< data term of the generator loss
  double d_real_prob = 0.0; ///< mean D(real)
  double d_fake_prob = 0.0; ///< mean D(G(input))
};

/// Runs Algorithm 1 over externally supplied G and D.
class GanTrainer {
 public:
  GanTrainer(ZipNet& generator, Discriminator& discriminator,
             GanTrainerConfig config);

  /// Phase 1: MSE pre-training of the generator (Eq. 10). Returns the
  /// per-step batch losses.
  std::vector<double> pretrain(const SampleSource& source, int steps);

  /// Phase 2: adversarial rounds (each = n_D discriminator sub-epochs then
  /// n_G generator sub-epochs). Switches both optimizers to
  /// `adversarial_learning_rate`. Returns per-round telemetry.
  std::vector<GanRoundStats> train(const SampleSource& source, int rounds);

  /// Adjusts the generator optimizer's learning rate (decay schedules).
  void set_generator_learning_rate(float lr);

  [[nodiscard]] const GanTrainerConfig& config() const { return config_; }

  /// Per-worker thread-local arena telemetry from the most recent step.
  /// Steady-state training must show zero growth_events across steps once
  /// warmed up.
  [[nodiscard]] const std::vector<nn::ReplicaArenaStats>&
  replica_arena_stats() const {
    return last_arena_stats_;
  }

 private:
  /// A sampled batch, pre-split into the step's micro-slices.
  struct Batch {
    std::vector<Tensor> inputs;   ///< per slice: (m_s, S, ci, ci)
    std::vector<Tensor> targets;  ///< per slice: (m_s, h, w)
    std::int64_t rows = 0;        ///< m, summed over slices
    std::int64_t target_elements = 0;  ///< m*h*w, summed over slices
  };

  /// WGAN weight clipping: clamps every discriminator parameter to
  /// [-weight_clip, +weight_clip] (no-op at the default 0).
  void clip_critic_weights();
  [[nodiscard]] Batch build_batch(const SampleSource& source,
                                  std::uint64_t base_counter);
  void stage_batch(const SampleSource& source);
  [[nodiscard]] Batch take_staged();

  // One step per phase: slice fan-out + fixed-order reduction.
  double pretrain_step(const Batch& batch);
  double train_discriminator_step(const Batch& batch, GanRoundStats& stats);
  double train_generator_step(const Batch& batch, GanRoundStats& stats);

  ZipNet& generator_;
  Discriminator& discriminator_;
  GanTrainerConfig config_;
  /// Stream base only — no draws; sample k uses rng_.stream(k).
  Rng rng_;
  std::uint64_t sample_counter_ = 0;
  nn::TrainSplit split_;
  nn::Adam opt_g_;
  nn::Adam opt_d_;

  // Input pipeline: one staged batch in flight on a dedicated thread.
  StageExecutor stager_;
  Batch staged_;
  std::future<void> staged_future_;
  std::vector<nn::ReplicaArenaStats> last_arena_stats_;
};

}  // namespace mtsr::core
