// Tests for Algorithm 1: pre-training convergence, adversarial stability
// with the Eq. 9 empirical loss, and the Eq. 8 ablation path.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/check.hpp"
#include "src/core/gan_trainer.hpp"
#include "src/data/milan.hpp"

namespace mtsr::core {
namespace {

// A small synthetic MTSR problem: up-2 on 8x8 windows from a tiny city.
struct Fixture {
  Fixture()
      : dataset(make_frames(), 10),
        layout(8, 8, 2),
        source([this](Rng& rng) {
          data::SampleSpec spec;
          spec.t = rng.uniform_int(1, dataset.frame_count() - 1);
          spec.r0 = rng.uniform_int(0, dataset.rows() - 8);
          spec.c0 = rng.uniform_int(0, dataset.cols() - 8);
          return data::make_sample(dataset, layout, spec, 2, 8);
        }) {}

  static std::vector<Tensor> make_frames() {
    data::MilanConfig config;
    config.rows = 16;
    config.cols = 16;
    config.num_hotspots = 8;
    config.seed = 55;
    return data::MilanTrafficGenerator(config).generate(60, 30);
  }

  ZipNetConfig generator_config() const {
    ZipNetConfig config;
    config.temporal_length = 2;
    config.upscale_factors = {2};
    config.base_channels = 3;
    config.zipper_modules = 3;
    config.zipper_channels = 6;
    config.final_channels = 8;
    return config;
  }

  DiscriminatorConfig discriminator_config() const {
    DiscriminatorConfig config;
    config.base_channels = 2;
    return config;
  }

  data::TrafficDataset dataset;
  data::UniformProbeLayout layout;
  SampleSource source;
};

TEST(GanTrainer, PretrainReducesMse) {
  Fixture f;
  Rng rng(150);
  ZipNet g(f.generator_config(), rng);
  Discriminator d(f.discriminator_config(), rng);
  GanTrainerConfig config;
  config.batch_size = 4;
  config.learning_rate = 2e-3f;
  GanTrainer trainer(g, d, config);

  auto losses = trainer.pretrain(f.source, 60);
  ASSERT_EQ(losses.size(), 60u);
  double head = 0.0, tail = 0.0;
  for (int i = 0; i < 10; ++i) {
    head += losses[static_cast<std::size_t>(i)];
    tail += losses[losses.size() - 10 + static_cast<std::size_t>(i)];
  }
  EXPECT_LT(tail, head);
}

TEST(GanTrainer, AdversarialRoundsStayFiniteAndBounded) {
  Fixture f;
  Rng rng(151);
  ZipNet g(f.generator_config(), rng);
  Discriminator d(f.discriminator_config(), rng);
  GanTrainerConfig config;
  config.batch_size = 4;
  config.learning_rate = 1e-3f;
  GanTrainer trainer(g, d, config);

  (void)trainer.pretrain(f.source, 20);
  auto history = trainer.train(f.source, 15);
  ASSERT_EQ(history.size(), 15u);
  for (const auto& round : history) {
    EXPECT_TRUE(std::isfinite(round.d_loss));
    EXPECT_TRUE(std::isfinite(round.g_loss));
    EXPECT_TRUE(std::isfinite(round.g_mse));
    EXPECT_GT(round.d_real_prob, 0.0);
    EXPECT_LT(round.d_real_prob, 1.0);
    EXPECT_GT(round.d_fake_prob, 0.0);
    EXPECT_LT(round.d_fake_prob, 1.0);
  }
}

TEST(GanTrainer, EmpiricalLossKeepsMseAnchored) {
  // The Eq. 9 weighting must not let the generator drift away from the
  // data: g_mse after adversarial rounds stays in the same regime as after
  // pre-training (the paper's stability claim, scaled down).
  Fixture f;
  Rng rng(152);
  ZipNet g(f.generator_config(), rng);
  Discriminator d(f.discriminator_config(), rng);
  GanTrainerConfig config;
  config.batch_size = 4;
  config.learning_rate = 1e-3f;
  config.loss_mode = LossMode::kEmpirical;
  GanTrainer trainer(g, d, config);

  auto pre = trainer.pretrain(f.source, 60);
  const double pre_tail = pre.back();
  auto history = trainer.train(f.source, 20);
  const double post = history.back().g_mse;
  EXPECT_LT(post, std::max(4.0 * pre_tail, pre_tail + 1.0));
}

TEST(GanTrainer, FixedSigmaModeRuns) {
  Fixture f;
  Rng rng(153);
  ZipNet g(f.generator_config(), rng);
  Discriminator d(f.discriminator_config(), rng);
  GanTrainerConfig config;
  config.batch_size = 4;
  config.loss_mode = LossMode::kFixedSigma;
  config.sigma2 = 0.05f;
  GanTrainer trainer(g, d, config);
  (void)trainer.pretrain(f.source, 10);
  auto history = trainer.train(f.source, 5);
  for (const auto& round : history) {
    EXPECT_TRUE(std::isfinite(round.g_loss));
  }
}

TEST(GanTrainer, RejectsBadConfig) {
  Fixture f;
  Rng rng(154);
  ZipNet g(f.generator_config(), rng);
  Discriminator d(f.discriminator_config(), rng);
  GanTrainerConfig config;
  config.batch_size = 0;
  EXPECT_THROW(GanTrainer(g, d, config), ContractViolation);

  GanTrainerConfig bad_critic;
  bad_critic.critic_iters = 0;
  EXPECT_THROW(GanTrainer(g, d, bad_critic), ContractViolation);
  GanTrainerConfig bad_clip;
  bad_clip.weight_clip = -0.1f;
  EXPECT_THROW(GanTrainer(g, d, bad_clip), ContractViolation);
}

TEST(GanTrainer, CriticItersAndWeightClipStabilitySchedule) {
  // The WGAN-style knobs: critic_iters multiplies the discriminator
  // sub-epochs per round, weight_clip clamps every discriminator parameter
  // after each critic step. Rounds stay finite and the clamp actually
  // binds.
  Fixture f;
  Rng rng(155);
  ZipNet g(f.generator_config(), rng);
  Discriminator d(f.discriminator_config(), rng);
  GanTrainerConfig config;
  config.batch_size = 4;
  config.learning_rate = 1e-3f;
  config.critic_iters = 3;
  config.weight_clip = 0.01f;
  GanTrainer trainer(g, d, config);

  (void)trainer.pretrain(f.source, 10);
  auto history = trainer.train(f.source, 5);
  ASSERT_EQ(history.size(), 5u);
  for (const auto& round : history) {
    EXPECT_TRUE(std::isfinite(round.d_loss));
    EXPECT_TRUE(std::isfinite(round.g_loss));
  }
  for (const nn::Parameter* param : d.parameters()) {
    for (std::int64_t i = 0; i < param->value.size(); ++i) {
      EXPECT_LE(std::abs(param->value.flat(i)), 0.01f + 1e-7f)
          << param->name << " escaped the clip at " << i;
    }
  }
}

}  // namespace
}  // namespace mtsr::core
