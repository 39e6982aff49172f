// Tests for pipeline checkpointing — how a generator trained offline is
// shipped to the Section-6 gateway. Live serving itself is covered by
// test_serving (Engine sessions).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/metrics/metrics.hpp"

namespace mtsr::core {
namespace {

data::TrafficDataset small_dataset(std::uint64_t seed = 180) {
  data::MilanConfig config;
  config.rows = 16;
  config.cols = 16;
  config.num_hotspots = 10;
  config.seed = seed;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(0, 40), 10);
}

PipelineConfig small_pipeline_config() {
  PipelineConfig config;
  config.instance = data::MtsrInstance::kUp4;
  config.window = 8;
  config.temporal_length = 3;
  config.zipnet.base_channels = 3;
  config.zipnet.zipper_modules = 3;
  config.zipnet.zipper_channels = 6;
  config.zipnet.final_channels = 8;
  config.discriminator.base_channels = 2;
  config.pretrain_steps = 20;
  config.gan_rounds = 0;
  return config;
}

TEST(PipelineCheckpoint, SaveLoadRestoresPredictions) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_generator_ckpt.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(183);
  PipelineConfig config = small_pipeline_config();
  config.pretrain_steps = 40;

  MtsrPipeline trained(config, dataset);
  trained.train_pretrain_only();
  Tensor expected = trained.predict_frame(30);
  trained.save_generator(path);

  MtsrPipeline restored(config, dataset);  // fresh weights
  Tensor before = restored.predict_frame(30);
  EXPECT_GT(metrics::mae(before, expected), 1e-4);  // differs pre-load
  restored.load_generator(path);
  Tensor after = restored.predict_frame(30);
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(after.flat(i), expected.flat(i), 1e-3);
  }
  std::remove(path.c_str());
}

TEST(PipelineCheckpoint, MismatchedArchitectureRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mtsr_generator_ckpt2.bin")
          .string();
  data::TrafficDataset dataset = small_dataset(184);
  MtsrPipeline a(small_pipeline_config(), dataset);
  a.save_generator(path);

  PipelineConfig other = small_pipeline_config();
  other.zipnet.zipper_channels = 12;  // different width
  MtsrPipeline b(other, dataset);
  EXPECT_THROW(b.load_generator(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtsr::core
