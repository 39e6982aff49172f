// Batch invariance of float serving: a window's prediction must not depend
// on which other windows share its generator pass. Every float product runs
// one panel microkernel whose per-element result is a fixed ascending-k
// fold, so sessions that differ only in windows per pass (SessionConfig::
// block) return bitwise-equal frames, and ZipNet over N windows equals N
// one-window passes. The geometry is a 32×32 city served through 20-cell
// windows at stride 4 (16 windows per frame) with the default
// 8/16/24-channel ZipNet, whose 8→8 ConvTranspose3d runs a k = 8 product.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/workspace.hpp"
#include "src/core/pipeline.hpp"
#include "src/data/milan.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

constexpr std::int64_t kSide = 32;
constexpr std::int64_t kWindow = 20;
constexpr std::int64_t kStride = 4;

data::TrafficDataset probe_dataset() {
  data::MilanConfig config;
  config.rows = kSide;
  config.cols = kSide;
  config.num_hotspots = 12;
  config.seed = 77;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(0, 40), 10);
}

core::PipelineConfig probe_pipeline_config() {
  core::PipelineConfig config;
  config.instance = data::MtsrInstance::kUp4;
  config.window = kWindow;
  config.stitch_stride = kStride;
  config.pretrain_steps = 6;
  config.gan_rounds = 0;
  return config;
}

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  ASSERT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(want.size()) * sizeof(float)),
            0)
      << what;
}

class BatchInvariance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TrafficDataset(probe_dataset());
    pipeline_ = new core::MtsrPipeline(probe_pipeline_config(), *dataset_);
    pipeline_->train_pretrain_only();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete dataset_;
  }

  static data::TrafficDataset* dataset_;
  static core::MtsrPipeline* pipeline_;
};

data::TrafficDataset* BatchInvariance::dataset_ = nullptr;
core::MtsrPipeline* BatchInvariance::pipeline_ = nullptr;

TEST_F(BatchInvariance, SessionFramesIndependentOfWindowsPerPass) {
  serving::Engine engine;
  engine.register_model("zipnet", std::make_shared<serving::ZipNetModel>(
                                      pipeline_->generator()));
  // 64 windows per pass covers all 16 windows of a frame in one pass.
  const std::int64_t blocks[] = {1, 2, 3, 5, 9, 64};
  std::vector<serving::Engine::SessionId> ids;
  for (const std::int64_t block : blocks) {
    serving::SessionConfig config = serving::SessionConfig::from_dataset(
        "zipnet", data::MtsrInstance::kUp4, *dataset_, kWindow, kStride);
    config.block = block;
    ids.push_back(engine.open_session(config));
  }
  int compared = 0;
  for (std::int64_t t = 0; t < 6; ++t) {
    const Tensor frame = dataset_->frame(t);
    const std::optional<Tensor> reference = engine.push(ids[0], frame);
    for (std::size_t s = 1; s < ids.size(); ++s) {
      const std::optional<Tensor> got = engine.push(ids[s], frame);
      ASSERT_EQ(got.has_value(), reference.has_value());
      if (!got) continue;
      expect_bitwise(*got, *reference,
                     "block " + std::to_string(blocks[s]) + " vs block 1, "
                     "frame " + std::to_string(t));
      ++compared;
    }
  }
  EXPECT_EQ(compared, 4 * 5);  // frames 2..5, five blocks against block 1
}

TEST_F(BatchInvariance, ForwardOverWindowsEqualsOneWindowForwards) {
  core::ZipNet& net = pipeline_->generator();
  const std::int64_t coarse = kWindow / net.total_upscale();
  const std::int64_t windows = 9;
  Rng rng(78);
  const Tensor batch = Tensor::randn(
      Shape{windows, net.config().temporal_length, coarse, coarse}, rng);
  Workspace& ws = Workspace::tls();
  Tensor joint;
  {
    Workspace::Scope scope(ws);
    joint = net.forward(batch, /*training=*/false);
  }
  ASSERT_EQ(joint.dim(0), windows);
  const std::int64_t per_window = joint.size() / windows;
  for (std::int64_t w = 0; w < windows; ++w) {
    const Tensor one = select0(batch, w).reshape(
        Shape{1, batch.dim(1), coarse, coarse});
    Tensor single;
    {
      Workspace::Scope scope(ws);
      single = net.forward(one, /*training=*/false);
    }
    ASSERT_EQ(single.size(), per_window);
    EXPECT_EQ(std::memcmp(single.data(), joint.data() + w * per_window,
                          static_cast<std::size_t>(per_window) *
                              sizeof(float)),
              0)
        << "window " << w << " of " << windows;
  }
}

}  // namespace
}  // namespace mtsr
