#include "fixture.hpp"

#include <stdexcept>

#include "harness.hpp"
#include "src/data/milan.hpp"

namespace perfbench {
namespace {

mtsr::core::PipelineConfig pipeline_config() {
  mtsr::core::PipelineConfig config;
  config.instance = mtsr::data::MtsrInstance::kUp4;
  config.window = kWindow;
  config.stitch_stride = kStride;
  config.temporal_length = kTemporal;
  config.zipnet.base_channels = 4;
  config.zipnet.zipper_modules = 4;
  config.zipnet.zipper_channels = kZipperChannels;
  config.zipnet.final_channels = 12;
  config.discriminator.base_channels = 4;
  config.trainer.batch_size = 8;
  config.trainer.learning_rate = 2e-3f;
  config.pretrain_steps = kPretrainSteps;
  config.gan_rounds = 0;
  return config;
}

}  // namespace

std::unique_ptr<mtsr::data::TrafficDataset> make_city() {
  mtsr::data::MilanConfig city;
  city.rows = kSide;
  city.cols = kSide;
  city.num_hotspots = 24;
  city.seed = 42;
  mtsr::data::MilanTrafficGenerator generator(city);
  return std::make_unique<mtsr::data::TrafficDataset>(
      generator.generate(0, kCityFrames), city.interval_minutes);
}

std::unique_ptr<Fixture> build_fixture(const std::string& model) {
  if (model != "zipnet" && model != "zipnet-int8") {
    throw std::invalid_argument("unknown model \"" + model + "\"");
  }
  auto fx = std::make_unique<Fixture>();
  fx->dataset = make_city();
  const mtsr::core::PipelineConfig config = pipeline_config();
  fx->pipeline =
      std::make_unique<mtsr::core::MtsrPipeline>(config, *fx->dataset);

  const std::int64_t t0 = now_ns();
  fx->pipeline->train_pretrain_only();
  fx->pretrain_s = (now_ns() - t0) * 1e-9;
  fx->pretrain_samples_per_s =
      static_cast<double>(config.pretrain_steps) * config.trainer.batch_size /
      fx->pretrain_s;

  if (model == "zipnet") {
    fx->model = std::make_shared<mtsr::serving::ZipNetModel>(
        fx->pipeline->generator());
    return fx;
  }
  const std::int64_t t1 = now_ns();
  const auto calibration = mtsr::serving::calibration_batches(
      *fx->dataset, fx->pipeline->window_layout(), kTemporal, kWindow,
      kCalibrationFrames);
  fx->model = mtsr::serving::quantize_generator(fx->pipeline->generator(),
                                                calibration);
  fx->quantize_s = (now_ns() - t1) * 1e-9;
  return fx;
}

mtsr::data::SplitRange serve_range(const mtsr::data::TrafficDataset& dataset) {
  return {dataset.validation_range().begin, dataset.frame_count()};
}

}  // namespace perfbench
