// MtsrPipeline: the end-to-end system of the paper.
//
// Wires together dataset normalisation, probe aggregation, window-cropping
// augmentation (Section 4), ZipNet-GAN training (Algorithm 1) and full-grid
// prediction with moving-average stitching. This is the class a network
// operator would deploy at the gateway: feed coarse probe aggregates,
// receive fine-grained traffic maps.
#pragma once

#include <memory>

#include "src/core/gan_trainer.hpp"
#include "src/data/dataset.hpp"
#include "src/data/probes.hpp"
#include "src/metrics/metrics.hpp"
#include "src/serving/engine.hpp"

namespace mtsr::core {

/// Everything needed to train and run one MTSR instance.
struct PipelineConfig {
  data::MtsrInstance instance = data::MtsrInstance::kUp4;
  std::int64_t window = 20;          ///< fine-cell crop side (paper: 80)
  std::int64_t temporal_length = 3;  ///< S
  std::int64_t stitch_stride = 0;    ///< 0 → window/2

  ZipNetConfig zipnet;               ///< widths/depths (factors are derived)
  DiscriminatorConfig discriminator;
  GanTrainerConfig trainer;

  int pretrain_steps = 200;          ///< Eq. 10 steps
  int gan_rounds = 60;               ///< Algorithm 1 rounds
  std::uint64_t seed = 29;
};

/// Train/predict facade over one dataset + instance.
class MtsrPipeline {
 public:
  MtsrPipeline(PipelineConfig config, const data::TrafficDataset& dataset);

  /// Runs pre-training then adversarial training on the training split.
  /// Set `gan_rounds` to 0 (in the config) for a pure ZipNet (no GAN).
  void train();

  /// Pre-training only (the paper's plain "ZipNet" comparison point).
  void train_pretrain_only();

  /// Full-grid prediction for frame `t` (raw MB), stitched from overlapping
  /// windows with the moving-average filter.
  ///
  /// Served by the engine: the frames [t-S+1, t] are streamed into an
  /// internal session at the default block, so the result is bitwise what
  /// any default-block session over the same frames returns, at every pool
  /// size. Consecutive calls (t, t+1, ...) reuse the session's rolling
  /// window cache, so sweeps like evaluate() skip re-aggregating shared
  /// history.
  [[nodiscard]] Tensor predict_frame(std::int64_t t);

  /// Evaluates stitched predictions against ground truth over up to
  /// `max_frames` frames of the test split (evenly spaced).
  [[nodiscard]] metrics::MetricAccumulator evaluate(std::int64_t max_frames);

  /// Random-crop sample source over a split (used by trainers and benches).
  [[nodiscard]] SampleSource make_sample_source(data::SplitRange range) const;

  /// Checkpointing: persists / restores the trained generator, so a model
  /// trained offline can be shipped to a gateway and served by an Engine
  /// (serving::ZipNetModel::load_checkpoint reads the same file).
  /// load_generator requires an architecture-identical pipeline config.
  void save_generator(const std::string& path);
  void load_generator(const std::string& path);

  /// The serving engine behind predict_frame/evaluate. The pipeline's
  /// generator is registered as model "zipnet"; callers may open additional
  /// sessions (other strides, other models) against it.
  [[nodiscard]] serving::Engine& engine();

  [[nodiscard]] ZipNet& generator() { return *generator_; }
  [[nodiscard]] Discriminator& discriminator() { return *discriminator_; }
  [[nodiscard]] GanTrainer& trainer() { return *trainer_; }
  [[nodiscard]] const data::ProbeLayout& window_layout() const {
    return *window_layout_;
  }
  [[nodiscard]] const data::TrafficDataset& dataset() const {
    return dataset_;
  }
  [[nodiscard]] const PipelineConfig& config() const { return config_; }

  /// Training telemetry.
  [[nodiscard]] const std::vector<double>& pretrain_losses() const {
    return pretrain_losses_;
  }
  [[nodiscard]] const std::vector<GanRoundStats>& gan_history() const {
    return gan_history_;
  }

 private:
  void ensure_serving();

  PipelineConfig config_;
  const data::TrafficDataset& dataset_;
  std::unique_ptr<data::ProbeLayout> window_layout_;
  std::unique_ptr<ZipNet> generator_;
  std::unique_ptr<Discriminator> discriminator_;
  std::unique_ptr<GanTrainer> trainer_;
  std::vector<double> pretrain_losses_;
  std::vector<GanRoundStats> gan_history_;

  std::unique_ptr<serving::Engine> engine_;
  serving::Engine::SessionId session_ = 0;
  std::int64_t streamed_t_ = -1;  ///< newest frame in the session history
};

}  // namespace mtsr::core
