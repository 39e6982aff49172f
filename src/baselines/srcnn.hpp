// SRCNN baseline (Dong et al., TPAMI 2016).
//
// The "benchmark deep learning architecture that comprises three
// convolutional layers" the paper compares against: a 9-1-5 convolutional
// stack applied to the bicubic-upscaled coarse input, trained end-to-end
// with MSE. Channel widths default to a CPU-scale 24/12 (the original uses
// 64/32); all widths are configurable so the full-size model remains
// constructible.
#pragma once

#include <cstdint>
#include <memory>

#include "src/baselines/super_resolver.hpp"
#include "src/common/rng.hpp"
#include "src/nn/sequential.hpp"

namespace mtsr::baselines {

/// SRCNN configuration.
struct SrcnnConfig {
  std::int64_t channels1 = 24;   ///< first-layer feature maps (paper: 64)
  std::int64_t channels2 = 12;   ///< second-layer feature maps (paper: 32)
  int window = 24;               ///< training crop side
  int epochs = 60;               ///< passes over the sampled crop set
  int batch_size = 8;
  int crops_per_epoch = 48;
  float learning_rate = 5e-4f;
  std::uint64_t seed = 17;
  /// Data-parallel replica workers per train step: -1 runs the whole crop
  /// batch as one slice inline, 0 resolves automatically
  /// (MTSR_TRAIN_REPLICAS, else one replica per pool shard, minimum 1),
  /// >= 1 forces that many workers. Results are bit-identical across
  /// settings >= 1 (see nn::resolve_train_split).
  int replicas = 0;
};

/// Three-layer super-resolution CNN on bicubic-upscaled input.
class Srcnn final : public SuperResolver {
 public:
  explicit Srcnn(SrcnnConfig config = {});
  ~Srcnn() override;

  void fit(const std::vector<Tensor>& fine_frames,
           const data::ProbeLayout& layout) override;
  [[nodiscard]] Tensor super_resolve(
      const Tensor& fine_frame, const data::ProbeLayout& layout) const override;
  [[nodiscard]] std::string name() const override { return "SRCNN"; }

  /// Training-loss trace (one value per epoch), for convergence tests.
  [[nodiscard]] const std::vector<double>& loss_history() const {
    return loss_history_;
  }

  /// Trained 9-1-5 stack (nullptr before fit) and the normalisation
  /// statistics it was trained under — read by the int8 conversion
  /// (SrcnnInt8), which mirrors the network layer by layer.
  [[nodiscard]] const nn::Sequential* network() const {
    return network_.get();
  }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double stddev() const { return stddev_; }
  [[nodiscard]] const SrcnnConfig& config() const { return config_; }

 private:
  SrcnnConfig config_;
  // forward() mutates layer caches, so the network is mutable to keep the
  // SuperResolver interface const-correct for callers.
  mutable std::unique_ptr<nn::Sequential> network_;
  double mean_ = 0.0;
  double stddev_ = 1.0;
  std::vector<double> loss_history_;
};

}  // namespace mtsr::baselines
