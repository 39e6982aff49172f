// The discriminator D (Section 3.2, Fig. 5): a simplified VGG-net of six
// convolutional blocks (conv + BN + LeakyReLU), feature maps doubling every
// other layer, followed by a sigmoid head constraining the output to (0, 1).
//
// A global-average-pool + dense head lets the same discriminator judge any
// grid geometry, which the four MTSR instances require.
#pragma once

#include <memory>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/sequential.hpp"

namespace mtsr::core {

/// Discriminator hyper-parameters.
struct DiscriminatorConfig {
  std::int64_t base_channels = 8;  ///< width of the first block
  float lrelu_alpha = 0.1f;
};

/// VGG-style binary classifier: (N, H, W) snapshots -> (N, 1) probability
/// of being a real fine-grained measurement.
class Discriminator final : public nn::Layer {
 public:
  Discriminator(DiscriminatorConfig config, Rng& rng);

  /// Input is (N, H, W); internally reshaped to (N, 1, H, W).
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  std::vector<std::pair<std::string, Tensor*>> buffers() override;
  void prepare_replica_slots(int count) override;
  void reduce_replica_slots(int count) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const DiscriminatorConfig& config() const { return config_; }

 private:
  DiscriminatorConfig config_;
  std::unique_ptr<nn::Sequential> network_;
  // Cached input shape, one slot per replica slice (slot 0 = direct mode).
  std::vector<Shape> input_shape_ = std::vector<Shape>(1);
};

}  // namespace mtsr::core
