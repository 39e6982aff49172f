// Behavioural tests for nn layers: output shapes, reference values,
// batch-norm statistics, activation semantics, upscale geometry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/nn/conv_transpose3d.hpp"
#include "src/nn/dense.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/sequential.hpp"

namespace mtsr::nn {
namespace {

TEST(Conv2d, OutputShapeFollowsConvArithmetic) {
  Rng rng(20);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  Tensor out = conv.forward(Tensor::zeros(Shape{2, 3, 9, 9}), true);
  EXPECT_EQ(out.shape(), Shape({2, 8, 5, 5}));
  EXPECT_EQ(conv.out_extent(9), 5);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(21);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  // Overwrite the weight with the identity and the bias with zero.
  conv.parameters()[0]->value.fill(1.f);
  conv.parameters()[1]->value.fill(0.f);
  Tensor input = Tensor::arange(9).reshape(Shape{1, 1, 3, 3});
  Tensor out = conv.forward(input, true);
  for (std::int64_t i = 0; i < input.size(); ++i) {
    EXPECT_FLOAT_EQ(out.flat(i), input.flat(i));
  }
}

TEST(Conv2d, BoxKernelComputesNeighbourhoodSums) {
  Rng rng(22);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.parameters()[0]->value.fill(1.f);
  conv.parameters()[1]->value.fill(0.f);
  Tensor input = Tensor::ones(Shape{1, 1, 3, 3});
  Tensor out = conv.forward(input, true);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 9.f);  // centre sees all 9 ones
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 4.f);  // corner sees 4
}

TEST(Conv2d, BiasIsAddedPerChannel) {
  Rng rng(23);
  Conv2d conv(1, 2, 1, 1, 0, rng);
  conv.parameters()[0]->value.fill(0.f);
  conv.parameters()[1]->value.flat(0) = 1.5f;
  conv.parameters()[1]->value.flat(1) = -2.f;
  Tensor out = conv.forward(Tensor::zeros(Shape{1, 1, 2, 2}), true);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), -2.f);
}

TEST(Conv2d, WrongChannelCountThrows) {
  Rng rng(24);
  Conv2d conv(2, 1, 3, 1, 1, rng);
  EXPECT_THROW((void)conv.forward(Tensor::zeros(Shape{1, 3, 4, 4}), true),
               ContractViolation);
}

TEST(Conv3d, OutputShape) {
  Rng rng(25);
  Conv3d conv(2, 4, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}, rng);
  Tensor out = conv.forward(Tensor::zeros(Shape{1, 2, 3, 6, 6}), true);
  EXPECT_EQ(out.shape(), Shape({1, 4, 3, 6, 6}));
}

TEST(Conv3d, AgreesWithConv2dWhenDepthKernelIsOne) {
  // A (1, k, k) 3-D convolution applied to a depth-1 volume must match the
  // equivalent 2-D convolution with the same weights.
  Rng rng(26);
  Conv3d conv3(1, 1, {1, 3, 3}, {1, 1, 1}, {0, 1, 1}, rng);
  Conv2d conv2(1, 1, 3, 1, 1, rng);
  // Copy weights 3D -> 2D (same layout since kd == 1).
  auto& w3 = conv3.parameters()[0]->value;
  auto& b3 = conv3.parameters()[0 + 1]->value;
  conv2.parameters()[0]->value = w3.reshape(Shape{1, 1, 3, 3});
  conv2.parameters()[1]->value = b3;

  Tensor input = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  Tensor out2 = conv2.forward(input, true);
  Tensor out3 = conv3.forward(input.reshape(Shape{1, 1, 1, 4, 4}), true);
  for (std::int64_t i = 0; i < out2.size(); ++i) {
    EXPECT_NEAR(out2.flat(i), out3.flat(i), 1e-5);
  }
}

TEST(ConvTranspose3d, ZipNetUpscaleGeometry) {
  Rng rng(29);
  // Depth preserved (k=3, s=1, p=1), spatial ×5 (k=7, s=5, p=1).
  ConvTranspose3d deconv(1, 2, {3, 7, 7}, {1, 5, 5}, {1, 1, 1}, rng);
  Tensor out = deconv.forward(Tensor::zeros(Shape{1, 1, 3, 4, 4}), true);
  EXPECT_EQ(out.shape(), Shape({1, 2, 3, 20, 20}));
  EXPECT_EQ(deconv.out_extent(0, 3), 3);
  EXPECT_EQ(deconv.out_extent(1, 4), 20);
}

TEST(BatchNorm, NormalisesPerChannelInTraining) {
  Rng rng(30);
  BatchNorm bn(2, 0.1f);
  // Channel 0 ~ N(5, 2²), channel 1 ~ N(-3, 0.5²).
  Tensor input(Shape{8, 2, 4, 4});
  for (std::int64_t n = 0; n < 8; ++n) {
    for (std::int64_t i = 0; i < 16; ++i) {
      input.at(n, 0, i / 4, i % 4) =
          static_cast<float>(rng.normal(5.0, 2.0));
      input.at(n, 1, i / 4, i % 4) =
          static_cast<float>(rng.normal(-3.0, 0.5));
    }
  }
  Tensor out = bn.forward(input, /*training=*/true);
  // Per-channel output mean ~0, stddev ~1.
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t n = 0; n < 8; ++n) {
      for (std::int64_t i = 0; i < 16; ++i) {
        const double v = out.at(n, c, i / 4, i % 4);
        sum += v;
        sq += v * v;
      }
    }
    const double mean = sum / (8 * 16);
    const double var = sq / (8 * 16) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm, RunningStatsConvergeToBatchStats) {
  Rng rng(31);
  BatchNorm bn(1, 0.5f);
  Tensor input = Tensor::randn(Shape{16, 1, 4, 4}, rng);
  input.add_scalar_(2.f);
  for (int i = 0; i < 30; ++i) (void)bn.forward(input, true);
  EXPECT_NEAR(bn.running_mean().flat(0), 2.f, 0.1f);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  Rng rng(32);
  BatchNorm bn(1, 1.0f);  // momentum 1: running stats = last batch stats
  Tensor train_batch = Tensor::randn(Shape{32, 1, 2, 2}, rng);
  (void)bn.forward(train_batch, true);
  // A constant input in eval mode must map through the affine transform
  // using the stored statistics, producing a constant output.
  Tensor eval_in = Tensor::full(Shape{2, 1, 2, 2}, 1.f);
  Tensor eval_out = bn.forward(eval_in, false);
  for (std::int64_t i = 1; i < eval_out.size(); ++i) {
    EXPECT_FLOAT_EQ(eval_out.flat(i), eval_out.flat(0));
  }
}

TEST(LeakyReLU, MatchesEquation3) {
  LeakyReLU lrelu(0.1f);
  Tensor input(Shape{4}, {-2.f, -0.5f, 0.5f, 2.f});
  Tensor out = lrelu.forward(input, true);
  EXPECT_FLOAT_EQ(out.flat(0), -0.2f);
  EXPECT_FLOAT_EQ(out.flat(1), -0.05f);
  EXPECT_FLOAT_EQ(out.flat(2), 0.5f);
  EXPECT_FLOAT_EQ(out.flat(3), 2.f);
}

// Plain reference: the definition `if (x < 0) x *= alpha`, per element.
std::vector<float> leaky_reference(const std::vector<float>& x,
                                   const std::vector<float>& v, float alpha) {
  std::vector<float> out = v;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (x[i] < 0.f) out[i] *= alpha;
  }
  return out;
}

TEST(LeakyReLU, BitExactOnSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();
  const std::vector<float> special = {
      -0.f, 0.f,   nan,        -nan,       inf,  -inf,  sub,
      -sub, 3 * sub, -3 * sub, 1e30f,      -1e30f, -1e-39f, 1.f};
  Rng rng(77);
  for (const float alpha : {0.f, 0.1f}) {
    // Leading random values move the special ones through every SIMD lane
    // and into the scalar tail.
    for (int lead = 0; lead < 9; ++lead) {
      std::vector<float> x, dy;
      for (int i = 0; i < lead; ++i) {
        x.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
        dy.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
      }
      for (std::size_t i = 0; i < special.size(); ++i) {
        for (std::size_t j = 0; j < special.size(); ++j) {
          x.push_back(special[i]);
          dy.push_back(special[j]);
        }
      }
      const auto n = static_cast<std::int64_t>(x.size());
      LeakyReLU lrelu(alpha);
      const Tensor y = lrelu.forward(Tensor(Shape{n}, x), false);
      const std::vector<float> want_y = leaky_reference(x, x, alpha);
      ASSERT_EQ(std::memcmp(y.data(), want_y.data(), x.size() * sizeof(float)),
                0)
          << "forward alpha=" << alpha << " lead=" << lead;
      const Tensor dx = lrelu.backward(Tensor(Shape{n}, dy));
      const std::vector<float> want_dx = leaky_reference(x, dy, alpha);
      ASSERT_EQ(
          std::memcmp(dx.data(), want_dx.data(), x.size() * sizeof(float)), 0)
          << "backward alpha=" << alpha << " lead=" << lead;
    }
  }
}

TEST(Sigmoid, OutputInOpenUnitInterval) {
  Sigmoid sigmoid;
  Tensor input(Shape{3}, {-50.f, 0.f, 50.f});
  Tensor out = sigmoid.forward(input, true);
  EXPECT_GT(out.flat(0), 0.f);
  EXPECT_FLOAT_EQ(out.flat(1), 0.5f);
  EXPECT_LE(out.flat(2), 1.f);
}

TEST(Dense, ComputesAffineMap) {
  Rng rng(33);
  Dense dense(2, 1, rng);
  dense.parameters()[0]->value = Tensor(Shape{1, 2}, {2.f, -1.f});
  dense.parameters()[1]->value = Tensor(Shape{1}, {0.5f});
  Tensor input(Shape{1, 2}, {3.f, 4.f});
  Tensor out = dense.forward(input, true);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.f * 3.f - 4.f + 0.5f);
}

TEST(GlobalAvgPool, ReducesSpatialAxes) {
  Tensor input = Tensor::arange(8).reshape(Shape{1, 2, 2, 2});
  GlobalAvgPool pool;
  Tensor out = pool.forward(input, true);
  ASSERT_EQ(out.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.5f);  // mean of 0..3
  EXPECT_FLOAT_EQ(out.at(0, 1), 5.5f);  // mean of 4..7
}

TEST(Sequential, ChainsLayersAndCountsParameters) {
  Rng rng(34);
  Sequential net;
  net.emplace<Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<LeakyReLU>(0.1f);
  net.emplace<Conv2d>(4, 1, 3, 1, 1, rng);
  Tensor out = net.forward(Tensor::zeros(Shape{1, 1, 6, 6}), true);
  EXPECT_EQ(out.shape(), Shape({1, 1, 6, 6}));
  // (4*1*9 + 4) + (1*4*9 + 1) parameters.
  EXPECT_EQ(net.parameter_count(), 40 + 37);
  EXPECT_EQ(net.size(), 3u);
}

TEST(Layer, ZeroGradClearsAccumulators) {
  Rng rng(35);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  Tensor input = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  (void)conv.forward(input, true);
  (void)conv.backward(Tensor::ones(Shape{1, 1, 4, 4}));
  EXPECT_GT(conv.parameters()[0]->grad.squared_norm(), 0.0);
  conv.zero_grad();
  EXPECT_EQ(conv.parameters()[0]->grad.squared_norm(), 0.0);
}

TEST(Layer, BackwardBeforeForwardThrows) {
  Rng rng(36);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  EXPECT_THROW((void)conv.backward(Tensor::zeros(Shape{1, 1, 4, 4})),
               ContractViolation);
}

}  // namespace
}  // namespace mtsr::nn
