// Direct stride-1 convolution (conv_stride1_into) against the lowered
// reference it replaces: im2col_batched_into / vol2col_batched_into, then
// matmul_into, channel_major_to_batch_into and add_channel_bias. Conv2d and
// Conv3d forward, and dX, dW and db after a training and an inference
// forward, must equal the reference bit for bit (memcmp) — on finite
// inputs, with NaN and ±inf in the input, and at every SIMD level the
// process dispatches (MTSR_SIMD). Strided, small-k and tall convolutions
// still lower, and are held to the same reference.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/workspace.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

// One convolution: 2-D when `three_d` is false (depth entries unused).
struct ConvCase {
  std::int64_t n, c, o;
  std::array<std::int64_t, 3> in;  // d, h, w
  std::array<int, 3> kernel, stride, pad;
  bool three_d;
  bool bias;
};

std::string describe(const ConvCase& cc) {
  std::string s = cc.three_d ? "Conv3d" : "Conv2d";
  s += " n=" + std::to_string(cc.n) + " c=" + std::to_string(cc.c) +
       " o=" + std::to_string(cc.o) + " in=";
  if (cc.three_d) s += std::to_string(cc.in[0]) + "x";
  s += std::to_string(cc.in[1]) + "x" + std::to_string(cc.in[2]) + " k=";
  if (cc.three_d) s += std::to_string(cc.kernel[0]) + "x";
  s += std::to_string(cc.kernel[1]) + "x" + std::to_string(cc.kernel[2]) +
       " s=" + std::to_string(cc.stride[1]) +
       " p=" + std::to_string(cc.pad[1]) + (cc.bias ? "" : " nobias");
  return s;
}

std::int64_t out_extent(const ConvCase& cc, int axis) {
  const auto a = static_cast<std::size_t>(axis);
  return (cc.in[a] + 2 * cc.pad[a] - cc.kernel[a]) / cc.stride[a] + 1;
}

Shape input_shape(const ConvCase& cc) {
  if (cc.three_d) return Shape{cc.n, cc.c, cc.in[0], cc.in[1], cc.in[2]};
  return Shape{cc.n, cc.c, cc.in[1], cc.in[2]};
}

Shape output_shape(const ConvCase& cc) {
  if (cc.three_d) {
    return Shape{cc.n, cc.o, out_extent(cc, 0), out_extent(cc, 1),
                 out_extent(cc, 2)};
  }
  return Shape{cc.n, cc.o, out_extent(cc, 1), out_extent(cc, 2)};
}

std::int64_t lowered_rows(const ConvCase& cc) {
  std::int64_t taps = cc.kernel[1] * cc.kernel[2];
  if (cc.three_d) taps *= cc.kernel[0];
  return cc.c * taps;
}

struct Result {
  Tensor out, dx, dw, db;
};

// The parent forward, op for op, and the backward built on its matrix.
Result reference(const ConvCase& cc, const Tensor& x, const Tensor& weight,
                 const Tensor& bias, const Tensor& dy) {
  const Shape os = output_shape(cc);
  const std::int64_t inner = os.volume() / (cc.n * cc.o);
  const std::int64_t k = lowered_rows(cc), cols = cc.n * inner;
  std::vector<float> lowered(static_cast<std::size_t>(k * cols));
  if (cc.three_d) {
    vol2col_batched_into(x.data(), cc.n, cc.c, cc.in[0], cc.in[1], cc.in[2],
                         cc.kernel[0], cc.kernel[1], cc.kernel[2],
                         cc.stride[0], cc.stride[1], cc.stride[2], cc.pad[0],
                         cc.pad[1], cc.pad[2], lowered.data());
  } else {
    im2col_batched_into(x.data(), cc.n, cc.c, cc.in[1], cc.in[2],
                        cc.kernel[1], cc.kernel[2], cc.stride[1],
                        cc.stride[2], cc.pad[1], cc.pad[2], lowered.data());
  }
  std::vector<float> y(static_cast<std::size_t>(cc.o * cols));
  matmul_into(weight.data(), lowered.data(), y.data(), cc.o, k, cols);
  Result r;
  r.out = Tensor(os);
  channel_major_to_batch_into(y.data(), cc.n, cc.o, inner, r.out.data());
  if (cc.bias) add_channel_bias(r.out, bias);

  std::vector<float> dyc(static_cast<std::size_t>(cc.o * cols));
  batch_to_channel_major_into(dy.data(), cc.n, cc.o, inner, dyc.data());
  r.dw = Tensor(weight.shape());
  matmul_nt_into(dyc.data(), lowered.data(), r.dw.data(), cc.o, cols, k,
                 /*accumulate=*/true);
  r.db = Tensor(Shape{cc.o});
  if (cc.bias) accumulate_channel_sums(dy, r.db);
  std::vector<float> dcols(static_cast<std::size_t>(k * cols));
  matmul_tn_into(weight.data(), dyc.data(), dcols.data(), cc.o, k, cols);
  r.dx = Tensor(x.shape());
  if (cc.three_d) {
    col2vol_batched_into(dcols.data(), cc.n, cc.c, cc.in[0], cc.in[1],
                         cc.in[2], cc.kernel[0], cc.kernel[1], cc.kernel[2],
                         cc.stride[0], cc.stride[1], cc.stride[2], cc.pad[0],
                         cc.pad[1], cc.pad[2], r.dx.data());
  } else {
    col2im_batched_into(dcols.data(), cc.n, cc.c, cc.in[1], cc.in[2],
                        cc.kernel[1], cc.kernel[2], cc.stride[1],
                        cc.stride[2], cc.pad[1], cc.pad[2], r.dx.data());
  }
  return r;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) ==
             0;
}

// Builds the layer, optionally rewrites its weights, and checks forward and
// backward (after a training and an inference forward) against reference.
template <typename Edit>
void check_case(const ConvCase& cc, std::uint64_t seed, Edit&& edit) {
  SCOPED_TRACE(describe(cc));
  Rng rng(seed);
  std::unique_ptr<nn::Layer> layer;
  if (cc.three_d) {
    layer = std::make_unique<nn::Conv3d>(cc.c, cc.o, cc.kernel, cc.stride,
                                         cc.pad, rng, cc.bias);
  } else {
    layer = std::make_unique<nn::Conv2d>(cc.c, cc.o, cc.kernel[1],
                                         cc.stride[1], cc.pad[1], rng,
                                         cc.bias);
  }
  std::vector<nn::Parameter*> params = layer->parameters();
  if (cc.bias) {
    Tensor& b = params[1]->value;
    for (std::int64_t i = 0; i < b.size(); ++i) {
      b.flat(i) = rng.uniform() - 0.5f;
    }
  }
  Tensor x = Tensor::uniform(input_shape(cc), rng, -1.f, 1.f);
  edit(params[0]->value, x);
  const Tensor dy = Tensor::uniform(output_shape(cc), rng, -1.f, 1.f);
  const Tensor no_bias(Shape{cc.o});
  const Result want = reference(cc, x, params[0]->value,
                                cc.bias ? params[1]->value : no_bias, dy);

  for (const bool training : {true, false}) {
    SCOPED_TRACE(training ? "training forward" : "inference forward");
    for (nn::Parameter* p : params) p->grad.fill(0.f);
    Workspace::Scope scope(Workspace::tls());
    const Tensor out = layer->forward(x, training);
    EXPECT_TRUE(same_bits(out, want.out)) << "forward output";
    const Tensor dx = layer->backward(dy);
    EXPECT_TRUE(same_bits(dx, want.dx)) << "dX";
    EXPECT_TRUE(same_bits(params[0]->grad, want.dw)) << "dW";
    if (cc.bias) EXPECT_TRUE(same_bits(params[1]->grad, want.db)) << "db";
  }
}

void check_case(const ConvCase& cc, std::uint64_t seed) {
  check_case(cc, seed, [](Tensor&, Tensor&) {});
}

bool runs_direct(const ConvCase& cc) {
  const Shape os = output_shape(cc);
  return cc.stride == std::array<int, 3>{1, 1, 1} &&
         conv_stride1_direct(cc.o, lowered_rows(cc),
                             os.volume() / cc.o);
}

ConvCase conv2d(std::int64_t n, std::int64_t c, std::int64_t o,
                std::int64_t h, std::int64_t w, int k, int pad,
                int stride = 1, bool bias = true) {
  return {n, c, o, {1, h, w}, {1, k, k}, {1, stride, stride},
          {0, pad, pad}, false, bias};
}

ConvCase conv3d(std::int64_t n, std::int64_t c, std::int64_t o,
                std::array<std::int64_t, 3> in, std::array<int, 3> k,
                std::array<int, 3> pad,
                std::array<int, 3> stride = {1, 1, 1}) {
  return {n, c, o, in, k, stride, pad, true, true};
}

// Direct cases: out channels {1, 4, 12, 16, 18}; C·taps {108, 144, 162,
// 800} (800 spans several k-tiles of 256); 1, 2 and 9 windows; 10×10,
// 20×20 and 3×20×20 grids; widths 1, 17 and 33 for the column tails.
const ConvCase kDirectCases[] = {
    conv2d(2, 12, 16, 20, 20, 3, 1),   // ZipNet entry conv (108)
    conv2d(1, 16, 16, 20, 20, 3, 1),   // zipper (144)
    conv2d(2, 16, 16, 20, 20, 3, 1),
    conv2d(9, 16, 12, 10, 10, 3, 1),   // final 16->12
    conv2d(2, 12, 18, 20, 20, 3, 1),   // final 12->18
    conv2d(1, 18, 1, 20, 20, 3, 1),    // output conv (162)
    conv2d(9, 18, 1, 10, 10, 3, 1),
    conv2d(2, 18, 4, 10, 10, 3, 1),
    conv2d(2, 32, 1, 10, 10, 5, 2),    // C·taps 800
    conv2d(1, 32, 12, 12, 12, 5, 2, 1, false),
    conv2d(2, 16, 4, 5, 1, 3, 1),      // width 1
    conv2d(1, 16, 12, 4, 17, 3, 1),    // width 17
    conv2d(2, 18, 16, 3, 33, 3, 1),    // width 33
    conv2d(1, 64, 32, 10, 10, 1, 0),   // 1×1, no padding
    conv2d(2, 1, 16, 12, 12, 9, 4),    // one input channel, 9×9
    conv3d(2, 4, 4, {3, 20, 20}, {3, 3, 3}, {1, 1, 1}),  // ZipNet Conv3d
    conv3d(1, 4, 4, {3, 20, 20}, {3, 3, 3}, {1, 1, 1}),
    conv3d(9, 4, 4, {3, 10, 10}, {3, 3, 3}, {1, 1, 1}),
    conv3d(1, 6, 12, {3, 20, 20}, {3, 3, 3}, {1, 1, 1}),  // 162
    conv3d(2, 4, 1, {3, 4, 17}, {3, 3, 3}, {1, 1, 1}),
    conv3d(1, 16, 18, {2, 6, 33}, {1, 3, 3}, {0, 1, 1}),  // depth kernel 1
};

TEST(ConvDirect, SelectionRule) {
  EXPECT_TRUE(conv_stride1_direct(16, 144, 800));
  EXPECT_TRUE(conv_stride1_direct(1, 33, 2));
  EXPECT_FALSE(conv_stride1_direct(16, 32, 800));  // small-k product
  EXPECT_FALSE(conv_stride1_direct(16, 144, 16));  // tall product
  for (const ConvCase& cc : kDirectCases) {
    EXPECT_TRUE(runs_direct(cc)) << describe(cc);
  }
}

TEST(ConvDirect, MatchesLoweredReferenceBitwise) {
  std::uint64_t seed = 100;
  for (const ConvCase& cc : kDirectCases) check_case(cc, seed++);
}

TEST(ConvDirect, IdenticalAcrossPoolSizes) {
  struct PoolGuard {
    ~PoolGuard() { set_num_threads(0); }
  } guard;
  for (const int pool : {1, 3}) {
    SCOPED_TRACE("pool " + std::to_string(pool));
    set_num_threads(pool);
    check_case(conv2d(2, 16, 16, 20, 20, 3, 1), 7);
    check_case(conv3d(1, 4, 4, {3, 20, 20}, {3, 3, 3}, {1, 1, 1}), 8);
  }
}

// NaN and ±inf propagate through the same fold in the same order, so even
// the NaN payloads match.
TEST(ConvDirect, NonFiniteInputsMatchBitwise) {
  const auto poison = [](Tensor&, Tensor& x) {
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    for (std::int64_t i = 0; i < x.size(); i += 37) {
      x.flat(i) = specials[(i / 37) % 3];
    }
  };
  std::uint64_t seed = 200;
  for (const ConvCase& cc :
       {conv2d(2, 16, 16, 20, 20, 3, 1), conv2d(1, 18, 1, 20, 20, 3, 1),
        conv2d(2, 16, 12, 3, 33, 3, 1), conv2d(1, 32, 4, 10, 10, 5, 2),
        conv3d(2, 4, 4, {3, 20, 20}, {3, 3, 3}, {1, 1, 1})}) {
    check_case(cc, seed++, poison);
  }
}

// The portable kernel skips a k step whose four A (weight) values are all
// zero; with a non-finite B value that skip is visible (0·inf is NaN), so
// the direct and lowered products must make it for the same elements.
TEST(ConvDirect, ZeroWeightQuadsWithNonFiniteInputs) {
  const auto edit = [](Tensor& weight, Tensor& x) {
    const std::int64_t k = weight.size() / weight.dim(0);
    for (std::int64_t o = 0; o < 4; ++o) {
      for (std::int64_t t = 0; t < k; t += 2) weight.flat(o * k + t) = 0.f;
    }
    for (std::int64_t i = 0; i < x.size(); i += 5) {
      x.flat(i) = (i / 5) % 2 == 0 ? std::numeric_limits<float>::infinity()
                                   : std::numeric_limits<float>::quiet_NaN();
    }
  };
  check_case(conv2d(2, 16, 12, 3, 33, 3, 1), 300, edit);
  check_case(conv2d(1, 16, 4, 20, 20, 3, 1), 301, edit);
  check_case(conv3d(1, 4, 4, {3, 20, 20}, {3, 3, 3}, {1, 1, 1}), 302, edit);
}

// Strided, small-k (C·taps <= 32) and tall (O >= positions) convolutions
// keep lowering; they meet the same reference.
TEST(ConvDirect, StridedSmallKAndTallConvsStillLower) {
  const ConvCase lowered[] = {
      conv2d(2, 16, 16, 20, 20, 3, 1, 2),  // stride 2
      conv2d(2, 3, 8, 10, 10, 3, 1),       // C·taps 27
      conv2d(1, 16, 32, 2, 2, 3, 1),       // 32 channels, 4 positions
      conv3d(1, 4, 4, {3, 20, 20}, {3, 3, 3}, {1, 1, 1}, {1, 2, 2}),
      conv3d(2, 1, 4, {3, 10, 10}, {3, 3, 3}, {1, 1, 1}),  // C·taps 27
  };
  std::uint64_t seed = 400;
  for (const ConvCase& cc : lowered) {
    EXPECT_FALSE(runs_direct(cc)) << describe(cc);
    check_case(cc, seed++);
  }
}

TEST(ConvDirect, PadVolumeZeroFillsTheBorder) {
  const std::vector<float> in = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  // Two planes of (1, 2, 3), padded by (1, 1, 2) -> (3, 4, 7).
  std::vector<float> out(2 * 3 * 4 * 7, -1.f);
  pad_volume_into(in.data(), 2, 1, 2, 3, 1, 1, 2, out.data());
  for (std::int64_t p = 0; p < 2; ++p) {
    for (std::int64_t z = 0; z < 3; ++z) {
      for (std::int64_t y = 0; y < 4; ++y) {
        for (std::int64_t x = 0; x < 7; ++x) {
          const bool inside = z == 1 && y >= 1 && y <= 2 && x >= 2 && x <= 4;
          const float want =
              inside ? in[static_cast<std::size_t>(p * 6 + (y - 1) * 3 +
                                                    (x - 2))]
                     : 0.f;
          EXPECT_EQ(out[static_cast<std::size_t>(((p * 3 + z) * 4 + y) * 7 +
                                                 x)],
                    want)
              << p << " " << z << " " << y << " " << x;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mtsr
