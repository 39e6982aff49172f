// Tests for the int8 inference path: quantise/dequantise round-trip error
// bounds, gemm_u8s8 bit-exactness against the scalar s32 reference across
// pool sizes, BatchNorm-fold parity against the unfused float stack,
// ZipNetInt8 conversion fidelity, int8 serving interchangeability with the
// float model (NRMSE), and the zero-arena-growth steady-state contract for
// int8 sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/srcnn.hpp"
#include "src/baselines/srcnn_int8.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/workspace.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/zipnet_int8.hpp"
#include "src/data/milan.hpp"
#include "src/metrics/metrics.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/quantized.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "src/tensor/quant.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

struct PoolGuard {
  ~PoolGuard() { set_num_threads(0); }
};

// ---- quantise / dequantise -------------------------------------------------

TEST(Quant, ActivationRoundTripErrorBound) {
  Rng rng(11);
  Tensor x = Tensor::uniform(Shape{512}, rng, -3.f, 5.f);
  quant::RangeObserver obs;
  obs.observe(x);
  const quant::ActQuant aq = quant::choose_act_quant(obs.lo, obs.hi);
  ASSERT_GT(aq.scale, 0.f);
  std::vector<std::uint8_t> q(static_cast<std::size_t>(x.size()));
  std::vector<float> back(static_cast<std::size_t>(x.size()));
  quant::quantize_u8(x.data(), x.size(), aq, q.data());
  quant::dequantize_u8(q.data(), x.size(), aq, back.data());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(q[static_cast<std::size_t>(i)],
              quant::quantize_value(x.flat(i), aq));
    // In-range values round-trip within half a quantisation step.
    EXPECT_LE(std::fabs(back[static_cast<std::size_t>(i)] - x.flat(i)),
              aq.scale * 0.5f + 1e-6f)
        << "at " << i;
  }
  // Zero is exactly representable (the zero point).
  EXPECT_EQ(quant::dequantize_value(quant::quantize_value(0.f, aq), aq), 0.f);
  // Out-of-range values clamp to the calibrated bounds.
  const float below =
      quant::dequantize_value(quant::quantize_value(obs.lo - 100.f, aq), aq);
  const float above =
      quant::dequantize_value(quant::quantize_value(obs.hi + 100.f, aq), aq);
  EXPECT_LE(std::fabs(below - (-aq.scale * aq.zero_point)), 1e-6f);
  EXPECT_LE(std::fabs(above - aq.scale * (255 - aq.zero_point)), 1e-6f);
}

TEST(Quant, DegenerateRangesAreSafe) {
  const quant::ActQuant all_zero = quant::choose_act_quant(0.f, 0.f);
  EXPECT_GT(all_zero.scale, 0.f);
  EXPECT_EQ(quant::quantize_value(0.f, all_zero), all_zero.zero_point);
  // Purely positive and purely negative ranges still bracket zero.
  const quant::ActQuant pos = quant::choose_act_quant(2.f, 6.f);
  EXPECT_EQ(quant::dequantize_value(quant::quantize_value(0.f, pos), pos),
            0.f);
  const quant::ActQuant neg = quant::choose_act_quant(-6.f, -2.f);
  EXPECT_EQ(quant::dequantize_value(quant::quantize_value(0.f, neg), neg),
            0.f);
}

// The quantisation formula with the float-to-int conversion ahead of the
// clamp; defined only while v + 0.5 fits an int.
std::uint8_t convert_then_clamp(float x, const quant::ActQuant& aq) {
  const float v = x * (1.f / aq.scale) + static_cast<float>(aq.zero_point);
  return static_cast<std::uint8_t>(
      std::clamp(static_cast<int>(v + 0.5f), 0, 255));
}

TEST(Quant, NonFiniteAndHugeInputsSaturate) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x = {nan,    -nan,   inf,  -inf,
                                1e30f,  -1e30f, 3e9f, -3e9f};
  const std::vector<std::uint8_t> want = {0, 0, 255, 0, 255, 0, 255, 0};
  const quant::ActQuant aq = quant::choose_act_quant(-3.f, 5.f);
  std::vector<std::uint8_t> batch(x.size());
  quant::quantize_u8(x.data(), static_cast<std::int64_t>(x.size()), aq,
                     batch.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(quant::quantize_value(x[i], aq), want[i]) << "x=" << x[i];
    EXPECT_EQ(batch[i], want[i]) << "x=" << x[i];
  }
}

TEST(Quant, ClampBeforeConvertMatchesConvertThenClamp) {
  Rng rng(12);
  for (const auto& [lo, hi] : {std::pair{-3.f, 5.f}, std::pair{0.f, 1.f},
                               std::pair{-1000.f, 10.f}}) {
    const quant::ActQuant aq = quant::choose_act_quant(lo, hi);
    const float zp = static_cast<float>(aq.zero_point);
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> x;
    // A dense grid over v in [-300, 560], ...
    for (int i = -300000; i <= 560000; ++i) {
      x.push_back((static_cast<float>(i) * 1e-3f - zp) * aq.scale);
    }
    // ... every rounding boundary v + 0.5 = q and its float neighbours, ...
    for (int q = -3; q <= 259; ++q) {
      const float edge = (static_cast<float>(q) - 0.5f - zp) * aq.scale;
      x.push_back(edge);
      x.push_back(std::nextafter(edge, -inf));
      x.push_back(std::nextafter(edge, inf));
    }
    // ... and random bit patterns whose v stays inside int range.
    while (x.size() < 1'000'000) {
      const auto bits = static_cast<std::uint32_t>(rng.next_u64());
      float f;
      std::memcpy(&f, &bits, sizeof f);
      if (std::isfinite(f) && std::fabs(f / aq.scale) < 1e9f) x.push_back(f);
    }
    std::vector<std::uint8_t> batch(x.size());
    quant::quantize_u8(x.data(), static_cast<std::int64_t>(x.size()), aq,
                       batch.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint8_t want = convert_then_clamp(x[i], aq);
      ASSERT_EQ(quant::quantize_value(x[i], aq), want) << "x=" << x[i];
      ASSERT_EQ(batch[i], want) << "x=" << x[i];
    }
  }
}

TEST(Quant, WeightRoundTripPerChannel) {
  Rng rng(12);
  const std::int64_t channels = 5, per = 37;
  Tensor w = Tensor::randn(Shape{channels, per}, rng, 0.3f);
  w.flat(0) = 2.5f;  // make channel 0's range distinct
  std::vector<std::int8_t> wq(static_cast<std::size_t>(channels * per));
  std::vector<float> scales(static_cast<std::size_t>(channels));
  quant::quantize_weights_per_channel(w.data(), channels, per, wq.data(),
                                      scales.data());
  for (std::int64_t o = 0; o < channels; ++o) {
    ASSERT_GT(scales[static_cast<std::size_t>(o)], 0.f);
    for (std::int64_t i = 0; i < per; ++i) {
      const std::int8_t q = wq[static_cast<std::size_t>(o * per + i)];
      EXPECT_LE(std::abs(static_cast<int>(q)), quant::kWeightQmax);
      const float back = scales[static_cast<std::size_t>(o)] * q;
      EXPECT_LE(std::fabs(back - w.flat(o * per + i)),
                scales[static_cast<std::size_t>(o)] * 0.5f + 1e-6f);
    }
  }
}

TEST(Quant, QuantizeTransposeMatchesElementwise) {
  Rng rng(13);
  const std::int64_t rows = 23, cols = 41;
  Tensor m = Tensor::uniform(Shape{rows, cols}, rng, -2.f, 2.f);
  const quant::ActQuant aq = quant::choose_act_quant(-2.f, 2.f);
  const std::int64_t stride = (rows + 3) / 4 * 4;
  std::vector<std::uint8_t> out(static_cast<std::size_t>(cols * stride),
                                0xEE);
  quant::quantize_transpose_u8(m.data(), rows, cols, aq, out.data(), stride);
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[static_cast<std::size_t>(c * stride + r)],
                quant::quantize_value(m.flat(r * cols + c), aq));
    }
    for (std::int64_t r = rows; r < stride; ++r) {
      EXPECT_EQ(out[static_cast<std::size_t>(c * stride + r)], 0);
    }
  }
}

TEST(Quant, ByteLoweringMatchesQuantisedFloatLowering) {
  Rng rng(24);
  const std::int64_t n = 2, c = 3, h = 7, w = 9;
  Tensor input = Tensor::uniform(Shape{n, c, h, w}, rng, -1.f, 3.f);
  const quant::ActQuant aq = quant::choose_act_quant(-1.f, 3.f);
  // Quantise-then-lower must equal lower-then-quantise: padding taps are
  // 0.0 in the float lowering and the zero point in the byte lowering.
  const Tensor fcols = im2col_batched(input, 3, 3, 1, 1, 1, 1);
  std::vector<std::uint8_t> qin(static_cast<std::size_t>(input.size()));
  quant::quantize_u8(input.data(), input.size(), aq, qin.data());
  std::vector<std::uint8_t> qcols(static_cast<std::size_t>(fcols.size()));
  im2col_batched_u8_into(qin.data(), n, c, h, w, 3, 3, 1, 1, 1, 1,
                         static_cast<std::uint8_t>(aq.zero_point),
                         qcols.data());
  for (std::int64_t i = 0; i < fcols.size(); ++i) {
    ASSERT_EQ(qcols[static_cast<std::size_t>(i)],
              quant::quantize_value(fcols.flat(i), aq))
        << "at " << i;
  }
  // Same contract for the 3-D lowering (stride 2 exercises the generic
  // non-unit-stride line path).
  Tensor vol = Tensor::uniform(Shape{n, c, 3, h, w}, rng, -1.f, 3.f);
  const Tensor fvol = vol2col_batched(vol, 3, 3, 3, 1, 2, 2, 1, 1, 1);
  std::vector<std::uint8_t> qvol(static_cast<std::size_t>(vol.size()));
  quant::quantize_u8(vol.data(), vol.size(), aq, qvol.data());
  std::vector<std::uint8_t> qvcols(static_cast<std::size_t>(fvol.size()));
  vol2col_batched_u8_into(qvol.data(), n, c, 3, h, w, 3, 3, 3, 1, 2, 2, 1, 1,
                          1, static_cast<std::uint8_t>(aq.zero_point),
                          qvcols.data());
  for (std::int64_t i = 0; i < fvol.size(); ++i) {
    ASSERT_EQ(qvcols[static_cast<std::size_t>(i)],
              quant::quantize_value(fvol.flat(i), aq))
        << "vol at " << i;
  }
}

TEST(Quant, ByteTransposeMatchesNaive) {
  Rng rng(25);
  // Sizes straddle the 16×16 SIMD tile and the 64-byte macro tile.
  for (const auto& [rows, cols] : std::vector<std::pair<std::int64_t,
                                                        std::int64_t>>{
           {16, 16}, {64, 64}, {17, 33}, {65, 130}, {1, 5}, {130, 3}}) {
    std::vector<std::uint8_t> src(static_cast<std::size_t>(rows * cols));
    for (auto& v : src) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::int64_t stride = (rows + 3) / 4 * 4;
    std::vector<std::uint8_t> dst(static_cast<std::size_t>(cols * stride),
                                  0xAB);
    transpose_u8_into(src.data(), rows, cols, dst.data(), stride);
    for (std::int64_t c = 0; c < cols; ++c) {
      for (std::int64_t r = 0; r < rows; ++r) {
        ASSERT_EQ(dst[static_cast<std::size_t>(c * stride + r)],
                  src[static_cast<std::size_t>(r * cols + c)])
            << rows << "x" << cols << " at (" << r << "," << c << ")";
      }
      for (std::int64_t r = rows; r < stride; ++r) {
        ASSERT_EQ(dst[static_cast<std::size_t>(c * stride + r)], 0);
      }
    }
  }
}

// ---- gemm_u8s8 -------------------------------------------------------------

struct GemmCase {
  std::int64_t m, k, n;
};

TEST(GemmU8S8, BitExactVsScalarReferenceAcrossPoolSizes) {
  PoolGuard guard;
  Rng rng(14);
  const GemmCase cases[] = {{1, 1, 1},    {4, 4, 16},   {37, 23, 17},
                            {129, 144, 32}, {8, 7, 100}, {3, 288, 96},
                            {65, 13, 1}};
  const int hw = num_threads();
  for (const auto& [m, k, n] : cases) {
    const std::int64_t kpad = (k + 3) / 4 * 4;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * kpad));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : b) {
      v = static_cast<std::int8_t>(
          rng.uniform_int(-quant::kWeightQmax, quant::kWeightQmax));
    }
    const PackedInt8B packed = pack_b_s8(b.data(), k, n);
    EXPECT_EQ(packed.kpad(), kpad);
    std::vector<float> col_scale(static_cast<std::size_t>(n));
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (auto& v : col_scale) v = 0.001f + 0.01f * rng.uniform();
    for (auto& v : bias) v = rng.uniform() - 0.5f;
    for (const bool with_bias : {true, false}) {
      for (const float alpha : {1.f, 0.1f}) {
        const QuantEpilogue ep{col_scale.data(), 37,
                               with_bias ? bias.data() : nullptr, alpha};
        std::vector<float> ref(static_cast<std::size_t>(m * n));
        gemm_u8s8_ref(a.data(), kpad, packed, m, ep, ref.data());
        for (const int pool : {1, 2, hw}) {
          set_num_threads(pool);
          std::vector<float> got(static_cast<std::size_t>(m * n), -1e30f);
          gemm_u8s8(a.data(), kpad, packed, m, ep, got.data());
          ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                ref.size() * sizeof(float)),
                    0)
              << "kernel " << gemm_u8s8_kernel_name() << " m=" << m
              << " k=" << k << " n=" << n << " pool=" << pool
              << " bias=" << with_bias << " alpha=" << alpha;
        }
        set_num_threads(0);
      }
    }
  }
}

TEST(GemmU8S8, DequantisedProductTracksFloatGemm) {
  Rng rng(15);
  const std::int64_t m = 50, k = 72, n = 24;
  Tensor af = Tensor::uniform(Shape{m, k}, rng, -1.f, 3.f);
  Tensor bf = Tensor::randn(Shape{k, n}, rng, 0.5f);

  // Quantise A per tensor (transposed source to exercise the production
  // path) and B per column.
  const quant::ActQuant aq = quant::choose_act_quant(-1.f, 3.f);
  const std::int64_t kpad = (k + 3) / 4 * 4;
  Tensor at = transpose(af);  // (k, m) so quantize_transpose yields (m, kpad)
  std::vector<std::uint8_t> a8(static_cast<std::size_t>(m * kpad));
  quant::quantize_transpose_u8(at.data(), k, m, aq, a8.data(), kpad);

  Tensor bt = transpose(bf);  // (n, k): per-"channel" rows
  std::vector<std::int8_t> wq(static_cast<std::size_t>(n * k));
  std::vector<float> scales(static_cast<std::size_t>(n));
  quant::quantize_weights_per_channel(bt.data(), n, k, wq.data(),
                                      scales.data());
  std::vector<std::int8_t> b8(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      b8[static_cast<std::size_t>(kk * n + j)] =
          wq[static_cast<std::size_t>(j * k + kk)];
    }
  }
  const PackedInt8B packed = pack_b_s8(b8.data(), k, n);
  std::vector<float> col_scale(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    col_scale[static_cast<std::size_t>(j)] =
        aq.scale * scales[static_cast<std::size_t>(j)];
  }
  const QuantEpilogue ep{col_scale.data(), aq.zero_point, nullptr, 1.f};
  std::vector<float> got(static_cast<std::size_t>(m * n));
  gemm_u8s8(a8.data(), kpad, packed, m, ep, got.data());

  const Tensor want = matmul(af, bf);
  // The zero-point compensation and per-column scales must reconstruct the
  // float product up to quantisation noise: a few percent in relative L2
  // for 8-bit operands at k = 72.
  double num = 0.0, den = 0.0, worst = 0.0;
  for (std::int64_t i = 0; i < want.size(); ++i) {
    const double err = want.flat(i) - got[i];
    num += err * err;
    den += static_cast<double>(want.flat(i)) * want.flat(i);
    worst = std::max(worst, std::fabs(err));
  }
  EXPECT_LE(std::sqrt(num / den), 0.03)
      << "quantisation error beyond the noise budget";
  EXPECT_GT(worst, 0.0);  // it IS quantised
}

TEST(GemmU8S8, PackRejectsSaturationUnsafeWeights) {
  std::vector<std::int8_t> b(16, 0);
  b[3] = 127;  // outside ±kWeightQmax
  EXPECT_THROW((void)pack_b_s8(b.data(), 4, 4), ContractViolation);
}

TEST(GemmU8S8, KernelNameIsKnown) {
  const std::string name = gemm_u8s8_kernel_name();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512" ||
              name == "vnni")
      << name;
  const char* forced = std::getenv("MTSR_SIMD");
  if (forced != nullptr && std::string(forced) == "scalar") {
    EXPECT_EQ(name, "scalar");
  }
}

// Every SIMD level this host can run must reproduce the scalar s32
// reference bit-for-bit.
TEST(GemmU8S8, ForcedKernelSweepBitExact) {
  Rng rng(41);
  const GemmCase cases[] = {{5, 288, 96}, {64, 48, 16}, {7, 40, 33}};
  const char* levels[] = {"scalar", "sse2", "avx2", "avx512", "vnni"};
  for (const auto& [m, k, n] : cases) {
    const std::int64_t kpad = (k + 3) / 4 * 4;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * kpad));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : b) {
      v = static_cast<std::int8_t>(
          rng.uniform_int(-quant::kWeightQmax, quant::kWeightQmax));
    }
    const PackedInt8B packed = pack_b_s8(b.data(), k, n);
    std::vector<float> col_scale(static_cast<std::size_t>(n));
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (auto& v : col_scale) v = 0.001f + 0.01f * rng.uniform();
    for (auto& v : bias) v = rng.uniform() - 0.5f;
    const QuantEpilogue ep{col_scale.data(), 19, bias.data(), 0.1f};
    std::vector<float> ref(static_cast<std::size_t>(m * n));
    gemm_u8s8_ref(a.data(), kpad, packed, m, ep, ref.data());
    int levels_run = 0;
    for (const char* level : levels) {
      std::vector<float> got(static_cast<std::size_t>(m * n), -1e30f);
      if (!gemm_u8s8_forced_kernel(level, a.data(), kpad, packed, m, ep,
                                   got.data())) {
        continue;  // host cannot execute this level
      }
      ++levels_run;
      ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                            ref.size() * sizeof(float)),
                0)
          << "level " << level << " m=" << m << " k=" << k << " n=" << n;
    }
    EXPECT_GE(levels_run, 2);  // scalar + sse2 run everywhere
  }
  EXPECT_FALSE(gemm_u8s8_forced_kernel("no-such-level", nullptr, 4,
                                       PackedInt8B{}, 1, QuantEpilogue{},
                                       nullptr));
}

// ---- quantised layers: BatchNorm-fold parity -------------------------------

// Runs a few training steps so BatchNorm's running statistics diverge from
// their initial values, then compares the folded calibration path against
// the unfused float [conv → BN → LeakyReLU] stack in inference mode.
template <typename Conv, typename MakeInput>
void expect_fold_parity(Conv& conv, nn::BatchNorm& bn, float alpha,
                        MakeInput&& make_input, auto&& build_quant) {
  Rng rng(16);
  nn::LeakyReLU lrelu(alpha);
  for (int step = 0; step < 3; ++step) {
    Workspace::Scope scope(Workspace::tls());
    Tensor x = make_input(rng);
    (void)bn.forward(conv.forward(x, true), true);  // update running stats
  }
  auto quantised = build_quant(conv, bn, alpha);

  Tensor x = make_input(rng);
  Tensor want;
  {
    Workspace::Scope scope(Workspace::tls());
    want = lrelu.forward(bn.forward(conv.forward(x, false), false), false);
  }
  Tensor got;
  {
    Workspace::Scope scope(Workspace::tls());
    got = quantised->forward_calibrate(x);
  }
  ASSERT_EQ(want.shape(), got.shape());
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(want.flat(i), got.flat(i), 1e-4)
        << "BN-fold parity failed at " << i;
  }

  // After freeze, the quantised forward tracks the float output within the
  // quantisation noise of the observed ranges.
  quantised->freeze();
  Tensor q8;
  {
    Workspace::Scope scope(Workspace::tls());
    q8 = quantised->forward(x);
  }
  ASSERT_EQ(want.shape(), q8.shape());
  double num = 0.0, den = 0.0;
  for (std::int64_t i = 0; i < want.size(); ++i) {
    num += (want.flat(i) - q8.flat(i)) * (want.flat(i) - q8.flat(i));
    den += want.flat(i) * want.flat(i);
  }
  EXPECT_LE(std::sqrt(num / want.size()),
            0.05 * std::sqrt(den / want.size()) + 1e-3)
      << "int8 forward strayed beyond quantisation noise";
}

TEST(QuantLayers, Conv2dFoldParityAndInt8Accuracy) {
  Rng rng(17);
  nn::Conv2d conv(5, 7, 3, 1, 1, rng);
  nn::BatchNorm bn(7);
  expect_fold_parity(
      conv, bn, 0.1f,
      [](Rng& r) { return Tensor::randn(Shape{2, 5, 9, 9}, r); },
      [](const nn::Conv2d& c, const nn::BatchNorm& b, float a) {
        return std::make_unique<nn::QuantConv2d>(c, &b, a);
      });
}

TEST(QuantLayers, Conv3dFoldParityAndInt8Accuracy) {
  Rng rng(18);
  nn::Conv3d conv(3, 4, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}, rng);
  nn::BatchNorm bn(4);
  expect_fold_parity(
      conv, bn, 0.1f,
      [](Rng& r) { return Tensor::randn(Shape{2, 3, 3, 7, 7}, r); },
      [](const nn::Conv3d& c, const nn::BatchNorm& b, float a) {
        return std::make_unique<nn::QuantConv3d>(c, &b, a);
      });
}

TEST(QuantLayers, ConvTranspose3dFoldParityAndInt8Accuracy) {
  Rng rng(20);
  nn::ConvTranspose3d deconv(3, 4, {3, 4, 4}, {1, 2, 2}, {1, 1, 1}, rng);
  nn::BatchNorm bn(4);
  expect_fold_parity(
      deconv, bn, 0.1f,
      [](Rng& r) { return Tensor::randn(Shape{2, 3, 3, 5, 5}, r); },
      [](const nn::ConvTranspose3d& c, const nn::BatchNorm& b, float a) {
        return std::make_unique<nn::QuantConvTranspose3d>(c, &b, a);
      });
}

TEST(QuantLayers, FreezeRequiresCalibration) {
  Rng rng(22);
  nn::Conv2d conv(2, 2, 3, 1, 1, rng);
  nn::QuantConv2d quantised(conv, nullptr);
  EXPECT_THROW(quantised.freeze(), ContractViolation);
  Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);
  EXPECT_THROW((void)quantised.forward(x), ContractViolation);
  {
    Workspace::Scope scope(Workspace::tls());
    (void)quantised.forward_calibrate(x);
  }
  quantised.freeze();
  EXPECT_THROW(quantised.freeze(), ContractViolation);
  EXPECT_THROW((void)quantised.forward_calibrate(x), ContractViolation);
}

// ---- ZipNetInt8 + serving --------------------------------------------------

data::TrafficDataset quant_dataset(std::uint64_t seed = 430,
                                   std::int64_t side = 16) {
  data::MilanConfig config;
  config.rows = side;
  config.cols = side;
  config.num_hotspots = 10;
  config.seed = seed;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(0, 40), 10);
}

core::PipelineConfig quant_pipeline_config() {
  core::PipelineConfig config;
  config.instance = data::MtsrInstance::kUp4;
  config.window = 8;
  config.temporal_length = 3;
  config.zipnet.base_channels = 3;
  config.zipnet.zipper_modules = 3;
  config.zipnet.zipper_channels = 6;
  config.zipnet.final_channels = 8;
  config.discriminator.base_channels = 2;
  config.pretrain_steps = 60;
  config.gan_rounds = 0;
  return config;
}

TEST(ZipNetInt8, ConvertRequiresCalibrationBatches) {
  data::TrafficDataset dataset = quant_dataset();
  core::MtsrPipeline pipeline(quant_pipeline_config(), dataset);
  EXPECT_THROW(
      (void)core::ZipNetInt8::convert(pipeline.generator(), {}),
      ContractViolation);
  core::ZipNetInt8 net(pipeline.generator());
  Rng rng(23);
  Tensor batch = Tensor::randn(Shape{2, 3, 2, 2}, rng);
  EXPECT_THROW((void)net.forward(batch), ContractViolation);  // not frozen
}

TEST(ZipNetInt8, MirrorsFloatGeneratorWithinQuantisationNoise) {
  data::TrafficDataset dataset = quant_dataset(431);
  core::MtsrPipeline pipeline(quant_pipeline_config(), dataset);
  const std::vector<Tensor> calibration = serving::calibration_batches(
      dataset, pipeline.window_layout(), 3, 8, 4);
  ASSERT_FALSE(calibration.empty());

  core::ZipNetInt8 net(pipeline.generator());
  // Calibration forward equals the float generator's inference forward to
  // fold-associativity error.
  {
    Workspace::Scope scope(Workspace::tls());
    Tensor want = pipeline.generator().forward(calibration[0], false);
    Tensor got = net.forward_calibrate(calibration[0]);
    ASSERT_EQ(want.shape(), got.shape());
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(want.flat(i), got.flat(i), 1e-4);
    }
  }
  for (std::size_t i = 1; i < calibration.size(); ++i) {
    Workspace::Scope scope(Workspace::tls());
    (void)net.forward_calibrate(calibration[i]);
  }
  net.freeze();
  EXPECT_TRUE(net.frozen());

  Workspace::Scope scope(Workspace::tls());
  Tensor want = pipeline.generator().forward(calibration[0], false);
  Tensor got = net.forward(calibration[0]);
  ASSERT_EQ(want.shape(), got.shape());
  double num = 0.0, den = 0.0;
  for (std::int64_t i = 0; i < want.size(); ++i) {
    num += (want.flat(i) - got.flat(i)) * (want.flat(i) - got.flat(i));
    den += want.flat(i) * want.flat(i);
  }
  EXPECT_LE(std::sqrt(num), 0.05 * std::sqrt(den) + 1e-3)
      << "int8 generator strayed beyond quantisation noise";
}

TEST(ServingInt8, InterchangeableWithFloatAndNrmseWithinTwoPercent) {
  data::TrafficDataset dataset = quant_dataset(432);
  core::PipelineConfig config = quant_pipeline_config();
  // The 2%-relative criterion presumes a usefully trained generator: with
  // random weights the prediction error is as large as the signal and any
  // quantisation noise lands on top of it coherently.
  config.pretrain_steps = 700;
  core::MtsrPipeline pipeline(config, dataset);
  pipeline.train();  // pretrain only (gan_rounds = 0)

  serving::Engine engine;
  engine.register_model("zipnet", std::make_shared<serving::ZipNetModel>(
                                      pipeline.generator()));
  engine.register_model(
      "zipnet-int8",
      serving::quantize_generator(
          pipeline.generator(),
          serving::calibration_batches(dataset, pipeline.window_layout(), 3,
                                       8, 6)));

  serving::SessionConfig stream = serving::SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4);
  const auto float_id = engine.open_session(stream);
  stream.model = "zipnet-int8";
  const auto int8_id = engine.open_session(stream);

  const data::SplitRange test = dataset.test_range();
  double nrmse_float = 0.0, nrmse_int8 = 0.0;
  int frames = 0;
  for (std::int64_t t = test.begin; t < std::min(test.begin + 5, test.end);
       ++t) {
    auto f = engine.push(float_id, dataset.frame(t));
    auto q = engine.push(int8_id, dataset.frame(t));
    ASSERT_EQ(f.has_value(), q.has_value());
    if (!f) continue;
    ASSERT_EQ(f->shape(), q->shape());
    nrmse_float += metrics::nrmse(*f, dataset.frame(t));
    nrmse_int8 += metrics::nrmse(*q, dataset.frame(t));
    ++frames;
  }
  ASSERT_GT(frames, 0);
  nrmse_float /= frames;
  nrmse_int8 /= frames;
  // Acceptance criterion: stitched-frame NRMSE within 2% relative of the
  // float path on the test split.
  EXPECT_LE(std::fabs(nrmse_int8 - nrmse_float), 0.02 * nrmse_float)
      << "float NRMSE " << nrmse_float << " vs int8 " << nrmse_int8;
}

TEST(ServingInt8, SteadyStateZeroArenaGrowth) {
  data::TrafficDataset dataset = quant_dataset(433);
  core::MtsrPipeline pipeline(quant_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet-int8",
      serving::quantize_generator(
          pipeline.generator(),
          serving::calibration_batches(dataset, pipeline.window_layout(), 3,
                                       8, 3)));
  serving::SessionConfig config = serving::SessionConfig::from_dataset(
      "zipnet-int8", data::MtsrInstance::kUp4, dataset, 8, 4);
  config.block = 2;  // 9 windows -> 5 blocks of 2, 2, 2, 2 and 1 windows
  const auto id = engine.open_session(config);
  // Every pass of the session runs in its shard's arena.
  const auto shard_arena = [&] {
    return engine.stats().shards.at(
        static_cast<std::size_t>(engine.session(id).shard())).arena;
  };

  for (std::int64_t t = 0; t < 3; ++t) {
    (void)engine.push(id, dataset.frame(t));
  }
  const Workspace::Stats warm = shard_arena();
  EXPECT_GT(warm.capacity_bytes, 0);

  for (std::int64_t t = 3; t < 8; ++t) {
    ASSERT_TRUE(engine.push(id, dataset.frame(t)).has_value());
  }
  const Workspace::Stats after = shard_arena();
  EXPECT_EQ(after.capacity_bytes, warm.capacity_bytes);
  EXPECT_EQ(after.growth_events, warm.growth_events);
  EXPECT_EQ(after.live_bytes, 0);
  EXPECT_GT(after.alloc_count, warm.alloc_count);

  const serving::Engine::Stats stats = engine.stats();
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_EQ(stats.sessions[0].model, "zipnet-int8");
}

// ---- SrcnnInt8 -------------------------------------------------------------

// A small SRCNN fitted on the dataset's training split.
std::unique_ptr<baselines::Srcnn> fitted_srcnn(
    const data::TrafficDataset& dataset, const data::ProbeLayout& layout) {
  baselines::SrcnnConfig config;
  config.channels1 = 8;
  config.channels2 = 4;
  config.window = 16;
  config.epochs = 40;
  config.crops_per_epoch = 32;
  config.learning_rate = 1e-3f;
  auto srcnn = std::make_unique<baselines::Srcnn>(config);
  const data::SplitRange train = dataset.train_range();
  std::vector<Tensor> frames;
  for (std::int64_t t = train.begin; t < train.end; ++t) {
    frames.push_back(dataset.frame(t));
  }
  srcnn->fit(frames, layout);
  return srcnn;
}

TEST(SrcnnInt8, ConversionGuardsAndCalibrationParity) {
  // Conversion requires a fitted float network.
  baselines::Srcnn unfitted;
  EXPECT_THROW(baselines::SrcnnInt8 bad(unfitted), ContractViolation);

  data::TrafficDataset dataset = quant_dataset(434);
  data::UniformProbeLayout layout(16, 16, 4);
  auto srcnn = fitted_srcnn(dataset, layout);

  baselines::SrcnnInt8 net(*srcnn);
  EXPECT_EQ(net.name(), "srcnn-int8");
  const Tensor frame = dataset.frame(dataset.test_range().begin);
  // Inference-only: the float fit is the only fit.
  EXPECT_THROW(net.fit({frame}, layout), ContractViolation);
  // Not frozen yet.
  EXPECT_THROW((void)net.super_resolve(frame, layout), ContractViolation);
  EXPECT_THROW((void)baselines::SrcnnInt8::convert(*srcnn, {}, layout),
               ContractViolation);

  // The calibration resolve reproduces the float resolver (no BN to fold:
  // only conv order-of-operations noise).
  Tensor want = srcnn->super_resolve(frame, layout);
  Tensor got = net.super_resolve_calibrate(frame, layout);
  ASSERT_EQ(want.shape(), got.shape());
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(want.flat(i), got.flat(i), 1e-3) << "at " << i;
  }
}

TEST(SrcnnInt8, ServingNrmseWithinTwoPercentOfFloat) {
  data::TrafficDataset dataset = quant_dataset(435);
  data::UniformProbeLayout layout(16, 16, 4);
  auto srcnn = fitted_srcnn(dataset, layout);

  // Calibrate on window-geometry crops — exactly what serving sessions
  // feed the resolver.
  data::UniformProbeLayout window_layout(8, 8, 4);
  const data::SplitRange train = dataset.train_range();
  std::vector<Tensor> calibration;
  for (std::int64_t t = train.begin;
       t < std::min(train.begin + 6, train.end); ++t) {
    calibration.push_back(crop2d(dataset.frame(t), 0, 0, 8, 8));
    calibration.push_back(crop2d(dataset.frame(t), 8, 8, 8, 8));
  }

  serving::Engine engine;
  engine.register_model("SRCNN",
                        std::make_shared<serving::BaselineModel>(*srcnn));
  engine.register_model(
      "srcnn-int8",
      serving::quantize_srcnn(*srcnn, calibration, window_layout));

  serving::SessionConfig stream = serving::SessionConfig::from_dataset(
      "SRCNN", data::MtsrInstance::kUp4, dataset, 8, 4);
  const auto float_id = engine.open_session(stream);
  stream.model = "srcnn-int8";
  const auto int8_id = engine.open_session(stream);

  const data::SplitRange test = dataset.test_range();
  double nrmse_float = 0.0, nrmse_int8 = 0.0;
  int frames = 0;
  for (std::int64_t t = test.begin; t < std::min(test.begin + 4, test.end);
       ++t) {
    auto f = engine.push(float_id, dataset.frame(t));
    auto q = engine.push(int8_id, dataset.frame(t));
    ASSERT_EQ(f.has_value(), q.has_value());
    if (!f) continue;
    ASSERT_EQ(f->shape(), q->shape());
    nrmse_float += metrics::nrmse(*f, dataset.frame(t));
    nrmse_int8 += metrics::nrmse(*q, dataset.frame(t));
    ++frames;
  }
  ASSERT_GT(frames, 0);
  nrmse_float /= frames;
  nrmse_int8 /= frames;
  // Acceptance criterion: the registered "srcnn-int8" model serves within
  // 2% relative of the float SRCNN baseline.
  EXPECT_LE(std::fabs(nrmse_int8 - nrmse_float), 0.02 * nrmse_float)
      << "float NRMSE " << nrmse_float << " vs int8 " << nrmse_int8;
}

}  // namespace
}  // namespace mtsr
