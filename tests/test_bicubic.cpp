// Tests for bicubic interpolation: exactness on constant and linear fields,
// smoothness, and the SuperResolver plumbing (incl. the Uniform baseline).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/baselines/bicubic.hpp"
#include "src/baselines/super_resolver.hpp"
#include "src/common/rng.hpp"
#include "src/data/probes.hpp"
#include "src/metrics/metrics.hpp"

namespace mtsr::baselines {
namespace {

TEST(Bicubic, ReproducesConstantFieldExactly) {
  Tensor coarse = Tensor::full(Shape{4, 4}, 3.7f);
  Tensor up = bicubic_upsample(coarse, 3);
  ASSERT_EQ(up.shape(), Shape({12, 12}));
  for (std::int64_t i = 0; i < up.size(); ++i) {
    EXPECT_NEAR(up.flat(i), 3.7f, 1e-5);
  }
}

TEST(Bicubic, ReproducesLinearRampInInterior) {
  // Catmull-Rom interpolation is exact for linear signals away from the
  // clamped borders.
  Tensor coarse(Shape{6, 6});
  for (std::int64_t r = 0; r < 6; ++r) {
    for (std::int64_t c = 0; c < 6; ++c) {
      coarse.at(r, c) = static_cast<float>(2 * r + 3 * c);
    }
  }
  Tensor up = bicubic_upsample(coarse, 2);
  // Interior fine cell (r, c) sits at coarse coordinate (r+0.5)/2 - 0.5.
  for (std::int64_t r = 4; r < 8; ++r) {
    for (std::int64_t c = 4; c < 8; ++c) {
      const double cr = (r + 0.5) / 2.0 - 0.5;
      const double cc = (c + 0.5) / 2.0 - 0.5;
      EXPECT_NEAR(up.at(r, c), 2.0 * cr + 3.0 * cc, 1e-4);
    }
  }
}

TEST(Bicubic, Factor1IsIdentity) {
  Rng rng(70);
  Tensor coarse = Tensor::randn(Shape{5, 5}, rng);
  Tensor up = bicubic_upsample(coarse, 1);
  for (std::int64_t i = 0; i < coarse.size(); ++i) {
    EXPECT_NEAR(up.flat(i), coarse.flat(i), 1e-5);
  }
}

TEST(Bicubic, AdjointInnerProductIdentity) {
  // <B x, y> == <x, Bᵀ y> — required for backpropagating through bicubic
  // residual bases.
  Rng rng(73);
  Tensor x = Tensor::randn(Shape{5, 4}, rng);
  Tensor y = Tensor::randn(Shape{20, 16}, rng);
  Tensor bx = bicubic_upsample(x, 4);
  Tensor bty = bicubic_upsample_adjoint(y, 4);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < bx.size(); ++i) {
    lhs += static_cast<double>(bx.flat(i)) * y.flat(i);
  }
  for (std::int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x.flat(i)) * bty.flat(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// Plain references: per-tap clamped at() reads and scatters, in the same
// arithmetic order as the library (rows outer, columns inner).
float reference_kernel(float x) {
  x = std::abs(x);
  if (x <= 1.f) return 1.5f * x * x * x - 2.5f * x * x + 1.f;
  if (x < 2.f) return -0.5f * x * x * x + 2.5f * x * x - 4.f * x + 2.f;
  return 0.f;
}

struct ReferenceTaps {
  std::int64_t base;
  float weight[4];
};

ReferenceTaps reference_taps(std::int64_t o, int factor) {
  const float inv = 1.f / static_cast<float>(factor);
  const float u = (static_cast<float>(o) + 0.5f) * inv - 0.5f;
  ReferenceTaps t{static_cast<std::int64_t>(std::floor(u)), {}};
  const float fu = u - static_cast<float>(t.base);
  for (int i = 0; i < 4; ++i) {
    t.weight[i] = reference_kernel(fu - static_cast<float>(i - 1));
  }
  return t;
}

Tensor reference_upsample(const Tensor& coarse, int factor) {
  const std::int64_t h = coarse.dim(0), w = coarse.dim(1);
  Tensor out(Shape{h * factor, w * factor});
  for (std::int64_t r = 0; r < h * factor; ++r) {
    const ReferenceTaps rt = reference_taps(r, factor);
    for (std::int64_t c = 0; c < w * factor; ++c) {
      const ReferenceTaps ct = reference_taps(c, factor);
      float acc = 0.f;
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          acc += rt.weight[i] * ct.weight[j] *
                 coarse.at(std::clamp<std::int64_t>(rt.base - 1 + i, 0, h - 1),
                           std::clamp<std::int64_t>(ct.base - 1 + j, 0, w - 1));
        }
      }
      out.at(r, c) = acc;
    }
  }
  return out;
}

Tensor reference_adjoint(const Tensor& grad_fine, int factor) {
  const std::int64_t h = grad_fine.dim(0) / factor;
  const std::int64_t w = grad_fine.dim(1) / factor;
  Tensor out(Shape{h, w});
  for (std::int64_t r = 0; r < h * factor; ++r) {
    const ReferenceTaps rt = reference_taps(r, factor);
    for (std::int64_t c = 0; c < w * factor; ++c) {
      const ReferenceTaps ct = reference_taps(c, factor);
      const float g = grad_fine.at(r, c);
      if (g == 0.f) continue;
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          out.at(std::clamp<std::int64_t>(rt.base - 1 + i, 0, h - 1),
                 std::clamp<std::int64_t>(ct.base - 1 + j, 0, w - 1)) +=
              g * rt.weight[i] * ct.weight[j];
        }
      }
    }
  }
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(Bicubic, BitExactAgainstPerTapReference) {
  Rng rng(74);
  const Shape grids[] = {Shape{1, 1}, Shape{2, 3}, Shape{7, 5}, Shape{4, 9}};
  for (const Shape& grid : grids) {
    for (const int factor : {1, 2, 4, 5}) {
      const Tensor coarse = Tensor::randn(grid, rng);
      EXPECT_TRUE(same_bits(bicubic_upsample(coarse, factor),
                            reference_upsample(coarse, factor)))
          << grid.to_string() << " x" << factor;
      Tensor grad = Tensor::randn(
          Shape{grid.dim(0) * factor, grid.dim(1) * factor}, rng);
      for (std::int64_t i = 0; i < grad.size(); i += 3) grad.flat(i) = 0.f;
      EXPECT_TRUE(same_bits(bicubic_upsample_adjoint(grad, factor),
                            reference_adjoint(grad, factor)))
          << grid.to_string() << " x" << factor << " adjoint";
    }
  }
}

TEST(Bicubic, SmootherThanUniformOnSmoothFields) {
  // On a smooth Gaussian bump, bicubic reconstruction should beat the
  // blocky uniform spread — the ordering the paper's Fig. 9 shows.
  const std::int64_t side = 32;
  Tensor fine(Shape{side, side});
  for (std::int64_t r = 0; r < side; ++r) {
    for (std::int64_t c = 0; c < side; ++c) {
      const double dr = static_cast<double>(r) - 16, dc = static_cast<double>(c) - 16;
      fine.at(r, c) =
          static_cast<float>(100.0 * std::exp(-(dr * dr + dc * dc) / 80.0)) +
          10.f;
    }
  }
  data::UniformProbeLayout layout(side, side, 4);
  UniformInterpolator uniform;
  BicubicInterpolator bicubic;
  const double err_uniform =
      metrics::nrmse(uniform.super_resolve(fine, layout), fine);
  const double err_bicubic =
      metrics::nrmse(bicubic.super_resolve(fine, layout), fine);
  EXPECT_LT(err_bicubic, err_uniform);
}

TEST(Bicubic, HandlesMixtureLayout) {
  Rng rng(71);
  data::MixtureProbeLayout layout(40, 40);
  Tensor fine = Tensor::uniform(Shape{40, 40}, rng, 10.f, 100.f);
  BicubicInterpolator bicubic;
  Tensor out = bicubic.super_resolve(fine, layout);
  EXPECT_EQ(out.shape(), fine.shape());
  EXPECT_TRUE(out.all_finite());
}

TEST(UniformBaseline, EqualsSpreadAverage) {
  Rng rng(72);
  data::UniformProbeLayout layout(8, 8, 2);
  Tensor fine = Tensor::uniform(Shape{8, 8}, rng, 1.f, 9.f);
  UniformInterpolator uniform;
  Tensor out = uniform.super_resolve(fine, layout);
  Tensor expected = layout.spread_average(fine);
  for (std::int64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.flat(i), expected.flat(i));
  }
  EXPECT_EQ(uniform.name(), "Uniform");
}

}  // namespace
}  // namespace mtsr::baselines
