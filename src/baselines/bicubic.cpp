#include "src/baselines/bicubic.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::baselines {
namespace {

/// Catmull-Rom kernel (a = -0.5), the classic bicubic weighting.
float cubic_kernel(float x) {
  x = std::abs(x);
  if (x <= 1.f) {
    return 1.5f * x * x * x - 2.5f * x * x + 1.f;
  }
  if (x < 2.f) {
    return -0.5f * x * x * x + 2.5f * x * x - 4.f * x + 2.f;
  }
  return 0.f;
}

// The four clamped source indices and Catmull-Rom weights of one output
// coordinate along one axis.
struct Taps {
  std::int64_t index[4];
  float weight[4];
};

// Taps of every output coordinate along an axis of `in_len` samples
// upsampled by `factor`. Cell-centre alignment: fine centre (o+0.5) maps to
// coarse coordinate (o+0.5)/factor - 0.5 in sample index space.
std::vector<Taps> axis_taps(std::int64_t in_len, int factor) {
  const float inv = 1.f / static_cast<float>(factor);
  std::vector<Taps> taps(static_cast<std::size_t>(in_len * factor));
  for (std::size_t o = 0; o < taps.size(); ++o) {
    const float u = (static_cast<float>(o) + 0.5f) * inv - 0.5f;
    const auto u0 = static_cast<std::int64_t>(std::floor(u));
    const float fu = u - static_cast<float>(u0);
    for (int i = 0; i < 4; ++i) {
      taps[o].index[i] = std::clamp<std::int64_t>(u0 - 1 + i, 0, in_len - 1);
      taps[o].weight[i] = cubic_kernel(fu - static_cast<float>(i - 1));
    }
  }
  return taps;
}

}  // namespace

Tensor bicubic_upsample(const Tensor& coarse, int factor) {
  check(coarse.rank() == 2, "bicubic_upsample expects a rank-2 grid");
  check(factor >= 1, "bicubic_upsample requires factor >= 1");
  const std::int64_t h = coarse.dim(0), w = coarse.dim(1);
  const std::vector<Taps> rows = axis_taps(h, factor);
  const std::vector<Taps> cols = axis_taps(w, factor);
  Tensor out(Shape{h * factor, w * factor});
  const float* src = coarse.data();
  float* dst = out.data();
  for (const Taps& rt : rows) {
    const float* line[4];
    for (int i = 0; i < 4; ++i) line[i] = src + rt.index[i] * w;
    for (const Taps& ct : cols) {
      float acc = 0.f;
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          acc += rt.weight[i] * ct.weight[j] * line[i][ct.index[j]];
        }
      }
      *dst++ = acc;
    }
  }
  return out;
}

Tensor bicubic_upsample_adjoint(const Tensor& grad_fine, int factor) {
  check(grad_fine.rank() == 2, "bicubic_upsample_adjoint expects rank-2");
  check(factor >= 1, "bicubic_upsample_adjoint requires factor >= 1");
  const std::int64_t oh = grad_fine.dim(0), ow = grad_fine.dim(1);
  check(oh % factor == 0 && ow % factor == 0,
        "bicubic_upsample_adjoint: fine dims must be multiples of factor");
  const std::int64_t w = ow / factor;
  const std::vector<Taps> rows = axis_taps(oh / factor, factor);
  const std::vector<Taps> cols = axis_taps(w, factor);
  Tensor out(Shape{oh / factor, w});
  const float* src = grad_fine.data();
  float* dst = out.data();
  for (const Taps& rt : rows) {
    for (const Taps& ct : cols) {
      const float g = *src++;
      if (g == 0.f) continue;
      for (int i = 0; i < 4; ++i) {
        float* line = dst + rt.index[i] * w;
        for (int j = 0; j < 4; ++j) {
          line[ct.index[j]] += g * rt.weight[i] * ct.weight[j];
        }
      }
    }
  }
  return out;
}

Tensor BicubicInterpolator::super_resolve(
    const Tensor& fine_frame, const data::ProbeLayout& layout) const {
  if (const auto* uniform =
          dynamic_cast<const data::UniformProbeLayout*>(&layout)) {
    return bicubic_upsample(uniform->coarsen(fine_frame), uniform->factor());
  }
  // Heterogeneous layout: no regular coarse grid. Pool the spread map to
  // the finest probe size and resample.
  Tensor spread = layout.spread_average(fine_frame);
  return bicubic_upsample(avg_pool2d(spread, 2), 2);
}

}  // namespace mtsr::baselines
