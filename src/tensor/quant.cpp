#include "src/tensor/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace mtsr::quant {
namespace {

// Round-half-up quantisation core. The clamp to [0, 255] runs in float
// before the conversion, so NaN (to 0), ±inf and values beyond int range
// never reach the float-to-int cast. Truncation rounds v + 0.5 < 0 the
// wrong way, but every such value clamps to 0 anyway, so the result
// matches round-half-up for all representable outputs.
inline std::uint8_t quantize_core(float x, float inv_scale, float zp) {
  const float v = x * inv_scale + zp + 0.5f;
  const float clamped = v > 0.f ? std::min(v, 255.f) : 0.f;
  return static_cast<std::uint8_t>(clamped);
}

}  // namespace

void RangeObserver::observe(const float* x, std::int64_t n) {
  if (n <= 0) return;
  float mn = seen ? lo : x[0];
  float mx = seen ? hi : x[0];
  double s = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
    s += x[i];
    sq += static_cast<double>(x[i]) * x[i];
  }
  lo = mn;
  hi = mx;
  sum += s;
  sum_sq += sq;
  count += n;
  seen = true;
}

ActQuant choose_act_quant(float lo, float hi) {
  check(lo <= hi, "choose_act_quant: inverted range");
  check(std::isfinite(lo) && std::isfinite(hi),
        "choose_act_quant: non-finite range");
  // Widen to include zero so lowering padding quantises exactly.
  lo = std::min(lo, 0.f);
  hi = std::max(hi, 0.f);
  ActQuant aq;
  aq.scale = (hi - lo) / 255.f;
  if (aq.scale <= 0.f) aq.scale = 1.f;  // degenerate all-zero range
  aq.zero_point = std::clamp(
      static_cast<std::int32_t>(std::lrintf(-lo / aq.scale)), 0, 255);
  return aq;
}

ActQuant choose_act_quant(const RangeObserver& observer) {
  check(observer.seen, "choose_act_quant: observer saw no data");
  // Full observed min/max — no tail clipping. Traffic activations are
  // heavy-tailed BY DESIGN (hotspots are the signal the network must
  // reconstruct); clipping the calibrated range at mean ± k·sigma was
  // measured to triple the int8 error because it saturates exactly the
  // hotspot cells NRMSE weights most.
  return choose_act_quant(observer.lo, observer.hi);
}

std::uint8_t quantize_value(float x, const ActQuant& aq) {
  return quantize_core(x, 1.f / aq.scale,
                       static_cast<float>(aq.zero_point));
}

float dequantize_value(std::uint8_t q, const ActQuant& aq) {
  return aq.scale * static_cast<float>(static_cast<std::int32_t>(q) -
                                       aq.zero_point);
}

void quantize_u8(const float* x, std::int64_t n, const ActQuant& aq,
                 std::uint8_t* out) {
  const float inv = 1.f / aq.scale;
  const float zp = static_cast<float>(aq.zero_point);
  parallel_for_chunks(n, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) out[i] = quantize_core(x[i], inv, zp);
  });
}

void dequantize_u8(const std::uint8_t* q, std::int64_t n, const ActQuant& aq,
                   float* out) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = dequantize_value(q[i], aq);
}

void quantize_transpose_u8(const float* src, std::int64_t rows,
                           std::int64_t cols, const ActQuant& aq,
                           std::uint8_t* out, std::int64_t row_stride) {
  check(row_stride >= rows, "quantize_transpose_u8: row_stride < rows");
  const float inv = 1.f / aq.scale;
  const float zp = static_cast<float>(aq.zero_point);
  // 32×32 tiles keep the strided read stream in L1 (cf. transpose_into).
  constexpr std::int64_t kTile = 32;
  parallel_for_grain(cols, kTile, [&](std::int64_t c0, std::int64_t c1, int) {
    for (std::int64_t ct = c0; ct < c1; ct += kTile) {
      const std::int64_t cmax = std::min(c1, ct + kTile);
      for (std::int64_t rt = 0; rt < rows; rt += kTile) {
        const std::int64_t rmax = std::min(rows, rt + kTile);
        for (std::int64_t c = ct; c < cmax; ++c) {
          std::uint8_t* orow = out + c * row_stride;
          for (std::int64_t r = rt; r < rmax; ++r) {
            orow[r] = quantize_core(src[r * cols + c], inv, zp);
          }
        }
      }
      // Zero the k-alignment tail once per output row.
      if (row_stride > rows) {
        for (std::int64_t c = ct; c < cmax; ++c) {
          std::memset(out + c * row_stride + rows, 0,
                      static_cast<std::size_t>(row_stride - rows));
        }
      }
    }
  });
}

void quantize_batch_transpose_u8(const float* src, std::int64_t n,
                                 std::int64_t c, std::int64_t inner,
                                 const ActQuant& aq, std::uint8_t* out,
                                 std::int64_t row_stride) {
  check(row_stride >= c, "quantize_batch_transpose_u8: row_stride < c");
  const float inv = 1.f / aq.scale;
  const float zp = static_cast<float>(aq.zero_point);
  parallel_for(n, [&](std::int64_t i) {
    const float* sample = src + i * c * inner;
    std::uint8_t* block = out + i * inner * row_stride;
    constexpr std::int64_t kTile = 32;
    for (std::int64_t pt = 0; pt < inner; pt += kTile) {
      const std::int64_t pmax = std::min(inner, pt + kTile);
      for (std::int64_t cht = 0; cht < c; cht += kTile) {
        const std::int64_t chmax = std::min(c, cht + kTile);
        for (std::int64_t pos = pt; pos < pmax; ++pos) {
          std::uint8_t* orow = block + pos * row_stride;
          for (std::int64_t ch = cht; ch < chmax; ++ch) {
            orow[ch] = quantize_core(sample[ch * inner + pos], inv, zp);
          }
        }
      }
    }
    if (row_stride > c) {
      for (std::int64_t pos = 0; pos < inner; ++pos) {
        std::memset(block + pos * row_stride + c, 0,
                    static_cast<std::size_t>(row_stride - c));
      }
    }
  });
}

namespace {

// Quantisation MSE of one channel row at clip threshold `clip`.
double channel_quant_mse(const float* row, std::int64_t n, float clip) {
  constexpr int qmax = kWeightQmax;
  const float scale = clip / static_cast<float>(qmax);
  const float inv = 1.f / scale;
  double mse = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const int q = std::clamp(static_cast<int>(std::lrintf(row[i] * inv)),
                             -qmax, qmax);
    const double err = static_cast<double>(row[i]) - scale * q;
    mse += err * err;
  }
  return mse;
}

}  // namespace

void quantize_weights_per_channel(const float* w, std::int64_t channels,
                                  std::int64_t per_channel, std::int8_t* wq,
                                  float* scales, bool mse_clip) {
  check(channels > 0 && per_channel > 0,
        "quantize_weights_per_channel: empty weight");
  constexpr int qmax = kWeightQmax;
  parallel_for(channels, [&](std::int64_t o) {
    const float* row = w + o * per_channel;
    float amax = 0.f;
    for (std::int64_t i = 0; i < per_channel; ++i) {
      amax = std::max(amax, std::fabs(row[i]));
    }
    float clip = amax;
    if (mse_clip && amax > 0.f) {
      // Grid-search the clip threshold: a channel whose range is set by a
      // single outlier tap trades a bounded clip error on that tap for a
      // finer step on the bulk.
      double best = channel_quant_mse(row, per_channel, amax);
      for (int step = 1; step <= 10; ++step) {
        const float candidate =
            amax * (1.f - 0.05f * static_cast<float>(step));
        const double mse = channel_quant_mse(row, per_channel, candidate);
        if (mse < best) {
          best = mse;
          clip = candidate;
        }
      }
    }
    const float scale =
        clip > 0.f ? clip / static_cast<float>(qmax) : 1.f;
    scales[o] = scale;
    const float inv = 1.f / scale;
    std::int8_t* qrow = wq + o * per_channel;
    for (std::int64_t i = 0; i < per_channel; ++i) {
      const int q = static_cast<int>(std::lrintf(row[i] * inv));
      qrow[i] = static_cast<std::int8_t>(std::clamp(q, -qmax, qmax));
    }
  });
}

}  // namespace mtsr::quant
