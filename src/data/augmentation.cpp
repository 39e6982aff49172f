#include "src/data/augmentation.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::data {

std::vector<std::int64_t> stitch_origins(std::int64_t extent,
                                         std::int64_t window,
                                         std::int64_t stride) {
  check(window > 0 && stride > 0 && window <= extent,
        "stitch_origins: bad geometry");
  std::vector<std::int64_t> origins;
  for (std::int64_t o = 0; o + window <= extent; o += stride) {
    origins.push_back(o);
  }
  if (origins.empty() || origins.back() + window < extent) {
    origins.push_back(extent - window);
  }
  return origins;
}

StitchPlan make_stitch_plan(std::int64_t rows, std::int64_t cols,
                            std::int64_t window, std::int64_t stride,
                            std::int64_t block) {
  check(block > 0, "make_stitch_plan: block must be positive");
  StitchPlan plan;
  plan.row_origins = stitch_origins(rows, window, stride);
  plan.col_origins = stitch_origins(cols, window, stride);
  plan.rows = rows;
  plan.cols = cols;
  plan.window = window;
  plan.block = block;
  return plan;
}

void stitch_accumulate(const StitchPlan& plan, const Tensor& preds,
                       std::int64_t w0, Tensor& acc, Tensor& weight) {
  stitch_accumulate(plan, preds, 0, preds.dim(0), w0, acc, weight);
}

void stitch_accumulate(const StitchPlan& plan, const Tensor& preds,
                       std::int64_t preds_row, std::int64_t count,
                       std::int64_t w0, Tensor& acc, Tensor& weight) {
  const std::int64_t window = plan.window;
  check(preds.rank() == 3 && preds.dim(1) == window && preds.dim(2) == window,
        "stitch_accumulate: predictions have the wrong window shape");
  check(preds_row >= 0 && count >= 0 && preds_row + count <= preds.dim(0),
        "stitch_accumulate: prediction row range out of batch");
  check(w0 >= 0 && w0 + count <= plan.window_count(),
        "stitch_accumulate: window range out of plan");
  const float* pp = preds.data() + preds_row * window * window;
  for (std::int64_t i = w0; i < w0 + count; ++i) {
    const std::int64_t r0 = plan.row_origin(i);
    const std::int64_t c0 = plan.col_origin(i);
    const float* pred = pp + (i - w0) * window * window;
    for (std::int64_t r = 0; r < window; ++r) {
      for (std::int64_t c = 0; c < window; ++c) {
        acc.at(r0 + r, c0 + c) += pred[r * window + c];
        weight.at(r0 + r, c0 + c) += 1.f;
      }
    }
  }
}

void stitch_finalize(Tensor& acc, const Tensor& weight) {
  for (std::int64_t i = 0; i < acc.size(); ++i) {
    check_internal(weight.flat(i) > 0.f, "stitching left uncovered cells");
    acc.flat(i) /= weight.flat(i);
  }
}

std::int64_t windows_per_snapshot(std::int64_t rows, std::int64_t cols,
                                  std::int64_t window, std::int64_t stride) {
  check(window > 0 && stride > 0 && window <= rows && window <= cols,
        "windows_per_snapshot: bad geometry");
  const auto r = static_cast<std::int64_t>(
      stitch_origins(rows, window, stride).size());
  const auto c = static_cast<std::int64_t>(
      stitch_origins(cols, window, stride).size());
  return r * c;
}

std::vector<SampleSpec> enumerate_samples(std::int64_t rows,
                                          std::int64_t cols,
                                          std::int64_t window,
                                          std::int64_t stride,
                                          std::int64_t t_begin,
                                          std::int64_t t_end,
                                          std::int64_t temporal_length) {
  check(window > 0 && stride > 0 && window <= rows && window <= cols,
        "enumerate_samples: bad geometry");
  check(temporal_length >= 1, "enumerate_samples: S must be >= 1");
  const auto row_origins = stitch_origins(rows, window, stride);
  const auto col_origins = stitch_origins(cols, window, stride);
  std::vector<SampleSpec> specs;
  const std::int64_t first_t = std::max(t_begin, temporal_length - 1);
  for (std::int64_t t = first_t; t < t_end; ++t) {
    for (std::int64_t r0 : row_origins) {
      for (std::int64_t c0 : col_origins) {
        specs.push_back({t, r0, c0});
      }
    }
  }
  return specs;
}

Sample make_sample(const TrafficDataset& dataset,
                   const ProbeLayout& window_layout, const SampleSpec& spec,
                   std::int64_t temporal_length, std::int64_t window) {
  check(window_layout.rows() == window && window_layout.cols() == window,
        "make_sample: layout geometry must match the window");
  check(spec.t >= temporal_length - 1 && spec.t < dataset.frame_count(),
        "make_sample: spec.t out of range");
  check(spec.r0 >= 0 && spec.c0 >= 0 && spec.r0 + window <= dataset.rows() &&
            spec.c0 + window <= dataset.cols(),
        "make_sample: window out of range");

  std::vector<Tensor> coarse_frames;
  coarse_frames.reserve(static_cast<std::size_t>(temporal_length));
  for (std::int64_t s = 0; s < temporal_length; ++s) {
    const std::int64_t t = spec.t - temporal_length + 1 + s;
    Tensor fine = crop2d(dataset.normalized_frame(t), spec.r0, spec.c0,
                         window, window);
    coarse_frames.push_back(window_layout.coarsen(fine));
  }
  Sample sample;
  sample.input = stack0(coarse_frames);  // (S, ci, ci)
  sample.target = crop2d(dataset.normalized_frame(spec.t), spec.r0, spec.c0,
                         window, window);
  return sample;
}

}  // namespace mtsr::data
