// Window-cropping data augmentation and moving-average stitching (Section 4
// and Fig. 7 of the paper).
//
// The paper crops each 100×100 snapshot into 80×80 windows at every 1-cell
// offset, producing 441 sub-frames per snapshot, and reconstructs full-grid
// predictions from overlapping windows with a moving-average filter. Both
// operations are implemented here, parameterised over window size and
// stride so CPU-scale geometries work identically.
//
// A training sample pairs
//   input  — S consecutive coarse windows (tensor (S, ci, ci)), obtained by
//            applying a window-local probe layout to the cropped fine
//            frames (probes are aggregated inside the window, which is what
//            makes arbitrary offsets legal), with
//   target — the fine window of the most recent frame (tensor (w, w)).
#pragma once

#include <cstdint>
#include <vector>

#include "src/data/dataset.hpp"
#include "src/data/probes.hpp"
#include "src/tensor/tensor.hpp"

namespace mtsr::data {

/// Identifies one training sample: predict frame `t` from frames
/// [t-S+1, t], all cropped at window origin (r0, c0).
struct SampleSpec {
  std::int64_t t;
  std::int64_t r0;
  std::int64_t c0;
};

/// A ready training pair (normalised units).
struct Sample {
  Tensor input;   ///< (S, ci, ci) coarse window sequence
  Tensor target;  ///< (w, w) fine window of frame t
};

/// Enumerates all sample specs for frames [t_begin, t_end) of a dataset,
/// with the window cropped at every offset multiple of `stride`
/// (stride 1 reproduces the paper's 441 windows for 100→80).
[[nodiscard]] std::vector<SampleSpec> enumerate_samples(
    std::int64_t rows, std::int64_t cols, std::int64_t window,
    std::int64_t stride, std::int64_t t_begin, std::int64_t t_end,
    std::int64_t temporal_length);

/// Number of window positions per snapshot for the given geometry (e.g.
/// 441 for rows=cols=100, window=80, stride=1).
[[nodiscard]] std::int64_t windows_per_snapshot(std::int64_t rows,
                                                std::int64_t cols,
                                                std::int64_t window,
                                                std::int64_t stride);

/// Builds one (input, target) pair from normalised dataset frames.
/// `window_layout` must be a layout constructed for (window × window).
[[nodiscard]] Sample make_sample(const TrafficDataset& dataset,
                                 const ProbeLayout& window_layout,
                                 const SampleSpec& spec,
                                 std::int64_t temporal_length,
                                 std::int64_t window);

/// Window origins along one axis: multiples of `stride`, with a final
/// origin clamped to the boundary so the whole extent is covered even when
/// stride does not divide (extent - window).
[[nodiscard]] std::vector<std::int64_t> stitch_origins(std::int64_t extent,
                                                       std::int64_t window,
                                                       std::int64_t stride);

/// The window tiling of one full-grid stitched prediction: per-axis origins
/// plus the sub-batch block size (windows per predictor pass). Window i (in
/// row-major window order) covers origin(i) .. origin(i) + window.
struct StitchPlan {
  std::vector<std::int64_t> row_origins;
  std::vector<std::int64_t> col_origins;
  std::int64_t rows = 0;    ///< full-grid extent the windows tile
  std::int64_t cols = 0;
  std::int64_t window = 0;
  std::int64_t block = 0;

  [[nodiscard]] std::int64_t window_count() const {
    return static_cast<std::int64_t>(row_origins.size() * col_origins.size());
  }
  [[nodiscard]] std::int64_t block_count() const {
    return (window_count() + block - 1) / block;
  }
  [[nodiscard]] std::int64_t row_origin(std::int64_t i) const {
    return row_origins[static_cast<std::size_t>(
        i / static_cast<std::int64_t>(col_origins.size()))];
  }
  [[nodiscard]] std::int64_t col_origin(std::int64_t i) const {
    return col_origins[static_cast<std::size_t>(
        i % static_cast<std::int64_t>(col_origins.size()))];
  }
};

/// Builds the stitch plan for a grid, `block` (> 0) windows per pass.
[[nodiscard]] StitchPlan make_stitch_plan(std::int64_t rows, std::int64_t cols,
                                          std::int64_t window,
                                          std::int64_t stride,
                                          std::int64_t block);

/// Accumulates one block's predictions (windows [w0, w0 + preds.dim(0)) of
/// the plan, preds of shape (B, w, w)) into the moving-average accumulators
/// `acc` and `weight` (both (rows, cols), zero-initialised). Additions run
/// in ascending window order, so the float arithmetic is bit-identical
/// regardless of how blocks were produced (alone or in a fused pass).
void stitch_accumulate(const StitchPlan& plan, const Tensor& preds,
                       std::int64_t w0, Tensor& acc, Tensor& weight);

/// Row-range form for fused cross-session passes: accumulates `count`
/// windows starting at row `preds_row` of a (B, w, w) prediction batch that
/// may hold several sessions' blocks — the scatter half of batch fusion
/// reads its slice in place instead of copying rows out. Bitwise identical
/// to slicing the rows into a fresh tensor and calling the overload above.
void stitch_accumulate(const StitchPlan& plan, const Tensor& preds,
                       std::int64_t preds_row, std::int64_t count,
                       std::int64_t w0, Tensor& acc, Tensor& weight);

/// Divides the accumulated predictions by their coverage counts in place —
/// the final moving-average step.
void stitch_finalize(Tensor& acc, const Tensor& weight);

}  // namespace mtsr::data
