#include "src/baselines/srcnn.hpp"

#include <cmath>

#include "src/baselines/bicubic.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/workspace.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/replica.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::baselines {

Srcnn::Srcnn(SrcnnConfig config) : config_(config) {
  check(config_.channels1 > 0 && config_.channels2 > 0,
        "SrcnnConfig: bad channel widths");
  check(config_.window >= 16, "SrcnnConfig: window must be >= 16");
}

Srcnn::~Srcnn() = default;

void Srcnn::fit(const std::vector<Tensor>& fine_frames,
                const data::ProbeLayout& layout) {
  check(!fine_frames.empty(), "Srcnn::fit: no training frames");
  Rng rng(config_.seed);

  // Normalisation statistics over the training frames (deterministic
  // slot-order reduction on the pool).
  const auto frame_count = static_cast<std::int64_t>(fine_frames.size());
  std::int64_t count = 0;
  for (const Tensor& f : fine_frames) count += f.size();
  using Stats = std::pair<double, double>;  // (sum, sum of squares)
  const auto [sum, sq] = parallel_reduce(
      frame_count, Stats{0.0, 0.0},
      [&](std::int64_t begin, std::int64_t end) {
        Stats acc{0.0, 0.0};
        for (std::int64_t fi = begin; fi < end; ++fi) {
          const Tensor& f = fine_frames[static_cast<std::size_t>(fi)];
          const float* pf = f.data();
          for (std::int64_t i = 0; i < f.size(); ++i) {
            acc.first += pf[i];
            acc.second += static_cast<double>(pf[i]) * pf[i];
          }
        }
        return acc;
      },
      [](Stats a, Stats b) {
        return Stats{a.first + b.first, a.second + b.second};
      });
  mean_ = sum / static_cast<double>(count);
  stddev_ = std::sqrt(
      std::max(sq / static_cast<double>(count) - mean_ * mean_, 1e-12));

  // Bicubic mids, normalised, plus normalised targets; frames are
  // independent, so the preprocessing fans out over the pool.
  BicubicInterpolator bicubic;
  std::vector<Tensor> mids(fine_frames.size());
  std::vector<Tensor> targets(fine_frames.size());
  parallel_for(frame_count, [&](std::int64_t fi) {
    const Tensor& f = fine_frames[static_cast<std::size_t>(fi)];
    Tensor mid = bicubic.super_resolve(f, layout);
    mid.add_scalar_(static_cast<float>(-mean_));
    mid.mul_scalar_(static_cast<float>(1.0 / stddev_));
    mids[static_cast<std::size_t>(fi)] = std::move(mid);
    Tensor t = f;
    t.add_scalar_(static_cast<float>(-mean_));
    t.mul_scalar_(static_cast<float>(1.0 / stddev_));
    targets[static_cast<std::size_t>(fi)] = std::move(t);
  });

  // 9-1-5 architecture (Dong et al.), zero-padded to preserve extent.
  network_ = std::make_unique<nn::Sequential>();
  network_->emplace<nn::Conv2d>(1, config_.channels1, 9, 1, 4, rng);
  network_->emplace<nn::ReLU>();
  network_->emplace<nn::Conv2d>(config_.channels1, config_.channels2, 1, 1, 0,
                                rng);
  network_->emplace<nn::ReLU>();
  network_->emplace<nn::Conv2d>(config_.channels2, 1, 5, 1, 2, rng);

  nn::Adam optimizer(network_->parameters(), config_.learning_rate);
  const std::int64_t w = config_.window;
  const std::int64_t rows = fine_frames.front().dim(0);
  const std::int64_t cols = fine_frames.front().dim(1);
  check(w <= rows && w <= cols, "Srcnn::fit: window larger than frames");

  loss_history_.clear();
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    double epoch_loss = 0.0;
    int batches = 0;
    for (int step = 0; step < config_.crops_per_epoch;
         step += config_.batch_size) {
      const int bs = std::min<int>(config_.batch_size,
                                   config_.crops_per_epoch - step);
      std::vector<Tensor> xs, ys;
      xs.reserve(static_cast<std::size_t>(bs));
      ys.reserve(static_cast<std::size_t>(bs));
      for (int b = 0; b < bs; ++b) {
        const auto f = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(mids.size()) - 1));
        const std::int64_t r0 = rng.uniform_int(0, rows - w);
        const std::int64_t c0 = rng.uniform_int(0, cols - w);
        xs.push_back(crop2d(mids[f], r0, c0, w, w).reshape(Shape{1, w, w}));
        ys.push_back(crop2d(targets[f], r0, c0, w, w).reshape(Shape{1, w, w}));
      }
      // Micro-slices of the crop batch run on replica workers under
      // slice-private gradient slots, reduced in ascending slice order —
      // bit-identical for any replica count.
      const nn::TrainSplit split =
          nn::resolve_train_split(config_.replicas, bs);
      const int slices = split.slices;
      std::vector<Tensor> x_slices, y_slices;
      x_slices.reserve(static_cast<std::size_t>(slices));
      y_slices.reserve(static_cast<std::size_t>(slices));
      std::int64_t total_elements = 0;
      for (int s = 0; s < slices; ++s) {
        const nn::SliceRange range = nn::train_slice_range(bs, slices, s);
        std::vector<Tensor> xs_s(xs.begin() + range.begin,
                                 xs.begin() + range.end);
        std::vector<Tensor> ys_s(ys.begin() + range.begin,
                                 ys.begin() + range.end);
        x_slices.push_back(stack0(xs_s));
        y_slices.push_back(stack0(ys_s));
        total_elements += y_slices.back().size();
      }
      optimizer.zero_grad();
      network_->prepare_replica_slots(slices);
      std::vector<double> partial(static_cast<std::size_t>(slices), 0.0);
      nn::run_replicated(slices, split.workers, [&](int s) {
        const auto si = static_cast<std::size_t>(s);
        Tensor pred = network_->forward(x_slices[si], /*training=*/true);
        nn::SliceLossResult slice =
            nn::mse_loss_slice(pred, y_slices[si], total_elements);
        network_->backward(slice.grad);
        partial[si] = slice.sum;
      });
      network_->reduce_replica_slots(slices);
      optimizer.step();
      double sum = 0.0;
      for (double p : partial) sum += p;
      const double loss = sum / static_cast<double>(total_elements);
      epoch_loss += loss;
      ++batches;
    }
    loss_history_.push_back(epoch_loss / std::max(batches, 1));
  }
}

Tensor Srcnn::super_resolve(const Tensor& fine_frame,
                            const data::ProbeLayout& layout) const {
  check(network_ != nullptr, "Srcnn::super_resolve called before fit");
  BicubicInterpolator bicubic;
  Tensor mid = bicubic.super_resolve(fine_frame, layout);
  const std::int64_t rows = mid.dim(0), cols = mid.dim(1);
  mid.add_scalar_(static_cast<float>(-mean_));
  mid.mul_scalar_(static_cast<float>(1.0 / stddev_));
  Tensor x = mid.reshape(Shape{1, 1, rows, cols});
  // Inference-only pass: scope away the retained lowering slices.
  Workspace::Scope ws_scope(Workspace::tls());
  Tensor pred = network_->forward(x, /*training=*/false);
  Tensor out = pred.reshape(Shape{rows, cols});
  out.mul_scalar_(static_cast<float>(stddev_));
  out.add_scalar_(static_cast<float>(mean_));
  return out;
}

}  // namespace mtsr::baselines
