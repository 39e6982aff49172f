#include "src/nn/activations.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "src/common/check.hpp"
#include "src/nn/replica.hpp"

namespace mtsr::nn {
namespace {

// Per-slot cache access shared by the four activations: slot 0 in direct
// mode, the slice's private slot inside a replicated step.
Tensor& cache_slot(std::vector<Tensor>& slots, const char* what) {
  const auto i = static_cast<std::size_t>(replica::cache_index());
  check(i < slots.size(), what);
  return slots[i];
}

void grow_slots(std::vector<Tensor>& slots, int count) {
  if (slots.size() < static_cast<std::size_t>(count)) {
    slots.resize(static_cast<std::size_t>(count));
  }
}

// out[i] = x[i] < 0 ? v[i] * alpha : v[i]: LeakyReLU forward (v = x) and
// backward (v = dy). The product is formed for every element and picked by
// a bit mask, so each output is exactly the bits of v[i] or of
// v[i] * alpha, as with `if (x < 0) v *= alpha`, and the loop vectorises:
// a plain ?: keeps its branch, because the product could trap, and
// max(v, alpha * v) is a different function at alpha = 0, where it maps
// -inf to -inf instead of to 0 * -inf = NaN.
void leaky_select(const float* x, const float* v, float* out, std::int64_t n,
                  float alpha) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t keep = x[i] < 0.f ? 0u : ~0u;
    const auto kept = std::bit_cast<std::uint32_t>(v[i]);
    const auto scaled = std::bit_cast<std::uint32_t>(v[i] * alpha);
    out[i] = std::bit_cast<float>((kept & keep) | (scaled & ~keep));
  }
}

}  // namespace

LeakyReLU::LeakyReLU(float alpha) : alpha_(alpha) {
  check(alpha >= 0.f && alpha < 1.f, "LeakyReLU alpha must be in [0,1)");
}

Tensor LeakyReLU::forward(const Tensor& input, bool /*training*/) {
  // Cached in inference mode too: gradient analysis backpropagates through
  // a training=false forward.
  Tensor& cached = cache_slot(input_, "LeakyReLU: replica slot not prepared");
  cached = input;
  Tensor out(input.shape());
  leaky_select(cached.data(), cached.data(), out.data(), out.size(), alpha_);
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  const Tensor& cached =
      cache_slot(input_, "LeakyReLU: replica slot not prepared");
  check(!cached.empty(), "LeakyReLU::backward called before forward");
  check(grad_output.shape() == cached.shape(),
        "LeakyReLU::backward grad shape mismatch");
  Tensor grad(grad_output.shape());
  leaky_select(cached.data(), grad_output.data(), grad.data(), grad.size(),
               alpha_);
  return grad;
}

void LeakyReLU::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  grow_slots(input_, count);
}

std::string LeakyReLU::name() const {
  std::ostringstream out;
  out << "LeakyReLU(" << alpha_ << ")";
  return out.str();
}

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  cache_slot(input_, "ReLU: replica slot not prepared") = input;
  Tensor out = input;
  for (float* p = out.data(); p != out.data() + out.size(); ++p) {
    if (*p < 0.f) *p = 0.f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  const Tensor& cached = cache_slot(input_, "ReLU: replica slot not prepared");
  check(!cached.empty(), "ReLU::backward called before forward");
  check(grad_output.shape() == cached.shape(),
        "ReLU::backward grad shape mismatch");
  Tensor grad = grad_output;
  float* g = grad.data();
  const float* x = cached.data();
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    if (x[i] <= 0.f) g[i] = 0.f;
  }
  return grad;
}

void ReLU::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  grow_slots(input_, count);
}

std::string ReLU::name() const { return "ReLU"; }

Tensor Sigmoid::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  for (float* p = out.data(); p != out.data() + out.size(); ++p) {
    *p = 1.f / (1.f + std::exp(-*p));
  }
  cache_slot(output_, "Sigmoid: replica slot not prepared") = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  const Tensor& cached =
      cache_slot(output_, "Sigmoid: replica slot not prepared");
  check(!cached.empty(), "Sigmoid::backward called before forward");
  check(grad_output.shape() == cached.shape(),
        "Sigmoid::backward grad shape mismatch");
  Tensor grad = grad_output;
  float* g = grad.data();
  const float* y = cached.data();
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    g[i] *= y[i] * (1.f - y[i]);
  }
  return grad;
}

void Sigmoid::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  grow_slots(output_, count);
}

std::string Sigmoid::name() const { return "Sigmoid"; }

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  for (float* p = out.data(); p != out.data() + out.size(); ++p) {
    *p = std::tanh(*p);
  }
  cache_slot(output_, "Tanh: replica slot not prepared") = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  const Tensor& cached = cache_slot(output_, "Tanh: replica slot not prepared");
  check(!cached.empty(), "Tanh::backward called before forward");
  check(grad_output.shape() == cached.shape(),
        "Tanh::backward grad shape mismatch");
  Tensor grad = grad_output;
  float* g = grad.data();
  const float* y = cached.data();
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    g[i] *= 1.f - y[i] * y[i];
  }
  return grad;
}

void Tanh::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  grow_slots(output_, count);
}

std::string Tanh::name() const { return "Tanh"; }

}  // namespace mtsr::nn
