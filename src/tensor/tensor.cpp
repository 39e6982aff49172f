#include "src/tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "src/common/check.hpp"

namespace mtsr {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.volume()), 0.f) {
  check(shape_.rank() > 0, "Tensor requires a rank >= 1 shape");
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  check(shape_.rank() > 0, "Tensor requires a rank >= 1 shape");
  check(static_cast<std::int64_t>(data_.size()) == shape_.volume(),
        "Tensor value count must equal shape volume");
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  check(n >= 0, "Tensor::arange requires n >= 0");
  Tensor t(Shape{n});
  std::iota(t.data_.begin(), t.data_.end(), 0.f);
  return t;
}

float& Tensor::flat(std::int64_t i) {
  check(i >= 0 && i < size(), "Tensor::flat index out of range");
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::flat(std::int64_t i) const {
  check(i >= 0 && i < size(), "Tensor::flat index out of range");
  return data_[static_cast<std::size_t>(i)];
}

std::size_t Tensor::offset(std::initializer_list<std::int64_t> idx) const {
  check(static_cast<int>(idx.size()) == rank(),
        "Tensor::at index count must equal rank");
  // Row-major offset in Horner form over the dims, so element access
  // allocates nothing.
  const std::vector<std::int64_t>& dims = shape_.dims();
  std::size_t off = 0;
  std::size_t axis = 0;
  for (std::int64_t i : idx) {
    check(i >= 0 && i < dims[axis], "Tensor::at index out of range");
    off = off * static_cast<std::size_t>(dims[axis]) +
          static_cast<std::size_t>(i);
    ++axis;
  }
  return off;
}

Tensor Tensor::reshape(Shape new_shape) const {
  check(new_shape.volume() == shape_.volume(),
        "Tensor::reshape must preserve volume (" + shape_.to_string() +
            " -> " + new_shape.to_string() + ")");
  return Tensor(std::move(new_shape), data_);
}

Tensor& Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

Tensor& Tensor::add_(const Tensor& other) {
  check(shape_ == other.shape_, "Tensor::add_ shape mismatch: " +
                                    shape_.to_string() + " vs " +
                                    other.shape_.to_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  check(shape_ == other.shape_, "Tensor::sub_ shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  check(shape_ == other.shape_, "Tensor::mul_ shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::add_scalar_(float s) {
  for (float& v : data_) v += s;
  return *this;
}

Tensor& Tensor::mul_scalar_(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::axpy_(float alpha, const Tensor& x) {
  check(shape_ == x.shape_, "Tensor::axpy_ shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * x.data_[i];
  }
  return *this;
}

Tensor& Tensor::apply_(const std::function<float(float)>& fn) {
  for (float& v : data_) v = fn(v);
  return *this;
}

Tensor Tensor::add(const Tensor& other) const {
  Tensor out = *this;
  out.add_(other);
  return out;
}

Tensor Tensor::sub(const Tensor& other) const {
  Tensor out = *this;
  out.sub_(other);
  return out;
}

Tensor Tensor::mul(const Tensor& other) const {
  Tensor out = *this;
  out.mul_(other);
  return out;
}

Tensor Tensor::add_scalar(float s) const {
  Tensor out = *this;
  out.add_scalar_(s);
  return out;
}

Tensor Tensor::mul_scalar(float s) const {
  Tensor out = *this;
  out.mul_scalar_(s);
  return out;
}

Tensor Tensor::apply(const std::function<float(float)>& fn) const {
  Tensor out = *this;
  out.apply_(fn);
  return out;
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Tensor::mean() const {
  check(!data_.empty(), "Tensor::mean of empty tensor");
  return sum() / static_cast<double>(data_.size());
}

float Tensor::min() const {
  check(!data_.empty(), "Tensor::min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  check(!data_.empty(), "Tensor::max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

double Tensor::stddev() const {
  check(!data_.empty(), "Tensor::stddev of empty tensor");
  const double m = mean();
  double acc = 0.0;
  for (float v : data_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(data_.size()));
}

double Tensor::squared_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return acc;
}

bool Tensor::all_finite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](float v) { return std::isfinite(v); });
}

std::string Tensor::describe() const {
  std::ostringstream out;
  out << "Tensor" << shape_.to_string();
  if (!data_.empty()) {
    out << " min=" << min() << " mean=" << mean() << " max=" << max();
  }
  return out.str();
}

}  // namespace mtsr
