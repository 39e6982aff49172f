#include "src/nn/sequential.hpp"

#include <sstream>

#include "src/common/check.hpp"

namespace mtsr::nn {

Sequential& Sequential::add(LayerPtr layer) {
  check(layer != nullptr, "Sequential::add requires a non-null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  check(!layers_.empty(), "Sequential::forward on empty container");
  Tensor x = layers_.front()->forward(input, training);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x, training);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  check(!layers_.empty(), "Sequential::backward on empty container");
  Tensor g = layers_.back()->backward(grad_output);
  for (auto it = layers_.rbegin() + 1; it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<std::pair<std::string, Tensor*>> Sequential::buffers() {
  std::vector<std::pair<std::string, Tensor*>> all;
  for (auto& layer : layers_) {
    for (auto& buffer : layer->buffers()) all.push_back(std::move(buffer));
  }
  return all;
}

void Sequential::prepare_replica_slots(int count) {
  for (auto& layer : layers_) layer->prepare_replica_slots(count);
}

void Sequential::reduce_replica_slots(int count) {
  for (auto& layer : layers_) layer->reduce_replica_slots(count);
}

std::string Sequential::name() const {
  std::ostringstream out;
  out << "Sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out << ", ";
    out << layers_[i]->name();
  }
  out << "]";
  return out.str();
}

Layer& Sequential::layer(std::size_t i) {
  check(i < layers_.size(), "Sequential::layer index out of range");
  return *layers_[i];
}

const Layer& Sequential::layer(std::size_t i) const {
  check(i < layers_.size(), "Sequential::layer index out of range");
  return *layers_[i];
}

}  // namespace mtsr::nn
