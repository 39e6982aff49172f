// A forwarding serving::Model that throws from one chosen predict() call:
// the fault-injection seam of the scheduler and front-door failure tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/serving/model.hpp"

namespace mtsr::serving {

class ThrowingModel final : public Model {
 public:
  static constexpr const char* kMessage = "injected predict failure";

  explicit ThrowingModel(std::shared_ptr<Model> inner)
      : inner_(std::move(inner)) {}

  /// Arms the failure: the predict() call `n` calls from now (0 = the next
  /// one) throws std::runtime_error(kMessage); every other call forwards.
  void fail_after(std::int64_t n) { remaining_.store(n); }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::int64_t temporal_length() const override {
    return inner_->temporal_length();
  }
  [[nodiscard]] ModelInputs inputs() const override {
    return inner_->inputs();
  }
  void validate(const StreamContext& stream) const override {
    inner_->validate(stream);
  }
  [[nodiscard]] Tensor predict(const WindowBatch& batch,
                               const StreamContext& stream) override {
    if (remaining_.fetch_sub(1) == 0) throw std::runtime_error(kMessage);
    return inner_->predict(batch, stream);
  }

 private:
  std::shared_ptr<Model> inner_;
  std::atomic<std::int64_t> remaining_{-1};  ///< < 0: disarmed
};

}  // namespace mtsr::serving
