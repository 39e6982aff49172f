// StageExecutor lives in its own translation unit: the pool's dispatch path
// in parallel.cpp is hot (every kernel schedules through it), and folding
// the executor's thread/queue machinery into that TU measurably perturbs
// its code generation on the microkernel-bound hosts the benches run on.
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace mtsr {

struct StageExecutor::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  std::condition_variable idle_cv;
  std::deque<std::packaged_task<void()>> queue;
  std::thread thread;
  bool started = false;
  bool stopping = false;
  bool executing = false;

  void loop() {
    // Stage tasks must never race the pool's in-flight tasks, so the
    // stage thread runs with nested-region semantics: its parallel_for
    // calls execute serially right here while the submitting thread keeps
    // the pool busy with GEMMs.
    detail::mark_thread_inside_parallel_region();
    for (;;) {
      std::packaged_task<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
        executing = true;
      }
      task();  // exceptions land in the task's future
      {
        std::lock_guard<std::mutex> lock(mutex);
        executing = false;
      }
      idle_cv.notify_all();
    }
  }
};

StageExecutor::StageExecutor() : impl_(std::make_unique<Impl>()) {}

StageExecutor::~StageExecutor() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
}

std::future<void> StageExecutor::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> result = task.get_future();
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    check(!impl_->stopping, "StageExecutor::submit after shutdown");
    impl_->queue.push_back(std::move(task));
    if (!impl_->started) {
      impl_->started = true;
      impl_->thread = std::thread([impl = impl_.get()] { impl->loop(); });
    }
  }
  impl_->cv.notify_one();
  return result;
}

void StageExecutor::drain() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->idle_cv.wait(
      lock, [&] { return impl_->queue.empty() && !impl_->executing; });
}

}  // namespace mtsr
