// Shared pieces of the repository benchmark: run options, the result line,
// sample statistics, the open-loop arrival schedule, the in-memory span log,
// the timing Model wrapper, the host record and the GEMM kernel probe.
//
// Everything here sits OUTSIDE the library: spans are taken around calls
// into the public APIs of net, serving, core, tensor and online, never
// inside them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/serving/model.hpp"

namespace perfbench {

// ---- Options and result ------------------------------------------------------

/// One invocation of the benchmark binary (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< nominal measured duration
  bool trace = false;   ///< per-layer (traced) run instead of end-to-end
  std::string model;    ///< serve workloads: registered model name
  int sessions = 8;     ///< serve workloads: wire sessions
  int consumers = 1;    ///< serve workloads: consumers per stream tag
  double rate = 0;  ///< serve workloads: open-loop pushes/s (fixed, absolute)
  double late_bound_ms = 0;  ///< generator lateness p99 validity bound
  double steal_bound = 0;    ///< host steal share marking a cycle disturbed
  int setups = 3;            ///< set-up repetitions (setup_s is their median)
  std::string work_dir;      ///< scratch files: checkpoints, trace output
  std::string commit;        ///< source revision for the host record
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `correct` false fails the run; `valid`
/// false marks a run whose load generator could not hold its schedule or
/// whose host was too disturbed to measure.
struct RunResult {
  bool correct = true;
  bool valid = true;
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void fail(const std::string& why);
  void set(const std::string& name, double value, const std::string& unit);
  /// The single JSON line run.py parses.
  [[nodiscard]] std::string to_json() const;
};

// ---- Sample statistics -------------------------------------------------------

/// Samples a percentile must have beyond its rank before it is reported.
inline constexpr std::int64_t kMinTailSamples = 10;

/// Nearest-rank q-quantile (q in (0, 1)). Throws std::invalid_argument when
/// fewer than kMinTailSamples samples lie beyond the rank, so a p99 needs at
/// least 1000 samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median (mean of the middle pair for even counts). Throws when empty.
[[nodiscard]] double median(std::vector<double> samples);

[[nodiscard]] double mean(const std::vector<double>& samples);

// ---- Arrival schedule --------------------------------------------------------

/// Homogeneous Poisson arrivals: `count` offsets in seconds from the phase
/// start at `rate` arrivals per second. Pure function of its arguments.
[[nodiscard]] std::vector<double> poisson_schedule(double rate,
                                                   std::int64_t count,
                                                   std::uint64_t seed);

// ---- Clock and spans ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide benchmark epoch.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] std::int64_t to_ns(Clock::time_point t);

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = -1;     ///< request id for push spans, else -1
  std::int64_t value = 0;   ///< windows for predict spans, sent_ns for pushes
  [[nodiscard]] double ms() const { return (end_ns - start_ns) * 1e-6; }
};

/// Spans kept in memory and written once, at exit, as a Chrome trace.
/// record() is a no-op while disabled, so an untraced run pays one atomic
/// load per call site.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void record(Span span);
  /// Records regardless of the enabled flag (rare calls such as reloads).
  void record_always(Span span);
  [[nodiscard]] std::vector<Span> spans(const std::string& name) const;
  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A serving::Model that forwards every call to `inner` and records a span
/// around predict() ("predict", value = windows) and load_checkpoint()
/// ("load_checkpoint"). Checkpoint replacements come back wrapped too, so
/// the timing survives hot-reloads.
class TimedModel final : public mtsr::serving::Model {
 public:
  TimedModel(std::shared_ptr<mtsr::serving::Model> inner, SpanLog& log);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::int64_t temporal_length() const override {
    return inner_->temporal_length();
  }
  [[nodiscard]] mtsr::serving::ModelInputs inputs() const override {
    return inner_->inputs();
  }
  void validate(const mtsr::serving::StreamContext& stream) const override {
    inner_->validate(stream);
  }
  [[nodiscard]] mtsr::Tensor predict(
      const mtsr::serving::WindowBatch& batch,
      const mtsr::serving::StreamContext& stream) override;
  [[nodiscard]] std::shared_ptr<mtsr::serving::Model> load_checkpoint(
      const std::string& path) const override;

  [[nodiscard]] const std::shared_ptr<mtsr::serving::Model>& inner() const {
    return inner_;
  }

 private:
  std::shared_ptr<mtsr::serving::Model> inner_;
  SpanLog* log_;
};

// ---- Host contention ---------------------------------------------------------

/// Cumulative CPU time of the whole host from the first line of /proc/stat,
/// in clock ticks: time spent running, and time the hypervisor gave to other
/// guests while this one wanted a CPU ("steal"). All zero where /proc/stat
/// cannot be read.
struct CpuTimes {
  double busy = 0;
  double steal = 0;
};
[[nodiscard]] CpuTimes read_cpu_times();

/// Share of the CPU time wanted between two reads that was stolen:
/// steal / (busy + steal), 0 when nothing ran. A share s slows CPU-bound
/// work by about 1 / (1 - s).
[[nodiscard]] double steal_share(const CpuTimes& before,
                                 const CpuTimes& after);

/// Measured cycles per wanted calm cycle, disturbed reruns included.
inline constexpr int kMaxCycleFactor = 3;
/// Process age after which no disturbed cycle is rerun, so a run ends well
/// within run.py's timeout.
inline constexpr double kRerunBudgetS = 120;

/// Whether a run that has measured `done` cycles, `calm` of them calm,
/// measures another: the first `want` always run; after them, disturbed
/// ones are rerun until `want` are calm, up to kMaxCycleFactor x `want`
/// cycles and kRerunBudgetS of process age.
[[nodiscard]] bool another_cycle(int done, int calm, int want);

// ---- Host record and kernel probe --------------------------------------------

/// One line describing where the run happened: nproc, topology, CPU
/// features, GEMM kernels, pool geometry, the source tree the binary was
/// built from, source revision and seed.
[[nodiscard]] std::string host_record(const Options& options);

/// Achieved rate of the float and int8 GEMM kernels at one lowered shape
/// (float: C(m×n) = A(m×k)·B(k×n); int8: the same product in the
/// activation-major orientation the quantised layers use, C(n×m)).
struct ProbeResult {
  double matmul_gflops = 0;
  double matmul_bytes = 0;  ///< operand + result bytes per call
  double gemm_u8s8_gops = 0;
  double gemm_u8s8_bytes = 0;
};
[[nodiscard]] ProbeResult probe_kernels(std::int64_t m, std::int64_t k,
                                        std::int64_t n, SpanLog& log);

/// ru_maxrss of this process in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
