#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/topology.hpp"
#include "src/tensor/quant.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace perfbench {
namespace {

const Clock::time_point kEpoch = Clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Median wall time of `fn` over ~`budget_s` seconds of repetitions, after
/// a short warm-up; each repetition is also recorded as a span.
template <typename Fn>
double median_call_seconds(const char* span, SpanLog& log, double budget_s,
                           Fn&& fn) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> times;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while (times.size() < 5 || (now_ns() < stop && times.size() < 2000)) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    log.record({span, t0, t1, -1, 0});
    times.push_back((t1 - t0) * 1e-9);
  }
  return median(times);
}

}  // namespace

// ---- RunResult ---------------------------------------------------------------

void RunResult::fail(const std::string& why) {
  correct = false;
  failures.push_back(why);
}

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  metrics[name] = Metric{value, unit};
}

std::string RunResult::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"valid\": " << (valid ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(failures[i]) << '"';
  }
  os << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    os << (first ? "" : ", ") << '"' << json_escape(name)
       << "\": {\"value\": " << json_number(metric.value) << ", \"unit\": \""
       << json_escape(metric.unit) << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---- Statistics --------------------------------------------------------------

double percentile(std::vector<double> samples, double q) {
  if (!(q > 0 && q < 1)) {
    throw std::invalid_argument("percentile: q must lie in (0, 1)");
  }
  const auto n = static_cast<std::int64_t>(samples.size());
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (n - rank < kMinTailSamples) {
    char pct[16];
    std::snprintf(pct, sizeof(pct), "p%g", q * 100);
    throw std::invalid_argument(
        "percentile: " + std::string(pct) + " of " + std::to_string(n) +
        " samples has " + std::to_string(std::max<std::int64_t>(n - rank, 0)) +
        " beyond it; at least " + std::to_string(kMinTailSamples) +
        " are required");
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<std::size_t>(rank - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean: no samples");
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::vector<double> poisson_schedule(double rate, std::int64_t count,
                                     std::uint64_t seed) {
  if (!(rate > 0) || count < 0) {
    throw std::invalid_argument("poisson_schedule: need rate > 0, count >= 0");
  }
  mtsr::Rng rng(seed);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(count));
  double t = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    at.push_back(t);
  }
  return at;
}

// ---- Clock and spans ---------------------------------------------------------

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

std::int64_t now_ns() { return to_ns(Clock::now()); }

void SpanLog::record(Span span) {
  if (!enabled()) return;
  record_always(std::move(span));
}

void SpanLog::record_always(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << json_escape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << json_number(s.start_ns * 1e-3)
        << ", \"dur\": " << json_number((s.end_ns - s.start_ns) * 1e-3)
        << ", \"args\": {\"id\": " << s.id << ", \"value\": " << s.value
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- TimedModel --------------------------------------------------------------

TimedModel::TimedModel(std::shared_ptr<mtsr::serving::Model> inner,
                       SpanLog& log)
    : inner_(std::move(inner)), log_(&log) {}

mtsr::Tensor TimedModel::predict(const mtsr::serving::WindowBatch& batch,
                                 const mtsr::serving::StreamContext& stream) {
  if (!log_->enabled()) return inner_->predict(batch, stream);
  const std::int64_t t0 = now_ns();
  mtsr::Tensor out = inner_->predict(batch, stream);
  const std::int64_t windows =
      batch.coarse.empty() ? batch.fine_raw.dim(0) : batch.coarse.dim(0);
  log_->record({"predict", t0, now_ns(), -1, windows});
  return out;
}

std::shared_ptr<mtsr::serving::Model> TimedModel::load_checkpoint(
    const std::string& path) const {
  const std::int64_t t0 = now_ns();
  auto next = inner_->load_checkpoint(path);
  log_->record_always({"load_checkpoint", t0, now_ns(), -1, 0});
  return std::make_shared<TimedModel>(std::move(next), *log_);
}

// ---- Host contention ---------------------------------------------------------

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return {};
  }
  return {user + nice + system + irq + softirq, steal};
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const double steal = after.steal - before.steal;
  const double wanted = after.busy - before.busy + steal;
  return wanted > 0 ? steal / wanted : 0;
}

bool another_cycle(int done, int calm, int want) {
  if (calm >= want) return false;
  if (done < want) return true;
  return done < kMaxCycleFactor * want && now_ns() * 1e-9 < kRerunBudgetS;
}

// ---- Host record -------------------------------------------------------------

std::string host_record(const Options& options) {
  std::string features;
  const auto feature = [&features](bool on, const char* name) {
    if (!on) return;
    if (!features.empty()) features += ' ';
    features += name;
  };
  __builtin_cpu_init();
  feature(__builtin_cpu_supports("sse4.2"), "sse4.2");
  feature(__builtin_cpu_supports("avx"), "avx");
  feature(__builtin_cpu_supports("avx2"), "avx2");
  feature(__builtin_cpu_supports("fma"), "fma");
  feature(__builtin_cpu_supports("avx512f"), "avx512f");
  feature(__builtin_cpu_supports("avx512bw"), "avx512bw");
  feature(__builtin_cpu_supports("avx512vl"), "avx512vl");
  feature(__builtin_cpu_supports("avx512vnni"), "avx512vnni");

  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"topology\": \""
     << json_escape(mtsr::Topology::instance().summary())
     << "\", \"cpu_features\": \"" << features
     << "\", \"matmul_kernel\": \"" << mtsr::matmul_kernel_name()
     << "\", \"gemm_u8s8_kernel\": \"" << mtsr::gemm_u8s8_kernel_name()
     << "\", \"pool_workers\": " << mtsr::num_threads()
     << ", \"pool_shards\": " << mtsr::num_shards()
     << ", \"source_root\": \"" << json_escape(PERFBENCH_SOURCE_ROOT)
     << "\", \"commit\": \""
     << json_escape(options.commit) << "\", \"workload\": \""
     << json_escape(options.workload) << "\", \"seed\": " << options.seed
     << "}";
  return os.str();
}

// ---- Kernel probe ------------------------------------------------------------

ProbeResult probe_kernels(std::int64_t m, std::int64_t k, std::int64_t n,
                          SpanLog& log) {
  mtsr::Rng rng(7);
  ProbeResult r;
  const double flops = 2.0 * static_cast<double>(m * k * n);

  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (float& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  const double t_float = median_call_seconds("probe.matmul", log, 0.3, [&] {
    mtsr::matmul_into(a.data(), b.data(), c.data(), m, k, n);
  });
  r.matmul_gflops = flops / t_float * 1e-9;
  r.matmul_bytes = 4.0 * static_cast<double>(m * k + k * n + m * n);

  // int8: n activation rows of k u8 values times a packed (k × m) s8
  // weight matrix, m output channels.
  std::vector<std::int8_t> w(static_cast<std::size_t>(k * m));
  for (auto& v : w) {
    v = static_cast<std::int8_t>(
        rng.uniform_int(-mtsr::quant::kWeightQmax, mtsr::quant::kWeightQmax));
  }
  const mtsr::PackedInt8B packed = mtsr::pack_b_s8(w.data(), k, m);
  const std::int64_t lda = packed.kpad();
  std::vector<std::uint8_t> act(static_cast<std::size_t>(n * lda));
  for (auto& v : act) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<float> scale(static_cast<std::size_t>(packed.npad), 1e-3f);
  std::vector<float> out(static_cast<std::size_t>(n * packed.npad));
  const mtsr::QuantEpilogue ep{scale.data(), 3, nullptr, 1.f};
  const double t_int8 = median_call_seconds("probe.gemm_u8s8", log, 0.3, [&] {
    mtsr::gemm_u8s8(act.data(), lda, packed, n, ep, out.data(), packed.npad);
  });
  r.gemm_u8s8_gops = flops / t_int8 * 1e-9;
  r.gemm_u8s8_bytes = static_cast<double>(act.size() + packed.data.size()) +
                      4.0 * static_cast<double>(packed.colsum.size()) +
                      4.0 * static_cast<double>(out.size());
  return r;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
