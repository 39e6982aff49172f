// Self-tests of the benchmark's own helpers: the arrival schedule, the
// percentile rule and the disturbed-cycle rerun rule. perfbench/selftest.py runs this binary and then checks
// that every workload emits exactly the metrics BENCHMARK.json lists.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using perfbench::percentile;
  using perfbench::poisson_schedule;

  const auto a = poisson_schedule(200.0, 5000, 11);
  const auto b = poisson_schedule(200.0, 5000, 11);
  const auto c = poisson_schedule(200.0, 5000, 12);
  expect(a == b, "same seed gives the same arrival schedule");
  expect(a != c, "a different seed gives a different arrival schedule");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  expect(increasing, "arrival offsets strictly increase");
  const double achieved = static_cast<double>(a.size()) / a.back();
  expect(std::fabs(achieved / 200.0 - 1) < 0.05,
         "arrival schedule holds its rate within 5% over 5000 arrivals");

  expect(throws([] { (void)percentile(iota(999), 0.99); }),
         "p99 of 999 samples is refused (9 beyond it)");
  expect(!throws([] { (void)percentile(iota(1000), 0.99); }),
         "p99 of 1000 samples is reported (10 beyond it)");
  expect(percentile(iota(1000), 0.99) == 990,
         "p99 of 1..1000 is the nearest-rank value 990");
  expect(throws([] { (void)percentile(iota(19), 0.5); }),
         "p50 of 19 samples is refused (9 beyond it)");
  expect(percentile(iota(20), 0.5) == 10, "p50 of 1..20 is 10");
  expect(throws([] { (void)percentile({}, 0.5); }),
         "percentile of no samples is refused");
  expect(perfbench::median({3, 1, 2}) == 2 &&
             perfbench::median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");

  using perfbench::another_cycle;
  expect(another_cycle(0, 0, 8) && another_cycle(7, 7, 8) &&
             !another_cycle(8, 8, 8),
         "a calm run measures exactly the wanted cycles");
  expect(another_cycle(8, 7, 8) && another_cycle(23, 7, 8) &&
             !another_cycle(24, 7, 8),
         "disturbed cycles are rerun up to three times the wanted cycles");
  const perfbench::CpuTimes t0{100, 10}, t1{200, 35};
  expect(perfbench::steal_share(t0, t1) == 0.2 &&
             perfbench::steal_share(t0, t0) == 0,
         "steal share is steal over busy + steal, 0 when nothing ran");

  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
