// Forced-ISA sweep of the float packed-B panel microkernels: every
// dispatch level this host can execute ("scalar"/"sse2" generic, "avx2",
// "avx512"/"vnni") must be bit-identical across pool sizes {1, 2, hw} and
// within 1e-5 relative of the naive i-k-j reference. Shapes cover the tall
// and wide drivers, the k-tile (kKc = 256) and j-tile (kNc = 512)
// boundaries, panels narrower than kNc, products with only a few
// accumulation terms (k <= 32), register-tile row remainders, and
// sub-vector column tails.
// The avx2 and avx512 kernels run the same single-rounded FMA fold and
// must agree bit for bit; the generic kernel rounds the multiply and the
// add separately, so it is held to the reference tolerance only.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/tensor/tensor.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

struct PoolGuard {
  ~PoolGuard() { set_num_threads(0); }
};

struct MatmulCase {
  std::int64_t m, k, n;
};

// Shapes chosen to exercise: 8/6-row register tiles plus 1..7-row
// remainders, 32/16-column blocks plus masked/scalar tails, multiple
// k-tiles (k > 256), multiple j-tiles (n > 512), and both the tall
// (m >= n) and wide dispatch paths.
constexpr MatmulCase kCases[] = {
    {64, 64, 64},   {37, 100, 53},  {130, 300, 17}, {5, 288, 700},
    {9, 64, 1200},  {61, 40, 61},   {16, 257, 48},  {3, 48, 513},
    // Few-row products (4×64 and 1×64 remainder tiles): the ZipNet convs.
    {1, 162, 800},  {4, 108, 2400}, {12, 144, 200}, {18, 108, 130},
    // Few accumulation terms: the 3-D deconvolutions' Wᵀ·X (k = channels)
    // and a rank-1 product, tall and wide.
    {108, 4, 800},  {27, 1, 600},   {216, 8, 300},  {200, 16, 7},
    {8, 32, 5},
};

const char* const kLevels[] = {"scalar", "sse2", "avx2", "avx512", "vnni"};

std::vector<float> naive_matmul(const std::vector<float>& a,
                                const std::vector<float>& b, std::int64_t m,
                                std::int64_t k, std::int64_t n) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<std::size_t>(i * k + kk)];
      for (std::int64_t j = 0; j < n; ++j) {
        c[static_cast<std::size_t>(i * n + j)] +=
            aik * b[static_cast<std::size_t>(kk * n + j)];
      }
    }
  }
  return c;
}

TEST(FloatKernels, KernelNameIsKnown) {
  const std::string name = matmul_kernel_name();
  EXPECT_TRUE(name == "generic" || name == "avx2" || name == "avx512")
      << name;
  const char* forced = std::getenv("MTSR_SIMD");
  if (forced != nullptr && (std::string(forced) == "scalar" ||
                            std::string(forced) == "sse2")) {
    EXPECT_EQ(name, "generic");
  }
}

TEST(FloatKernels, UnknownForcedLevelIsRejected) {
  float x = 1.f;
  EXPECT_FALSE(matmul_into_forced_kernel("neon", &x, &x, &x, 1, 1, 1));
  EXPECT_FALSE(matmul_into_forced_kernel(nullptr, &x, &x, &x, 1, 1, 1));
}

TEST(FloatKernels, ForcedLevelSweepBitIdenticalAcrossPoolSizes) {
  PoolGuard guard;
  Rng rng(91);
  const int hw = num_threads();
  for (const auto& [m, k, n] : kCases) {
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) v = rng.uniform() * 2.f - 1.f;
    for (auto& v : b) v = rng.uniform() * 2.f - 1.f;
    const std::vector<float> want = naive_matmul(a, b, m, k, n);
    int levels_run = 0;
    for (const char* level : kLevels) {
      set_num_threads(1);
      std::vector<float> base(static_cast<std::size_t>(m * n), -1e30f);
      if (!matmul_into_forced_kernel(level, a.data(), b.data(), base.data(),
                                     m, k, n)) {
        continue;  // host cannot execute this level
      }
      ++levels_run;
      // Accuracy: within 1e-5 relative of the naive reference.
      for (std::size_t i = 0; i < base.size(); ++i) {
        ASSERT_NEAR(base[i], want[i], 1e-5f * (1.f + std::fabs(want[i])))
            << "level " << level << " m=" << m << " k=" << k << " n=" << n
            << " at " << i;
      }
      // Determinism: bit-identical for every pool size.
      for (const int pool : {2, hw}) {
        set_num_threads(pool);
        std::vector<float> got(static_cast<std::size_t>(m * n), -1e30f);
        ASSERT_TRUE(matmul_into_forced_kernel(level, a.data(), b.data(),
                                              got.data(), m, k, n));
        ASSERT_EQ(std::memcmp(base.data(), got.data(),
                              base.size() * sizeof(float)),
                  0)
            << "level " << level << " pool=" << pool << " m=" << m
            << " k=" << k << " n=" << n;
      }
      set_num_threads(0);
    }
    // The generic levels resolve on every host.
    EXPECT_GE(levels_run, 2) << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(FloatKernels, ForcedLevelsAccumulateOntoDestination) {
  Rng rng(92);
  const std::int64_t m = 21, k = 65, n = 44;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> seed(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = rng.uniform() * 2.f - 1.f;
  for (auto& v : b) v = rng.uniform() * 2.f - 1.f;
  for (auto& v : seed) v = rng.uniform();
  const std::vector<float> prod = naive_matmul(a, b, m, k, n);
  for (const char* level : kLevels) {
    std::vector<float> c = seed;
    if (!matmul_into_forced_kernel(level, a.data(), b.data(), c.data(), m, k,
                                   n, /*accumulate=*/true)) {
      continue;
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], seed[i] + prod[i],
                  1e-5f * (1.f + std::fabs(prod[i])))
          << "level " << level << " at " << i;
    }
  }
}

// avx2 and avx512 compute each element as the same ascending-k chain of
// single-rounded FMAs, so wherever the host runs both they agree bit for
// bit — on finite inputs and, with NaN and ±inf in B, on NaN payloads too.
TEST(FloatKernels, Avx2AndAvx512AgreeBitwise) {
  Rng rng(94);
  bool compared = false;
  for (const auto& [m, k, n] : kCases) {
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) v = rng.uniform() * 2.f - 1.f;
    for (auto& v : b) v = rng.uniform() * 2.f - 1.f;
    for (const bool special : {false, true}) {
      if (special) {
        const float values[] = {std::nanf(""), INFINITY, -INFINITY};
        for (std::size_t i = 0; i < b.size(); i += 29) {
          b[i] = values[(i / 29) % 3];
        }
      }
      std::vector<float> c2(static_cast<std::size_t>(m * n), -1.f);
      std::vector<float> c512(c2.size(), -2.f);
      if (!matmul_into_forced_kernel("avx2", a.data(), b.data(), c2.data(),
                                     m, k, n) ||
          !matmul_into_forced_kernel("avx512", a.data(), b.data(),
                                     c512.data(), m, k, n)) {
        continue;
      }
      compared = true;
      EXPECT_EQ(std::memcmp(c2.data(), c512.data(), c2.size() * sizeof(float)),
                0)
          << "m=" << m << " k=" << k << " n=" << n
          << (special ? " with NaN/inf" : "");
    }
  }
  if (!compared) GTEST_SKIP() << "host cannot run both avx2 and avx512";
}

// The production dispatch (matmul itself, whatever MTSR_SIMD selected)
// must agree with its own forced level and stay bit-identical across pool
// sizes — the contract every layer above relies on.
TEST(FloatKernels, ProductionDispatchMatchesForcedLevel) {
  PoolGuard guard;
  Rng rng(93);
  const std::int64_t m = 48, k = 96, n = 520;
  Tensor a = Tensor::uniform(Shape{m, k}, rng, -1.f, 1.f);
  Tensor b = Tensor::uniform(Shape{k, n}, rng, -1.f, 1.f);
  set_num_threads(1);
  const Tensor base = matmul(a, b);
  const int hw = num_threads();
  for (const int pool : {2, hw}) {
    set_num_threads(pool);
    const Tensor got = matmul(a, b);
    ASSERT_EQ(std::memcmp(base.data(), got.data(),
                          static_cast<std::size_t>(base.size()) *
                              sizeof(float)),
              0)
        << "pool=" << pool;
  }
  set_num_threads(0);
  std::vector<float> forced(static_cast<std::size_t>(m * n), -1e30f);
  ASSERT_TRUE(matmul_into_forced_kernel(matmul_kernel_name(), a.data(),
                                        b.data(), forced.data(), m, k, n));
  EXPECT_EQ(std::memcmp(base.data(), forced.data(),
                        forced.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace mtsr
