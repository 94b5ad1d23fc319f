// Tests for the from-scratch FFT: round trips, known transforms, Parseval,
// 3D transforms, the distributed-cost estimator, and bit identity of the
// batched plan core against the per-line transform it replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>

#include "fft/distributed.hpp"
#include "fft/fft.hpp"
#include "fft/fft3d.hpp"
#include "math/rng.hpp"
#include "util/error.hpp"

namespace antmd {
namespace {

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(24));
}

TEST(Fft, RejectsNonPow2) {
  std::vector<Complex> data(24);
  EXPECT_THROW(fft_forward(data), Error);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<Complex> data(16, {0, 0});
  data[0] = {1, 0};
  fft_forward(data);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleModeIsDetected) {
  const size_t n = 64;
  std::vector<Complex> data(n);
  const size_t mode = 5;
  for (size_t i = 0; i < n; ++i) {
    double phase = 2.0 * M_PI * static_cast<double>(mode * i) / n;
    data[i] = {std::cos(phase), std::sin(phase)};
  }
  fft_forward(data);
  for (size_t k = 0; k < n; ++k) {
    double expected = (k == mode) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(data[k]), expected, 1e-9) << "k=" << k;
  }
}

TEST(Fft, RoundTripRestoresInput) {
  SequentialRng rng(4);
  for (size_t n : {2u, 8u, 128u, 1024u}) {
    std::vector<Complex> data(n);
    for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    auto orig = data;
    fft_forward(data);
    fft_inverse(data);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
      EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  SequentialRng rng(9);
  const size_t n = 256;
  std::vector<Complex> data(n);
  double time_sum = 0;
  for (auto& v : data) {
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    time_sum += std::norm(v);
  }
  fft_forward(data);
  double freq_sum = 0;
  for (const auto& v : data) freq_sum += std::norm(v);
  EXPECT_NEAR(freq_sum, time_sum * n, 1e-8 * time_sum * n);
}

TEST(Fft, LinearityHolds) {
  SequentialRng rng(13);
  const size_t n = 64;
  std::vector<Complex> a(n), b(n), sum(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = {rng.uniform(-1, 1), 0};
    b[i] = {rng.uniform(-1, 1), 0};
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft_forward(a);
  fft_forward(b);
  fft_forward(sum);
  for (size_t i = 0; i < n; ++i) {
    Complex expect = a[i] + 2.0 * b[i];
    EXPECT_NEAR(std::abs(sum[i] - expect), 0.0, 1e-10);
  }
}

TEST(Fft3d, RoundTrip) {
  Grid3D g(8, 4, 16);
  SequentialRng rng(21);
  for (auto& v : g.raw()) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto orig = g.raw();
  fft3d_forward(g);
  fft3d_inverse(g);
  for (size_t i = 0; i < orig.size(); ++i) {
    EXPECT_NEAR(g.raw()[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(g.raw()[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft3d, PlaneWaveSingleCoefficient) {
  const size_t nx = 8, ny = 8, nz = 8;
  Grid3D g(nx, ny, nz);
  const size_t mx = 2, my = 3, mz = 1;
  for (size_t z = 0; z < nz; ++z) {
    for (size_t y = 0; y < ny; ++y) {
      for (size_t x = 0; x < nx; ++x) {
        double phase = 2.0 * M_PI *
                       (static_cast<double>(mx * x) / nx +
                        static_cast<double>(my * y) / ny +
                        static_cast<double>(mz * z) / nz);
        g.at(x, y, z) = {std::cos(phase), std::sin(phase)};
      }
    }
  }
  fft3d_forward(g);
  for (size_t z = 0; z < nz; ++z) {
    for (size_t y = 0; y < ny; ++y) {
      for (size_t x = 0; x < nx; ++x) {
        double expected =
            (x == mx && y == my && z == mz) ? double(nx * ny * nz) : 0.0;
        EXPECT_NEAR(std::abs(g.at(x, y, z)), expected, 1e-8);
      }
    }
  }
}

TEST(Fft3d, RejectsNonPow2Grid) {
  EXPECT_THROW(Grid3D(7, 8, 8), Error);
}

TEST(Fft3d, CostEstimateScales) {
  auto small = estimate_fft_cost(32, 32, 32, 1);
  auto big = estimate_fft_cost(64, 64, 64, 1);
  EXPECT_GT(big.flops, 8.0 * small.flops * 0.9);
  EXPECT_EQ(small.alltoall_bytes, 0.0);  // single node: no transpose

  auto dist = estimate_fft_cost(32, 32, 32, 8);
  EXPECT_GT(dist.alltoall_bytes, 0.0);
  EXPECT_EQ(dist.messages_per_node, 14u);  // 2 transposes × 7 peers
}

// ---------------------------------------------------------------------------
// Bit identity against the per-line transform the plan core replaced.  The
// oracle below is that code, kept verbatim: twiddles rebuilt per line from
// cos/sin and the w *= wlen recurrence, and every line copied out, through
// std::complex arithmetic, and back.  Any change in a butterfly's operands
// or rounding shows up as a memcmp difference.
// ---------------------------------------------------------------------------

void oracle_fft_core(std::vector<Complex>& a, bool inverse) {
  const size_t n = a.size();
  if (n == 1) return;
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    double angle = 2.0 * M_PI / static_cast<double>(len) *
                   (inverse ? 1.0 : -1.0);
    Complex wlen(std::cos(angle), std::sin(angle));
    for (size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        Complex u = a[i + k];
        Complex v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv_n;
  }
}

void oracle_fft3d(Grid3D& g, bool inverse) {
  std::vector<Complex> line(g.nx());
  for (size_t z = 0; z < g.nz(); ++z) {
    for (size_t y = 0; y < g.ny(); ++y) {
      for (size_t x = 0; x < g.nx(); ++x) line[x] = g.at(x, y, z);
      oracle_fft_core(line, inverse);
      for (size_t x = 0; x < g.nx(); ++x) g.at(x, y, z) = line[x];
    }
  }
  line.resize(g.ny());
  for (size_t z = 0; z < g.nz(); ++z) {
    for (size_t x = 0; x < g.nx(); ++x) {
      for (size_t y = 0; y < g.ny(); ++y) line[y] = g.at(x, y, z);
      oracle_fft_core(line, inverse);
      for (size_t y = 0; y < g.ny(); ++y) g.at(x, y, z) = line[y];
    }
  }
  line.resize(g.nz());
  for (size_t y = 0; y < g.ny(); ++y) {
    for (size_t x = 0; x < g.nx(); ++x) {
      for (size_t z = 0; z < g.nz(); ++z) line[z] = g.at(x, y, z);
      oracle_fft_core(line, inverse);
      for (size_t z = 0; z < g.nz(); ++z) g.at(x, y, z) = line[z];
    }
  }
}

bool same_bytes(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

/// Complex input, or the real-only input the GSE spread hands the FFT
/// (imaginary parts exactly +0.0, with a share of exact zeros).
Grid3D random_grid(size_t nx, size_t ny, size_t nz, bool real_only,
                   uint64_t seed) {
  Grid3D g(nx, ny, nz);
  SequentialRng rng(seed);
  for (auto& v : g.raw()) {
    const double re = rng.uniform(-1, 1);
    const double im = rng.uniform(-1, 1);
    v = real_only ? Complex(re < -0.6 ? 0.0 : re, 0.0) : Complex(re, im);
  }
  return g;
}

TEST(FftBitIdentity, OneDimensionalMatchesPerLineOracle) {
  SequentialRng rng(31);
  for (size_t n : {1u, 2u, 4u, 8u, 32u, 64u, 256u, 4096u}) {
    std::vector<Complex> data(n);
    for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (bool inverse : {false, true}) {
      auto got = data, want = data;
      if (inverse) fft_inverse(got);
      else fft_forward(got);
      oracle_fft_core(want, inverse);
      EXPECT_TRUE(same_bytes(got, want)) << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftBitIdentity, ThreeDimensionalMatchesPerLineOracle) {
  const size_t shapes[][3] = {{64, 64, 64}, {8, 4, 16}, {1, 8, 2}, {32, 2, 64}};
  for (const auto& s : shapes) {
    for (bool real_only : {false, true}) {
      const std::string label = std::to_string(s[0]) + "x" +
                                std::to_string(s[1]) + "x" +
                                std::to_string(s[2]) +
                                (real_only ? " real" : " complex");
      Grid3D got = random_grid(s[0], s[1], s[2], real_only, s[0] + 7 * s[2]);
      Grid3D want = got;
      fft3d_forward(got);
      oracle_fft3d(want, false);
      ASSERT_TRUE(same_bytes(got.raw(), want.raw())) << label << " forward";
      // The inverse runs on the forward output, as in the GSE solve.
      fft3d_inverse(got);
      oracle_fft3d(want, true);
      ASSERT_TRUE(same_bytes(got.raw(), want.raw())) << label << " inverse";
    }
  }
}

TEST(FftBitIdentity, DistributedMatchesSerial) {
  for (size_t ranks : {1u, 2u, 4u}) {
    Grid3D dist = random_grid(16, 8, 32, /*real_only=*/true, 5 + ranks);
    Grid3D serial = dist;
    DistributedFft3d fft(16, 8, 32, ranks);
    const FftCommLog log = fft.forward(dist);
    fft3d_forward(serial);
    EXPECT_TRUE(same_bytes(dist.raw(), serial.raw())) << ranks << " ranks";
    EXPECT_EQ(log.transposes, 2u);
    EXPECT_EQ(log.messages, 2 * ranks * (ranks - 1));
    fft.inverse(dist);
    fft3d_inverse(serial);
    EXPECT_TRUE(same_bytes(dist.raw(), serial.raw())) << ranks << " ranks";
  }
}

}  // namespace
}  // namespace antmd
