#include "fft/fft.hpp"

#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace antmd {
namespace {

/// Two doubles in one SSE2 register: one complex number [re, im].
typedef double V2 __attribute__((vector_size(16)));

inline V2 load(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

/// a, b ← a + b·w, a − b·w with b·w = (br·wr − bi·wi, br·wi + bi·wr).
/// `wr` holds (wr, wr) and `wi` holds (−wi, wi): lane 0 forms
/// br·wr + bi·(−wi), which equals br·wr − bi·wi exactly, and lane 1 forms
/// bi·wr + br·wi, the same two products added in the other order.
inline void butterfly(double* a, double* b, V2 wr, V2 wi) {
  const V2 u = load(a);
  const V2 bv = load(b);
  const V2 swapped = {bv[1], bv[0]};
  const V2 v = bv * wr + swapped * wi;
  store(a, u + v);
  store(b, u - v);
}

}  // namespace

FftPlan::FftPlan(size_t n) : n_(n) {
  ANTMD_REQUIRE(is_pow2(n), "FFT size must be a power of two");
  ANTMD_REQUIRE(n <= (size_t{1} << 31), "FFT size exceeds 2^31");
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swaps_.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
    }
  }
  for (const bool inverse : {false, true}) {
    std::vector<Complex>& table = inverse ? inverse_ : forward_;
    table.reserve(n > 1 ? n - 1 : 0);
    for (size_t len = 2; len <= n; len <<= 1) {
      double angle = 2.0 * M_PI / static_cast<double>(len) *
                     (inverse ? 1.0 : -1.0);
      Complex wlen(std::cos(angle), std::sin(angle));
      Complex w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        table.push_back(w);
        w *= wlen;
      }
    }
  }
}

void FftPlan::transform(Complex* data, size_t stride, size_t lines,
                        size_t line_stride, bool inverse) const {
  if (n_ == 1 || lines == 0) return;
  // std::complex<double> is layout-compatible with double[2].
  double* base = reinterpret_cast<double*>(data);
  const size_t es = 2 * stride;
  const size_t ls = 2 * line_stride;

  for (const auto& [i, j] : swaps_) {
    double* a = base + i * es;
    double* b = base + j * es;
    for (size_t l = 0; l < lines; ++l) {
      const V2 t = load(a + l * ls);
      store(a + l * ls, load(b + l * ls));
      store(b + l * ls, t);
    }
  }

  const std::vector<Complex>& table = inverse ? inverse_ : forward_;
  for (size_t half = 1; half < n_; half <<= 1) {
    const Complex* tw = table.data() + (half - 1);
    for (size_t i = 0; i < n_; i += 2 * half) {
      for (size_t k = 0; k < half; ++k) {
        const V2 wr = {tw[k].real(), tw[k].real()};
        const V2 wi = {-tw[k].imag(), tw[k].imag()};
        double* a = base + (i + k) * es;
        double* b = a + half * es;
        for (size_t l = 0; l < lines; ++l) {
          butterfly(a + l * ls, b + l * ls, wr, wi);
        }
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    const V2 scale = {inv_n, inv_n};
    for (size_t k = 0; k < n_; ++k) {
      double* row = base + k * es;
      for (size_t l = 0; l < lines; ++l) {
        store(row + l * ls, load(row + l * ls) * scale);
      }
    }
  }
}

void fft_forward(std::vector<Complex>& data) {
  FftPlan(data.size()).transform(data.data(), 1, 1, 0, false);
}

void fft_inverse(std::vector<Complex>& data) {
  FftPlan(data.size()).transform(data.data(), 1, 1, 0, true);
}

}  // namespace antmd
