// From-scratch complex FFT (iterative radix-2 Cooley–Tukey).
//
// The Gaussian-split-Ewald k-space solve runs on power-of-two grids, which is
// also what Anton's hardware FFT supported; we therefore only implement the
// power-of-two case and validate sizes at the API boundary.
//
// Every transform in the library (1-D, 3-D and the slab-distributed one)
// runs through FftPlan::transform, which applies one length's butterflies
// to a batch of equally strided lines at once.  DESIGN.md "GSE k-space"
// lists the operations each butterfly performs.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace antmd {

using Complex = std::complex<double>;

/// Precomputed tables for one power-of-two transform length: the
/// bit-reversal swaps and, per stage, the twiddles w_k = wlen^k built by
/// the w *= wlen recurrence, for both directions.
class FftPlan {
 public:
  explicit FftPlan(size_t n);

  /// In-place transform of `lines` lines.  Element k of line l is
  /// data[k·stride + l·line_stride].  The inverse includes the 1/n scale.
  void transform(Complex* data, size_t stride, size_t lines,
                 size_t line_stride, bool inverse) const;

 private:
  size_t n_;
  std::vector<std::pair<uint32_t, uint32_t>> swaps_;  ///< i < j pairs
  /// Stage of half-length h keeps its h twiddles at offset h − 1.
  std::vector<Complex> forward_, inverse_;
};

/// In-place forward FFT; n must be a power of two.
void fft_forward(std::vector<Complex>& data);

/// In-place inverse FFT (includes the 1/n normalization).
void fft_inverse(std::vector<Complex>& data);

/// Returns true if n is a nonzero power of two.
[[nodiscard]] constexpr bool is_pow2(size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace antmd
