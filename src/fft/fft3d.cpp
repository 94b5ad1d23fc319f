#include "fft/fft3d.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace antmd {

Grid3D::Grid3D(size_t nx, size_t ny, size_t nz)
    : nx_(nx), ny_(ny), nz_(nz), data_(nx * ny * nz) {
  ANTMD_REQUIRE(is_pow2(nx) && is_pow2(ny) && is_pow2(nz),
                "grid dimensions must be powers of two");
}

void Grid3D::fill(Complex value) {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {

/// Lines per batch for the x and z axes: 16 lines of up to 64 points keep
/// a batch's working set (16 KB at n = 64) in L1.
constexpr size_t kBatch = 16;

/// Transforms every line of every axis: x lines in batches of rows of a
/// z-plane, y lines across all x rows of a z-plane, z lines across blocks
/// of the xy-plane.  Lines are independent, so the batching does not
/// change what any line computes.
void transform_3d(Grid3D& g, bool inverse) {
  const size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const size_t plane = nx * ny;
  Complex* data = g.raw().data();
  const FftPlan px(nx), py(ny), pz(nz);
  for (size_t z = 0; z < nz; ++z) {
    Complex* p = data + z * plane;
    for (size_t y = 0; y < ny; y += kBatch) {
      px.transform(p + y * nx, 1, std::min(kBatch, ny - y), nx, inverse);
    }
    py.transform(p, nx, nx, 1, inverse);
  }
  for (size_t xy = 0; xy < plane; xy += kBatch) {
    pz.transform(data + xy, plane, std::min(kBatch, plane - xy), 1, inverse);
  }
}

}  // namespace

void fft3d_forward(Grid3D& grid) { transform_3d(grid, false); }

void fft3d_inverse(Grid3D& grid) { transform_3d(grid, true); }

FftCommEstimate estimate_fft_cost(size_t nx, size_t ny, size_t nz,
                                  size_t nodes) {
  ANTMD_REQUIRE(nodes > 0, "nodes must be positive");
  const double n = static_cast<double>(nx * ny * nz);
  FftCommEstimate est;
  // 5 N log2 N real operations is the standard complex-FFT work estimate.
  est.flops = 5.0 * n * std::log2(std::max(2.0, n));
  if (nodes > 1) {
    // Two transposes; each moves the whole grid once (16 B per complex).
    est.alltoall_bytes = 2.0 * n * 16.0;
    est.messages_per_node = 2 * (nodes - 1);
  }
  return est;
}

}  // namespace antmd
