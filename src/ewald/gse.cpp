#include "ewald/gse.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "math/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace antmd {
namespace {

/// Largest grid dimension per axis; far beyond any box the host can hold,
/// and it keeps next_pow2's shift from overflowing.
constexpr size_t kMaxGridDim = size_t{1} << 20;

size_t next_pow2(double x) {
  ANTMD_REQUIRE(x <= static_cast<double>(kMaxGridDim),
                "GSE grid dimension exceeds 2^20 (grid_spacing too small)");
  size_t n = 1;
  while (static_cast<double>(n) < x) n <<= 1;
  return n;
}

/// Sub-phase timers of one reciprocal-space solve (nested inside the
/// engines' md.kspace / runtime.kspace spans).
struct KspaceMetrics {
  obs::Counter& spread_ns;
  obs::Counter& fft_ns;  ///< forward + inverse
  obs::Counter& convolve_ns;
  obs::Counter& gather_ns;
  obs::Counter& corrections_ns;
};

KspaceMetrics& kspace_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static KspaceMetrics m{reg.counter("md.kspace.spread.time_ns"),
                         reg.counter("md.kspace.fft.time_ns"),
                         reg.counter("md.kspace.convolve.time_ns"),
                         reg.counter("md.kspace.gather.time_ns"),
                         reg.counter("md.kspace.corrections.time_ns")};
  return m;
}

/// One charge's separable spreading stencil.  The 3-D Gaussian weight at
/// stencil offset (ox, oy, oz) is a product of three 1-D weights, so each
/// axis keeps, for o = -support..support, the offset d = r - (c+o)·h, the
/// weight exp(-d²/(2σ²)) and the wrapped grid index g of cell c+o.  The x
/// weights carry the 3-D normalisation.
///
/// Per axis and charge exp runs twice: for the centre weight w[s] and for
/// R = exp(d_0·h/σ²).  With d_o = d_0 - o·h the neighbour ratios are
/// w[o+1]/w[o] = R_o·e_half and w[o-1]/w[o] = e_half/R_o, where
/// R_o = exp(d_o·h/σ²) and e_half = exp(-h²/(2σ²)), and each step outwards
/// multiplies a ratio by e_step = exp(-h²/σ²).  So the weights follow from
/// g_up = R·e_half and g_down = e_half/R; e_half and e_step are fixed per
/// solve.  DESIGN.md "GSE k-space" lists the association.
class ChargeStencil {
 public:
  struct Axis {
    std::vector<double> d, w;
    std::vector<size_t> g;
  };

  ChargeStencil(int support, double sigma2, double gauss_norm, Vec3 h,
                std::array<size_t, 3> n)
      : support_(support), sigma2_(sigma2), gauss_norm_(gauss_norm),
        x_(h.x, sigma2, n[0]), y_(h.y, sigma2, n[1]), z_(h.z, sigma2, n[2]) {
    for (Axis* a : {&x, &y, &z}) {
      a->d.resize(width());
      a->w.resize(width());
      a->g.resize(width());
    }
  }

  [[nodiscard]] size_t width() const {
    return static_cast<size_t>(2 * support_ + 1);
  }

  /// Fills the three axis tables for a charge at wrapped position r.
  void fill(const Vec3& r) {
    fill_axis(x, r.x, x_, gauss_norm_);
    fill_axis(y, r.y, y_, 1.0);
    fill_axis(z, r.z, z_, 1.0);
  }

  Axis x, y, z;

 private:
  /// Per-solve constants of one axis.
  struct Geometry {
    double h, h_over_sigma2, e_half, e_step;
    size_t n;
    Geometry(double h_, double sigma2, size_t n_)
        : h(h_), h_over_sigma2(h_ / sigma2),
          e_half(std::exp(-h_ * h_ / (2.0 * sigma2))),
          e_step(std::exp(-h_ * h_ / sigma2)), n(n_) {}
  };

  void fill_axis(Axis& a, double r, const Geometry& geo, double norm) const {
    const long c = static_cast<long>(std::floor(r / geo.h));
    const size_t s = static_cast<size_t>(support_);
    const double d0 = r - static_cast<double>(c) * geo.h;
    a.d[s] = d0;
    a.w[s] = norm * std::exp(-d0 * d0 / (2.0 * sigma2_));
    const double ratio = std::exp(d0 * geo.h_over_sigma2);
    double up = ratio * geo.e_half;
    double down = geo.e_half / ratio;
    for (size_t k = 1; k <= s; ++k) {
      const long o = static_cast<long>(k);
      a.d[s + k] = r - static_cast<double>(c + o) * geo.h;
      a.d[s - k] = r - static_cast<double>(c - o) * geo.h;
      a.w[s + k] = a.w[s + k - 1] * up;
      a.w[s - k] = a.w[s - k + 1] * down;
      up *= geo.e_step;
      down *= geo.e_step;
    }
    // c is in [0, n] and 2s+1 <= n, so the stencil wraps at most once.
    size_t g = static_cast<size_t>(c) + geo.n - s;
    if (g >= geo.n) g -= geo.n;
    for (size_t k = 0; k < a.g.size(); ++k) {
      a.g[k] = g;
      if (++g == geo.n) g = 0;
    }
  }

  int support_;
  double sigma2_;
  double gauss_norm_;
  Geometry x_, y_, z_;
};

/// Per grid index along one axis: the signed wavevector k = 2π·m/L for
/// the wrapped mode m (m > n/2 maps to m − n) and |m|, the Green's-table
/// index.  k(−m) is exactly −k(m), so k² and G depend on |m| only.
struct WaveAxis {
  std::vector<double> k;
  std::vector<size_t> abs_m;

  WaveAxis(size_t n, double edge) : k(n), abs_m(n) {
    for (size_t i = 0; i < n; ++i) {
      long m = static_cast<long>(i);
      if (m > static_cast<long>(n / 2)) m -= static_cast<long>(n);
      k[i] = 2.0 * M_PI * static_cast<double>(m) / edge;
      abs_m[i] = static_cast<size_t>(m < 0 ? -m : m);
    }
  }
};

/// dst[k] += c·w[k] for k < len: one contiguous run of a spread row.
inline void spread_run(double* __restrict dst, const double* __restrict w,
                       double c, size_t len) {
  for (size_t k = 0; k < len; ++k) dst[k] += c * w[k];
}

/// spread_run on two different rows a and b at once.
inline void spread_run_pair(double* __restrict a, double* __restrict b,
                            const double* __restrict w, double ca, double cb,
                            size_t len) {
  for (size_t k = 0; k < len; ++k) {
    a[k] += ca * w[k];
    b[k] += cb * w[k];
  }
}

/// Row accumulators of the gather, each one stencil width wide.
struct GatherRows {
  std::vector<double> y0, y1, z0, z1, z2;
  explicit GatherRows(size_t width)
      : y0(width), y1(width), z0(width), z1(width), z2(width) {}
};

/// y0[k] = (y0[k] + wa·a[k]) + wb·b[k] and likewise y1 with wda, wdb for
/// k < len: two consecutive stencil rows a, b of one z-plane, added in
/// row order.  That rounds as two gather_row calls do, with half the
/// loads and stores of y0 and y1 (DESIGN.md "GSE k-space" has timings).
inline void gather_row_pair(double* __restrict y0, double* __restrict y1,
                            const double* __restrict a,
                            const double* __restrict b, double wa, double wda,
                            double wb, double wdb, size_t len) {
  for (size_t k = 0; k < len; ++k) {
    y0[k] = (y0[k] + wa * a[k]) + wb * b[k];
    y1[k] = (y1[k] + wda * a[k]) + wdb * b[k];
  }
}

/// y0[k] += wa·a[k] and y1[k] += wda·a[k] for k < len: one stencil row.
inline void gather_row(double* __restrict y0, double* __restrict y1,
                       const double* __restrict a, double wa, double wda,
                       size_t len) {
  for (size_t k = 0; k < len; ++k) {
    y0[k] += wa * a[k];
    y1[k] += wda * a[k];
  }
}

/// Σ over the stencil of (w·d_x, w·d_y, w·d_z)·φ for one charge, w the 3-D
/// weight, in row form: per z-plane Y0[x] = Σ_y w_y·φ and
/// Y1[x] = Σ_y (w_y·d_y)·φ along contiguous x rows, then Z0 += w_z·Y0,
/// Z1 += w_z·Y1, Z2 += (w_z·d_z)·Y0 in plane order, and finally three
/// in-order x sums of (w_x·d_x)·Z0, w_x·Z1 and w_x·Z2.  The force is this
/// times q·V_cell/σ² (∇W = −d/σ²·W, d = r_atom − r_cell).  `phi` holds
/// the real potential, nx·ny·nz doubles, x fastest.
Vec3 gather_sums(const double* phi, size_t nx, size_t ny,
                 const ChargeStencil& st, GatherRows& rows) {
  const size_t width = st.width();  // odd: pairs of rows, then the last
  double* __restrict y0 = rows.y0.data();
  double* __restrict y1 = rows.y1.data();
  double* __restrict z0 = rows.z0.data();
  double* __restrict z1 = rows.z1.data();
  double* __restrict z2 = rows.z2.data();
  std::fill_n(z0, width, 0.0);
  std::fill_n(z1, width, 0.0);
  std::fill_n(z2, width, 0.0);
  const double* wy = st.y.w.data();
  const double* dy = st.y.d.data();
  // The x cells run contiguously up to the box face, then from cell 0.
  const size_t x0 = st.x.g[0];
  const size_t split = std::min(width, nx - x0);
  for (size_t kz = 0; kz < width; ++kz) {
    const double* plane = phi + st.z.g[kz] * ny * nx;
    std::fill_n(y0, width, 0.0);
    std::fill_n(y1, width, 0.0);
    size_t ky = 0;
    for (; ky + 1 < width; ky += 2) {
      const double* a = plane + st.y.g[ky] * nx;
      const double* b = plane + st.y.g[ky + 1] * nx;
      const double wa = wy[ky], wda = wy[ky] * dy[ky];
      const double wb = wy[ky + 1], wdb = wy[ky + 1] * dy[ky + 1];
      gather_row_pair(y0, y1, a + x0, b + x0, wa, wda, wb, wdb, split);
      gather_row_pair(y0 + split, y1 + split, a, b, wa, wda, wb, wdb,
                      width - split);
    }
    const double* a = plane + st.y.g[ky] * nx;
    const double wa = wy[ky], wda = wy[ky] * dy[ky];
    gather_row(y0, y1, a + x0, wa, wda, split);
    gather_row(y0 + split, y1 + split, a, wa, wda, width - split);
    const double wz = st.z.w[kz];
    const double wzd = wz * st.z.d[kz];
    for (size_t kx = 0; kx < width; ++kx) {
      z0[kx] += wz * y0[kx];
      z1[kx] += wz * y1[kx];
      z2[kx] += wzd * y0[kx];
    }
  }
  Vec3 f{};
  for (size_t kx = 0; kx < width; ++kx) {
    const double wx = st.x.w[kx];
    f.x += (wx * st.x.d[kx]) * z0[kx];
    f.y += wx * z1[kx];
    f.z += wx * z2[kx];
  }
  return f;
}

}  // namespace

std::vector<GseSolver::GreenEntry> GseSolver::green_table(
    const Box& box) const {
  const size_t hx = nx_ / 2 + 1, hy = ny_ / 2 + 1, hz = nz_ / 2 + 1;
  const double alpha = 1.0 / (4.0 * params_.beta * params_.beta);
  // The convolution kernel carries the variance the spreading left over.
  const double kernel_alpha = alpha - sigma_s_ * sigma_s_;
  const double two_pi = 2.0 * M_PI;
  std::vector<GreenEntry> table(hx * hy * hz);
  for (size_t az = 0; az < hz; ++az) {
    const double kz = two_pi * static_cast<double>(az) / box.edges().z;
    for (size_t ay = 0; ay < hy; ++ay) {
      const double ky = two_pi * static_cast<double>(ay) / box.edges().y;
      for (size_t ax = 0; ax < hx; ++ax) {
        const double kx = two_pi * static_cast<double>(ax) / box.edges().x;
        const double k2 = kx * kx + ky * ky + kz * kz;
        if (k2 == 0.0) continue;  // the convolution zeroes k = 0 itself
        GreenEntry& e = table[(az * hy + ay) * hx + ax];
        e.green = 4.0 * M_PI * units::kCoulomb / k2 *
                  std::exp(-kernel_alpha * k2);
        e.vfac = 2.0 * (1.0 / k2 + alpha);
      }
    }
  }
  return table;
}

GseSolver::GseSolver(const Box& box, GseParams params)
    : params_(params) {
  ANTMD_REQUIRE(std::isfinite(params_.beta) && params_.beta > 0,
                "beta must be finite and positive");
  ANTMD_REQUIRE(std::isfinite(params_.grid_spacing) &&
                    params_.grid_spacing > 0,
                "grid_spacing must be finite and positive");
  ANTMD_REQUIRE(std::isfinite(params_.stencil_sigmas) &&
                    params_.stencil_sigmas > 0,
                "stencil_sigmas must be finite and positive");
  ANTMD_REQUIRE(params_.sigma_split > 0 && params_.sigma_split < 1,
                "sigma_split must be in (0, 1)");
  rebuild(box);
}

void GseSolver::rebuild(const Box& box) {
  nx_ = next_pow2(box.edges().x / params_.grid_spacing);
  ny_ = next_pow2(box.edges().y / params_.grid_spacing);
  nz_ = next_pow2(box.edges().z / params_.grid_spacing);
  // Total reciprocal Gaussian variance α = 1/(4β²); σ_s² takes a fraction.
  const double alpha = 1.0 / (4.0 * params_.beta * params_.beta);
  sigma_s_ = std::sqrt(params_.sigma_split * alpha);
  const double h_max =
      std::max({box.edges().x / static_cast<double>(nx_),
                box.edges().y / static_cast<double>(ny_),
                box.edges().z / static_cast<double>(nz_)});
  support_ = static_cast<int>(
      std::ceil(params_.stencil_sigmas * sigma_s_ / h_max));
  ANTMD_REQUIRE(support_ >= 1, "spreading support collapsed to zero");
  ANTMD_REQUIRE(2 * support_ + 1 <= static_cast<int>(std::min({nx_, ny_, nz_})),
                "grid too small for the spreading stencil");
  // The stencil fill's ratio exp(d·h/σ²), d < h, must stay finite.
  ANTMD_REQUIRE(h_max * h_max / (sigma_s_ * sigma_s_) < 700.0,
                "grid too coarse for the spreading Gaussian");
  green_ = green_table(box);
  green_edges_ = box.edges();
}

GseWorkload GseSolver::workload(size_t n_charges) const {
  GseWorkload w;
  w.grid_points = nx_ * ny_ * nz_;
  size_t stencil = static_cast<size_t>(2 * support_ + 1);
  w.spread_stencil_points = stencil * stencil * stencil;
  w.charges = n_charges;
  w.fft_flops = 2.0 * estimate_fft_cost(nx_, ny_, nz_, 1).flops;  // fwd+inv
  return w;
}

void GseSolver::compute(
    std::span<const Vec3> pos, std::span<const double> charges,
    std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs,
    const Box& box, ForceResult& out) const {
  const size_t n = pos.size();
  ANTMD_REQUIRE(charges.size() == n, "positions/charges size mismatch");

  const double hx = box.edges().x / static_cast<double>(nx_);
  const double hy = box.edges().y / static_cast<double>(ny_);
  const double hz = box.edges().z / static_cast<double>(nz_);
  const double cell_volume = hx * hy * hz;
  const double volume = box.volume();
  const double sigma2 = sigma_s_ * sigma_s_;
  const double gauss_norm =
      std::pow(2.0 * M_PI * sigma2, -1.5);  // 3D Gaussian normalization

  KspaceMetrics& metrics = kspace_metrics();
  ChargeStencil st(support_, sigma2, gauss_norm, {hx, hy, hz},
                   {nx_, ny_, nz_});
  const size_t width = st.width();
  if (grid_.nx() != nx_ || grid_.ny() != ny_ || grid_.nz() != nz_) {
    grid_ = Grid3D(nx_, ny_, nz_);
  }
  Grid3D& grid = grid_;
  // The real charge density, and after the inverse FFT the real potential
  // φ, live packed in the first half of the complex grid's storage (one
  // double per point; std::complex<double> is layout-compatible with
  // double[2]), so the spread and gather touch half the bytes of the
  // complex grid without a second buffer.
  std::vector<Complex>& cells = grid.raw();
  double* real_grid = reinterpret_cast<double*>(cells.data());

  // --- spread charges -------------------------------------------------------
  {
    obs::ScopedTimer timer(metrics.spread_ns);
    std::fill_n(real_grid, cells.size(), 0.0);
    const size_t plane_stride = nx_ * ny_;
    for (size_t i = 0; i < n; ++i) {
      const double q = charges[i];
      if (q == 0.0) continue;
      st.fill(box.wrap(pos[i]));
      // The x cells run contiguously up to the box face, then from cell 0.
      const size_t x0 = st.x.g[0];
      const size_t split = std::min(width, nx_ - x0);
      const double* wx = st.x.w.data();
      for (size_t kz = 0; kz < width; ++kz) {
        double* plane = real_grid + st.z.g[kz] * plane_stride;
        const double qz = q * st.z.w[kz];
        size_t ky = 0;
        for (; ky + 1 < width; ky += 2) {
          const double ca = qz * st.y.w[ky];
          const double cb = qz * st.y.w[ky + 1];
          double* a = plane + st.y.g[ky] * nx_;
          double* b = plane + st.y.g[ky + 1] * nx_;
          spread_run_pair(a + x0, b + x0, wx, ca, cb, split);
          spread_run_pair(a, b, wx + split, ca, cb, width - split);
        }
        const double c = qz * st.y.w[ky];
        double* row = plane + st.y.g[ky] * nx_;
        spread_run(row + x0, wx, c, split);
        spread_run(row, wx + split, c, width - split);
      }
    }
    // Unpack from the top down: point k moves to doubles 2k and 2k+1,
    // never below the packed values not yet moved.
    for (size_t k = cells.size(); k-- > 0;) {
      cells[k] = Complex(real_grid[k], 0.0);
    }
  }

  // --- k-space convolution ---------------------------------------------------
  {
    obs::ScopedTimer timer(metrics.fft_ns);
    fft3d_forward(grid);
  }

  double energy = 0.0;
  Mat3 virial{};
  {
    obs::ScopedTimer timer(metrics.convolve_ns);
    std::vector<GreenEntry> local;
    const GreenEntry* table = green_.data();
    if (!(box.edges() == green_edges_)) {
      local = green_table(box);
      table = local.data();
    }
    const WaveAxis ax(nx_, box.edges().x), ay(ny_, box.edges().y),
        az(nz_, box.edges().z);
    const size_t hx = nx_ / 2 + 1, hy = ny_ / 2 + 1;
    for (size_t iz = 0; iz < nz_; ++iz) {
      const double kz = az.k[iz];
      for (size_t iy = 0; iy < ny_; ++iy) {
        const double ky = ay.k[iy];
        const GreenEntry* row = table + (az.abs_m[iz] * hy + ay.abs_m[iy]) * hx;
        for (size_t ix = 0; ix < nx_; ++ix) {
          const double kx = ax.k[ix];
          double k2 = kx * kx + ky * ky + kz * kz;
          Complex& g = grid.at(ix, iy, iz);
          if (k2 == 0.0) {
            g = {0.0, 0.0};  // tinfoil boundary conditions
            continue;
          }
          const double green = row[ax.abs_m[ix]].green;
          // Energy via Parseval on the DFT coefficients:
          // rho_hat(k) = F * cell_volume; E = 1/(2V) Σ G |rho_hat|² / kC...
          double f2 = std::norm(g) * cell_volume * cell_volume;
          double e_k = 0.5 / volume * green * f2;
          energy += e_k;
          const double vfac = row[ax.abs_m[ix]].vfac;
          virial(0, 0) += e_k * (1.0 - vfac * kx * kx);
          virial(1, 1) += e_k * (1.0 - vfac * ky * ky);
          virial(2, 2) += e_k * (1.0 - vfac * kz * kz);
          virial(0, 1) += e_k * (-vfac * kx * ky);
          virial(0, 2) += e_k * (-vfac * kx * kz);
          virial(1, 2) += e_k * (-vfac * ky * kz);
          g *= green;
        }
      }
    }
  }
  virial(1, 0) = virial(0, 1);
  virial(2, 0) = virial(0, 2);
  virial(2, 1) = virial(1, 2);

  {
    obs::ScopedTimer timer(metrics.fft_ns);
    fft3d_inverse(grid);  // grid now holds the (smeared) potential φ
  }

  // --- interpolate forces off the grid --------------------------------------
  {
    obs::ScopedTimer timer(metrics.gather_ns);
    // Pack φ's real parts into the first half of the storage, as the
    // spread left the density: writing double k overwrites point k/2,
    // already moved.
    for (size_t k = 0; k < cells.size(); ++k) real_grid[k] = cells[k].real();
    const double force_scale = cell_volume / sigma2;
    GatherRows rows(width);
    for (size_t i = 0; i < n; ++i) {
      const double q = charges[i];
      if (q == 0.0) continue;
      st.fill(box.wrap(pos[i]));
      const Vec3 sums = gather_sums(real_grid, nx_, ny_, st, rows);
      out.forces.add(i, (q * force_scale) * sums);
    }
  }

  out.energy.coulomb_kspace.add(energy);
  out.virial += virial;

  obs::ScopedTimer timer(metrics.corrections_ns);
  corrections(pos, charges, excluded_pairs, box, out);
}

void GseSolver::corrections(
    std::span<const Vec3> pos, std::span<const double> charges,
    std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs,
    const Box& box, ForceResult& out) const {
  const double beta = params_.beta;
  double q2_sum = 0.0;
  double q_sum = 0.0;
  for (double q : charges) {
    q2_sum += q * q;
    q_sum += q;
  }
  // Point self-interaction removed from the reciprocal sum.
  double self_energy = -units::kCoulomb * beta / std::sqrt(M_PI) * q2_sum;
  // Neutralizing background for non-neutral systems.
  double bg_energy = -units::kCoulomb * M_PI /
                     (2.0 * beta * beta * box.volume()) * q_sum * q_sum;
  out.energy.coulomb_self.add(self_energy + bg_energy);
  out.virial += Mat3::diagonal(bg_energy, bg_energy, bg_energy);

  // Excluded pairs: the reciprocal sum contains their full (smeared)
  // interaction; remove the erf(βr)/r piece so excluded pairs feel nothing.
  const double two_beta_over_sqrt_pi = 2.0 * beta / std::sqrt(M_PI);
  for (const auto& [i, j] : excluded_pairs) {
    double qq = charges[i] * charges[j];
    if (qq == 0.0) continue;
    Vec3 d = box.min_image(pos[i], pos[j]);
    double r2 = norm2(d);
    double r = std::sqrt(r2);
    double erf_term = std::erf(beta * r);
    double gauss = two_beta_over_sqrt_pi * std::exp(-beta * beta * r2);
    double energy = -units::kCoulomb * qq * erf_term / r;
    // f_over_r for U = -kC qq erf(βr)/r:
    double f_over_r =
        units::kCoulomb * qq * (gauss / r2 - erf_term / (r2 * r));
    Vec3 f = f_over_r * d;
    out.forces.add_pair(i, j, f);
    out.energy.coulomb_self.add(energy);
    out.virial += outer(d, f);
  }
}

void GseSolver::compute_reference(
    std::span<const Vec3> pos, std::span<const double> charges,
    std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs,
    const Box& box, double beta, int kmax, ForceResult& out) {
  const size_t n = pos.size();
  const double volume = box.volume();
  const double alpha = 1.0 / (4.0 * beta * beta);
  const double two_pi = 2.0 * M_PI;

  double energy = 0.0;
  for (int mx = -kmax; mx <= kmax; ++mx) {
    for (int my = -kmax; my <= kmax; ++my) {
      for (int mz = -kmax; mz <= kmax; ++mz) {
        if (mx == 0 && my == 0 && mz == 0) continue;
        Vec3 k{two_pi * mx / box.edges().x, two_pi * my / box.edges().y,
               two_pi * mz / box.edges().z};
        double k2 = norm2(k);
        double green =
            4.0 * M_PI * units::kCoulomb / k2 * std::exp(-alpha * k2);
        double re = 0.0, im = 0.0;  // S(k)
        for (size_t i = 0; i < n; ++i) {
          double phase = dot(k, pos[i]);
          re += charges[i] * std::cos(phase);
          im += charges[i] * std::sin(phase);
        }
        energy += 0.5 / volume * green * (re * re + im * im);
        for (size_t i = 0; i < n; ++i) {
          double phase = dot(k, pos[i]);
          double c = std::cos(phase), s = std::sin(phase);
          // f_i = -(1/V) G q_i k (c·Im S - s·Re S)
          double coeff =
              -green / volume * charges[i] * (c * im - s * re);
          out.forces.add(i, coeff * k);
        }
      }
    }
  }
  out.energy.coulomb_kspace.add(energy);

  GseParams p;
  p.beta = beta;
  GseSolver solver(box, p);
  solver.corrections(pos, charges, excluded_pairs, box, out);
}

}  // namespace antmd
