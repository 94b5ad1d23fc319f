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

/// Wraps a (possibly negative) grid index into [0, n).
inline size_t wrap_index(long i, long n) {
  long m = i % n;
  if (m < 0) m += n;
  return static_cast<size_t>(m);
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
/// weight exp(-d²/(2σ²)) and the wrapped grid index of cell c+o.  The x
/// weights carry the 3-D normalisation, the leftmost factor of every weight
/// product in the spread and gather passes.  Filling it costs 3·(2s+1)
/// exp and wrap_index calls per charge, against (2s+1)³ stencil points.
class ChargeStencil {
 public:
  struct Axis {
    std::vector<double> d, w;
    std::vector<size_t> g;
  };

  ChargeStencil(int support, double sigma2, double gauss_norm, Vec3 h,
                std::array<size_t, 3> n)
      : support_(support), sigma2_(sigma2), gauss_norm_(gauss_norm), h_(h),
        n_(n) {
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
    fill_axis(x, r.x, h_.x, n_[0], gauss_norm_);
    fill_axis(y, r.y, h_.y, n_[1], 1.0);
    fill_axis(z, r.z, h_.z, n_[2], 1.0);
  }

  Axis x, y, z;

 private:
  void fill_axis(Axis& a, double r, double h, size_t n, double norm) const {
    const long c = static_cast<long>(std::floor(r / h));
    for (int o = -support_; o <= support_; ++o) {
      const size_t k = static_cast<size_t>(o + support_);
      const double d = r - static_cast<double>(c + o) * h;
      a.d[k] = d;
      a.w[k] = norm * std::exp(-d * d / (2.0 * sigma2_));
      a.g[k] = wrap_index(c + o, static_cast<long>(n));
    }
  }

  int support_;
  double sigma2_;
  double gauss_norm_;
  Vec3 h_;
  std::array<size_t, 3> n_;
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

/// The real potential grid the gather reads, with its geometry.
struct GatherGrid {
  const double* phi;
  size_t nx;
  size_t plane_stride;
  double cell_volume;
  double sigma2;
};

/// Two doubles in one SSE2 register: lane 0 and lane 1 each carry one
/// charge.
typedef double V2 __attribute__((vector_size(16)));

/// Forces on two charges from the potential, charge a in lane 0 and charge
/// b in lane 1: f = −q∇φ_interp with ∇W = −d/σ² W (d = r_atom − r_cell),
/// summed in (z, y, x) stencil order.  The lanes never mix, so each
/// lane's force has the bits of the same expressions evaluated for its
/// charge alone; the two independent add chains hide each other's
/// latency.
void gather_two(const GatherGrid& grid, const ChargeStencil& a,
                const ChargeStencil& b, double qa, double qb, Vec3& fa,
                Vec3& fb) {
  const size_t width = a.width();
  const V2 q = {qa, qb};
  const V2 cell_volume = {grid.cell_volume, grid.cell_volume};
  const V2 sigma2 = {grid.sigma2, grid.sigma2};
  V2 fx = {0.0, 0.0}, fy = {0.0, 0.0}, fz = {0.0, 0.0};
  for (size_t kz = 0; kz < width; ++kz) {
    const double* plane_a = grid.phi + a.z.g[kz] * grid.plane_stride;
    const double* plane_b = grid.phi + b.z.g[kz] * grid.plane_stride;
    const V2 dz = {a.z.d[kz], b.z.d[kz]};
    const V2 wzv = {a.z.w[kz], b.z.w[kz]};
    for (size_t ky = 0; ky < width; ++ky) {
      const double* row_a = plane_a + a.y.g[ky] * grid.nx;
      const double* row_b = plane_b + b.y.g[ky] * grid.nx;
      const V2 dy = {a.y.d[ky], b.y.d[ky]};
      const V2 wyv = {a.y.w[ky], b.y.w[ky]};
      for (size_t kx = 0; kx < width; ++kx) {
        const V2 wx = {a.x.w[kx], b.x.w[kx]};
        const V2 w = wx * wyv * wzv;
        const V2 phi = {row_a[a.x.g[kx]], row_b[b.x.g[kx]]};
        const V2 coeff = q * phi * cell_volume * w / sigma2;
        const V2 dx = {a.x.d[kx], b.x.d[kx]};
        fx += coeff * dx;
        fy += coeff * dy;
        fz += coeff * dz;
      }
    }
  }
  fa = Vec3{fx[0], fy[0], fz[0]};
  fb = Vec3{fx[1], fy[1], fz[1]};
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
  const size_t plane_stride = nx_ * ny_;
  Grid3D grid(nx_, ny_, nz_);
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
    for (size_t i = 0; i < n; ++i) {
      const double q = charges[i];
      if (q == 0.0) continue;
      st.fill(box.wrap(pos[i]));
      // Most x runs do not cross the box face: a contiguous row slice lets
      // the compiler vectorize the adds (same per-point expression).
      const bool x_run = st.x.g[width - 1] == st.x.g[0] + width - 1;
      for (size_t kz = 0; kz < width; ++kz) {
        double* plane = real_grid + st.z.g[kz] * plane_stride;
        for (size_t ky = 0; ky < width; ++ky) {
          double* row = plane + st.y.g[ky] * nx_;
          const double wyz = st.y.w[ky] * st.z.w[kz];
          if (x_run) {
            double* dst = row + st.x.g[0];
            for (size_t kx = 0; kx < width; ++kx) {
              dst[kx] += q * (st.x.w[kx] * wyz);
            }
          } else {
            for (size_t kx = 0; kx < width; ++kx) {
              row[st.x.g[kx]] += q * (st.x.w[kx] * wyz);
            }
          }
        }
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
    // Pack from the bottom up: the real part of point k (double 2k) moves
    // to double k, below every real part not yet moved.
    for (size_t k = 0; k < cells.size(); ++k) real_grid[k] = cells[k].real();
    const GatherGrid phi{real_grid, nx_, plane_stride, cell_volume,
                         sigma2};
    // Charged atoms pair up in index order; `held` waits for a partner.
    ChargeStencil partner(support_, sigma2, gauss_norm, {hx, hy, hz},
                          {nx_, ny_, nz_});
    size_t held = n;
    for (size_t i = 0; i < n; ++i) {
      if (charges[i] == 0.0) continue;
      if (held == n) {
        held = i;
        continue;
      }
      st.fill(box.wrap(pos[held]));
      partner.fill(box.wrap(pos[i]));
      Vec3 f_held, f_i;
      gather_two(phi, st, partner, charges[held], charges[i], f_held, f_i);
      out.forces.add(held, f_held);
      out.forces.add(i, f_i);
      held = n;
    }
    if (held != n) {  // an odd count: the last charge fills both lanes
      st.fill(box.wrap(pos[held]));
      Vec3 f_held, unused;
      gather_two(phi, st, st, charges[held], charges[held], f_held, unused);
      out.forces.add(held, f_held);
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
