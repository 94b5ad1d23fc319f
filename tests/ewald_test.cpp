// Tests for Gaussian Split Ewald: agreement with the direct k-space sum,
// the NaCl Madelung constant, force correctness, corrections, bit-identity
// of the row-form spread/gather against a plain scalar oracle (and their
// agreement with the per-point formula), parameter validation and the
// k-space sub-phase timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "ewald/gse.hpp"
#include "ff/forcefield.hpp"
#include "ff/nonbonded.hpp"
#include "math/fixed.hpp"
#include "math/rng.hpp"
#include "math/units.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "topo/builders.hpp"

namespace antmd {
namespace {

/// Total Ewald electrostatic energy: real-space erfc loop over all pairs
/// (all images within cutoff) + reciprocal part from `solver`.
double total_ewald_energy(const GseSolver& solver, const Box& box,
                          std::span<const Vec3> pos,
                          std::span<const double> charges, double cutoff) {
  double beta = solver.params().beta;
  double real = 0.0;
  int shells = static_cast<int>(std::ceil(cutoff / box.min_edge()));
  for (size_t i = 0; i < pos.size(); ++i) {
    for (size_t j = i + 1; j < pos.size(); ++j) {
      for (int sx = -shells; sx <= shells; ++sx) {
        for (int sy = -shells; sy <= shells; ++sy) {
          for (int sz = -shells; sz <= shells; ++sz) {
            Vec3 shift{sx * box.edges().x, sy * box.edges().y,
                       sz * box.edges().z};
            double r = norm(pos[i] - pos[j] + shift);
            if (r < cutoff) {
              real += units::kCoulomb * charges[i] * charges[j] *
                      std::erfc(beta * r) / r;
            }
          }
        }
      }
    }
  }
  // Same-particle images.
  for (size_t i = 0; i < pos.size(); ++i) {
    for (int sx = -shells; sx <= shells; ++sx) {
      for (int sy = -shells; sy <= shells; ++sy) {
        for (int sz = -shells; sz <= shells; ++sz) {
          if (sx == 0 && sy == 0 && sz == 0) continue;
          Vec3 shift{sx * box.edges().x, sy * box.edges().y,
                     sz * box.edges().z};
          double r = norm(shift);
          if (r < cutoff) {
            real += 0.5 * units::kCoulomb * charges[i] * charges[i] *
                    std::erfc(beta * r) / r;
          }
        }
      }
    }
  }

  ForceResult recip(pos.size());
  solver.compute(pos, charges, {}, box, recip);
  return real + recip.energy.coulomb_kspace.value() +
         recip.energy.coulomb_self.value();
}

TEST(Gse, MadelungConstantNaCl) {
  // Rock-salt lattice: 8 ions in a 2a-cube (a = nearest-neighbour distance).
  const double a = 2.8;
  Box box = Box::cubic(2.0 * a);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int z = 0; z < 2; ++z) {
        pos.push_back(Vec3{x * a, y * a, z * a});
        charges.push_back(((x + y + z) % 2 == 0) ? 1.0 : -1.0);
      }
    }
  }
  GseParams params;
  params.beta = 0.9;          // sharp split: small real-space cutoff works
  params.grid_spacing = 0.25; // fine grid for a tight lattice
  GseSolver solver(box, params);
  double energy = total_ewald_energy(solver, box, pos, charges, 11.0);

  // Madelung: lattice energy per ion pair = -M kC q²/a with M = 1.747565,
  // so per ion it is -M kC/(2a).
  double per_ion = energy / 8.0;
  EXPECT_NEAR(per_ion, -1.747565 * units::kCoulomb / (2.0 * a), 0.35)
      << "per-ion Madelung energy";
}

TEST(Gse, MatchesDirectKspaceSum) {
  // Random small charge cloud; compare grid GSE against the O(N·K) sum.
  Box box = Box::cubic(16.0);
  SequentialRng rng(5);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  double q_sum = 0;
  for (int i = 0; i < 20; ++i) {
    pos.push_back(Vec3{rng.uniform(0, 16), rng.uniform(0, 16),
                       rng.uniform(0, 16)});
    double q = (i % 2 == 0) ? 0.5 : -0.5;
    charges.push_back(q);
    q_sum += q;
  }
  ASSERT_EQ(q_sum, 0.0);

  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);

  ForceResult grid_result(20);
  solver.compute(pos, charges, {}, box, grid_result);
  ForceResult ref_result(20);
  GseSolver::compute_reference(pos, charges, {}, box, params.beta, 12,
                               ref_result);

  double e_grid = grid_result.energy.coulomb_kspace.value();
  double e_ref = ref_result.energy.coulomb_kspace.value();
  EXPECT_NEAR(e_grid, e_ref, 0.02 * std::abs(e_ref) + 0.05);

  // Self terms identical.
  EXPECT_NEAR(grid_result.energy.coulomb_self.value(),
              ref_result.energy.coulomb_self.value(), 1e-9);

  // Forces agree atom by atom.
  for (size_t i = 0; i < 20; ++i) {
    Vec3 fg = grid_result.forces.force(i);
    Vec3 fr = ref_result.forces.force(i);
    double scale = std::max(1.0, norm(fr));
    EXPECT_NEAR(fg.x, fr.x, 0.05 * scale) << i;
    EXPECT_NEAR(fg.y, fr.y, 0.05 * scale) << i;
    EXPECT_NEAR(fg.z, fr.z, 0.05 * scale) << i;
  }
}

TEST(Gse, ReferenceForcesMatchFiniteDifferenceOfEnergy) {
  // The direct k-space sum is a smooth function of positions (no grid), so
  // its forces must match finite differences exactly; the grid solver is
  // separately pinned to the reference in MatchesDirectKspaceSum.  (The
  // grid energy itself has tiny C⁰ discontinuities where the truncated
  // spreading stencil shifts cells, which makes naive FD on it meaningless.)
  Box box = Box::cubic(12.0);
  std::vector<Vec3> pos = {{3, 3, 3}, {6, 4, 3}, {4, 7, 5}, {8, 8, 8}};
  std::vector<double> charges = {1.0, -1.0, 0.5, -0.5};
  const double beta = 0.45;
  const int kmax = 10;

  auto energy = [&](const std::vector<Vec3>& p) {
    ForceResult r(4);
    GseSolver::compute_reference(p, charges, {}, box, beta, kmax, r);
    return r.energy.coulomb_kspace.value() + r.energy.coulomb_self.value();
  };

  ForceResult out(4);
  GseSolver::compute_reference(pos, charges, {}, box, beta, kmax, out);

  const double h = 1e-4;
  for (size_t a = 0; a < 4; ++a) {
    for (int d = 0; d < 3; ++d) {
      auto p = pos;
      p[a][d] += h;
      double ep = energy(p);
      p[a][d] -= 2 * h;
      double em = energy(p);
      double fd = -(ep - em) / (2 * h);
      EXPECT_NEAR(out.forces.force(a)[d], fd,
                  0.005 * std::max(1.0, std::abs(fd)))
          << "atom " << a << " dim " << d;
    }
  }
}

TEST(Gse, GridForcesTrackReferenceAcrossParameters) {
  Box box = Box::cubic(12.0);
  std::vector<Vec3> pos = {{3, 3, 3}, {6, 4, 3}, {4, 7, 5}, {8, 8, 8}};
  std::vector<double> charges = {1.0, -1.0, 0.5, -0.5};
  for (double beta : {0.35, 0.45}) {
    GseParams params;
    params.beta = beta;
    params.grid_spacing = 0.4;
    GseSolver solver(box, params);
    ForceResult grid(4), ref(4);
    solver.compute(pos, charges, {}, box, grid);
    GseSolver::compute_reference(pos, charges, {}, box, beta, 12, ref);
    for (size_t a = 0; a < 4; ++a) {
      double scale = std::max(1.0, norm(ref.forces.force(a)));
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(grid.forces.force(a)[d], ref.forces.force(a)[d],
                    0.05 * scale)
            << "beta " << beta << " atom " << a << " dim " << d;
      }
    }
  }
}

TEST(Gse, NetForceIsSmall) {
  // Reciprocal forces should sum to ~0 (exact in continuum; grid gives
  // small residual).
  Box box = Box::cubic(14.0);
  SequentialRng rng(77);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  for (int i = 0; i < 30; ++i) {
    pos.push_back(Vec3{rng.uniform(0, 14), rng.uniform(0, 14),
                       rng.uniform(0, 14)});
    charges.push_back(i % 2 == 0 ? 0.4 : -0.4);
  }
  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);
  ForceResult out(30);
  solver.compute(pos, charges, {}, box, out);
  Vec3 total{};
  double fmax = 0;
  for (size_t i = 0; i < 30; ++i) {
    total += out.forces.force(i);
    fmax = std::max(fmax, norm(out.forces.force(i)));
  }
  EXPECT_LT(norm(total), 0.02 * fmax * 30);
}

TEST(Gse, ExclusionCorrectionCancelsReciprocalPair) {
  // Two opposite charges very close: with the pair excluded, the total
  // k-space + corrections energy must equal the isolated-pair k-space
  // energy minus erf/r — i.e. adding the exclusion changes the energy by
  // exactly -kC q1 q2 erf(βr)/r.
  Box box = Box::cubic(20.0);
  std::vector<Vec3> pos = {{10, 10, 10}, {11.0, 10, 10}};
  std::vector<double> charges = {0.8, -0.8};
  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);

  ForceResult plain(2), excluded(2);
  solver.compute(pos, charges, {}, box, plain);
  std::vector<std::pair<uint32_t, uint32_t>> excl = {{0, 1}};
  solver.compute(pos, charges, excl, box, excluded);

  double r = 1.0;
  double delta = -units::kCoulomb * charges[0] * charges[1] *
                 std::erf(params.beta * r) / r;
  double measured =
      (excluded.energy.coulomb_kspace.value() +
       excluded.energy.coulomb_self.value()) -
      (plain.energy.coulomb_kspace.value() +
       plain.energy.coulomb_self.value());
  EXPECT_NEAR(measured, delta, 1e-9);
}

TEST(Gse, ChargedSystemGetsBackgroundTerm) {
  Box box = Box::cubic(15.0);
  std::vector<Vec3> pos = {{5, 5, 5}};
  std::vector<double> charges = {1.0};
  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);
  ForceResult out(1);
  solver.compute(pos, charges, {}, box, out);
  double expected_bg = -units::kCoulomb * M_PI /
                       (2 * params.beta * params.beta * box.volume());
  double expected_self = -units::kCoulomb * params.beta / std::sqrt(M_PI);
  EXPECT_NEAR(out.energy.coulomb_self.value(), expected_bg + expected_self,
              1e-9);
}

TEST(Gse, GridSizesArePow2AndRebuildTracksBox) {
  GseParams params;
  params.grid_spacing = 1.0;
  GseSolver solver(Box(20, 40, 10), params);
  EXPECT_EQ(solver.nx(), 32u);
  EXPECT_EQ(solver.ny(), 64u);
  EXPECT_EQ(solver.nz(), 16u);
  solver.rebuild(Box::cubic(50));
  EXPECT_EQ(solver.nx(), 64u);
}

TEST(Gse, WorkloadReportsSensibleNumbers) {
  GseParams params;
  GseSolver solver(Box::cubic(32), params);
  auto w = solver.workload(1000);
  EXPECT_EQ(w.grid_points, solver.nx() * solver.ny() * solver.nz());
  EXPECT_GT(w.spread_stencil_points, 26u);
  EXPECT_EQ(w.charges, 1000u);
  EXPECT_GT(w.fft_flops, 0.0);
}

TEST(Gse, WaterBoxTotalElectrostaticsIsCohesive) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  GseParams params;
  params.beta = 0.35;
  GseSolver solver(spec.box, params);
  ForceResult out(spec.topology.atom_count());
  solver.compute(spec.positions, spec.topology.charges(),
                 spec.topology.excluded_pairs(), spec.box, out);
  EXPECT_TRUE(std::isfinite(out.energy.coulomb_kspace.value()));
  EXPECT_GT(out.energy.coulomb_kspace.value(), 0.0);  // recip part positive
  EXPECT_LT(out.energy.coulomb_self.value(), 0.0);    // self/excl negative
}

// ---------------------------------------------------------------------------
// Bit-identity oracle: the solver's arithmetic restated as plain scalar
// loops over a complex grid — a wrap per stencil point, no packed real
// grid, no split runs or row pairs, no kept grid.  The stencil weights
// follow the Gaussian recurrence and the spread and row-form gather keep the
// association DESIGN.md "GSE k-space" documents, so the production solver
// must reproduce its forces, energies and virial bit for bit.  The nine
// virial doubles pin the stencil fill and the spread to the last bit; the
// gather only reaches the 2^-24 force quanta, which catch any indexing or
// weighting error but not a single-ulp reassociation, so the gather keeps
// exactly the association DESIGN.md lists.  The per-point formula the
// solver used before the row form (three exp calls per gather point,
// q·φ·V·w/σ² per point) stays as a tolerance reference.
// ---------------------------------------------------------------------------

size_t oracle_wrap(long i, long n) {
  long m = i % n;
  if (m < 0) m += n;
  return static_cast<size_t>(m);
}

/// Grid geometry shared by the oracle and the per-point reference.
struct OracleGeometry {
  size_t nx, ny, nz;
  double hx, hy, hz, cell_volume, sigma2, gauss_norm;
  int sup;

  OracleGeometry(const GseSolver& solver, const Box& box)
      : nx(solver.nx()), ny(solver.ny()), nz(solver.nz()),
        hx(box.edges().x / static_cast<double>(nx)),
        hy(box.edges().y / static_cast<double>(ny)),
        hz(box.edges().z / static_cast<double>(nz)),
        cell_volume(hx * hy * hz),
        sigma2(solver.sigma_s() * solver.sigma_s()),
        gauss_norm(std::pow(2.0 * M_PI * sigma2, -1.5)),
        sup(solver.support()) {}
};

/// One axis of the row-form stencil: offsets d, weights w and wrapped grid
/// indices g for o = -support..support.  exp runs only for the centre
/// weight and the ratio R = exp(d0·(h/σ²)); the other weights multiply
/// outwards by g_up = R·e_half and g_down = e_half/R, each step times
/// e_step.
struct OracleAxis {
  std::vector<double> d, w;
  std::vector<size_t> g;

  OracleAxis(double r, double h, size_t n, int sup, double sigma2,
             double norm)
      : d(2 * sup + 1), w(2 * sup + 1), g(2 * sup + 1) {
    const size_t s = static_cast<size_t>(sup);
    const long c = static_cast<long>(std::floor(r / h));
    const double e_half = std::exp(-h * h / (2.0 * sigma2));
    const double e_step = std::exp(-h * h / sigma2);
    const double d0 = r - static_cast<double>(c) * h;
    w[s] = norm * std::exp(-d0 * d0 / (2.0 * sigma2));
    const double ratio = std::exp(d0 * (h / sigma2));
    double up = ratio * e_half;
    double down = e_half / ratio;
    for (size_t k = 1; k <= s; ++k) {
      w[s + k] = w[s + k - 1] * up;
      w[s - k] = w[s - k + 1] * down;
      up *= e_step;
      down *= e_step;
    }
    for (int o = -sup; o <= sup; ++o) {
      const size_t k = static_cast<size_t>(o + sup);
      d[k] = r - static_cast<double>(c + o) * h;
      g[k] = oracle_wrap(c + o, static_cast<long>(n));
    }
  }
};

/// Forward FFT, Green's-function convolution with the Parseval energy and
/// virial, inverse FFT: `grid` goes from charge density to potential.
void oracle_convolve(const GseSolver& solver, const Box& box, Grid3D& grid,
                     ForceResult& out) {
  const OracleGeometry geo(solver, box);
  const double volume = box.volume();
  const double beta = solver.params().beta;
  const double alpha = 1.0 / (4.0 * beta * beta);
  const double kernel_alpha = alpha - geo.sigma2;
  fft3d_forward(grid);
  const double two_pi = 2.0 * M_PI;
  double energy = 0.0;
  Mat3 virial{};
  for (size_t iz = 0; iz < geo.nz; ++iz) {
    long mz = static_cast<long>(iz);
    if (mz > static_cast<long>(geo.nz / 2)) mz -= static_cast<long>(geo.nz);
    double kz = two_pi * static_cast<double>(mz) / box.edges().z;
    for (size_t iy = 0; iy < geo.ny; ++iy) {
      long my = static_cast<long>(iy);
      if (my > static_cast<long>(geo.ny / 2)) my -= static_cast<long>(geo.ny);
      double ky = two_pi * static_cast<double>(my) / box.edges().y;
      for (size_t ix = 0; ix < geo.nx; ++ix) {
        long mx = static_cast<long>(ix);
        if (mx > static_cast<long>(geo.nx / 2)) mx -= static_cast<long>(geo.nx);
        double kx = two_pi * static_cast<double>(mx) / box.edges().x;
        double k2 = kx * kx + ky * ky + kz * kz;
        Complex& g = grid.at(ix, iy, iz);
        if (k2 == 0.0) {
          g = {0.0, 0.0};
          continue;
        }
        double green = 4.0 * M_PI * units::kCoulomb / k2 *
                       std::exp(-kernel_alpha * k2);
        double f2 = std::norm(g) * geo.cell_volume * geo.cell_volume;
        double e_k = 0.5 / volume * green * f2;
        energy += e_k;
        double vfac = 2.0 * (1.0 / k2 + alpha);
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
  virial(1, 0) = virial(0, 1);
  virial(2, 0) = virial(0, 2);
  virial(2, 1) = virial(1, 2);
  fft3d_inverse(grid);
  out.energy.coulomb_kspace.add(energy);
  out.virial += virial;
}

void row_form_oracle(const GseSolver& solver, std::span<const Vec3> pos,
                     std::span<const double> charges,
                     std::span<const std::pair<uint32_t, uint32_t>> excluded,
                     const Box& box, ForceResult& out) {
  const OracleGeometry geo(solver, box);
  const size_t width = static_cast<size_t>(2 * geo.sup + 1);
  auto stencil = [&](size_t i) {
    const Vec3 r = box.wrap(pos[i]);
    return std::array<OracleAxis, 3>{
        OracleAxis(r.x, geo.hx, geo.nx, geo.sup, geo.sigma2, geo.gauss_norm),
        OracleAxis(r.y, geo.hy, geo.ny, geo.sup, geo.sigma2, 1.0),
        OracleAxis(r.z, geo.hz, geo.nz, geo.sup, geo.sigma2, 1.0)};
  };

  Grid3D grid(geo.nx, geo.ny, geo.nz);
  grid.fill({0.0, 0.0});
  for (size_t i = 0; i < pos.size(); ++i) {
    if (charges[i] == 0.0) continue;
    const auto [x, y, z] = stencil(i);
    for (size_t kz = 0; kz < width; ++kz) {
      for (size_t ky = 0; ky < width; ++ky) {
        const double row = (charges[i] * z.w[kz]) * y.w[ky];
        for (size_t kx = 0; kx < width; ++kx) {
          grid.at(x.g[kx], y.g[ky], z.g[kz]) += Complex(row * x.w[kx], 0.0);
        }
      }
    }
  }

  oracle_convolve(solver, box, grid, out);

  for (size_t i = 0; i < pos.size(); ++i) {
    if (charges[i] == 0.0) continue;
    const auto [x, y, z] = stencil(i);
    std::vector<double> z0(width, 0.0), z1(width, 0.0), z2(width, 0.0);
    for (size_t kz = 0; kz < width; ++kz) {
      std::vector<double> y0(width, 0.0), y1(width, 0.0);
      for (size_t ky = 0; ky < width; ++ky) {
        for (size_t kx = 0; kx < width; ++kx) {
          const double phi = grid.at(x.g[kx], y.g[ky], z.g[kz]).real();
          y0[kx] += y.w[ky] * phi;
          y1[kx] += (y.w[ky] * y.d[ky]) * phi;
        }
      }
      for (size_t kx = 0; kx < width; ++kx) {
        z0[kx] += z.w[kz] * y0[kx];
        z1[kx] += z.w[kz] * y1[kx];
        z2[kx] += (z.w[kz] * z.d[kz]) * y0[kx];
      }
    }
    Vec3 f{};
    for (size_t kx = 0; kx < width; ++kx) {
      f.x += (x.w[kx] * x.d[kx]) * z0[kx];
      f.y += x.w[kx] * z1[kx];
      f.z += x.w[kx] * z2[kx];
    }
    out.forces.add(i, (charges[i] * (geo.cell_volume / geo.sigma2)) * f);
  }

  // The self/background/exclusion corrections, in the same order: the
  // direct sum with kmax = 0 visits no k-vector and adds exactly them.
  GseSolver::compute_reference(pos, charges, excluded, box,
                               solver.params().beta, 0, out);
}

/// The per-point formula: three exp calls per stencil point and
/// f += (q·φ·V·w/σ²)·d summed point by point.
void per_point_reference(
    const GseSolver& solver, std::span<const Vec3> pos,
    std::span<const double> charges,
    std::span<const std::pair<uint32_t, uint32_t>> excluded, const Box& box,
    ForceResult& out) {
  const OracleGeometry geo(solver, box);
  const int sup = geo.sup;
  auto axis = [&](double r, double h, size_t n, int o, long& c, double& d,
                  size_t& g) {
    c = static_cast<long>(std::floor(r / h));
    d = r - static_cast<double>(c + o) * h;
    g = oracle_wrap(c + o, static_cast<long>(n));
    return std::exp(-d * d / (2.0 * geo.sigma2));
  };
  Grid3D grid(geo.nx, geo.ny, geo.nz);
  grid.fill({0.0, 0.0});
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < pos.size(); ++i) {
      if (charges[i] == 0.0) continue;
      const Vec3 r = box.wrap(pos[i]);
      Vec3 f{};
      for (int oz = -sup; oz <= sup; ++oz) {
        long cz;
        double dz;
        size_t gz;
        const double wz = axis(r.z, geo.hz, geo.nz, oz, cz, dz, gz);
        for (int oy = -sup; oy <= sup; ++oy) {
          long cy;
          double dy;
          size_t gy;
          const double wy = axis(r.y, geo.hy, geo.ny, oy, cy, dy, gy);
          for (int ox = -sup; ox <= sup; ++ox) {
            long cx;
            double dx;
            size_t gx;
            const double wx = axis(r.x, geo.hx, geo.nx, ox, cx, dx, gx);
            const double w = geo.gauss_norm * wx * wy * wz;
            if (pass == 0) {
              grid.at(gx, gy, gz) += Complex(charges[i] * w, 0.0);
            } else {
              const double phi = grid.at(gx, gy, gz).real();
              const double coeff =
                  charges[i] * phi * geo.cell_volume * w / geo.sigma2;
              f += coeff * Vec3{dx, dy, dz};
            }
          }
        }
      }
      if (pass == 1) out.forces.add(i, f);
    }
    if (pass == 0) oracle_convolve(solver, box, grid, out);
  }
  GseSolver::compute_reference(pos, charges, excluded, box,
                               solver.params().beta, 0, out);
}

/// Runs the solver and the row-form oracle on the same input and asserts
/// bitwise equality: raw force quanta, raw energy quanta of the k-space
/// and self terms, and all nine virial doubles.  Also holds both to the
/// per-point reference: every force component within 1e-10 of the largest
/// one (plus one 2^-24 force quantum, the rounding of the fixed-point
/// accumulator), energy and virial within 1e-10 relative.
void expect_matches_oracle(
    const GseSolver& solver, std::span<const Vec3> pos,
    std::span<const double> charges,
    std::span<const std::pair<uint32_t, uint32_t>> excluded, const Box& box,
    const std::string& label) {
  ForceResult got(pos.size()), want(pos.size()), ref(pos.size());
  solver.compute(pos, charges, excluded, box, got);
  row_form_oracle(solver, pos, charges, excluded, box, want);
  size_t mismatched = 0;
  for (size_t i = 0; i < pos.size(); ++i) {
    if (got.forces.quanta(i) != want.forces.quanta(i)) ++mismatched;
  }
  EXPECT_EQ(mismatched, 0u) << label << ": atoms with different force quanta";
  EXPECT_EQ(got.energy.coulomb_kspace.raw(), want.energy.coulomb_kspace.raw())
      << label;
  EXPECT_EQ(got.energy.coulomb_self.raw(), want.energy.coulomb_self.raw())
      << label;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.virial(a, b)),
                std::bit_cast<uint64_t>(want.virial(a, b)))
          << label << " virial(" << a << "," << b << ")";
    }
  }

  per_point_reference(solver, pos, charges, excluded, box, ref);
  double fmax = 0.0;
  for (size_t i = 0; i < pos.size(); ++i) {
    const Vec3 f = ref.forces.force(i);
    fmax = std::max({fmax, std::abs(f.x), std::abs(f.y), std::abs(f.z)});
  }
  const double ftol = 1e-10 * fmax + 1.0 / fixed::kForceScale;
  for (size_t i = 0; i < pos.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(got.forces.force(i)[d], ref.forces.force(i)[d], ftol)
          << label << " atom " << i << " dim " << d;
    }
  }
  const double e_ref = ref.energy.coulomb_kspace.value();
  EXPECT_NEAR(got.energy.coulomb_kspace.value(), e_ref,
              1e-10 * std::abs(e_ref) + 1e-9)
      << label;
  double vmax = 0.0;
  for (int a = 0; a < 3; ++a) vmax = std::max(vmax, std::abs(ref.virial(a, a)));
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      EXPECT_NEAR(got.virial(a, b), ref.virial(a, b), 1e-10 * vmax)
          << label << " virial(" << a << "," << b << ")";
    }
  }
}

TEST(GseBitIdentity, JitteredWaterBoxes) {
  for (size_t waters : {216u, 512u}) {
    for (uint64_t seed : {3u, 11u}) {
      auto spec = build_water_box(waters, WaterModel::kRigid3Site, seed);
      SequentialRng rng(seed * 7 + waters);
      std::vector<Vec3> pos = spec.positions;
      for (Vec3& p : pos) {
        p += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                  rng.uniform(-0.3, 0.3)};
      }
      GseParams params;
      params.beta = 0.4;
      GseSolver solver(spec.box, params);
      expect_matches_oracle(solver, pos, spec.topology.charges(),
                            spec.topology.excluded_pairs(), spec.box,
                            "water " + std::to_string(waters) + " seed " +
                                std::to_string(seed));
    }
  }
}

/// Uniformly placed random charges; every fifth one is zero.
void random_cloud(const Box& box, size_t count, uint64_t seed,
                  std::vector<Vec3>& pos, std::vector<double>& charges) {
  SequentialRng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    pos.push_back(Vec3{rng.uniform(0, box.edges().x),
                       rng.uniform(0, box.edges().y),
                       rng.uniform(0, box.edges().z)});
    charges.push_back(i % 5 == 4 ? 0.0 : rng.uniform(-1.0, 1.0));
  }
}

TEST(GseBitIdentity, NonCubicBoxWithDistinctGridDims) {
  Box box(20.0, 40.0, 10.0);
  GseParams params;
  params.beta = 0.35;
  GseSolver solver(box, params);
  ASSERT_NE(solver.nx(), solver.ny());
  ASSERT_NE(solver.ny(), solver.nz());
  ASSERT_NE(solver.nx(), solver.nz());
  std::vector<Vec3> pos;
  std::vector<double> charges;
  random_cloud(box, 300, 19, pos, charges);
  std::vector<std::pair<uint32_t, uint32_t>> excl = {{0, 1}, {2, 3}, {7, 9}};
  expect_matches_oracle(solver, pos, charges, excl, box, "non-cubic");
}

TEST(GseBitIdentity, StencilSupportFromOneToTen) {
  const Box box = Box::cubic(24.0);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  random_cloud(box, 120, 23, pos, charges);
  // Widths 3..21: rows past 16 points size the gather's row buffers from
  // support(), not from a fixed lane count.
  for (int support = 1; support <= 10; ++support) {
    GseParams params;
    params.beta = 0.4;
    GseSolver probe(box, params);
    const double h = box.edges().x / static_cast<double>(probe.nx());
    // support = ceil(stencil_sigmas·σ_s / h): aim mid-cell.
    params.stencil_sigmas =
        (static_cast<double>(support) - 0.5) * h / probe.sigma_s();
    GseSolver solver(box, params);
    ASSERT_EQ(solver.support(), support);
    expect_matches_oracle(solver, pos, charges, {}, box,
                          "support " + std::to_string(support));
  }
}

TEST(GseBitIdentity, ChargesOnBothBoxFacesWrapTheStencil) {
  const double l = 16.0;
  const Box box = Box::cubic(l);
  const double below = std::nextafter(l, 0.0);  // last double before L
  const double near = l - 1e-9;
  std::vector<Vec3> pos = {{0.0, 0.0, 0.0},     {below, below, below},
                           {near, near, near},  {0.0, below, near},
                           {below, 0.0, 8.0},   {8.0, 8.0, 0.0},
                           {near, 8.0, below},  {4.0, 12.0, 6.0}};
  std::vector<double> charges = {0.8, -0.8, 0.5, -0.5, 0.0, 0.3, -0.3, 0.0};
  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);
  std::vector<std::pair<uint32_t, uint32_t>> excl = {{0, 1}};
  expect_matches_oracle(solver, pos, charges, excl, box, "box faces");
}

TEST(GseBitIdentity, AllZeroChargesGiveOnlyZeroForces) {
  const Box box = Box::cubic(14.0);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  random_cloud(box, 40, 29, pos, charges);
  std::fill(charges.begin(), charges.end(), 0.0);
  GseParams params;
  GseSolver solver(box, params);
  expect_matches_oracle(solver, pos, charges, {}, box, "zero charges");
  ForceResult out(pos.size());
  solver.compute(pos, charges, {}, box, out);
  for (size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(out.forces.quanta(i), (std::array<int64_t, 3>{0, 0, 0}));
  }
}

TEST(GseBitIdentity, ZeroChargesBetweenChargedAtomsAndALoneCharge) {
  // Zero charges are skipped in both passes; an odd charged count and a
  // single charged atom take the same per-charge path as any other.
  const Box box = Box::cubic(18.0);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  random_cloud(box, 61, 37, pos, charges);
  charges[1] = 0.0;
  charges[2] = 0.0;
  const auto charged = std::count_if(charges.begin(), charges.end(),
                                     [](double q) { return q != 0.0; });
  ASSERT_EQ(charged % 2, 1);
  GseParams params;
  params.beta = 0.4;
  GseSolver solver(box, params);
  std::vector<std::pair<uint32_t, uint32_t>> excl = {{0, 3}, {5, 6}};
  expect_matches_oracle(solver, pos, charges, excl, box, "odd count");
  // A single charged atom is all tail.
  std::vector<double> one(charges.size(), 0.0);
  one[7] = 0.9;
  expect_matches_oracle(solver, pos, one, {}, box, "one charge");
}

TEST(GseBitIdentity, GreenTableFollowsRebuildToBarostatScaledBox) {
  // The Green's function is tabulated per box in rebuild(); a barostat
  // step scales the box and rebuilds.  Anisotropic factors make the three
  // axes' wavevectors differ from the original box's.
  const Box box(21.0, 22.5, 19.5);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  random_cloud(box, 150, 41, pos, charges);
  GseParams params;
  params.beta = 0.38;
  GseSolver solver(box, params);
  expect_matches_oracle(solver, pos, charges, {}, box, "before scaling");
  for (const Box& scaled :
       {box.scaled(1.0031, 0.9987, 1.0012), box.scaled(1.12)}) {
    solver.rebuild(scaled);
    expect_matches_oracle(solver, pos, charges, {}, scaled,
                          "rebuilt " + std::to_string(scaled.edges().x));
  }
}

TEST(GseBitIdentity, ComputeOnAnotherBoxThanTheRebuiltOne) {
  // compute() with a box that rebuild() never saw must not use the cached
  // table: it tabulates that box's Green's function for the call.
  const Box box = Box::cubic(20.0);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  random_cloud(box, 120, 43, pos, charges);
  GseParams params;
  params.beta = 0.4;
  GseSolver solver(box, params);
  const Box other = box.scaled(1.004, 0.998, 1.0);
  expect_matches_oracle(solver, pos, charges, {}, other, "other box");
  // The cached table is untouched by the fallback.
  expect_matches_oracle(solver, pos, charges, {}, box, "rebuilt box again");
}

// ---------------------------------------------------------------------------
// Parameter validation: invalid GseParams throw instead of hanging or
// producing a degenerate grid.
// ---------------------------------------------------------------------------

TEST(GseParamsValidation, RejectsNonPositiveOrNonFiniteParameters) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Box box = Box::cubic(20.0);
  for (double v : {0.0, -1.0, inf, nan}) {
    GseParams spacing;
    spacing.grid_spacing = v;
    EXPECT_THROW(GseSolver(box, spacing), Error) << "grid_spacing " << v;
    GseParams sigmas;
    sigmas.stencil_sigmas = v;
    EXPECT_THROW(GseSolver(box, sigmas), Error) << "stencil_sigmas " << v;
    GseParams beta;
    beta.beta = v;
    EXPECT_THROW(GseSolver(box, beta), Error) << "beta " << v;
  }
  // A tiny but positive spacing asks for an absurd grid; it must throw
  // rather than overflow the power-of-two search.
  GseParams tiny;
  tiny.grid_spacing = 1e-30;
  EXPECT_THROW(GseSolver(box, tiny), Error);
}

// With h²/σ_s² past ~709 the stencil fill's ratio exp(d·h/σ²) overflows and
// the weights turn to inf; rebuild() rejects such a grid (σ_s ≈ 1.01 Å at
// the default β and split).  Below the limit the forces stay finite.
TEST(GseParamsValidation, RejectsGridTooCoarseForTheSpreadingGaussian) {
  GseParams coarse;
  coarse.grid_spacing = 40.0;  // 4 cells of 30 Å: h²/σ² ≈ 882
  EXPECT_THROW(GseSolver(Box::cubic(120.0), coarse), Error);

  GseParams edge;
  edge.grid_spacing = 25.0;  // 4 cells of 25 Å: h²/σ² ≈ 613
  const Box box = Box::cubic(100.0);
  const GseSolver solver(box, edge);
  EXPECT_EQ(solver.support(), 1);
  const std::vector<Vec3> pos{{12.3, 40.1, 77.7}, {61.9, 3.4, 25.2}};
  const std::vector<double> q{0.8, -0.8};
  ForceResult out(pos.size());
  solver.compute(pos, q, {}, box, out);
  // An inf force would saturate the fixed-point accumulator (~5e11).
  for (size_t i = 0; i < pos.size(); ++i) {
    EXPECT_LT(norm(out.forces.force(i)), 1e3) << "atom " << i;
  }
  EXPECT_TRUE(std::isfinite(out.energy.coulomb_kspace.value()));
}

// ---------------------------------------------------------------------------
// Sub-phase telemetry: the five k-space timers nest inside md.kspace.
// ---------------------------------------------------------------------------

TEST(GseTelemetry, SubPhasesSumWithinKspaceTime) {
  obs::ScopedTelemetry on(true);
  auto spec = build_water_box(216, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 8.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.4;
  ForceField field(spec.topology, model);
  md::SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  md::Simulation sim(field, spec.positions, spec.box, cfg);

  auto& reg = obs::MetricsRegistry::global();
  const char* kPhases[] = {
      "md.kspace.spread.time_ns", "md.kspace.fft.time_ns",
      "md.kspace.convolve.time_ns", "md.kspace.gather.time_ns",
      "md.kspace.corrections.time_ns"};
  auto read = [&] {
    std::vector<uint64_t> v;
    for (const char* name : kPhases) v.push_back(reg.counter(name).value());
    v.push_back(reg.counter("md.kspace.time_ns").value());
    return v;
  };
  const std::vector<uint64_t> before = read();
  sim.run(4);
  const std::vector<uint64_t> after = read();

  uint64_t sub_sum = 0;
  for (size_t k = 0; k < std::size(kPhases); ++k) {
    const uint64_t delta = after[k] - before[k];
    EXPECT_GT(delta, 0u) << kPhases[k];
    sub_sum += delta;
  }
  const uint64_t kspace = after.back() - before.back();
  EXPECT_GT(kspace, 0u);
  EXPECT_LE(sub_sum, kspace);
}

}  // namespace
}  // namespace antmd
