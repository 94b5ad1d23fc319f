// Gaussian Split Ewald (GSE) — the long-range electrostatics method Anton
// uses (Shan, Klepeis, Eastwood, Dror, Shaw, J. Chem. Phys. 122, 054101).
//
// The Ewald Gaussian of width 1/(2β) is split: part of the smearing is
// applied by spreading charges onto a regular grid with a Gaussian of
// variance σ_s², the rest is folded into the reciprocal-space convolution
// kernel, and the same Gaussian is reused to interpolate forces off the
// grid.  The k-space solve is a dense 3D FFT (fft/).
//
// Correctness contract: real-space kernel (ff::Electrostatics::kEwaldReal
// with the same β) + this reciprocal part + self/exclusion/background
// corrections reproduces full Ewald electrostatics; the Madelung-constant
// test in tests/ewald_test.cpp pins this down.
#pragma once

#include <span>
#include <vector>

#include "fft/fft3d.hpp"
#include "ff/energy.hpp"
#include "math/pbc.hpp"

namespace antmd {

struct GseParams {
  double beta = 0.35;          ///< Ewald splitting parameter (Å⁻¹)
  double grid_spacing = 1.0;   ///< target grid spacing (Å); grid dims are
                               ///< rounded up to powers of two
  double sigma_split = 0.5;    ///< fraction of the total Gaussian variance
                               ///< assigned to spreading (0 < f < 1)
  double stencil_sigmas = 4.0; ///< spreading support radius in units of σ_s
                               ///< (the truncated tail gives the grid energy
                               ///< tiny C⁰ steps when the stencil shifts; 4σ
                               ///< keeps them ~1e-4 of the peak weight)
};

/// Workload statistics from one reciprocal-space evaluation, consumed by the
/// machine timing model (experiment F5).
struct GseWorkload {
  size_t grid_points = 0;
  size_t spread_stencil_points = 0;  ///< per charge
  size_t charges = 0;
  double fft_flops = 0.0;
};

class GseSolver {
 public:
  GseSolver(const Box& box, GseParams params);

  /// Recomputes grid dimensions and the Green's-function table after a box
  /// change (barostat).
  void rebuild(const Box& box);

  /// Adds reciprocal-space forces and energy for the given charges.
  /// Also adds the self-energy, neutralizing-background and excluded-pair
  /// corrections so that (real-space erfc loop + this) == full Ewald.
  /// A box other than the one last passed to rebuild() gets a Green's
  /// table of its own for this call.  Not reentrant on one solver: every
  /// call reuses the solver's k-space grid (each replica or engine owns
  /// its ForceField and so its solver; concurrent solves need one each).
  void compute(std::span<const Vec3> pos, std::span<const double> charges,
               std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs,
               const Box& box, ForceResult& out) const;

  [[nodiscard]] const GseParams& params() const { return params_; }
  /// Edges of the box last passed to rebuild().
  [[nodiscard]] const Vec3& box_edges() const { return green_edges_; }
  [[nodiscard]] size_t nx() const { return nx_; }
  [[nodiscard]] size_t ny() const { return ny_; }
  [[nodiscard]] size_t nz() const { return nz_; }
  /// Spreading stencil half-width in cells (the stencil is 2·support+1 wide).
  [[nodiscard]] int support() const { return support_; }
  /// Spreading Gaussian standard deviation σ_s (Å).
  [[nodiscard]] double sigma_s() const { return sigma_s_; }
  [[nodiscard]] GseWorkload workload(size_t n_charges) const;

  /// Direct (non-grid) reciprocal-space Ewald sum for validation; O(N·K).
  /// Includes the same self/background/exclusion corrections.
  static void compute_reference(std::span<const Vec3> pos,
                                std::span<const double> charges,
                                std::span<const std::pair<uint32_t, uint32_t>>
                                    excluded_pairs,
                                const Box& box, double beta, int kmax,
                                ForceResult& out);

 private:
  void corrections(std::span<const Vec3> pos, std::span<const double> charges,
                   std::span<const std::pair<uint32_t, uint32_t>>
                       excluded_pairs,
                   const Box& box, ForceResult& out) const;

  /// Green's function and virial factor 2(1/k² + α) of one wavevector.
  struct GreenEntry {
    double green = 0.0;
    double vfac = 0.0;
  };
  /// Entries over the non-negative octant |m_x| ≤ nx/2, |m_y| ≤ ny/2,
  /// |m_z| ≤ nz/2 (x fastest) for `box`: G(m) = G(|m|) bit for bit.
  [[nodiscard]] std::vector<GreenEntry> green_table(const Box& box) const;

  GseParams params_;
  size_t nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<GreenEntry> green_;  ///< green_table(box of last rebuild)
  Vec3 green_edges_{};             ///< that box's edges
  double sigma_s_ = 0.0;   ///< spreading Gaussian std-dev (Å)
  int support_ = 0;        ///< stencil half-width in cells
  /// The k-space grid, kept across solves (sized on first use after a
  /// change of grid dimensions, zeroed at the start of every solve).
  mutable Grid3D grid_;
};

}  // namespace antmd
