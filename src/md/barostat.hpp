// Barostats: Berendsen weak-coupling (virial-based) and a Monte Carlo
// volume barostat (energy-based, no virial needed).
#pragma once

#include <cstdint>
#include <functional>

#include "math/rng.hpp"
#include "md/state.hpp"
#include "topo/topology.hpp"
#include "util/serialize.hpp"

namespace antmd::md {

enum class BarostatKind {
  kNone,
  kBerendsen,          ///< isotropic weak coupling
  kBerendsenSemiIso,   ///< xy (membrane plane) and z coupled separately
  kMonteCarlo,         ///< isotropic MC volume moves
};

struct BarostatConfig {
  BarostatKind kind = BarostatKind::kNone;
  double pressure_atm = 1.0;
  double tau_fs = 2000.0;             ///< Berendsen coupling time
  double compressibility = 4.5e-5;    ///< atm⁻¹, water-like
  int interval = 25;                  ///< steps between barostat attempts
  double mc_max_dv_fraction = 0.02;   ///< MC: max relative volume change
  uint64_t seed = 11;
  double temperature_k = 300.0;       ///< MC acceptance temperature
};

/// Scales box and molecule centres-of-mass (atoms within a molecule move
/// rigidly so constraints/bonds are not stretched by the scaling).
void scale_box_and_molecules(const Topology& topo, double factor,
                             State& state);

/// Anisotropic variant: per-axis scale factors (membrane simulations).
void scale_box_and_molecules(const Topology& topo, const Vec3& factors,
                             State& state);

class Barostat {
 public:
  /// `potential_energy` is used by the MC barostat to evaluate trial
  /// volumes; it must recompute the full potential for given
  /// (positions, box).
  using PotentialFn =
      std::function<double(std::span<const Vec3>, const Box&)>;

  Barostat(const Topology& topo, BarostatConfig config,
           PotentialFn potential_energy);

  /// Called once per step; acts only every config.interval steps.
  /// `virial_trace` is from the most recent force evaluation.
  /// Returns true if the box changed.
  /// For the semi-isotropic kind, pass the full virial tensor via
  /// maybe_apply_tensor instead.
  bool maybe_apply(State& state, double virial_trace);

  /// Semi-isotropic path: needs the diagonal of the virial tensor.
  bool maybe_apply_tensor(State& state, const Mat3& virial);

  /// The potential energy MC moves price (positions, box) at.
  [[nodiscard]] double trial_energy(std::span<const Vec3> positions,
                                    const Box& box) const {
    return potential_(positions, box);
  }

  [[nodiscard]] uint64_t mc_attempts() const { return mc_attempts_; }
  [[nodiscard]] uint64_t mc_accepts() const { return mc_accepts_; }

  /// Checkpoint support: MC move counters and the sequential RNG stream
  /// position (Berendsen kinds are stateless but share the same layout).
  void save_state(util::BinaryWriter& out) const;
  void restore_state(util::BinaryReader& in);

 private:
  bool apply_berendsen(State& state, double virial_trace);
  bool apply_berendsen_semi_iso(State& state, const Mat3& virial);
  bool apply_monte_carlo(State& state);

  const Topology* topo_;
  BarostatConfig config_;
  PotentialFn potential_;
  SequentialRng rng_;
  uint64_t mc_attempts_ = 0;
  uint64_t mc_accepts_ = 0;
};

}  // namespace antmd::md
