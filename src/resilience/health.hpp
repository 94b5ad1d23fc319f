// Numerical health checks: the predicates resilience::Supervisor runs after
// each step.
//
// find_violation() inspects a simulation engine (md::Simulation or
// runtime::MachineSimulation — anything exposing state/forces/temperature/
// constraints) for non-finite or exploding positions/forces, temperature
// spikes, energy drift and SHAKE non-convergence.  HealthConfig holds its
// thresholds plus the numerical-failure policy the Supervisor applies: throw
// a typed NumericalError, or roll back (optionally at a reduced timestep).
#pragma once

#include <cmath>
#include <string>

#include "md/state.hpp"

namespace antmd::resilience {

enum class HealthPolicy {
  kThrow,     ///< raise NumericalError on the first violation
  kRollback,  ///< restore the newest good snapshot and retry
};

struct HealthConfig {
  /// Positions: any non-finite component always trips; additionally any
  /// component with |x| above this bound (Å).
  double max_abs_position = 1e6;
  /// Forces: any non-finite component always trips; additionally any
  /// component above this bound (kcal/mol/Å).  The fault layer's poison
  /// sentinel (fault::kPoisonQuanta) dequantizes far above any physical
  /// force, so injected "NaN" forces are caught here.
  double max_force = 1e8;
  /// Instantaneous temperature bound (K); 0 disables.
  double max_temperature_k = 1e5;
  /// Allowed |Δ(potential + kinetic)| per step since the last good
  /// snapshot (kcal/mol); 0 disables.  Use only for NVE-like runs — a
  /// thermostat exchanges energy with the bath legitimately.
  double max_energy_drift = 0.0;
  /// Largest relative constraint violation tolerated after a step
  /// (SHAKE non-convergence detector); 0 disables.
  double max_constraint_violation = 1e-4;
  /// Check every N steps (1 = every step).
  int check_interval = 1;
  HealthPolicy policy = HealthPolicy::kRollback;
  /// Under kRollback, a numerical rollback resumes at
  /// min(restored dt, dt at failure) × this factor; must be in (0, 1].
  /// 1 keeps recovery bit-exact (the trajectory equals the fault-free run).
  double dt_scale_on_retry = 1.0;
};

/// Returns a human-readable description of the first health violation found,
/// or an empty string.  `Sim` must expose state(), forces(), temperature()
/// and constraints().
template <typename Sim>
std::string find_violation(const Sim& sim, const HealthConfig& config,
                           double reference_energy, uint64_t reference_step) {
  const State& state = sim.state();
  for (size_t i = 0; i < state.positions.size(); ++i) {
    const Vec3& p = state.positions[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      return "non-finite position of atom " + std::to_string(i);
    }
    if (std::fabs(p.x) > config.max_abs_position ||
        std::fabs(p.y) > config.max_abs_position ||
        std::fabs(p.z) > config.max_abs_position) {
      return "position of atom " + std::to_string(i) + " exceeds " +
             std::to_string(config.max_abs_position) + " A";
    }
  }
  const auto& forces = sim.forces().forces;
  for (size_t i = 0; i < forces.size(); ++i) {
    Vec3 f = forces.force(i);
    if (!std::isfinite(f.x) || !std::isfinite(f.y) || !std::isfinite(f.z)) {
      return "non-finite force on atom " + std::to_string(i);
    }
    if (std::fabs(f.x) > config.max_force ||
        std::fabs(f.y) > config.max_force ||
        std::fabs(f.z) > config.max_force) {
      return "force on atom " + std::to_string(i) + " exceeds " +
             std::to_string(config.max_force) + " kcal/mol/A";
    }
  }
  if (config.max_temperature_k > 0) {
    double t = sim.temperature();
    if (!std::isfinite(t) || t > config.max_temperature_k) {
      return "temperature " + std::to_string(t) + " K exceeds " +
             std::to_string(config.max_temperature_k) + " K";
    }
  }
  if (config.max_energy_drift > 0 && state.step > reference_step) {
    double e = sim.potential_energy() + sim.kinetic_energy();
    double allowed = config.max_energy_drift *
                     static_cast<double>(state.step - reference_step);
    if (!std::isfinite(e) ||
        std::fabs(e - reference_energy) > allowed) {
      return "energy drifted by " +
             std::to_string(e - reference_energy) + " kcal/mol since step " +
             std::to_string(reference_step);
    }
  }
  if (config.max_constraint_violation > 0 && !sim.constraints().empty()) {
    double v = sim.constraints().max_violation(state.positions, state.box);
    if (!std::isfinite(v) || v > config.max_constraint_violation) {
      return "constraint violation " + std::to_string(v) + " exceeds " +
             std::to_string(config.max_constraint_violation);
    }
  }
  return {};
}

}  // namespace antmd::resilience
