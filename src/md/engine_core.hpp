// EngineCore: the velocity-Verlet integrator both engines share.
//
// md::Simulation and runtime::MachineSimulation differ only in how they
// evaluate forces: the host step graph, or the DistributedEngine on the
// modeled machine.  Everything else a step does — the half kicks, the
// drift and SHAKE, RATTLE, the clock/thermostat/COM epilogue — lives here
// once, as on the machine itself, where the geometry cores integrate,
// constrain and thermostat whatever unit computed the forces.  The core
// also owns the EngineApi surface (md/engine_api.hpp) and the checkpoint
// prefix both engines write.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ff/forcefield.hpp"
#include "md/constraints.hpp"
#include "md/neighbor.hpp"
#include "md/observer.hpp"
#include "md/state.hpp"
#include "md/thermostat.hpp"
#include "util/serialize.hpp"

namespace antmd::md {

/// The integration settings both engines' config structs carry as flat
/// fields of the same names.
struct IntegratorConfig {
  double dt_fs = 0.0;
  int kspace_interval = 1;
  double neighbor_skin = 0.0;
  int com_removal_interval = 0;
  ConstraintAlgorithm constraint_algorithm = ConstraintAlgorithm::kShake;
  ThermostatConfig thermostat;
  double init_temperature_k = -1.0;
  uint64_t velocity_seed = 0;

  /// The shared fields of an engine config (SimulationConfig,
  /// runtime::MachineSimConfig).
  template <typename EngineConfig>
  static IntegratorConfig of(const EngineConfig& c) {
    return {c.dt_fs,
            c.kspace_interval,
            c.neighbor_skin,
            c.com_removal_interval,
            c.constraint_algorithm,
            c.thermostat,
            c.init_temperature_k,
            c.velocity_seed};
  }

  /// Throws ConfigError unless dt_fs > 0, kspace_interval >= 1 and
  /// neighbor_skin >= 0.
  void validate() const;
};

/// Full potential energy of `ff` at arbitrary (positions, box): virtual
/// sites constructed, a fresh cluster-mode list, bonded + real-space +
/// k-space.  At the box the field's GSE solver was last rebuilt for, the
/// field's own solver serves; any other box (a barostat trial, another
/// replica's frame) gets a fresh solver.  Both use the field's scaled
/// charges.  The MC barostat and the cross-Hamiltonian energies of H-REMD
/// and FEP evaluate trial states through this one function.
[[nodiscard]] double evaluate_potential(const ForceField& ff,
                                        std::span<const Vec3> positions,
                                        const Box& box, double time = 0.0);

class EngineCore : public util::Checkpointable {
 public:
  /// Advances one outer timestep.
  virtual void step() = 0;
  /// Advances n steps.
  void run(size_t n);

  // --- observation -----------------------------------------------------------
  [[nodiscard]] const State& state() const { return state_; }
  /// Direct mutable access for external state surgery (replica exchange,
  /// SDC bit-flip injection in tests); the next force evaluation picks the
  /// change up.
  [[nodiscard]] State& mutable_state() { return state_; }
  [[nodiscard]] const ForceResult& forces() const { return current_; }
  [[nodiscard]] double potential_energy() const {
    return current_.energy.total();
  }
  [[nodiscard]] double kinetic_energy() const {
    return md::kinetic_energy(ff_->topology(), state_);
  }
  [[nodiscard]] double temperature() const {
    return md::temperature(ff_->topology(), state_);
  }
  [[nodiscard]] ForceField& force_field() { return *ff_; }
  [[nodiscard]] const ForceField& force_field() const { return *ff_; }
  [[nodiscard]] const NeighborList& neighbor_list() const { return nlist_; }
  [[nodiscard]] Thermostat& thermostat() { return thermostat_; }
  [[nodiscard]] const ConstraintSolver& constraints() const {
    return constraints_;
  }

  // --- timestep ---------------------------------------------------------------
  [[nodiscard]] double timestep_fs() const { return dt_fs_; }
  [[nodiscard]] double dt_internal() const { return dt_; }
  /// Retargets the outer timestep mid-run (the Supervisor's
  /// dt_scale_on_retry degradation path); throws ConfigError unless > 0.
  void set_timestep_fs(double dt_fs);

  // --- step observation -------------------------------------------------------
  /// Registers a callback fired after each completed step where
  /// step % interval == 0.  The observer (and anything it captures) must
  /// outlive every step() made while registered.
  void add_observer(StepObserver obs, int interval = 1) {
    observers_.add(std::move(obs), interval);
  }
  /// Suspends/resumes step observers (SDC shadow replay: re-executed steps
  /// must not re-fire trajectory writers or metrics samplers).
  void set_observers_enabled(bool enabled) {
    observers_.set_enabled(enabled);
  }

 protected:
  /// Validates `config`, checks the positions against the topology and the
  /// box against 2·(cutoff + skin) (ConfigError), draws velocities when
  /// init_temperature_k >= 0 and grids the field for the box.  The force
  /// field (and its topology) must outlive the engine.
  EngineCore(ForceField& ff, std::vector<Vec3> positions, const Box& box,
             const IntegratorConfig& config);

  /// Forces at the current positions into current_ (and kspace_cache_ when
  /// `kspace_due`), neighbor update included.
  virtual void evaluate_forces(bool kspace_due) = 0;
  /// Runs between the thermostat and COM removal (the host barostat).
  virtual void couple_pressure() {}

  /// One velocity-Verlet step: kick, drift + SHAKE, forces, kick, RATTLE,
  /// epilogue.  Observers are the caller's to notify.
  void verlet_step();
  /// v += h/(2m)·F for every atom with mass.
  void kick(const FixedForceArray& forces, double h);
  /// x += h·v for every atom with mass, then SHAKE against the positions
  /// before the drift (the impulse folds into v at step h).
  void drift(double h);
  /// RATTLE: removes velocity components along the constraints.
  void rattle();
  /// Clock, thermostat, couple_pressure() and periodic COM removal.
  void end_step();
  /// Fires the due observers with the post-step summary.
  void notify_observers();
  /// Whether the step being taken recomputes reciprocal-space forces.
  [[nodiscard]] bool kspace_due() const {
    return (state_.step + 1) % static_cast<uint64_t>(kspace_interval_) == 0;
  }

  /// Checkpoint prefix shared by both engines: state, dt, thermostat.
  void save_core(util::BinaryWriter& out) const;
  /// Reads the prefix back; throws IoError when the atom count differs.
  void restore_core(util::BinaryReader& in);

  ForceField* ff_;
  double dt_fs_;
  double dt_;  ///< internal units
  int kspace_interval_;
  int com_removal_interval_;
  State state_;
  NeighborList nlist_;
  ConstraintSolver constraints_;
  Thermostat thermostat_;
  ForceResult current_;       ///< latest total forces/energy
  ForceResult kspace_cache_;  ///< latest reciprocal-space contribution
  std::vector<Vec3> scratch_before_;
  ObserverList observers_;
  WallTimer wall_;
};

}  // namespace antmd::md
