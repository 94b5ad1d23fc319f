// Single-host MD driver: velocity Verlet with RESPA-style k-space reuse,
// constraints, thermostats, barostats and virtual sites.
//
// This is the *functional* engine.  The machine-mapped runtime
// (runtime::DistributedEngine) evaluates the same kernels partitioned across
// modeled nodes and must produce bit-identical trajectories; md::Simulation
// is both the reference implementation and the workhorse for the sampling
// methods in sampling/.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "ff/forcefield.hpp"
#include "md/barostat.hpp"
#include "md/constraints.hpp"
#include "md/neighbor.hpp"
#include "md/observer.hpp"
#include "md/state.hpp"
#include "md/thermostat.hpp"
#include "util/execution.hpp"
#include "util/serialize.hpp"

namespace antmd::md {

struct SimulationConfig {
  double dt_fs = 2.0;
  /// Recompute reciprocal-space forces every N steps and reuse between
  /// (RESPA-style slow-force caching; 1 = every step).
  int kspace_interval = 1;
  /// Impulse-RESPA inner substeps: bonded (fast) forces are integrated at
  /// dt/respa_inner while nonbonded/k-space kicks bracket the outer step.
  /// 1 = plain velocity Verlet.
  int respa_inner = 1;
  double neighbor_skin = 2.0;  ///< Å
  int com_removal_interval = 200;
  ConstraintAlgorithm constraint_algorithm = ConstraintAlgorithm::kShake;
  ThermostatConfig thermostat;
  BarostatConfig barostat;
  /// If >= 0, draw Maxwell–Boltzmann velocities at this temperature.
  double init_temperature_k = 300.0;
  uint64_t velocity_seed = 1234;
  /// Host parallelism (neighbor-list rebuilds here; force partitions in the
  /// machine runtime).  Defaults to fully serial.
  ExecutionConfig execution;

  /// Throws ConfigError if any field is out of range (dt_fs > 0,
  /// respa_inner >= 1, kspace_interval >= 1, neighbor_skin >= 0).  Called by
  /// the Simulation constructor and SimulationBuilder::build().
  void validate() const;
};

class Simulation : public util::Checkpointable {
 public:
  /// The force field (and the topology it references) must outlive the
  /// simulation. Initial positions/box come from the caller.  Throws
  /// ConfigError when the box is smaller than 2·(cutoff + neighbor_skin)
  /// on any edge (NeighborList::require_fits).
  /// Prefer SimulationBuilder (md/builder.hpp) in new code; this
  /// constructor remains as the builder's target.
  Simulation(ForceField& ff, std::vector<Vec3> positions, Box box,
             SimulationConfig config);

  /// Advances one outer timestep.
  void step();
  /// Advances n steps.
  void run(size_t n);

  // --- observation -----------------------------------------------------------
  [[nodiscard]] const State& state() const { return state_; }
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
  /// Potential + kinetic + thermostat reservoir (drift diagnostic).
  [[nodiscard]] double conserved_quantity() const;
  [[nodiscard]] double pressure_atm() const;
  [[nodiscard]] const NeighborList& neighbor_list() const { return nlist_; }
  [[nodiscard]] ForceField& force_field() { return *ff_; }
  [[nodiscard]] const ForceField& force_field() const { return *ff_; }
  [[nodiscard]] Thermostat& thermostat() { return thermostat_; }
  [[nodiscard]] const ConstraintSolver& constraints() const {
    return constraints_;
  }
  [[nodiscard]] double dt_internal() const { return dt_; }
  [[nodiscard]] double timestep_fs() const { return config_.dt_fs; }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }

  /// Retargets the outer timestep mid-run (HealthGuard degradation path).
  void set_timestep_fs(double dt_fs);

  // --- checkpoint / restart ---------------------------------------------------
  /// Serializes everything needed for a bit-exact resume: dynamic state,
  /// timestep, thermostat/barostat internals and the reciprocal-space force
  /// cache (which was computed at *older* positions when kspace_interval > 1
  /// and therefore cannot be recomputed at restore time).
  void save_checkpoint(util::BinaryWriter& out) const override;
  /// Restores into a simulation constructed with the same topology, force
  /// field and config.  Rebuilds the neighbor list and recomputes forces at
  /// the restored positions; throws IoError on a size or barostat
  /// mismatch with the checkpoint.
  void restore_checkpoint(util::BinaryReader& in) override;

  /// Full potential energy for arbitrary (positions, box): used by the MC
  /// barostat and by sampling methods evaluating trial states.
  [[nodiscard]] double evaluate_potential(std::span<const Vec3> positions,
                                          const Box& box) const;

  /// Reseeds stochastic elements (used by replica-exchange drivers).
  void rescale_velocities(double factor);

  /// Forces an immediate full force recomputation (after external state
  /// surgery, e.g. replica exchange or λ switching).
  void invalidate_forces();

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

  [[nodiscard]] const ExecutionConfig& execution() const {
    return config_.execution;
  }

 private:
  void step_respa();
  void compute_fast_forces();
  void notify_observers();
  /// Wires the per-step force DAG: neighbor update → vsites → {bonded ∥
  /// nonbonded tiles ∥ kspace} → fixed-order reduce.
  void build_step_graph();
  /// Runs the step graph into `sink` (current_ for Verlet, slow_ for the
  /// RESPA outer kick, which excludes bonded).  The single force
  /// orchestration: steps, the constructor, box changes, invalidate_forces
  /// and checkpoint restore all evaluate through it.
  void run_force_graph(ForceResult& sink, bool include_bonded,
                       bool kspace_due);

  ForceField* ff_;
  SimulationConfig config_;
  State state_;
  double dt_;
  NeighborList nlist_;
  ConstraintSolver constraints_;
  Thermostat thermostat_;
  std::optional<Barostat> barostat_;
  ForceResult current_;        ///< latest total forces/energy
  ForceResult kspace_cache_;   ///< latest reciprocal-space contribution
  ForceResult fast_;           ///< bonded forces (RESPA inner loop)
  ForceResult slow_;           ///< nonbonded + k-space (RESPA outer kicks)
  std::vector<Vec3> scratch_before_;
  std::shared_ptr<ExecutionContext> exec_;
  // Per-step force DAG.  The graph is built once and rerun for every force
  // evaluation; these flags parameterize one run.
  std::unique_ptr<util::TaskGraph> step_graph_;
  util::ChunkPlan nb_plan_;  ///< tile chunk partition, refreshed per run
  ForceResult* graph_sink_ = nullptr;
  bool graph_include_bonded_ = true;
  bool graph_kspace_due_ = false;
  ObserverList observers_;
  WallTimer wall_;
};

}  // namespace antmd::md
