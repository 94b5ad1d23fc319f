// Single-host MD driver: the shared velocity-Verlet core (md/engine_core.hpp)
// with forces from a per-step task graph, plus RESPA-style k-space reuse,
// impulse-RESPA inner steps, barostats and virtual sites.
//
// This is the *functional* engine.  The machine-mapped runtime
// (runtime::DistributedEngine) evaluates the same kernels partitioned across
// modeled nodes and must produce bit-identical trajectories; md::Simulation
// is both the reference implementation and the workhorse for the sampling
// methods in sampling/.
#pragma once

#include <memory>
#include <optional>

#include "md/barostat.hpp"
#include "md/engine_core.hpp"
#include "util/execution.hpp"

namespace antmd::md {

struct SimulationConfig {
  double dt_fs = 2.0;
  /// Recompute reciprocal-space forces every N steps and reuse between
  /// (RESPA-style slow-force caching; 1 = every step).
  int kspace_interval = 1;
  /// Impulse-RESPA inner substeps: bonded (fast) forces are integrated at
  /// dt/respa_inner while nonbonded/k-space kicks bracket the outer step.
  /// 1 = plain velocity Verlet.  RESPA runs at constant volume: a barostat
  /// needs respa_inner = 1.
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
  /// kspace_interval >= 1, neighbor_skin >= 0, respa_inner >= 1) or if
  /// respa_inner > 1 comes with a barostat.  Called by
  /// the Simulation constructor and SimulationBuilder::build().
  void validate() const;
};

class Simulation : public EngineCore {
 public:
  /// The force field (and the topology it references) must outlive the
  /// simulation. Initial positions/box come from the caller.  Throws
  /// ConfigError on an out-of-range config or when the box is smaller than
  /// 2·(cutoff + neighbor_skin) on any edge (NeighborList::require_fits).
  /// Prefer SimulationBuilder (md/builder.hpp) in new code; this
  /// constructor remains as the builder's target.
  Simulation(ForceField& ff, std::vector<Vec3> positions, Box box,
             SimulationConfig config);

  /// Advances one outer timestep.
  void step() override;

  /// Potential + kinetic + thermostat reservoir (drift diagnostic).
  [[nodiscard]] double conserved_quantity() const;
  [[nodiscard]] double pressure_atm() const;
  /// The configured barostat, or nullptr.
  [[nodiscard]] const Barostat* barostat() const {
    return barostat_ ? &*barostat_ : nullptr;
  }

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

  /// Reseeds stochastic elements (used by replica-exchange drivers).
  void rescale_velocities(double factor);

  /// Forces an immediate full force recomputation (after external state
  /// surgery, e.g. replica exchange or λ switching).
  void invalidate_forces();

 private:
  void evaluate_forces(bool kspace_due) override;
  /// The barostat, between the thermostat and COM removal.
  void couple_pressure() override;
  void step_respa();
  void compute_fast_forces();
  /// Wires the per-step force DAG: neighbor update → vsites → {bonded ∥
  /// nonbonded tiles ∥ kspace} → fixed-order reduce.
  void build_step_graph();
  /// Runs the step graph into `sink` (current_ for Verlet, slow_ for the
  /// RESPA outer kick, which excludes bonded).  The single force
  /// orchestration: steps, the constructor, box changes, invalidate_forces
  /// and checkpoint restore all evaluate through it.
  void run_force_graph(ForceResult& sink, bool include_bonded,
                       bool kspace_due);

  SimulationConfig config_;
  std::optional<Barostat> barostat_;
  ForceResult fast_;           ///< bonded forces (RESPA inner loop)
  ForceResult slow_;           ///< nonbonded + k-space (RESPA outer kicks)
  std::shared_ptr<ExecutionContext> exec_;
  // Per-step force DAG.  The graph is built once and rerun for every force
  // evaluation; these flags parameterize one run.
  std::unique_ptr<util::TaskGraph> step_graph_;
  util::ChunkPlan nb_plan_;  ///< tile chunk partition, refreshed per run
  ForceResult* graph_sink_ = nullptr;
  bool graph_include_bonded_ = true;
  bool graph_kspace_due_ = false;
};

}  // namespace antmd::md
