// MachineSimulation: MD on the modeled Anton-class machine.
//
// It steps on the velocity-Verlet core it shares with md::Simulation
// (md/engine_core.hpp); only its forces differ: they come from the
// DistributedEngine (partitioned across modeled nodes, fixed-point wire
// format) and every step also produces a modeled StepBreakdown from the
// timing model.  Trajectories are bit-identical for any machine size — the
// determinism experiment (T5) — and the accumulated modeled time drives the
// performance experiments (T1, F1, T2, F2, F5, F7).
#pragma once

#include <memory>
#include <vector>

#include "machine/contention.hpp"
#include "machine/timing.hpp"
#include "machine/transport.hpp"
#include "md/engine_core.hpp"
#include "obs/profile.hpp"
#include "runtime/engine.hpp"

namespace antmd::runtime {

struct MachineSimConfig {
  double dt_fs = 2.5;
  int kspace_interval = 2;  ///< RESPA: reciprocal forces every N steps
  double neighbor_skin = 2.0;
  md::ThermostatConfig thermostat;
  md::ConstraintAlgorithm constraint_algorithm =
      md::ConstraintAlgorithm::kShake;
  double init_temperature_k = 300.0;
  uint64_t velocity_seed = 1234;
  int com_removal_interval = 0;
  EngineOptions engine;
  machine::TransportConfig transport;
};

class MachineSimulation : public md::EngineCore {
 public:
  /// Throws ConfigError on an out-of-range config or when the box is
  /// smaller than 2·(cutoff + neighbor_skin) on any edge
  /// (md::NeighborList::require_fits).
  MachineSimulation(ForceField& ff, machine::MachineConfig machine,
                    std::vector<Vec3> positions, Box box,
                    MachineSimConfig config);

  void step() override;

  // --- modeled performance -----------------------------------------------------
  [[nodiscard]] const machine::StepBreakdown& last_breakdown() const {
    return last_breakdown_;
  }
  /// Sum of modeled step times since construction (seconds).
  [[nodiscard]] double modeled_time_s() const { return modeled_time_s_; }
  [[nodiscard]] double mean_step_time_s() const {
    return steps_timed_ ? modeled_time_s_ / static_cast<double>(steps_timed_)
                        : 0.0;
  }
  /// Phase sums over all steps so far.
  [[nodiscard]] const machine::StepBreakdown& accumulated() const {
    return accumulated_;
  }
  /// Modeled simulation rate in ns/day at the configured timestep.
  [[nodiscard]] double ns_per_day() const;

  [[nodiscard]] const DistributedEngine& engine() const { return engine_; }
  [[nodiscard]] DistributedEngine& mutable_engine() { return engine_; }
  [[nodiscard]] machine::TimingModel& timing() { return timing_; }
  /// Reliability protocol state: retransmit/CRC/link-down counters and the
  /// node-hang handshake the supervisor's watchdog consumes.
  [[nodiscard]] const machine::ReliableTransport& transport() const {
    return transport_;
  }
  [[nodiscard]] machine::ReliableTransport& mutable_transport() {
    return transport_;
  }
  /// Delivery record of the most recent force evaluation.
  [[nodiscard]] const machine::StepDelivery& last_delivery() const {
    return last_delivery_;
  }
  /// Re-runs the node redistribution at the current positions (supervisor
  /// recovery path after marking nodes failed).  Bit-exact; charges no
  /// modeled time, like the restore path.
  void rebuild_distribution() {
    engine_.redistribute(state_.positions, state_.box, {},
                         &nlist_.clusters());
  }

  // --- checkpoint / restart ---------------------------------------------------
  /// Same contract as md::Simulation: dynamic state, timestep, thermostat,
  /// the reciprocal-space cache, plus the modeled-time accumulators.
  /// Restore rebuilds the neighbor list, re-runs the node redistribution and
  /// recomputes forces (bit-exact; no modeled time is charged for it).
  void save_checkpoint(util::BinaryWriter& out) const override;
  void restore_checkpoint(util::BinaryReader& in) override;

  /// The determinism-contract prefix of the checkpoint: dynamic state,
  /// timestep, thermostat RNG and the k-space cache — everything that can
  /// influence future trajectory bits.  The SDC auditor digests this
  /// instead of the full blob because the performance accounting that
  /// follows (modeled time, transport counters) legitimately differs
  /// between a live path and a replay: a restore rebuilds the neighbor
  /// list, shifting the rebuild cadence and with it redistribute costs,
  /// without moving the trajectory by a single bit.
  void save_physics_checkpoint(util::BinaryWriter& out) const;

  /// Marks a tempering/exchange decision in the next step's workload
  /// (cost accounting for sampling methods driven on top of this engine).
  void note_tempering_decision() { ++pending_tempering_decisions_; }

  /// Charges `seconds` of audit work against the last step's breakdown.
  /// Like pair_masked the field is informational — it is never added to
  /// `total`, so audit time cannot masquerade as physics or trip the
  /// supervisor watchdog.
  void charge_audit(double seconds) {
    last_breakdown_.audit += seconds;
    accumulated_.audit += seconds;
  }

  /// Routes attribution-profiler feeds to `profile` instead of
  /// obs::Profile::global() (fleet: one collector per run).  nullptr
  /// restores the global sink.  Profiler data only flows while
  /// obs::profiling_enabled(); like all telemetry it never touches the
  /// physics.
  void set_profile(obs::Profile* profile) {
    profile_ = profile;
    link_labels_fed_ = false;  // the new sink needs its own labels
  }

 private:
  /// Neighbor update (redistributing on a rebuild), the distributed
  /// evaluation and its modeled step time.
  void evaluate_forces(bool kspace_due) override;
  void publish_model_metrics(const machine::StepWork& work,
                             const machine::NetworkAttribution* attr);
  void feed_profile(const machine::NetworkAttribution& attr);

  machine::TimingModel timing_;
  machine::ReliableTransport transport_;
  machine::StepDelivery last_delivery_;
  DistributedEngine engine_;
  machine::StepBreakdown last_breakdown_;
  machine::StepBreakdown accumulated_;
  double modeled_time_s_ = 0.0;
  uint64_t steps_timed_ = 0;
  size_t pending_tempering_decisions_ = 0;
  // Telemetry-only state: built lazily the first time metrics are enabled;
  // never read by the physics, so it cannot perturb trajectories.
  std::unique_ptr<machine::LinkContentionModel> contention_model_;
  double torus_mean_hops_ = -1.0;  ///< cached, O(nodes²) to compute
  // The contention pass routes ~26 messages per node (≈0.2 ms on a 4³
  // torus); its inputs are the nodes' import volumes, which change only
  // on redistribute, and the down links.  Reused while both match.
  machine::ContentionResult contention_;
  std::vector<double> contention_import_;  ///< import_bytes it was run on
  std::vector<char> contention_down_;      ///< down links it was run on
  obs::Profile* profile_ = nullptr;   ///< nullptr = obs::Profile::global()
  std::vector<double> link_scratch_;  ///< per-link bytes of contention_
  bool link_labels_fed_ = false;      ///< link labels built once per sink
};

}  // namespace antmd::runtime
