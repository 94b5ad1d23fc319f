#include "md/engine_core.hpp"

#include <cmath>
#include <string>

#include "math/units.hpp"
#include "md/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace antmd::md {

namespace {

// The integrator's phases, shared by both engines.
struct CoreMetrics {
  obs::Counter& integrate_ns;
  obs::Counter& constraints_ns;
};

CoreMetrics& core_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static CoreMetrics m{reg.counter("md.integrate.time_ns"),
                       reg.counter("md.constraints.time_ns")};
  return m;
}

}  // namespace

void IntegratorConfig::validate() const {
  if (!(dt_fs > 0)) {
    throw ConfigError("timestep must be positive, got dt_fs=" +
                      std::to_string(dt_fs));
  }
  if (kspace_interval < 1) {
    throw ConfigError("kspace_interval must be >= 1, got " +
                      std::to_string(kspace_interval));
  }
  if (!(neighbor_skin >= 0)) {
    throw ConfigError("neighbor_skin must be >= 0, got " +
                      std::to_string(neighbor_skin));
  }
}

double evaluate_potential(const ForceField& ff,
                          std::span<const Vec3> positions, const Box& box,
                          double time) {
  const Topology& topo = ff.topology();
  std::vector<Vec3> pos(positions.begin(), positions.end());
  ff::construct_virtual_sites(topo.virtual_sites(), pos, box);

  NeighborList list(topo, ff.model().cutoff, 0.0, /*cluster_mode=*/true);
  list.build(pos, box);

  ForceResult res(topo.atom_count());
  ff.compute_bonded(pos, box, time, res);
  ff.compute_nonbonded_clusters(list.clusters(), pos, box, res);
  if (const GseSolver* gse = ff.gse()) {
    if (box.edges() == gse->box_edges()) {
      ff.compute_kspace(pos, box, res);
    } else {
      // Keep the field untouched: a trial box gets a solver of its own.
      const GseSolver trial(box, gse->params());
      ff.compute_kspace(pos, box, res, &trial);
    }
  }
  return res.energy.total();
}

EngineCore::EngineCore(ForceField& ff, std::vector<Vec3> positions,
                       const Box& box, const IntegratorConfig& config)
    // validate() before any member uses config fields (neighbor list, dt).
    : ff_((config.validate(), &ff)),
      dt_fs_(config.dt_fs),
      dt_(units::fs_to_internal(config.dt_fs)),
      kspace_interval_(config.kspace_interval),
      com_removal_interval_(config.com_removal_interval),
      nlist_(ff.topology(), ff.model().cutoff, config.neighbor_skin,
             /*cluster_mode=*/true),
      constraints_(ff.topology(), 1e-8, 500, config.constraint_algorithm),
      thermostat_(ff.topology(), config.thermostat),
      current_(positions.size()),
      kspace_cache_(positions.size()) {
  const Topology& topo = ff.topology();
  ANTMD_REQUIRE(positions.size() == topo.atom_count(),
                "positions/topology size mismatch");
  nlist_.require_fits(box);

  state_.positions = std::move(positions);
  state_.box = box;
  state_.velocities.assign(topo.atom_count(), Vec3{});
  if (config.init_temperature_k >= 0) {
    init_velocities(topo, config.init_temperature_k, config.velocity_seed,
                    state_);
  }
  ff_->on_box_changed(state_.box);
}

void EngineCore::run(size_t n) {
  for (size_t i = 0; i < n; ++i) step();
}

void EngineCore::set_timestep_fs(double dt_fs) {
  if (!(dt_fs > 0)) {
    throw ConfigError("timestep must be positive, got dt_fs=" +
                      std::to_string(dt_fs));
  }
  dt_fs_ = dt_fs;
  dt_ = units::fs_to_internal(dt_fs);
}

void EngineCore::verlet_step() {
  kick(current_.forces, dt_);
  drift(dt_);
  evaluate_forces(kspace_due());
  kick(current_.forces, dt_);
  rattle();
  end_step();
}

void EngineCore::kick(const FixedForceArray& forces, double h) {
  obs::ScopedTimer timer(core_metrics().integrate_ns);
  const auto& masses = ff_->topology().masses();
  for (size_t i = 0; i < masses.size(); ++i) {
    const double m = masses[i];
    if (m == 0.0) continue;
    state_.velocities[i] += (h / (2.0 * m)) * forces.force(i);
  }
}

void EngineCore::drift(double h) {
  {
    obs::ScopedTimer timer(core_metrics().integrate_ns);
    const auto& masses = ff_->topology().masses();
    scratch_before_ = state_.positions;
    for (size_t i = 0; i < masses.size(); ++i) {
      if (masses[i] == 0.0) continue;
      state_.positions[i] += h * state_.velocities[i];
    }
  }
  if (!constraints_.empty()) {
    obs::TracePhase phase("md.constraints", "md",
                          &core_metrics().constraints_ns);
    constraints_.apply_positions(scratch_before_, state_.positions,
                                 state_.velocities, h, state_.box);
  }
}

void EngineCore::rattle() {
  if (constraints_.empty()) return;
  obs::TracePhase phase("md.constraints", "md",
                        &core_metrics().constraints_ns);
  constraints_.apply_velocities(state_.positions, state_.velocities,
                                state_.box);
}

void EngineCore::end_step() {
  state_.step += 1;
  state_.time += dt_;
  thermostat_.apply(state_, dt_);
  couple_pressure();
  if (com_removal_interval_ > 0 &&
      state_.step % static_cast<uint64_t>(com_removal_interval_) == 0) {
    remove_com_momentum(ff_->topology(), state_);
  }
}

void EngineCore::notify_observers() {
  // The StepInfo (and its O(N) kinetic/temperature reductions) is built
  // only when an observer is due.
  if (observers_.empty() || !observers_.due(state_.step)) return;
  StepInfo info;
  info.step = state_.step;
  info.time = state_.time;
  info.potential = potential_energy();
  info.kinetic = kinetic_energy();
  info.temperature = temperature();
  info.wall_seconds = wall_.seconds();
  observers_.notify(info);
}

void EngineCore::save_core(util::BinaryWriter& out) const {
  write_state(out, state_);
  out.write_f64(dt_);
  thermostat_.save_state(out);
}

void EngineCore::restore_core(util::BinaryReader& in) {
  const size_t n = ff_->topology().atom_count();
  State restored = read_state(in);
  if (restored.positions.size() != n) {
    throw IoError("checkpoint was written for a different system: " +
                  std::to_string(restored.positions.size()) + " atoms vs " +
                  std::to_string(n) + " in topology");
  }
  const double dt = in.read_f64();
  thermostat_.restore_state(in);
  state_ = std::move(restored);
  dt_ = dt;
  dt_fs_ = units::internal_to_fs(dt);
}

}  // namespace antmd::md
