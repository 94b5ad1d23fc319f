#include "md/simulation.hpp"

#include <cmath>
#include <string>

#include "ff/nonbonded_simd.hpp"
#include "md/engine_api.hpp"
#include "md/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace antmd::md {

// The reference engine must itself honor the contract generic layers
// (Supervisor, observer plumbing) constrain on.
static_assert(EngineApi<Simulation>);

namespace {

// Cached registry handles for the per-phase instrumentation (the name
// lookup takes a mutex; the handles themselves are lock-free).
struct MdMetrics {
  obs::Counter& bonded_ns;
  obs::Counter& nonbonded_ns;
  obs::Counter& kspace_ns;
  obs::Counter& steps;
  obs::Histogram& step_us;
  obs::Gauge& cluster_fill;   ///< useful-lane fraction of the tile list
  obs::Gauge& nonbonded_isa;  ///< dispatched ff::KernelIsa (0 = scalar)
};

MdMetrics& md_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static MdMetrics m{
      reg.counter("md.bonded.time_ns"),
      reg.counter("md.nonbonded.time_ns"),
      reg.counter("md.kspace.time_ns"),
      reg.counter("md.step.count"),
      reg.histogram("md.step.wall_us",
                    {10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000,
                     300000, 1000000}),
      reg.gauge("md.sim.nonbonded.cluster_fill"),
      reg.gauge("md.sim.nonbonded.isa")};
  return m;
}

}  // namespace

void SimulationConfig::validate() const {
  IntegratorConfig::of(*this).validate();
  if (respa_inner < 1) {
    throw ConfigError("respa_inner must be >= 1, got " +
                      std::to_string(respa_inner));
  }
  if (respa_inner > 1 && barostat.kind != BarostatKind::kNone) {
    throw ConfigError("respa_inner = " + std::to_string(respa_inner) +
                      " cannot run with a barostat: RESPA steps run at "
                      "constant volume (set respa_inner = 1 or "
                      "barostat = none)");
  }
}

Simulation::Simulation(ForceField& ff, std::vector<Vec3> positions, Box box,
                       SimulationConfig config)
    : EngineCore(ff, std::move(positions), box,
                 (config.validate(), IntegratorConfig::of(config))),
      config_(config),
      exec_(ExecutionContext::create(config.execution)) {
  if (config.barostat.kind != BarostatKind::kNone) {
    barostat_.emplace(ff.topology(), config.barostat,
                      [this](std::span<const Vec3> pos, const Box& b) {
                        return evaluate_potential(*ff_, pos, b, state_.time);
                      });
  }

  ff::construct_virtual_sites(ff.topology().virtual_sites(),
                              state_.positions, state_.box);
  nlist_.set_execution(exec_);
  nlist_.build(state_.positions, state_.box);
  build_step_graph();
  run_force_graph(current_, /*include_bonded=*/true, /*kspace_due=*/true);
}

void Simulation::build_step_graph() {
  // The step's force work as a DAG.  Dependency structure encodes the data
  // flow: bonded and kspace only need final positions (virtual sites), the
  // tile kernel also needs the neighbor list; so on rebuild steps bonded and
  // kspace overlap the rebuild instead of waiting behind it.  All
  // order-sensitive arithmetic — ascending-chunk virial merge, kspace cache
  // fold, virtual-site force spread — lives in the single reduction task,
  // which is why the result is bit-identical at any lane count.  Every
  // force evaluation runs this graph; after an out-of-step rebuild
  // (constructor, box change, restore) its neighbor update is a no-op.
  step_graph_ = std::make_unique<util::TaskGraph>(exec_->runtime(), "md.step");
  util::TaskGraph& g = *step_graph_;
  const bool have_vsites = !ff_->topology().virtual_sites().empty();

  const util::TaskId t_nlist = g.add("md.nlist", [this] {
    nlist_.update(state_.positions, state_.box);
  });
  // Tasks that read final positions: behind vsite construction when there
  // are virtual sites (which must in turn see the neighbor list's view of
  // the previous vsite positions), unblocked from the start otherwise.
  std::vector<util::TaskId> after_pos;
  util::TaskId t_list_ready = t_nlist;
  if (have_vsites) {
    const util::TaskId t_vsites = g.add(
        "md.vsites",
        [this] {
          ff::construct_virtual_sites(ff_->topology().virtual_sites(),
                                      state_.positions, state_.box);
        },
        {t_nlist});
    after_pos = {t_vsites};
    t_list_ready = t_vsites;
  }

  const util::TaskId t_bonded = g.add(
      "md.bonded",
      [this] {
        if (!graph_include_bonded_) return;
        obs::ScopedTimer timer(md_metrics().bonded_ns);
        ff_->compute_bonded(state_.positions, state_.box, state_.time,
                            *graph_sink_);
      },
      after_pos);

  const util::TaskId t_kspace = g.add(
      "md.kspace",
      [this] {
        if (!graph_kspace_due_ || !ff_->has_kspace()) return;
        obs::ScopedTimer timer(md_metrics().kspace_ns);
        kspace_cache_.reset(ff_->topology().atom_count());
        ff_->compute_kspace(state_.positions, state_.box, kspace_cache_);
      },
      after_pos);

  const util::TaskId t_gather = g.add(
      "md.nb.gather",
      [this] {
        obs::ScopedTimer timer(md_metrics().nonbonded_ns);
        const ff::ClusterPairList& list = nlist_.clusters();
        ff::gather_cluster_coords(list, state_.positions);
        nb_plan_ = ff::cluster_chunk_plan(list);
        ff::prepare_cluster_scratch(list, step_graph_->lanes(),
                                    ff_->topology().atom_count(), nb_plan_);
      },
      {t_list_ready});

  const util::TaskId t_nb = g.add_parallel(
      "md.nonbonded", [this] { return nb_plan_.chunks; },
      [this](size_t chunk) {
        obs::ScopedTimer timer(md_metrics().nonbonded_ns);
        ff::compute_clusters_chunk(nlist_.clusters(), ff_->tables(),
                                   state_.box, nb_plan_, chunk,
                                   util::TaskRuntime::current_lane(),
                                   ff_->vdw_scale(),
                                   ff_->charge_product_scale());
      },
      {t_gather});

  g.add_reduction(
      "md.reduce",
      [this] {
        ff::reduce_cluster_chunks(nlist_.clusters(), nb_plan_, *graph_sink_);
        graph_sink_->merge(kspace_cache_);
        ff::spread_virtual_site_forces(ff_->topology().virtual_sites(),
                                       state_.positions, state_.box,
                                       graph_sink_->forces);
        // Force-poison injection point, deliberately inside the graph: the
        // reduction runs on whichever lane picks it up, so a kNanForce plan
        // fires from a worker thread — the fault registry's thread-safety
        // contract — polled once per force evaluation.
        uint64_t poison_atom = 0;
        if (fault::should_fire(fault::FaultKind::kNanForce, &poison_atom)) {
          const size_t n = ff_->topology().atom_count();
          graph_sink_->forces.set_quanta(
              poison_atom % n, {fault::kPoisonQuanta, fault::kPoisonQuanta,
                                fault::kPoisonQuanta});
        }
        if (obs::enabled()) {
          md_metrics().cluster_fill.set(nlist_.clusters().fill_ratio());
          md_metrics().nonbonded_isa.set(
              static_cast<double>(ff::active_kernel_isa()));
        }
      },
      {t_bonded, t_nb, t_kspace});
}

void Simulation::run_force_graph(ForceResult& sink, bool include_bonded,
                                 bool kspace_due) {
  const size_t n = ff_->topology().atom_count();
  graph_sink_ = &sink;
  graph_include_bonded_ = include_bonded;
  graph_kspace_due_ = kspace_due;
  sink.reset(n);
  step_graph_->run();
}

void Simulation::evaluate_forces(bool kspace_due) {
  run_force_graph(current_, /*include_bonded=*/true, kspace_due);
}

void Simulation::couple_pressure() {
  if (!barostat_) return;
  if (barostat_->maybe_apply_tensor(state_, current_.virial)) {
    invalidate_forces();  // new box: re-grid, rebuild, recompute
  }
}

void Simulation::compute_fast_forces() {
  const Topology& topo = ff_->topology();
  ff::construct_virtual_sites(topo.virtual_sites(), state_.positions,
                              state_.box);
  fast_.reset(topo.atom_count());
  {
    obs::TracePhase phase("md.bonded", "md", &md_metrics().bonded_ns);
    ff_->compute_bonded(state_.positions, state_.box, state_.time, fast_);
  }
  ff::spread_virtual_site_forces(topo.virtual_sites(), state_.positions,
                                 state_.box, fast_.forces);
}

void Simulation::step_respa() {
  const double dtf = dt_ / static_cast<double>(config_.respa_inner);

  // Slow and fast forces at the current positions (slow_ is maintained
  // across steps; fast_ is refreshed by the inner loop's last iteration).
  // Outer half kick with the slow forces, then an inner velocity-Verlet
  // loop with the fast (bonded) forces.
  kick(slow_.forces, dt_);
  for (int k = 0; k < config_.respa_inner; ++k) {
    kick(fast_.forces, dtf);
    drift(dtf);
    compute_fast_forces();
    kick(fast_.forces, dtf);
    rattle();
  }

  // Slow forces at the new positions; outer half kick.
  run_force_graph(slow_, /*include_bonded=*/false, kspace_due());
  kick(slow_.forces, dt_);
  rattle();

  // Combined result for observers.
  current_.reset(ff_->topology().atom_count());
  current_.merge(fast_);
  current_.merge(slow_);
  end_step();
}

void Simulation::step() {
  const double step_start_us = obs::enabled() ? obs::now_us() : 0.0;
  if (config_.respa_inner > 1) {
    // Lazily seed the split caches on first use.
    if (fast_.forces.size() != ff_->topology().atom_count()) {
      compute_fast_forces();
      run_force_graph(slow_, /*include_bonded=*/false, /*kspace_due=*/true);
    }
    step_respa();
  } else {
    verlet_step();
  }
  md_metrics().steps.add();
  if (obs::enabled()) {
    md_metrics().step_us.observe(obs::now_us() - step_start_us);
  }
  notify_observers();
}

double Simulation::conserved_quantity() const {
  return potential_energy() + kinetic_energy() +
         thermostat_.reservoir_energy();
}

double Simulation::pressure_atm() const {
  return md::pressure_atm(ff_->topology(), state_, trace(current_.virial));
}

void Simulation::rescale_velocities(double factor) {
  for (auto& v : state_.velocities) v *= factor;
}

void Simulation::invalidate_forces() {
  ff_->on_box_changed(state_.box);
  nlist_.build(state_.positions, state_.box);
  run_force_graph(current_, /*include_bonded=*/true, /*kspace_due=*/true);
}

void Simulation::save_checkpoint(util::BinaryWriter& out) const {
  save_core(out);
  out.write_bool(barostat_.has_value());
  if (barostat_) barostat_->save_state(out);
  write_force_result(out, kspace_cache_);
}

void Simulation::restore_checkpoint(util::BinaryReader& in) {
  const Topology& topo = ff_->topology();
  restore_core(in);
  bool has_barostat = in.read_bool();
  if (has_barostat != barostat_.has_value()) {
    throw IoError("checkpoint barostat state does not match config");
  }
  if (barostat_) barostat_->restore_state(in);
  read_force_result(in, kspace_cache_);
  if (kspace_cache_.forces.size() != topo.atom_count()) {
    throw IoError("checkpoint k-space cache has wrong atom count");
  }

  // Rebuild everything derived from positions/box.  Forces are recomputed
  // rather than stored: the nonbonded kernel zeroes beyond-cutoff pairs, so
  // a freshly built neighbor list gives bit-identical sums, and the k-space
  // term comes from the restored cache (kspace_due=false).
  ff_->on_box_changed(state_.box);
  nlist_.build(state_.positions, state_.box);
  if (config_.respa_inner > 1) {
    // Re-seed the RESPA split caches exactly as they stood after the last
    // completed outer step.
    compute_fast_forces();
    run_force_graph(slow_, /*include_bonded=*/false, /*kspace_due=*/false);
    current_.reset(topo.atom_count());
    current_.merge(fast_);
    current_.merge(slow_);
  } else {
    run_force_graph(current_, /*include_bonded=*/true, /*kspace_due=*/false);
  }
}

}  // namespace antmd::md
