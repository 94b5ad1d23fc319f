#include "runtime/machine_sim.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "ff/nonbonded_simd.hpp"
#include "md/engine_api.hpp"
#include "md/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace antmd::runtime {

// The machine-mapped driver and the reference md::Simulation present one
// engine surface; generic layers constrain on it instead of special-casing.
static_assert(md::EngineApi<MachineSimulation>);
namespace {

struct MachineMetrics {
  obs::Counter& steps;
  obs::Gauge& step_seconds;
  obs::Gauge& total_seconds;
  obs::Gauge& ns_day;
  obs::Gauge& htis_util;
  obs::Gauge& gc_util;
  obs::Gauge& net_fraction;
  obs::Gauge& cluster_fill;
  obs::Gauge& pair_masked_s;
  obs::Gauge& nonbonded_isa;  ///< dispatched ff::KernelIsa (0 = scalar)
  obs::Gauge& torus_mean_hops;
  obs::Gauge& torus_diameter;
  obs::Gauge& contention_multicast_s;
  obs::Gauge& contention_max_link_bytes;
  obs::Counter& transport_messages;
  obs::Counter& transport_retransmits;
  obs::Counter& transport_corrupt;
  obs::Counter& transport_drops;
  obs::Counter& transport_rerouted;
  obs::Gauge& transport_links_down;
  obs::Gauge& transport_reliability_s;
};

MachineMetrics& machine_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static MachineMetrics m{reg.counter("runtime.step.count"),
                          reg.gauge("machine.model.step_seconds"),
                          reg.gauge("machine.model.total_seconds"),
                          reg.gauge("machine.model.ns_per_day"),
                          reg.gauge("machine.model.htis_utilization"),
                          reg.gauge("machine.model.gc_utilization"),
                          reg.gauge("machine.model.network_fraction"),
                          reg.gauge("machine.model.cluster_fill"),
                          reg.gauge("machine.model.pair_masked_seconds"),
                          reg.gauge("machine.model.nonbonded_isa"),
                          reg.gauge("machine.torus.mean_hops"),
                          reg.gauge("machine.torus.diameter"),
                          reg.gauge("machine.contention.multicast_seconds"),
                          reg.gauge("machine.contention.max_link_bytes"),
                          reg.counter("machine.transport.message.count"),
                          reg.counter("machine.transport.retransmit.count"),
                          reg.counter("machine.transport.corrupt.count"),
                          reg.counter("machine.transport.drop.count"),
                          reg.counter("machine.transport.reroute.count"),
                          reg.gauge("machine.transport.links_down"),
                          reg.gauge("machine.transport.reliability_seconds")};
  return m;
}

void accumulate(machine::StepBreakdown& acc,
                const machine::StepBreakdown& step) {
  acc.multicast += step.multicast;
  acc.pair_phase += step.pair_phase;
  acc.pair_masked += step.pair_masked;
  acc.gc_force_phase += step.gc_force_phase;
  acc.interaction += step.interaction;
  acc.reduce += step.reduce;
  acc.update += step.update;
  acc.kspace_spread += step.kspace_spread;
  acc.kspace_fft_compute += step.kspace_fft_compute;
  acc.kspace_fft_comm += step.kspace_fft_comm;
  acc.kspace_convolve += step.kspace_convolve;
  acc.kspace_interp += step.kspace_interp;
  acc.tempering += step.tempering;
  acc.sync += step.sync;
  acc.reliability += step.reliability;
  acc.total += step.total;
}

}  // namespace

MachineSimulation::MachineSimulation(ForceField& ff,
                                     machine::MachineConfig machine_cfg,
                                     std::vector<Vec3> positions, Box box,
                                     MachineSimConfig config)
    : EngineCore(ff, std::move(positions), box,
                 md::IntegratorConfig::of(config)),
      timing_(machine_cfg),
      transport_(machine_cfg, config.transport),
      engine_(ff, machine_cfg, config.engine) {
  nlist_.set_execution(engine_.execution());
  // The list's first update builds it and the engine distributes on it.
  evaluate_forces(/*kspace_due=*/true);
}

void MachineSimulation::evaluate_forces(bool kspace_due) {
  if (nlist_.update(state_.positions, state_.box)) {
    engine_.redistribute(state_.positions, state_.box, {},
                         &nlist_.clusters());
  }
  machine::StepWork work =
      engine_.evaluate(state_.positions, state_.box, state_.time, {},
                       kspace_due, current_, kspace_cache_);
  work.tempering_decisions = pending_tempering_decisions_;
  pending_tempering_decisions_ = 0;
  const bool profiling = obs::profiling_enabled();
  machine::NetworkAttribution attr;
  last_breakdown_ = timing_.step_time(work, profiling ? &attr : nullptr);
  // Reliability protocol: every modeled message rides the transport, and
  // any retransmit/backoff/reroute/hang cost lands in the step breakdown —
  // modeled time only, never the physics.
  last_delivery_ = transport_.deliver(work);
  last_breakdown_.reliability = last_delivery_.extra_s;
  last_breakdown_.total += last_delivery_.extra_s;
  accumulate(accumulated_, last_breakdown_);
  modeled_time_s_ += last_breakdown_.total;
  ++steps_timed_;

  if (obs::enabled() || profiling) {
    publish_model_metrics(work, profiling ? &attr : nullptr);
  }

  uint64_t poison_atom = 0;
  if (fault::should_fire(fault::FaultKind::kNanForce, &poison_atom)) {
    current_.forces.set_quanta(
        poison_atom % current_.forces.size(),
        {fault::kPoisonQuanta, fault::kPoisonQuanta, fault::kPoisonQuanta});
  }
}

// Publishes the modeled-performance picture for the step just timed.  Reads
// only derived quantities (breakdowns, torus geometry, link loads) — never
// writes back into the simulation, so telemetry cannot change a trajectory.
// `attr` is non-null only under attribution profiling; one contention pass
// serves both the gauges and the profiler's per-link feed.
void MachineSimulation::publish_model_metrics(
    const machine::StepWork& work, const machine::NetworkAttribution* attr) {
  auto& m = machine_metrics();
  m.step_seconds.set(last_breakdown_.total);
  m.total_seconds.set(modeled_time_s_);
  m.ns_day.set(ns_per_day());
  m.htis_util.set(last_breakdown_.htis_utilization());
  m.gc_util.set(last_breakdown_.gc_utilization());
  m.net_fraction.set(last_breakdown_.network_fraction());
  m.cluster_fill.set(nlist_.clusters().fill_ratio());
  m.pair_masked_s.set(last_breakdown_.pair_masked);
  m.nonbonded_isa.set(static_cast<double>(ff::active_kernel_isa()));

  const auto& torus = engine_.torus();
  if (torus_mean_hops_ < 0) torus_mean_hops_ = torus.mean_hops();
  m.torus_mean_hops.set(torus_mean_hops_);
  m.torus_diameter.set(static_cast<double>(torus.diameter()));

  if (!contention_model_) {
    contention_model_ =
        std::make_unique<machine::LinkContentionModel>(timing_.config());
  }
  // Degraded links reroute in the contention picture too.  The pass is a
  // function of the import volumes and the down links only, so its last
  // result (and per-link loads) stand until one of them changes.
  const std::vector<char>& down = transport_.down_links();
  const bool same_import =
      std::equal(work.nodes.begin(), work.nodes.end(),
                 contention_import_.begin(), contention_import_.end(),
                 [](const machine::NodeWork& n, double bytes) {
                   return n.import_bytes == bytes;
                 });
  if (!same_import || down != contention_down_) {
    contention_model_->set_down_links(down);
    contention_ =
        contention_model_->multicast_time(work.nodes, &link_scratch_);
    contention_import_.clear();
    for (const auto& n : work.nodes) {
      contention_import_.push_back(n.import_bytes);
    }
    contention_down_ = down;
  }
  m.contention_multicast_s.set(contention_.phase_time_s);
  m.contention_max_link_bytes.set(contention_.max_link_bytes);

  if (attr) feed_profile(*attr);

  const auto& ts = transport_.stats();
  m.transport_messages.add(last_delivery_.messages);
  m.transport_retransmits.add(last_delivery_.retransmits);
  m.transport_corrupt.add(last_delivery_.corrupt_detected);
  m.transport_drops.add(last_delivery_.drops);
  m.transport_rerouted.add(last_delivery_.rerouted);
  m.transport_links_down.set(
      static_cast<double>(transport_.down_link_count()));
  m.transport_reliability_s.set(ts.reliability_s);
}

// Feeds the attribution profiler for the step just timed (profiling only).
// Each message class mirrors its StepBreakdown field with the same per-step
// `+=` sequence the aggregate uses, so class sums stay bit-exact against
// accumulated().network_total() (profile_test).
void MachineSimulation::feed_profile(const machine::NetworkAttribution& attr) {
  obs::Profile& p = profile_ ? *profile_ : obs::Profile::global();

  obs::NetSample s;
  s.total_s = last_breakdown_.multicast;
  s.serialization_s = attr.multicast.serialization;
  s.queueing_s = attr.multicast.queueing;
  s.contention_s = attr.multicast.contention;
  s.messages = attr.multicast_messages;
  s.bytes = attr.multicast_bytes;
  p.record_network(obs::MessageClass::kPositionMulticast, s);

  s = {};
  s.total_s = last_breakdown_.reduce;
  s.serialization_s = attr.reduce.serialization;
  s.queueing_s = attr.reduce.queueing;
  s.contention_s = attr.reduce.contention;
  s.bytes = attr.reduce_bytes;
  p.record_network(obs::MessageClass::kForceReduction, s);

  s = {};
  s.total_s = last_breakdown_.kspace_fft_comm;
  s.serialization_s = attr.kspace_fft.serialization;
  s.queueing_s = attr.kspace_fft.queueing;
  s.contention_s = attr.kspace_fft.contention;
  s.messages = attr.kspace_messages;
  s.bytes = attr.kspace_bytes;
  p.record_network(obs::MessageClass::kKspaceFft, s);

  // The barrier is pure topology latency; the reliability class is pure
  // protocol overhead (its retransmitted bytes are already charged there).
  s = {};
  s.total_s = last_breakdown_.sync;
  s.contention_s = last_breakdown_.sync;
  p.record_network(obs::MessageClass::kBarrierSync, s);

  s = {};
  s.total_s = last_breakdown_.reliability;
  s.reliability_s = last_breakdown_.reliability;
  s.messages = last_delivery_.retransmits + last_delivery_.rerouted;
  p.record_network(obs::MessageClass::kReliability, s);

  p.record_transport(last_delivery_.retransmits, last_delivery_.rerouted,
                     last_delivery_.corrupt_detected, last_delivery_.drops);

  const auto& torus = engine_.torus();
  if (link_scratch_.size() == torus.link_count()) {
    static obs::Histogram& link_hist = obs::MetricsRegistry::global().histogram(
        "machine.link.step_bytes", {1e2, 1e3, 1e4, 1e5, 1e6, 1e7});
    for (double b : link_scratch_) {
      if (b > 0.0) link_hist.observe(b);
    }
    p.record_links(link_scratch_);
    if (!link_labels_fed_) {
      link_labels_fed_ = true;
      std::vector<std::string> labels(torus.link_count());
      for (size_t l = 0; l < labels.size(); ++l) {
        const size_t src = torus.link_source(l);
        const auto c = torus.coord_of(src);
        labels[l] = "n" + std::to_string(src) + "(" + std::to_string(c[0]) +
                    "," + std::to_string(c[1]) + "," + std::to_string(c[2]) +
                    ")." + "xyz"[torus.link_axis(l)] +
                    (torus.link_sign(l) > 0 ? "+" : "-");
      }
      p.set_link_labels(std::move(labels));
    }
  }
  p.record_step();
}

void MachineSimulation::step() {
  machine_metrics().steps.add();
  verlet_step();
  notify_observers();
}

void MachineSimulation::save_physics_checkpoint(
    util::BinaryWriter& out) const {
  save_core(out);
  md::write_force_result(out, kspace_cache_);
}

void MachineSimulation::save_checkpoint(util::BinaryWriter& out) const {
  save_physics_checkpoint(out);
  // Modeled-performance accumulators, so a resumed run reports the same
  // totals as an uninterrupted one.  The audit bucket is excluded: it holds
  // *wall* time (nondeterministic), and the SDC auditor digests this exact
  // blob — any nondeterministic byte here would make every shadow replay
  // look like corruption.
  out.write_f64(modeled_time_s_);
  out.write_u64(steps_timed_);
  machine::StepBreakdown acc = accumulated_;
  machine::StepBreakdown last = last_breakdown_;
  acc.audit = 0.0;
  last.audit = 0.0;
  out.write_pod(acc);
  out.write_pod(last);
  // Transport reliability state: down-marked links persist (a dead wire
  // stays dead across a restart) and the cumulative protocol counters keep
  // the resumed run's reliability picture identical to an uninterrupted one.
  std::vector<char> down;
  machine::TransportStats tstats;
  transport_.save_state(down, tstats);
  out.write_pod_vector(down);
  out.write_pod(tstats);
}

void MachineSimulation::restore_checkpoint(util::BinaryReader& in) {
  const Topology& topo = ff_->topology();
  restore_core(in);
  md::read_force_result(in, kspace_cache_);
  if (kspace_cache_.forces.size() != topo.atom_count()) {
    throw IoError("checkpoint k-space cache has wrong atom count");
  }
  modeled_time_s_ = in.read_f64();
  steps_timed_ = in.read_u64();
  // Audit wall-time survives the restore: the work was really done even if
  // the trajectory it verified (or the replay that consumed it) is gone.
  const double audit_acc = accumulated_.audit;
  const double audit_last = last_breakdown_.audit;
  accumulated_ = in.read_pod<machine::StepBreakdown>();
  last_breakdown_ = in.read_pod<machine::StepBreakdown>();
  accumulated_.audit = audit_acc;
  last_breakdown_.audit = audit_last;
  std::vector<char> down = in.read_pod_vector<char>();
  auto tstats = in.read_pod<machine::TransportStats>();
  transport_.restore_state(std::move(down), tstats);
  last_delivery_ = machine::StepDelivery{};

  // Rebuild the distributed picture at the restored positions and recompute
  // forces directly through the engine: bit-exact for the same reason as in
  // md::Simulation (beyond-cutoff pairs contribute exactly zero, the k-space
  // term comes from the restored cache), and free of modeled-time charges so
  // the performance accumulators stay faithful to the original run.
  ff_->on_box_changed(state_.box);
  nlist_.build(state_.positions, state_.box);
  engine_.redistribute(state_.positions, state_.box, {},
                       &nlist_.clusters());
  engine_.evaluate(state_.positions, state_.box, state_.time, {},
                   /*kspace_due=*/false, current_, kspace_cache_);
}

double MachineSimulation::ns_per_day() const {
  double mean = mean_step_time_s();
  if (mean <= 0) return 0.0;
  return machine::ns_per_day(timestep_fs(), mean);
}

}  // namespace antmd::runtime
