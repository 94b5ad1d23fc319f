// End-to-end benchmark driver for antmd.
//
// Runs one named workload as a closed loop with one client: every step()
// starts when the previous one returns, exactly as a user's MD job runs.
// It prints progress to stderr and, as the last line of stdout, one JSON
// object of raw measurements (per-step wall times, per-call span
// durations, counts, the correctness gate).  ledger/run.py turns that into
// the named metrics; all percentile and residual arithmetic lives there.
//
// With --trace 1 the driver times calls into each layer's public API from
// the outside (no instrumentation inside src/): every step() gets a span,
// and every K-th step the frame is copied and replayed through the
// neighbor search, nonbonded kernel, GSE solve, FFTs, constraint solver
// and, on the machine engine, the distributed engine and timing model —
// all on objects this driver owns, so the trajectory is not perturbed.
//
// Usage: ledger_driver --workload NAME --seed N --seconds S --trace 0|1
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "fft/fft3d.hpp"
#include "ff/forcefield.hpp"
#include "ff/nonbonded_simd.hpp"
#include "machine/config.hpp"
#include "machine/timing.hpp"
#include "math/units.hpp"
#include "md/constraints.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "runtime/engine.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/serialize.hpp"

namespace {

using namespace antmd;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Engine { kHost, kMachine };

/// One fixed, named system.  README.md records why each was chosen.
struct Workload {
  const char* name;
  Engine engine;
  bool water;   ///< rigid 3-site water (GSE) vs Lennard-Jones fluid
  size_t size;  ///< molecules (water) or atoms (LJ) asked of the builder
  double cutoff_a;
  double skin_a;
  double dt_fs;
  md::ThermostatKind thermostat;
  double temperature_k;
  int kspace_interval;
  size_t threads;
  int warmup_steps;
};

// GSE splitting parameter: antmd_run's default for `electrostatics = gse`.
constexpr double kEwaldBeta = 0.4;
// Tolerance both engines construct their ConstraintSolver with.
constexpr double kShakeTolerance = 1e-8;
// Relative virial tolerance between the cluster and flat-list kernels
// (tests/golden_test.cpp's kRelTol).
constexpr double kVirialRelTol = 1e-8;
// Ceiling on the RMS relative error of GSE reciprocal forces.
constexpr double kKspaceErrCeiling = 1e-3;
// Molecules the k-space accuracy check samples from the final frame.
constexpr size_t kKspaceSampleMols = 96;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Timed steps between replays aim for about this many replays per run.
constexpr size_t kReplaysPerRun = 8;

const Workload kWorkloads[] = {
    {"water12k", Engine::kHost, true, 4096, 9.0, 1.5, 2.0,
     md::ThermostatKind::kLangevin, 300.0, 1, 1, 3},
    {"lj32k", Engine::kHost, false, 32768, 8.0, 1.0, 4.0,
     md::ThermostatKind::kNoseHoover, 120.0, 1, 1, 3},
    {"water-machine64", Engine::kMachine, true, 1728, 8.0, 1.0, 2.0,
     md::ThermostatKind::kLangevin, 300.0, 2, 2, 4},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

machine::MachineConfig machine_config() {
  return machine::anton_with_torus(4, 4, 4);
}

// ---------------------------------------------------------------------------
// The system under test: builder output, force field and one engine.
// ---------------------------------------------------------------------------

struct SetupTimes {
  double topo_build_ms = 0.0;
  double ff_tables_ms = 0.0;
  double md_init_ms = 0.0;
};

/// Owns everything one run steps.  Heap-allocated and never moved: the
/// force field points into spec.topology and the engine into the field.
class System {
 public:
  System(const Workload& w, uint64_t seed, SetupTimes& t) : w_(w) {
    auto t0 = Clock::now();
    spec_ = w.water ? build_water_box(w.size, WaterModel::kRigid3Site, seed)
                    : build_lj_fluid(w.size, 0.021, seed);
    auto t1 = Clock::now();
    ff::NonbondedModel model;
    model.cutoff = w.cutoff_a;
    model.electrostatics = w.water ? ff::Electrostatics::kEwaldReal
                                   : ff::Electrostatics::kNone;
    model.ewald_beta = kEwaldBeta;
    ff_ = std::make_unique<ForceField>(spec_.topology, model);
    auto t2 = Clock::now();
    md::ThermostatConfig thermo;
    thermo.kind = w.thermostat;
    thermo.temperature_k = w.temperature_k;
    thermo.seed = seed;
    if (w.engine == Engine::kHost) {
      md::SimulationConfig c;
      c.dt_fs = w.dt_fs;
      c.kspace_interval = w.kspace_interval;
      c.neighbor_skin = w.skin_a;
      c.thermostat = thermo;
      c.init_temperature_k = w.temperature_k;
      c.velocity_seed = seed;
      c.execution.threads = w.threads;
      host_ = std::make_unique<md::Simulation>(*ff_, spec_.positions,
                                               spec_.box, c);
    } else {
      runtime::MachineSimConfig c;
      c.dt_fs = w.dt_fs;
      c.kspace_interval = w.kspace_interval;
      c.neighbor_skin = w.skin_a;
      c.thermostat = thermo;
      c.init_temperature_k = w.temperature_k;
      c.velocity_seed = seed;
      c.engine.execution.threads = w.threads;
      machine_ = std::make_unique<runtime::MachineSimulation>(
          *ff_, machine_config(), spec_.positions, spec_.box, c);
    }
    auto t3 = Clock::now();
    t.topo_build_ms = ms_between(t0, t1);
    t.ff_tables_ms = ms_between(t1, t2);
    t.md_init_ms = ms_between(t2, t3);
  }

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  void step() { host_ ? host_->step() : machine_->step(); }
  [[nodiscard]] const State& state() const {
    return host_ ? host_->state() : machine_->state();
  }
  [[nodiscard]] const ForceResult& forces() const {
    return host_ ? host_->forces() : machine_->forces();
  }
  [[nodiscard]] double temperature() const {
    return host_ ? host_->temperature() : machine_->temperature();
  }
  [[nodiscard]] double kinetic_energy() const {
    return host_ ? host_->kinetic_energy() : machine_->kinetic_energy();
  }
  [[nodiscard]] util::Checkpointable& checkpointable() {
    return host_ ? static_cast<util::Checkpointable&>(*host_) : *machine_;
  }
  [[nodiscard]] const Topology& topology() const { return spec_.topology; }
  [[nodiscard]] const ForceField& field() const { return *ff_; }
  [[nodiscard]] ForceField& field() { return *ff_; }
  [[nodiscard]] const md::Simulation* host() const { return host_.get(); }
  [[nodiscard]] const runtime::MachineSimulation* machine() const {
    return machine_.get();
  }
  [[nodiscard]] const Workload& workload() const { return w_; }

 private:
  const Workload& w_;
  SystemSpec spec_;
  std::unique_ptr<ForceField> ff_;
  std::unique_ptr<md::Simulation> host_;
  std::unique_ptr<runtime::MachineSimulation> machine_;
};

// ---------------------------------------------------------------------------
// Minimal JSON emitter (the driver's only output format).
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& open(const char* key = nullptr) { return begin(key, '{'); }
  Json& open_array(const char* key) { return begin(key, '['); }
  Json& close() {
    out_ += stack_.back();
    stack_.pop_back();
    first_ = false;
    return *this;
  }
  Json& num(const char* key, double v) {
    sep(key);
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    sep(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    sep(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
    return *this;
  }
  Json& list(const char* key, const std::vector<double>& v) {
    open_array(key);
    for (double x : v) num(nullptr, x);
    return close();
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  Json& begin(const char* key, char bracket) {
    sep(key);
    out_ += bracket;
    stack_.push_back(bracket == '{' ? '}' : ']');
    first_ = true;
    return *this;
  }
  void sep(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  std::string out_;
  std::vector<char> stack_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Stepping with failure accounting
// ---------------------------------------------------------------------------

struct StepCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One closed-loop step.  A step fails if it throws or leaves a non-finite
/// energy or temperature.
void checked_step(System& sys, StepCount& count) {
  ++count.attempted;
  try {
    sys.step();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "step %" PRIu64 " threw: %s\n", sys.state().step,
                 e.what());
    ++count.failed;
    return;
  }
  if (!std::isfinite(sys.forces().energy.total()) ||
      !std::isfinite(sys.temperature())) {
    ++count.failed;
  }
}

/// Runs closed-loop steps until `seconds` of wall time have passed (or
/// exactly `fixed_steps` steps when nonzero) and returns each step's wall
/// time in ms.  `after_step` runs outside the step's span.
template <typename AfterStep>
std::vector<double> timed_steps(System& sys, double seconds,
                                size_t fixed_steps, StepCount& count,
                                double& window_s, AfterStep&& after_step) {
  std::vector<double> step_ms;
  const auto start = Clock::now();
  auto now = start;
  while (fixed_steps ? step_ms.size() < fixed_steps
                     : ms_between(start, now) < seconds * 1e3) {
    const auto t0 = Clock::now();
    checked_step(sys, count);
    const auto t1 = Clock::now();
    step_ms.push_back(ms_between(t0, t1));
    after_step(step_ms.size() - 1, t0, t1);
    now = Clock::now();
  }
  window_s = ms_between(start, now) * 1e-3;
  return step_ms;
}

// ---------------------------------------------------------------------------
// Correctness gate (final frame, outside every timed window)
// ---------------------------------------------------------------------------

struct Gate {
  bool forces_energy_bit_equal = false;
  double virial_max_rel_diff = 0.0;
  double kspace_force_rel_err = 0.0;  ///< NaN when the model has no k-space
  double shake_max_violation = 0.0;   ///< NaN when there are no constraints
  bool energies_finite = false;
  uint64_t crc_positions = 0;
  uint64_t crc_velocities = 0;

  [[nodiscard]] bool ok() const {
    return forces_energy_bit_equal &&
           virial_max_rel_diff <= kVirialRelTol && energies_finite &&
           (std::isnan(kspace_force_rel_err) ||
            kspace_force_rel_err <= kKspaceErrCeiling) &&
           (std::isnan(shake_max_violation) ||
            shake_max_violation <= kShakeTolerance);
  }
};

bool same_quanta(const ForceResult& a, const ForceResult& b) {
  if (a.forces.size() != b.forces.size()) return false;
  for (size_t i = 0; i < a.forces.size(); ++i) {
    if (a.forces.quanta(i) != b.forces.quanta(i)) return false;
  }
  const EnergyBreakdown& x = a.energy;
  const EnergyBreakdown& y = b.energy;
  return x.bond == y.bond && x.angle == y.angle && x.dihedral == y.dihedral &&
         x.vdw == y.vdw && x.coulomb_real == y.coulomb_real &&
         x.coulomb_kspace == y.coulomb_kspace &&
         x.coulomb_self == y.coulomb_self && x.pair14 == y.pair14 &&
         x.restraint == y.restraint && x.external == y.external;
}

/// Largest component difference relative to the flat-list virial.
double virial_rel_diff(const Mat3& ref, const Mat3& v) {
  double scale = 0.0, diff = 0.0;
  for (size_t k = 0; k < ref.m.size(); ++k) {
    scale = std::max(scale, std::fabs(ref.m[k]));
    diff = std::max(diff, std::fabs(ref.m[k] - v.m[k]));
  }
  return scale > 0 ? diff / scale : diff;
}

bool all_finite(const EnergyBreakdown& e) {
  for (const FixedScalar* s :
       {&e.bond, &e.angle, &e.dihedral, &e.vdw, &e.coulomb_real,
        &e.coulomb_kspace, &e.coulomb_self, &e.pair14, &e.restraint,
        &e.external}) {
    if (!std::isfinite(s->value())) return false;
  }
  return std::isfinite(e.total());
}

/// RMS relative error of GSE reciprocal forces against the direct k-space
/// sum, on every `stride`-th molecule of the frame (whole molecules, so
/// the sample stays neutral).  Exclusion corrections are left out of both
/// sides so only reciprocal forces compare.  kmax is set so the direct
/// sum's own truncation, exp(-k²/4β²) at the cube face, is below 1e-7.
double kspace_force_rel_err(const GseSolver& gse, const Topology& topo,
                            const State& st) {
  const auto& mols = topo.molecules();
  const size_t stride = std::max<size_t>(1, mols.size() / kKspaceSampleMols);
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (size_t m = 0; m < mols.size(); m += stride) {
    for (uint32_t a = 0; a < mols[m].count; ++a) {
      pos.push_back(st.positions[mols[m].first + a]);
      q.push_back(topo.charges()[mols[m].first + a]);
    }
  }
  const double beta = gse.params().beta;
  const double edge = std::max(
      {st.box.edges().x, st.box.edges().y, st.box.edges().z});
  const int kmax = static_cast<int>(std::ceil(
      edge / (2.0 * M_PI) * 2.0 * beta * std::sqrt(std::log(1e7))));
  ForceResult grid(pos.size()), ref(pos.size());
  gse.compute(pos, q, {}, st.box, grid);
  GseSolver::compute_reference(pos, q, {}, st.box, beta, kmax, ref);
  double diff2 = 0.0, ref2 = 0.0;
  for (size_t i = 0; i < pos.size(); ++i) {
    diff2 += norm2(grid.forces.force(i) - ref.forces.force(i));
    ref2 += norm2(ref.forces.force(i));
  }
  return std::sqrt(diff2 / ref2);
}

Gate run_gate(const System& sys) {
  const Workload& w = sys.workload();
  const State& st = sys.state();
  const ForceField& field = sys.field();
  const Topology& topo = sys.topology();
  const size_t n = st.positions.size();
  Gate g;

  // Cluster kernel (at the dispatched ISA) against the flat pair loop.
  // Forces and energies are fixed point and must match bit for bit; the
  // double-precision virial sums in another order and must match to the
  // tolerance tests/golden_test.cpp holds it to.
  md::NeighborList list(topo, field.model().cutoff, w.skin_a,
                        /*cluster_mode=*/true);
  list.build(st.positions, st.box);
  ForceResult flat(n), tiled(n);
  field.compute_nonbonded(list.pairs(), st.positions, st.box, flat);
  field.compute_nonbonded_clusters(list.clusters(), st.positions, st.box,
                                   tiled);
  g.forces_energy_bit_equal = same_quanta(flat, tiled);
  g.virial_max_rel_diff = virial_rel_diff(flat.virial, tiled.virial);

  g.kspace_force_rel_err = std::nan("");
  if (const GseSolver* gse = field.gse()) {
    g.kspace_force_rel_err = kspace_force_rel_err(*gse, topo, st);
  }

  // SHAKE on the final frame advanced by dt·v must converge within the
  // solver tolerance.
  g.shake_max_violation = std::nan("");
  md::ConstraintSolver shake(topo, kShakeTolerance);
  if (!shake.empty()) {
    const double dt = units::fs_to_internal(w.dt_fs);
    std::vector<Vec3> pos = st.positions;
    std::vector<Vec3> vel = st.velocities;
    for (size_t i = 0; i < n; ++i) pos[i] += dt * vel[i];
    g.shake_max_violation =
        shake.apply_positions(st.positions, pos, vel, dt, st.box)
            .max_violation;
  }

  g.energies_finite = all_finite(sys.forces().energy) &&
                      std::isfinite(sys.kinetic_energy()) &&
                      std::isfinite(sys.temperature());
  g.crc_positions =
      util::crc64(st.positions.data(), n * sizeof(st.positions[0]));
  g.crc_velocities =
      util::crc64(st.velocities.data(), n * sizeof(st.velocities[0]));
  return g;
}

// ---------------------------------------------------------------------------
// Traced run: spans + out-of-band layer replays
// ---------------------------------------------------------------------------

/// One timed interval.  Step spans carry the rebuild and k-space flags;
/// replay children point at their `replay` parent.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  const char* name = "";
  uint64_t step = 0;
  double start_us = 0.0;
  double dur_ms = 0.0;
  int rebuilt = -1;
  int kspace_due = -1;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a parent span; close() sets its duration once children ended.
  uint32_t open(const char* name, uint64_t step, Clock::time_point t0) {
    return record(name, 0, step, t0, t0);
  }
  void close(uint32_t id, Clock::time_point t1) {
    Span& s = spans_[id - 1];
    s.dur_ms = ms_between(origin_, t1) - s.start_us * 1e-3;
  }

  uint32_t record(const char* name, uint32_t parent, uint64_t step,
                  Clock::time_point t0, Clock::time_point t1) {
    Span s;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.step = step;
    s.start_us = ms_between(origin_, t0) * 1e3;
    s.dur_ms = ms_between(t0, t1);
    spans_.push_back(s);
    return s.id;
  }

  /// Times fn() as a child of `parent`.
  template <typename Fn>
  auto time(const char* name, uint32_t parent, uint64_t step, Fn&& fn) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(name, parent, step, t0, Clock::now());
    } else {
      auto r = fn();
      record(name, parent, step, t0, Clock::now());
      return r;
    }
  }

  Span& last() { return spans_.back(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Layer objects the replay drives.  Owned here, never shared with the
/// simulation, so replays cannot change a trajectory bit.
struct ReplayRig {
  ReplayRig(System& sys, uint64_t seed)
      : exec(ExecutionContext::create(
            ExecutionConfig{sys.workload().threads, true, nullptr})),
        list(sys.topology(), sys.field().model().cutoff,
             sys.workload().skin_a, /*cluster_mode=*/true),
        shake(sys.topology(), kShakeTolerance),
        out(sys.topology().atom_count()),
        cache(sys.topology().atom_count()) {
    list.set_execution(exec);
    if (const GseSolver* gse = sys.field().gse()) {
      grid = Grid3D(gse->nx(), gse->ny(), gse->nz());
      uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
      for (Complex& c : grid.raw()) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        c = Complex(static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5, 0.0);
      }
    }
    if (sys.machine()) {
      runtime::EngineOptions opt;
      opt.execution.threads = sys.workload().threads;
      engine = std::make_unique<runtime::DistributedEngine>(
          sys.field(), machine_config(), opt);
      timing = std::make_unique<machine::TimingModel>(machine_config());
      shadow = std::make_unique<md::NeighborList>(
          sys.topology(), sys.field().model().cutoff, sys.workload().skin_a,
          /*cluster_mode=*/true);
      shadow->set_execution(exec);
    }
  }

  std::shared_ptr<ExecutionContext> exec;
  md::NeighborList list;
  md::ConstraintSolver shake;
  Grid3D grid;
  ForceResult out;
  ForceResult cache;
  std::unique_ptr<runtime::DistributedEngine> engine;
  std::unique_ptr<machine::TimingModel> timing;
  /// Machine engine only: mirrors the simulation's skin check on the same
  /// positions to learn which steps rebuilt (MachineSimulation does not
  /// expose its list).
  std::unique_ptr<md::NeighborList> shadow;
};

struct ReplayCounts {
  std::vector<double> iterations;
  std::vector<double> pair_imbalance;
  size_t pairs = 0;
  size_t tiles = 0;
  double fill_ratio = 0.0;
};

/// Copies the frame and calls each layer's public entry point on the copy,
/// one span per call under a `replay` parent.
void replay(const System& sys, ReplayRig& rig, Tracer& tr,
            ReplayCounts& counts) {
  const Workload& w = sys.workload();
  const State& st = sys.state();
  const ForceField& field = sys.field();
  const size_t n = st.positions.size();
  std::vector<Vec3> pos = st.positions;
  const std::vector<Vec3> vel = st.velocities;
  const Box box = st.box;
  const uint64_t step = st.step;

  const uint32_t parent = tr.open("replay", step, Clock::now());

  tr.time("md.neighbor.build", parent, step,
          [&] { rig.list.build(pos, box); });
  counts.pairs = rig.list.clusters().real_pairs;
  counts.tiles = rig.list.clusters().entries.size();
  counts.fill_ratio = rig.list.clusters().streamed_fill_ratio();

  rig.out.reset(n);
  tr.time("ff.nonbonded", parent, step, [&] {
    field.compute_nonbonded_clusters(rig.list.clusters(), pos, box, rig.out);
  });

  if (field.has_kspace()) {
    rig.out.reset(n);
    tr.time("ewald.kspace", parent, step,
            [&] { field.compute_kspace(pos, box, rig.out); });
    tr.time("fft.forward", parent, step, [&] { fft3d_forward(rig.grid); });
    tr.time("fft.inverse", parent, step, [&] { fft3d_inverse(rig.grid); });
  }

  if (!rig.shake.empty()) {
    const double dt = units::fs_to_internal(w.dt_fs);
    std::vector<Vec3> moved = pos;
    std::vector<Vec3> v = vel;
    for (size_t i = 0; i < n; ++i) moved[i] += dt * v[i];
    auto stats = tr.time("md.constraints.shake", parent, step, [&] {
      return rig.shake.apply_positions(pos, moved, v, dt, box);
    });
    counts.iterations.push_back(static_cast<double>(stats.iterations));
    tr.time("md.constraints.rattle", parent, step,
            [&] { rig.shake.apply_velocities(moved, v, box); });
  }

  if (rig.engine) {
    tr.time("runtime.redistribute", parent, step, [&] {
      rig.engine->redistribute(pos, box, rig.list.pairs(),
                               &rig.list.clusters());
    });
    rig.cache.reset(n);
    auto work = tr.time("runtime.evaluate", parent, step, [&] {
      return rig.engine->evaluate(pos, box, st.time, rig.list.pairs(),
                                  /*kspace_due=*/false, rig.out, rig.cache);
    });
    double max_pairs = 0.0, sum_pairs = 0.0;
    for (const auto& nw : work.nodes) {
      max_pairs = std::max(max_pairs, static_cast<double>(nw.pairs));
      sum_pairs += static_cast<double>(nw.pairs);
    }
    if (sum_pairs > 0) {
      counts.pair_imbalance.push_back(
          max_pairs * static_cast<double>(work.nodes.size()) / sum_pairs);
    }
    tr.time("machine.step_time", parent, step,
            [&] { return rig.timing->step_time(work); });
  }
  tr.close(parent, Clock::now());
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ledger_driver --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!find_workload(o.workload)) usage("unknown --workload");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload& w = *find_workload(opt.workload);
  const unsigned hw = std::thread::hardware_concurrency();
  const bool measured = hw == 0 || w.threads <= hw;
  if (!measured) {
    std::fprintf(stderr,
                 "warning: %s wants %zu threads on a %u-core host; the run "
                 "is reported as unmeasured\n",
                 w.name, w.threads, hw);
  }

  Json j;
  j.open();
  j.str("workload", w.name)
      .str("engine", w.engine == Engine::kHost ? "host" : "machine")
      .num("kspace_interval", w.kspace_interval);
  j.open("descriptor")
      .num("hardware_concurrency", hw)
      .str("isa", ff::to_string(ff::active_kernel_isa()))
      .num("threads", static_cast<double>(w.threads))
      .str("build_type", LEDGER_BUILD_TYPE)
      .num("seed", static_cast<double>(opt.seed))
      .boolean("measured", measured)
      .close();

  // Set-up, several times; the last system is kept and stepped.
  std::vector<double> topo_ms, ff_ms, init_ms;
  std::unique_ptr<System> sys;
  for (int r = 0; r < kSetups; ++r) {
    sys.reset();
    SetupTimes t;
    sys = std::make_unique<System>(w, opt.seed, t);
    topo_ms.push_back(t.topo_build_ms);
    ff_ms.push_back(t.ff_tables_ms);
    init_ms.push_back(t.md_init_ms);
  }
  j.open("setup")
      .list("topo.build_ms", topo_ms)
      .list("ff.tables_ms", ff_ms)
      .list("md.init_ms", init_ms)
      .close();
  std::fprintf(stderr, "%s: %zu atoms, set-up x%d done\n", w.name,
               sys->topology().atom_count(), kSetups);

  StepCount count;
  for (int i = 0; i < w.warmup_steps; ++i) checked_step(*sys, count);
  count = StepCount{};  // warm-up steps are not operations of the window

  double window_s = 0.0;
  std::vector<double> step_ms;
  if (!opt.trace) {
    step_ms = timed_steps(*sys, opt.seconds, 0, count, window_s,
                          [](size_t, Clock::time_point, Clock::time_point) {});
    j.open("window")
        .num("wall_s", window_s)
        .list("step_ms", step_ms)
        .close();
  } else {
    // Both passes restart from the same checkpoint, so they step the same
    // trajectory with the same rebuild cadence: the untraced pass is the
    // reference for the trace overhead.
    util::BinaryWriter ckpt;
    sys->checkpointable().save_checkpoint(ckpt);
    ReplayRig rig(*sys, opt.seed);
    auto restore = [&] {
      util::BinaryReader in(ckpt.buffer());
      sys->checkpointable().restore_checkpoint(in);
      if (rig.shadow) rig.shadow->build(sys->state().positions,
                                         sys->state().box);
    };

    restore();
    step_ms = timed_steps(*sys, opt.seconds / 2, 0, count, window_s,
                          [](size_t, Clock::time_point, Clock::time_point) {});
    const size_t n_steps = step_ms.size();
    const size_t every =
        std::max<size_t>(1, (n_steps + kReplaysPerRun - 1) / kReplaysPerRun);

    restore();
    Tracer tr(Clock::now());
    ReplayCounts counts;
    double traced_window_s = 0.0;
    const md::NeighborList* host_list =
        sys->host() ? &sys->host()->neighbor_list() : nullptr;
    uint64_t builds_before = host_list ? host_list->build_count() : 0;
    auto traced = timed_steps(
        *sys, 0, n_steps, count, traced_window_s,
        [&](size_t k, Clock::time_point t0, Clock::time_point t1) {
          const uint64_t step = sys->state().step;
          tr.record("step", 0, step, t0, t1);
          bool rebuilt = false;
          if (host_list) {
            rebuilt = host_list->build_count() != builds_before;
            builds_before = host_list->build_count();
          } else {
            rebuilt = rig.shadow->update(sys->state().positions,
                                         sys->state().box);
          }
          tr.last().rebuilt = rebuilt ? 1 : 0;
          tr.last().kspace_due =
              step % static_cast<uint64_t>(w.kspace_interval) == 0 &&
              sys->field().has_kspace();
          if ((k + 1) % every == 0) replay(*sys, rig, tr, counts);
        });

    std::vector<double> rebuilt, kspace;
    for (const Span& s : tr.spans()) {
      if (std::strcmp(s.name, "step") != 0) continue;
      rebuilt.push_back(s.rebuilt);
      kspace.push_back(s.kspace_due);
    }
    j.open("window")
        .num("wall_s", window_s)
        .list("step_ms", step_ms)
        .close();
    j.open("trace")
        .num("wall_s", traced_window_s)
        .list("step_ms", traced)
        .list("rebuilt", rebuilt)
        .list("kspace_due", kspace);
    j.open("counts")
        .num("md.neighbor.pairs", static_cast<double>(counts.pairs))
        .num("md.neighbor.tiles", static_cast<double>(counts.tiles))
        .num("md.neighbor.fill_ratio", counts.fill_ratio)
        .list("md.constraints.iterations", counts.iterations)
        .list("runtime.pair_imbalance", counts.pair_imbalance);
    if (const GseSolver* gse = sys->field().gse()) {
      const GseWorkload gw = gse->workload(sys->topology().atom_count());
      const double points = static_cast<double>(gw.grid_points);
      j.num("ewald.grid_points", points)
          .num("ewald.stencil_points",
               static_cast<double>(gw.spread_stencil_points))
          .num("fft.flops",
               estimate_fft_cost(gse->nx(), gse->ny(), gse->nz(), 1).flops)
          // One read and one write of every complex point per axis pass.
          .num("fft.bytes_computed", 3.0 * 2.0 * sizeof(Complex) * points);
    }
    if (const auto* m = sys->machine()) {
      j.num("machine.modeled_step_us", m->mean_step_time_s() * 1e6)
          .num("machine.network_fraction",
               m->accumulated().network_fraction());
    }
    j.close();
    j.open_array("spans");
    for (const Span& s : tr.spans()) {
      j.open()
          .num("id", s.id)
          .num("parent", s.parent)
          .str("name", s.name)
          .num("step", static_cast<double>(s.step))
          .num("start_us", s.start_us)
          .num("dur_ms", s.dur_ms);
      if (s.rebuilt >= 0) j.num("rebuilt", s.rebuilt);
      if (s.kspace_due >= 0) j.num("kspace_due", s.kspace_due);
      j.close();
    }
    j.close();
    j.close();
  }
  const double rss = peak_rss_mb();
  if (const auto* m = sys->machine()) {
    j.num("modeled_ns_per_day", m->ns_per_day());
  }

  const auto t_gate = Clock::now();
  const Gate g = run_gate(*sys);
  std::fprintf(stderr, "%s: %" PRIu64 " timed steps, gate %s in %.1f s\n",
               w.name, count.attempted, g.ok() ? "passed" : "FAILED",
               ms_between(t_gate, Clock::now()) * 1e-3);
  char crc[40];
  std::snprintf(crc, sizeof crc, "%016" PRIx64 ":%016" PRIx64,
                g.crc_positions, g.crc_velocities);
  j.num("peak_rss_mb", rss);
  j.num("attempted", static_cast<double>(count.attempted));
  j.num("failed", static_cast<double>(count.failed));
  j.open("gate")
      .boolean("ok", g.ok())
      .boolean("forces_energy_bit_equal", g.forces_energy_bit_equal)
      .num("virial_max_rel_diff", g.virial_max_rel_diff)
      .num("virial_rel_tol", kVirialRelTol)
      .num("kspace_force_rel_err", g.kspace_force_rel_err)
      .num("kspace_force_rel_err_ceiling", kKspaceErrCeiling)
      .num("shake_max_violation", g.shake_max_violation)
      .num("shake_tolerance", kShakeTolerance)
      .boolean("energies_finite", g.energies_finite)
      .str("crc64_positions_velocities", crc)
      .close();
  j.close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}
