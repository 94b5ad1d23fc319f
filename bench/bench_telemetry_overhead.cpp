// In-process telemetry overhead A/B, the measurement behind
// scripts/check_metrics_overhead.sh.
//
// Steps the machine-engine water system of examples/configs/
// water_machine.cfg (216 rigid waters, 4×4×4 torus, GSE every 2nd step)
// under three configurations: telemetry off, telemetry on with the
// attribution profiler off, and telemetry plus the profiler.  One
// checkpoint is taken after a warm-up, and every round replays the same
// block of steps from it once per configuration (restore, then a timed
// block; rotating which configuration goes first), so every timed block
// does bit-identical work: same neighbor rebuilds, same k-space solves.
//
// The overhead of a configuration is the median over rounds of its block
// time divided by the same round's telemetry-off block.  The three blocks
// of a round run back to back, so the ratio cancels the slow drift of a
// shared host, and the median discards the rounds a burst of load hit.
// (Minimum block times, printed too, swing by several percent between
// two identical configurations on such a host; the paired median stays
// within about 1%.)
//
// Prints one line per configuration and, last, the telemetry-on and
// profiling-on overheads in percent for the script to gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "ff/forcefield.hpp"
#include "machine/config.hpp"
#include "md/observer.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/serialize.hpp"

namespace antmd {
namespace {

constexpr int kRounds = 60;
constexpr size_t kBlockSteps = 4;

int run() {
  obs::register_standard_metrics();
  auto spec = build_water_box(216, WaterModel::kRigid3Site, 1);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.4;
  ForceField field(spec.topology, model);
  runtime::MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.kspace_interval = 2;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 300.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 300.0;
  cfg.thermostat.gamma_per_ps = 5.0;
  runtime::MachineSimulation sim(field, machine::anton_with_torus(4, 4, 4),
                                 spec.positions, spec.box, cfg);
  sim.add_observer(md::metrics_observer(), 20);

  struct Config {
    const char* name;
    bool telemetry;
    bool profiling;
    std::vector<double> block_s;  ///< one per round
  };
  Config configs[] = {{"telemetry off", false, false, {}},
                      {"telemetry on", true, false, {}},
                      {"profiling on", true, true, {}}};
  constexpr int n = static_cast<int>(std::size(configs));
  sim.run(kBlockSteps);  // warm caches, scratch and the first rebuilds
  util::BinaryWriter snapshot;
  sim.save_checkpoint(snapshot);
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < n; ++k) {
      Config& c = configs[(round + k) % n];
      util::BinaryReader in(snapshot.buffer());
      sim.restore_checkpoint(in);
      obs::ScopedTelemetry telemetry(c.telemetry);
      obs::ScopedProfiling profiling(c.profiling);
      const auto t0 = std::chrono::steady_clock::now();
      sim.run(kBlockSteps);
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      c.block_s.push_back(s);
    }
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  };
  double overhead_pct[n] = {};
  for (int k = 0; k < n; ++k) {
    const Config& c = configs[k];
    std::vector<double> ratios;
    for (int round = 0; round < kRounds; ++round) {
      ratios.push_back(c.block_s[round] / configs[0].block_s[round]);
    }
    overhead_pct[k] = (median(ratios) - 1.0) * 100.0;
    std::printf("%-14s %d blocks of %zu steps: min %.6f s, median %.6f s, "
                "overhead %+.2f%%\n",
                c.name, kRounds, kBlockSteps,
                *std::min_element(c.block_s.begin(), c.block_s.end()),
                median(c.block_s), overhead_pct[k]);
  }
  std::printf("%.3f %.3f\n", overhead_pct[1], overhead_pct[2]);
  return 0;
}

}  // namespace
}  // namespace antmd

int main() { return antmd::run(); }
