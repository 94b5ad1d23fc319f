// EngineApi: the step-driver contract every engine in the repo satisfies
// (md::Simulation, runtime::MachineSimulation, and any future driver).
//
// The repo grew three step loops with structurally identical surfaces —
// advance, observe, checkpoint — that generic layers (Supervisor, the
// observer plumbing, example drivers) consumed by duck typing, silently
// special-casing each engine.  This concept names the contract once:
// generic code constrains on EngineApi and any drift in an engine's
// surface becomes a compile error at the definition, not a template
// instantiation stack three layers deep.
#pragma once

#include <concepts>
#include <cstddef>
#include <utility>

#include "md/observer.hpp"
#include "md/state.hpp"
#include "util/serialize.hpp"

namespace antmd::md {

/// A steppable MD engine: advances state, exposes the energetic summary
/// observers and supervisors read, and checkpoints bit-exactly.
template <typename Sim>
concept EngineApi =
    std::derived_from<Sim, util::Checkpointable> &&
    requires(Sim& s, const Sim& cs, StepObserver obs, size_t n, double dt) {
      s.step();
      s.run(n);
      { cs.state() } -> std::convertible_to<const State&>;
      { cs.potential_energy() } -> std::convertible_to<double>;
      { cs.kinetic_energy() } -> std::convertible_to<double>;
      { cs.temperature() } -> std::convertible_to<double>;
      s.add_observer(std::move(obs), 1);
      s.set_timestep_fs(dt);
      { cs.timestep_fs() } -> std::convertible_to<double>;
    };

/// Shared post-step observer notification: builds the StepInfo — and pays
/// its O(N) kinetic/temperature reductions — only when an observer is due.
/// Engines call this from their step() epilogue instead of each keeping a
/// private copy of the same loop.
template <typename Sim>
  requires requires(const Sim& cs) {
    { cs.state() } -> std::convertible_to<const State&>;
    { cs.potential_energy() } -> std::convertible_to<double>;
    { cs.kinetic_energy() } -> std::convertible_to<double>;
    { cs.temperature() } -> std::convertible_to<double>;
  }
void notify_step(const Sim& sim, const ObserverList& observers,
                 const WallTimer& wall) {
  const State& state = sim.state();
  if (observers.empty() || !observers.due(state.step)) return;
  StepInfo info;
  info.step = state.step;
  info.time = state.time;
  info.potential = sim.potential_energy();
  info.kinetic = sim.kinetic_energy();
  info.temperature = sim.temperature();
  info.wall_seconds = wall.seconds();
  observers.notify(info);
}

}  // namespace antmd::md
