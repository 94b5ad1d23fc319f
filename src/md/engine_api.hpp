// EngineApi: the step-driver contract every engine in the repo satisfies
// (md::Simulation, runtime::MachineSimulation, and any future driver).
//
// The repo grew three step loops with structurally identical surfaces —
// advance, observe, checkpoint — that generic layers (Supervisor, the
// observer plumbing, example drivers) consumed by duck typing, silently
// special-casing each engine.  This concept names the contract once:
// generic code constrains on EngineApi and any drift in an engine's
// surface becomes a compile error at the definition, not a template
// instantiation stack three layers deep.  Both engines inherit the surface
// from md::EngineCore (md/engine_core.hpp), the integrator they share.
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

}  // namespace antmd::md
