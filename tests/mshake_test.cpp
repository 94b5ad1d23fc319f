// Tests for the M-SHAKE (per-cluster Newton) constraint solver and its
// ablation against classic SHAKE sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ff/forcefield.hpp"
#include "math/rng.hpp"
#include "md/constraints.hpp"
#include "md/simulation.hpp"
#include "topo/builders.hpp"

namespace antmd::md {
namespace {

TEST(MShake, RestoresWaterGeometry) {
  auto spec = build_water_box(27, WaterModel::kRigid3Site);
  ConstraintSolver solver(spec.topology, 1e-10, 100,
                          ConstraintAlgorithm::kMShake);
  auto before = spec.positions;
  auto perturbed = spec.positions;
  SequentialRng rng(5);
  for (auto& p : perturbed) {
    p += Vec3{rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08),
              rng.uniform(-0.08, 0.08)};
  }
  std::vector<Vec3> velocities(perturbed.size(), Vec3{});
  auto stats = solver.apply_positions(before, perturbed, velocities, 0.0,
                                      spec.box);
  EXPECT_LT(stats.max_violation, 1e-9);
}

TEST(MShake, ConvergesInFewerIterationsThanShake) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto before = spec.positions;
  auto perturbed = spec.positions;
  SequentialRng rng(7);
  for (auto& p : perturbed) {
    p += Vec3{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
              rng.uniform(-0.05, 0.05)};
  }
  std::vector<Vec3> v1(perturbed.size(), Vec3{});
  std::vector<Vec3> v2(perturbed.size(), Vec3{});

  ConstraintSolver shake(spec.topology, 1e-10, 500,
                         ConstraintAlgorithm::kShake);
  ConstraintSolver mshake(spec.topology, 1e-10, 500,
                          ConstraintAlgorithm::kMShake);
  auto p1 = perturbed;
  auto p2 = perturbed;
  auto s1 = shake.apply_positions(before, p1, v1, 0.0, spec.box);
  auto s2 = mshake.apply_positions(before, p2, v2, 0.0, spec.box);
  // Both converge...
  EXPECT_LT(s1.max_violation, 1e-9);
  EXPECT_LT(s2.max_violation, 1e-9);
  // ...but Newton needs fewer sweeps at tight tolerance.
  EXPECT_LT(s2.iterations, s1.iterations);
}

TEST(MShake, VelocityImpulseMatchesShakeDirection) {
  auto spec = build_water_box(8, WaterModel::kRigid3Site);
  auto before = spec.positions;
  auto perturbed = spec.positions;
  for (auto& p : perturbed) p += Vec3{0.03, -0.02, 0.01};
  perturbed[1] += Vec3{0.05, 0.05, 0.0};  // strain one molecule

  std::vector<Vec3> v_shake(perturbed.size(), Vec3{});
  std::vector<Vec3> v_mshake(perturbed.size(), Vec3{});
  double dt = 0.05;
  ConstraintSolver shake(spec.topology, 1e-10, 500,
                         ConstraintAlgorithm::kShake);
  ConstraintSolver mshake(spec.topology, 1e-10, 500,
                          ConstraintAlgorithm::kMShake);
  auto p1 = perturbed;
  auto p2 = perturbed;
  shake.apply_positions(before, p1, v_shake, dt, spec.box);
  mshake.apply_positions(before, p2, v_mshake, dt, spec.box);
  // Same constraints, same reference: final positions agree closely.
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_NEAR(norm(p1[i] - p2[i]), 0.0, 1e-6) << i;
    EXPECT_NEAR(norm(v_shake[i] - v_mshake[i]), 0.0, 1e-4) << i;
  }
}

TEST(MShake, DrivesStableDynamics) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 5.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.45;
  ForceField field(spec.topology, model);
  SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 250.0;
  cfg.thermostat.kind = ThermostatKind::kNone;
  cfg.com_removal_interval = 0;
  cfg.constraint_algorithm = ConstraintAlgorithm::kMShake;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(150);
  ConstraintSolver check(spec.topology);
  EXPECT_LT(check.max_violation(sim.state().positions, sim.state().box),
            1e-6);
  EXPECT_TRUE(std::isfinite(sim.potential_energy()));
}

/// Constraint-only copy of a water topology (masses and constraints; the
/// solver reads nothing else), optionally followed by a zig-zag chain of
/// `chain_bonds` + 1 atoms whose constraints are registered *before* the
/// waters', so the chain is the first cluster the solver visits.
Topology constraint_topology(const Topology& water, size_t chain_bonds,
                             std::span<const Vec3> chain) {
  Topology t;
  const uint32_t type = t.add_type("X", 3.0, 0.1);
  for (double m : water.masses()) t.add_atom(type, m, 0.0);
  const auto first = static_cast<uint32_t>(water.atom_count());
  for (size_t k = 0; k < chain.size(); ++k) t.add_atom(type, 12.0, 0.0);
  for (size_t k = 0; k < chain_bonds; ++k) {
    t.add_constraint(first + static_cast<uint32_t>(k),
                     first + static_cast<uint32_t>(k + 1),
                     norm(chain[k + 1] - chain[k]));
  }
  for (const auto& c : water.constraints()) t.add_constraint(c.i, c.j, c.r0);
  return t;
}

TEST(MShake, LargeClusterFallbackLeavesOtherClustersAlone) {
  // A 14-constraint chain exceeds the dense-solve limit (12) and falls back
  // to SHAKE sweeps.  Those sweeps must touch only the chain: every water
  // must come out of the mixed system bit for bit as M-SHAKE leaves it in
  // a water-only system.
  auto spec = build_water_box(27, WaterModel::kRigid3Site);
  constexpr size_t kBonds = 14;
  std::vector<Vec3> chain;
  for (size_t k = 0; k <= kBonds; ++k) {
    chain.push_back(Vec3{1.0 + 1.3 * static_cast<double>(k),
                         2.0 + 0.75 * static_cast<double>(k % 2), 3.0});
  }
  const Topology water_only = constraint_topology(spec.topology, 0, {});
  const Topology mixed = constraint_topology(spec.topology, kBonds, chain);

  std::vector<Vec3> before = spec.positions;
  before.insert(before.end(), chain.begin(), chain.end());
  std::vector<Vec3> perturbed = before;
  SequentialRng rng(17);
  for (auto& p : perturbed) {
    p += Vec3{rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04),
              rng.uniform(-0.04, 0.04)};
  }
  const size_t n_water = spec.positions.size();
  const double dt = 0.05;

  ConstraintSolver alone(water_only, 1e-10, 500, ConstraintAlgorithm::kMShake);
  std::vector<Vec3> p_alone(perturbed.begin(), perturbed.begin() + n_water);
  std::vector<Vec3> v_alone(n_water, Vec3{});
  alone.apply_positions(std::span<const Vec3>(before).first(n_water), p_alone,
                        v_alone, dt, spec.box);

  ConstraintSolver both(mixed, 1e-10, 500, ConstraintAlgorithm::kMShake);
  std::vector<Vec3> p_both = perturbed;
  std::vector<Vec3> v_both(perturbed.size(), Vec3{});
  auto stats = both.apply_positions(before, p_both, v_both, dt, spec.box);

  EXPECT_LT(stats.max_violation, 1e-9);  // the chain converged too
  EXPECT_EQ(std::memcmp(p_both.data(), p_alone.data(),
                        n_water * sizeof(Vec3)),
            0)
      << "water positions moved";
  EXPECT_EQ(std::memcmp(v_both.data(), v_alone.data(),
                        n_water * sizeof(Vec3)),
            0)
      << "water velocities moved";
}

}  // namespace
}  // namespace antmd::md
