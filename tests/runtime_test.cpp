// Tests for the distributed runtime: decomposition correctness, the
// bit-exact determinism contract across node counts (the paper's fixed-
// point guarantee, experiment T5), workload accounting, and agreement with
// the single-host engine.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "ff/forcefield.hpp"
#include "machine/config.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "runtime/decomposition.hpp"
#include "runtime/engine.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"

namespace antmd::runtime {
namespace {

ff::NonbondedModel lj_model(double cutoff = 7.0) {
  ff::NonbondedModel m;
  m.cutoff = cutoff;
  m.electrostatics = ff::Electrostatics::kNone;
  return m;
}

ff::NonbondedModel water_model(double cutoff = 6.0) {
  ff::NonbondedModel m;
  m.cutoff = cutoff;
  m.electrostatics = ff::Electrostatics::kEwaldReal;
  m.ewald_beta = 0.45;
  return m;
}

TEST(Decomposition, EveryAtomOwnedExactlyOnce) {
  auto spec = build_lj_fluid(343, 0.021, 3);
  machine::TorusTopology torus(machine::anton_with_torus(2, 2, 2));
  SpatialDecomposition decomp(torus, spec.box);
  decomp.assign_atoms(spec.positions, spec.box);
  auto counts = decomp.atoms_per_node();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), size_t{0}), 343u);
  // Uniform fluid: every node owns something.
  for (size_t c : counts) EXPECT_GT(c, 0u);
}

TEST(Decomposition, OwnerMatchesSpatialCell) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  machine::TorusTopology torus(machine::anton_with_torus(3, 3, 3));
  SpatialDecomposition decomp(torus, spec.box);
  decomp.assign_atoms(spec.positions, spec.box);
  for (uint32_t i = 0; i < 216; ++i) {
    EXPECT_EQ(decomp.owner(i), decomp.node_at(spec.positions[i], spec.box));
  }
}

TEST(Decomposition, PairRulesAssignEveryPair) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  machine::TorusTopology torus(machine::anton_with_torus(2, 2, 2));
  SpatialDecomposition decomp(torus, spec.box);
  decomp.assign_atoms(spec.positions, spec.box);

  md::NeighborList list(spec.topology, 7.0, 1.0);
  list.build(spec.positions, spec.box);

  for (auto rule : {PairAssignment::kHomeOfFirst, PairAssignment::kMidpoint}) {
    auto nodes = decomp.assign_pairs(list.pairs(), spec.positions, spec.box,
                                     rule);
    ASSERT_EQ(nodes.size(), list.pairs().size());
    for (uint32_t n : nodes) EXPECT_LT(n, 8u);
  }
}

TEST(Engine, ForcesBitIdenticalAcrossNodeCounts) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto model = water_model(5.0);

  std::vector<std::array<int, 3>> layouts = {
      {1, 1, 1}, {2, 2, 2}, {4, 4, 4}, {8, 8, 8}};
  std::vector<ForceResult> results;
  for (const auto& dims : layouts) {
    ForceField field(spec.topology, model);
    field.on_box_changed(spec.box);
    DistributedEngine engine(
        field, machine::anton_with_torus(dims[0], dims[1], dims[2]));
    md::NeighborList list(spec.topology, model.cutoff, 1.0);
    auto positions = spec.positions;
    list.build(positions, spec.box);
    engine.redistribute(positions, spec.box, list.pairs());

    ForceResult out(spec.topology.atom_count());
    ForceResult kcache(spec.topology.atom_count());
    engine.evaluate(positions, spec.box, 0.0, list.pairs(), true, out,
                    kcache);
    results.push_back(std::move(out));
  }
  for (size_t k = 1; k < results.size(); ++k) {
    EXPECT_EQ(results[0].forces, results[k].forces)
        << "forces differ between layouts 0 and " << k;
    EXPECT_EQ(results[0].energy.vdw, results[k].energy.vdw);
    EXPECT_EQ(results[0].energy.coulomb_real, results[k].energy.coulomb_real);
    EXPECT_EQ(results[0].energy.bond, results[k].energy.bond);
  }
}

TEST(Engine, MidpointRuleAlsoDeterministic) {
  auto spec = build_lj_fluid(216, 0.021, 9);
  auto model = lj_model();
  EngineOptions opt;
  opt.pair_rule = PairAssignment::kMidpoint;

  std::vector<ForceResult> results;
  for (int n : {1, 4}) {
    ForceField field(spec.topology, model);
    DistributedEngine engine(field, machine::anton_with_torus(n, n, n), opt);
    md::NeighborList list(spec.topology, model.cutoff, 1.0);
    auto positions = spec.positions;
    list.build(positions, spec.box);
    engine.redistribute(positions, spec.box, list.pairs());
    ForceResult out(216), kcache(216);
    engine.evaluate(positions, spec.box, 0.0, list.pairs(), true, out,
                    kcache);
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0].forces, results[1].forces);
}

TEST(Engine, WorkloadCountsCoverAllPairs) {
  auto spec = build_lj_fluid(216, 0.021, 11);
  auto model = lj_model();
  ForceField field(spec.topology, model);
  DistributedEngine engine(field, machine::anton_with_torus(2, 2, 2));
  md::NeighborList list(spec.topology, model.cutoff, 1.0);
  auto positions = spec.positions;
  list.build(positions, spec.box);
  engine.redistribute(positions, spec.box, list.pairs());
  ForceResult out(216), kcache(216);
  auto work = engine.evaluate(positions, spec.box, 0.0, list.pairs(), true,
                              out, kcache);
  size_t total_pairs = 0;
  for (const auto& n : work.nodes) total_pairs += n.pairs;
  EXPECT_EQ(total_pairs, list.pairs().size());
  // Multi-node decomposition of a dense fluid must import something.
  double total_import = 0;
  for (const auto& n : work.nodes) total_import += n.import_bytes;
  EXPECT_GT(total_import, 0.0);
}

TEST(Engine, SingleNodeImportsNothing) {
  auto spec = build_lj_fluid(125, 0.021, 13);
  auto model = lj_model();
  ForceField field(spec.topology, model);
  DistributedEngine engine(field, machine::anton_with_torus(1, 1, 1));
  md::NeighborList list(spec.topology, model.cutoff, 1.0);
  auto positions = spec.positions;
  list.build(positions, spec.box);
  engine.redistribute(positions, spec.box, list.pairs());
  ForceResult out(125), kcache(125);
  auto work = engine.evaluate(positions, spec.box, 0.0, list.pairs(), true,
                              out, kcache);
  ASSERT_EQ(work.nodes.size(), 1u);
  EXPECT_EQ(work.nodes[0].import_bytes, 0.0);
  EXPECT_EQ(work.nodes[0].messages, 0u);
}

TEST(MachineSim, TrajectoryBitIdenticalAcrossNodeCounts) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto model = water_model(5.0);

  auto run_traj = [&](int n) {
    ForceField field(spec.topology, model);
    MachineSimConfig cfg;
    cfg.dt_fs = 2.0;
    cfg.kspace_interval = 2;
    cfg.neighbor_skin = 1.0;
    cfg.init_temperature_k = 250.0;
    cfg.thermostat.kind = md::ThermostatKind::kLangevin;
    cfg.thermostat.temperature_k = 250.0;
    MachineSimulation sim(field, machine::anton_with_torus(n, n, n),
                          spec.positions, spec.box, cfg);
    sim.run(25);
    return sim.state().positions;
  };

  auto p1 = run_traj(1);
  auto p2 = run_traj(2);
  auto p4 = run_traj(4);
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i], p2[i]) << "atom " << i << " differs (1 vs 8 nodes)";
    EXPECT_EQ(p1[i], p4[i]) << "atom " << i << " differs (1 vs 64 nodes)";
  }
}

// The machine engine rejects a box smaller than 2·(cutoff + skin) with a
// typed error before its first neighbor-list build (quickstart --waters 64
// is this configuration).
TEST(MachineSim, RejectsBoxSmallerThanTwiceCutoffPlusSkin) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  ASSERT_LT(spec.box.min_edge(), 14.0);
  ForceField field(spec.topology, water_model(6.0));
  MachineSimConfig cfg;
  cfg.neighbor_skin = 1.0;
  EXPECT_THROW(MachineSimulation(field, machine::anton_with_torus(2, 2, 2),
                                 spec.positions, spec.box, cfg),
               ConfigError);
}

// Out-of-range integration settings are typed errors on the machine engine
// too (the shared core validates them for both engines).
TEST(MachineSim, RejectsInvalidConfig) {
  auto spec = build_lj_fluid(343, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  auto construct = [&](MachineSimConfig cfg) {
    MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                          spec.positions, spec.box, cfg);
  };
  MachineSimConfig base;
  base.neighbor_skin = 1.0;
  for (double dt : {0.0, -1.0, std::nan("")}) {
    MachineSimConfig cfg = base;
    cfg.dt_fs = dt;
    EXPECT_THROW(construct(cfg), ConfigError) << "dt_fs = " << dt;
  }
  MachineSimConfig cfg = base;
  cfg.kspace_interval = 0;
  EXPECT_THROW(construct(cfg), ConfigError);
  cfg = base;
  cfg.neighbor_skin = -0.5;
  EXPECT_THROW(construct(cfg), ConfigError);
  EXPECT_NO_THROW(construct(base));
}

TEST(MachineSim, EnergyAgreesWithHostSimulation) {
  // The machine path quantizes positions through the wire format, so it is
  // not bitwise-equal to md::Simulation — but energies must agree closely.
  auto spec = build_lj_fluid(125, 0.021, 17);
  auto model = lj_model();

  ForceField field_host(spec.topology, model);
  md::SimulationConfig host_cfg;
  host_cfg.dt_fs = 2.0;
  host_cfg.neighbor_skin = 1.0;
  host_cfg.init_temperature_k = 120.0;
  host_cfg.com_removal_interval = 0;
  md::Simulation host(field_host, spec.positions, spec.box, host_cfg);

  ForceField field_machine(spec.topology, model);
  MachineSimConfig mc;
  mc.dt_fs = 2.0;
  mc.neighbor_skin = 1.0;
  mc.init_temperature_k = 120.0;
  mc.velocity_seed = host_cfg.velocity_seed;
  mc.thermostat.kind = md::ThermostatKind::kNone;
  MachineSimulation machine_sim(field_machine,
                                machine::anton_with_torus(2, 2, 2),
                                spec.positions, spec.box, mc);

  EXPECT_NEAR(machine_sim.potential_energy(), host.potential_energy(),
              1e-3 * std::abs(host.potential_energy()) + 1e-3);
  host.run(20);
  machine_sim.run(20);
  EXPECT_NEAR(machine_sim.potential_energy(), host.potential_energy(),
              2e-2 * std::abs(host.potential_energy()) + 0.5);
}

TEST(MachineSim, ModeledTimeAccumulates) {
  auto spec = build_lj_fluid(216, 0.021, 19);
  auto model = lj_model();
  ForceField field(spec.topology, model);
  MachineSimConfig cfg;
  cfg.dt_fs = 2.5;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                        spec.positions, spec.box, cfg);
  sim.run(10);
  EXPECT_GT(sim.modeled_time_s(), 0.0);
  EXPECT_GT(sim.mean_step_time_s(), 0.0);
  EXPECT_GT(sim.ns_per_day(), 0.0);
  EXPECT_GT(sim.last_breakdown().total, 0.0);
  // Accumulated totals exceed any single step.
  EXPECT_GE(sim.accumulated().total, sim.last_breakdown().total);
}

TEST(MachineSim, MoreNodesMeansFasterSteps) {
  auto spec = build_water_box(216, WaterModel::kRigid3Site);
  auto model = water_model(6.0);

  auto mean_step = [&](int n) {
    ForceField field(spec.topology, model);
    MachineSimConfig cfg;
    cfg.dt_fs = 2.0;
    cfg.neighbor_skin = 1.0;
    cfg.init_temperature_k = 250.0;
    MachineSimulation sim(field, machine::anton_with_torus(n, n, n),
                          spec.positions, spec.box, cfg);
    sim.run(5);
    return sim.mean_step_time_s();
  };
  double t1 = mean_step(1);
  double t4 = mean_step(4);
  EXPECT_LT(t4, t1);  // 64 nodes beat 1 node on a 216-water box
}

}  // namespace
}  // namespace antmd::runtime
