// The direct cluster-tile build against the flat-list derivation it
// replaced.
//
// md::NeighborList in cluster mode writes ff::ClusterPairList straight from
// cluster bounding boxes and per-pair minimum-image tests, never through a
// flat pair vector.  Its contract is byte-identity with the old two-step
// derivation (flat search → slot keys → sorted tiles): same slot order and
// slot arrays, same (ci, cj, mask, shift) sequence, same real_pairs and
// active_rows.  Identical entries mean identical chunk plans, forces,
// energies, virial bits and trajectories, which is why no golden fixture
// moves.  The old derivation lives on below as the reference, fed by an
// independent flat-mode list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ff/forcefield.hpp"
#include "machine/config.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/serialize.hpp"

namespace antmd {
namespace {

/// The flat-list → tile derivation the direct build must reproduce: a
/// fine-grid slot order, every flat pair keyed to one bit of its
/// (ci, cj) tile with the lower slot on the i side, keys sorted, and the
/// advisory shift code taken from the reach-sized cells of the lead atoms.
ff::ClusterPairList reference_tiles(const Topology& topo,
                                    std::span<const Vec3> positions,
                                    const Box& box, double cutoff,
                                    double skin) {
  md::NeighborList flat_list(topo, cutoff, skin);
  flat_list.build(positions, box);
  const std::vector<ff::PairEntry>& pairs = flat_list.pairs();
  md::CellList cells(box, cutoff + skin);
  cells.assign(positions, box);

  ff::ClusterPairList cl;
  constexpr uint32_t w = ff::kClusterWidth;
  constexpr uint32_t jw = ff::kClusterJWidth;
  const size_t atom_count = positions.size();
  const double target_edge =
      std::cbrt(box.volume() * static_cast<double>(w) /
                std::max<double>(1.0, static_cast<double>(atom_count)));
  md::CellList fine(box, std::max(target_edge, 1e-6));
  fine.assign(positions, box);
  std::vector<uint32_t> order;
  for (int cz = 0; cz < fine.nz(); ++cz) {
    for (int cy = 0; cy < fine.ny(); ++cy) {
      for (int cx = 0; cx < fine.nx(); ++cx) {
        const auto& c = fine.cell(cx, cy, cz);
        order.insert(order.end(), c.begin(), c.end());
      }
    }
  }
  const size_t slots = (atom_count + w - 1) / w * w;
  cl.atoms.assign(slots, ff::kPadAtom);
  cl.slot_types.assign(slots, 0);
  cl.slot_charges.assign(slots, 0.0);
  std::vector<uint32_t> slot_of(atom_count);
  for (size_t s = 0; s < order.size(); ++s) {
    cl.atoms[s] = order[s];
    cl.slot_types[s] = topo.type_ids()[order[s]];
    cl.slot_charges[s] = topo.charges()[order[s]];
    slot_of[order[s]] = static_cast<uint32_t>(s);
  }

  std::vector<std::pair<uint64_t, uint64_t>> keyed;
  for (const ff::PairEntry& p : pairs) {
    uint32_t si = slot_of[p.i];
    uint32_t sj = slot_of[p.j];
    if (si > sj) std::swap(si, sj);
    keyed.emplace_back((static_cast<uint64_t>(si / w) << 32) | (sj / jw),
                       uint64_t{1} << ((si % w) * jw + sj % jw));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  auto shift_code = [&](uint32_t ci, uint32_t cj) {
    const auto cell_i = cells.cell_of(cl.atoms[ci * w]);
    const auto cell_j = cells.cell_of(cl.atoms[cj * jw]);
    const int dims[3] = {cells.nx(), cells.ny(), cells.nz()};
    int code = 0;
    int mult = 1;
    for (int ax = 0; ax < 3; ++ax) {
      const int d = cell_j[ax] - cell_i[ax];
      int s = 0;
      if (d > dims[ax] / 2) {
        s = -1;
      } else if (d < -(dims[ax] / 2)) {
        s = 1;
      }
      code += (s + 1) * mult;
      mult *= 3;
    }
    return static_cast<uint16_t>(code);
  };

  cl.real_pairs = pairs.size();
  for (size_t k = 0; k < keyed.size();) {
    const uint64_t key = keyed[k].first;
    uint64_t mask = 0;
    while (k < keyed.size() && keyed[k].first == key) mask |= keyed[k++].second;
    ff::ClusterPairEntry e;
    e.ci = static_cast<uint32_t>(key >> 32);
    e.cj = static_cast<uint32_t>(key & 0xffffffffu);
    e.mask = mask;
    e.shift = shift_code(e.ci, e.cj);
    cl.entries.push_back(e);
    for (uint32_t a = 0; a < w; ++a) {
      if ((mask >> (jw * a)) & 0xfu) ++cl.active_rows;
    }
  }
  return cl;
}

void expect_same_tiles(const ff::ClusterPairList& got,
                       const ff::ClusterPairList& want,
                       const std::string& label) {
  EXPECT_EQ(got.atoms, want.atoms) << label;
  EXPECT_EQ(got.slot_types, want.slot_types) << label;
  EXPECT_EQ(got.slot_charges, want.slot_charges) << label;
  ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
  for (size_t k = 0; k < want.entries.size(); ++k) {
    const ff::ClusterPairEntry& g = got.entries[k];
    const ff::ClusterPairEntry& r = want.entries[k];
    ASSERT_TRUE(g.ci == r.ci && g.cj == r.cj && g.mask == r.mask &&
                g.shift == r.shift)
        << label << ": entry " << k << " is (" << g.ci << ", " << g.cj
        << ", " << std::hex << g.mask << std::dec << ", " << g.shift
        << "), want (" << r.ci << ", " << r.cj << ", " << std::hex << r.mask
        << std::dec << ", " << r.shift << ")";
  }
  EXPECT_EQ(got.real_pairs, want.real_pairs) << label;
  EXPECT_EQ(got.active_rows, want.active_rows) << label;
}

struct Frame {
  std::string name;
  SystemSpec spec;
  double cutoff;
  double skin;
};

/// Moves every atom by a pseudo-random whole number of box edges (±4) per
/// axis: the minimum image is unchanged, the raw coordinates are not.
void unwrap(SystemSpec& spec) {
  const Vec3 edges = spec.box.edges();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (Vec3& p : spec.positions) {
    for (int ax = 0; ax < 3; ++ax) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      p[ax] += static_cast<double>(static_cast<int>(x >> 61) - 4) * edges[ax];
    }
  }
}

/// Parks atoms on the faces of the primary cell: at exactly 0 and at the
/// largest double below each edge.
void pin_to_faces(SystemSpec& spec) {
  const Vec3 edges = spec.box.edges();
  for (size_t k = 0; k < 24 && 2 * k + 1 < spec.positions.size(); ++k) {
    const int ax = static_cast<int>(k % 3);
    spec.positions[2 * k][ax] = 0.0;
    spec.positions[2 * k + 1][ax] = std::nextafter(edges[ax], 0.0);
  }
}

/// Rebuilds a monatomic fluid as pairs straddling the reach sphere: for
/// each pair, the partner sits at reach along a pseudo-random direction,
/// scaled by 1, 1 - 1 ulp, 1 + 1 ulp or 1 - 2 ulps, and every fourth pair
/// is unwrapped by a box edge.  Their minimum-image distance rounds to
/// either side of reach, so only the exact test decides them.
void hug_reach(SystemSpec& spec, double reach) {
  const Vec3 edges = spec.box.edges();
  const double eps = std::numeric_limits<double>::epsilon();
  const double scale[4] = {1.0, 1.0 - eps / 2, 1.0 + eps, 1.0 - eps};
  uint64_t x = 12345;
  auto uniform = [&] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (size_t k = 0; 2 * k + 1 < spec.positions.size(); ++k) {
    const Vec3 a = spec.positions[2 * k];
    Vec3 dir{uniform() - 0.5, uniform() - 0.5, uniform() - 0.5};
    if (k % 5 == 0) dir = Vec3{1.0, 0.0, 0.0};  // axis-aligned: exact reach
    dir = dir / norm(dir);
    Vec3 b = a + dir * (reach * scale[k % 4]);
    if (k % 4 == 3) b.x += edges.x;
    spec.positions[2 * k + 1] = b;
  }
}

/// Stacks kClusterWidth coincident atoms at each site.  The fine-grid
/// order keeps a stack's ascending indices together, so every stack is one
/// i-cluster (two j-groups) whose bounding box is a point, and the culling
/// gap between two stacks is their separation.  Sites come in pairs at
/// reach scaled as in hug_reach, so the box-gap test itself sits on the
/// boundary: without its margin it culls pairs the exact test keeps.
void stack_huggers(SystemSpec& spec, double reach) {
  const Vec3 edges = spec.box.edges();
  const double eps = std::numeric_limits<double>::epsilon();
  const double scale[4] = {1.0 - eps / 2, 1.0, 1.0 - eps, 1.0 + eps};
  constexpr size_t w = ff::kClusterWidth;
  uint64_t x = 777;
  auto uniform = [&] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (size_t k = 0; 2 * w * (k + 1) <= spec.positions.size(); ++k) {
    const Vec3 a{uniform() * edges.x, uniform() * edges.y,
                 uniform() * edges.z};
    Vec3 dir{uniform() - 0.5, uniform() - 0.5, uniform() - 0.5};
    dir = dir / norm(dir);
    Vec3 b = a + dir * (reach * scale[k % 4]);
    if (k % 3 == 2) b.y -= 2.0 * edges.y;
    for (size_t m = 0; m < w; ++m) {
      spec.positions[2 * w * k + m] = a;
      spec.positions[2 * w * k + w + m] = b;
    }
  }
}

std::vector<Frame> frames() {
  std::vector<Frame> out;
  // 343 waters: a 21.7 Å box, three 7 Å reach cells per axis.
  out.push_back({"rigid-water-343",
                 build_water_box(343, WaterModel::kRigid3Site, 3), 6.0, 1.0});
  out.push_back({"tip4p-125", build_water_box(125, WaterModel::kRigid4Site, 5),
                 6.0, 1.0});
  out.push_back({"polymer-in-solvent",
                 build_polymer_in_solvent(40, 700, 7), 8.0, 1.0});
  out.push_back({"lj-343", build_lj_fluid(343, 0.021, 11), 7.0, 1.2});
  {
    // Non-cubic box: the same lattice stretched in x, squeezed in z.
    Frame f{"lj-noncubic", build_lj_fluid(1000, 0.021, 13), 6.5, 1.0};
    const Vec3 e = f.spec.box.edges();
    for (Vec3& p : f.spec.positions) {
      p.x *= 1.6;
      p.z *= 0.85;
    }
    f.spec.box = Box(e.x * 1.6, e.y, e.z * 0.85);
    out.push_back(std::move(f));
  }
  // 216 waters: an 18.6 Å box, two reach cells per axis, so the flat
  // search takes its small-grid path (full stencil, deduplicated).
  out.push_back({"rigid-water-216-small-grid",
                 build_water_box(216, WaterModel::kRigid3Site, 17), 7.5,
                 1.0});
  {
    Frame f{"rigid-water-unwrapped",
            build_water_box(343, WaterModel::kRigid3Site, 19), 8.0, 1.5};
    unwrap(f.spec);
    pin_to_faces(f.spec);
    out.push_back(std::move(f));
  }
  {
    Frame f{"lj-reach-huggers", build_lj_fluid(512, 0.021, 23), 6.0, 1.0};
    hug_reach(f.spec, f.cutoff + f.skin);
    out.push_back(std::move(f));
  }
  {
    Frame f{"lj-stacked-huggers", build_lj_fluid(512, 0.021, 29), 6.0, 1.0};
    stack_huggers(f.spec, f.cutoff + f.skin);
    out.push_back(std::move(f));
  }
  return out;
}

std::shared_ptr<ExecutionContext> threads(size_t n) {
  ExecutionConfig cfg;
  cfg.threads = n;
  return ExecutionContext::create(cfg);
}

TEST(DirectTileBuild, MatchesTheFlatListDerivationExactly) {
  size_t ragged = 0;  // frames whose last cluster carries padding slots
  for (const Frame& f : frames()) {
    const size_t n = f.spec.positions.size();
    if (n % ff::kClusterWidth != 0) ++ragged;
    const ff::ClusterPairList want =
        reference_tiles(f.spec.topology, f.spec.positions, f.spec.box,
                        f.cutoff, f.skin);
    ASSERT_GT(want.real_pairs, 0u) << f.name;
    for (size_t t : {1u, 2u, 8u}) {
      md::NeighborList list(f.spec.topology, f.cutoff, f.skin,
                            /*cluster_mode=*/true);
      list.set_execution(threads(t));
      list.build(f.spec.positions, f.spec.box);
      expect_same_tiles(list.clusters(), want,
                        f.name + " (" + std::to_string(n) + " atoms, " +
                            std::to_string(t) + " threads)");
    }
  }
  EXPECT_GE(ragged, 2u) << "keep ragged atom counts among the frames";
}

uint64_t oracle_count() {
  return obs::MetricsRegistry::global()
      .counter("md.neighbor.oracle.count")
      .value();
}

TEST(FlatOracle, EqualsAFlatModeListAndRunsOncePerBuild) {
  obs::ScopedTelemetry on(true);
  auto spec = build_water_box(216, WaterModel::kRigid3Site, 29);
  md::NeighborList tiles(spec.topology, 7.0, 1.0, /*cluster_mode=*/true);
  md::NeighborList flat(spec.topology, 7.0, 1.0);
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      for (Vec3& p : spec.positions) p += Vec3{0.3, -0.2, 0.1};
    }
    tiles.build(spec.positions, spec.box);
    flat.build(spec.positions, spec.box);
    const uint64_t before = oracle_count();
    const auto& oracle = tiles.pairs();
    EXPECT_EQ(oracle_count() - before, 1u);
    static_cast<void>(tiles.pairs());
    EXPECT_EQ(oracle_count() - before, 1u) << "the oracle is cached";
    ASSERT_EQ(oracle.size(), flat.pairs().size());
    for (size_t k = 0; k < oracle.size(); ++k) {
      ASSERT_EQ(oracle[k].i, flat.pairs()[k].i) << k;
      ASSERT_EQ(oracle[k].j, flat.pairs()[k].j) << k;
    }
    EXPECT_EQ(tiles.clusters().real_pairs, oracle.size());
  }
  // A flat-mode list never counts as an oracle call.
  const uint64_t before = oracle_count();
  static_cast<void>(flat.pairs());
  EXPECT_EQ(oracle_count(), before);
}

ff::NonbondedModel water_model() {
  ff::NonbondedModel m;
  m.cutoff = 6.0;
  m.electrostatics = ff::Electrostatics::kEwaldReal;
  m.ewald_beta = 0.45;
  return m;
}

std::string save(const util::Checkpointable& c) {
  util::BinaryWriter w;
  c.save_checkpoint(w);
  return w.buffer();
}

void restore(util::Checkpointable& c, const std::string& blob) {
  util::BinaryReader r(blob);
  c.restore_checkpoint(r);
}

TEST(FlatOracle, NeverRunsOnTheHostEnginePath) {
  obs::ScopedTelemetry on(true);
  auto spec = build_water_box(216, WaterModel::kRigid3Site, 31);
  ForceField field(spec.topology, water_model());
  md::SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 0.3;  // thin skin: rebuilds within a few steps
  cfg.init_temperature_k = 300.0;
  const uint64_t before = oracle_count();
  md::Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(20);
  EXPECT_GE(sim.neighbor_list().build_count(), 2u) << "no rebuild happened";
  const std::string blob = save(sim);
  md::Simulation resumed(field, spec.positions, spec.box, cfg);
  restore(resumed, blob);
  resumed.run(5);
  EXPECT_EQ(oracle_count(), before);
}

TEST(FlatOracle, NeverRunsOnTheMachineEnginePath) {
  obs::ScopedTelemetry on(true);
  auto spec = build_water_box(216, WaterModel::kRigid3Site, 37);
  ForceField field(spec.topology, water_model());
  runtime::MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 0.3;
  cfg.init_temperature_k = 300.0;
  auto& rebuilds =
      obs::MetricsRegistry::global().counter("md.neighbor.rebuild.count");
  const uint64_t before = oracle_count();
  runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                 spec.positions, spec.box, cfg);
  const uint64_t rebuilds0 = rebuilds.value();
  sim.run(20);
  EXPECT_GE(rebuilds.value() - rebuilds0, 1u) << "no rebuild happened";
  const std::string blob = save(sim);
  runtime::MachineSimulation resumed(field,
                                     machine::anton_with_torus(2, 2, 2),
                                     spec.positions, spec.box, cfg);
  restore(resumed, blob);
  resumed.rebuild_distribution();
  resumed.run(5);
  EXPECT_EQ(oracle_count(), before);
}

// The rebuild's sub-phase timers nest inside md.neighbor.time_ns.
TEST(NeighborTelemetry, SubPhasesSumWithinRebuildTime) {
  obs::ScopedTelemetry on(true);
  auto spec = build_water_box(216, WaterModel::kRigid3Site, 41);
  ForceField field(spec.topology, water_model());
  md::SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 0.3;
  cfg.init_temperature_k = 300.0;
  md::Simulation sim(field, spec.positions, spec.box, cfg);

  auto& reg = obs::MetricsRegistry::global();
  const char* kPhases[] = {"md.neighbor.order.time_ns",
                           "md.neighbor.tile.time_ns"};
  auto read = [&] {
    std::vector<uint64_t> v;
    for (const char* name : kPhases) v.push_back(reg.counter(name).value());
    v.push_back(reg.counter("md.neighbor.time_ns").value());
    return v;
  };
  const uint64_t builds0 = sim.neighbor_list().build_count();
  const std::vector<uint64_t> before = read();
  sim.run(20);
  const std::vector<uint64_t> after = read();
  ASSERT_GT(sim.neighbor_list().build_count(), builds0) << "no rebuild";

  uint64_t sub_sum = 0;
  for (size_t k = 0; k < std::size(kPhases); ++k) {
    const uint64_t delta = after[k] - before[k];
    EXPECT_GT(delta, 0u) << kPhases[k];
    sub_sum += delta;
  }
  const uint64_t total = after.back() - before.back();
  EXPECT_GT(total, 0u);
  EXPECT_LE(sub_sum, total);
}

}  // namespace
}  // namespace antmd
