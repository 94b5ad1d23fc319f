// Unit and property tests for src/math: vectors, PBC, RNG, splines,
// radial tables, fixed-point determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "math/fixed.hpp"
#include "math/pbc.hpp"
#include "math/rng.hpp"
#include "math/spline.hpp"
#include "math/units.hpp"
#include "math/vec.hpp"
#include "util/error.hpp"

namespace antmd {
namespace {

TEST(Vec3, Arithmetic) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_EQ(cross(Vec3(1, 0, 0), Vec3(0, 1, 0)), Vec3(0, 0, 1));
  EXPECT_DOUBLE_EQ(norm(Vec3(3, 4, 0)), 5.0);
}

TEST(Vec3, NormalizedHasUnitLength) {
  Vec3 v{1.7, -2.3, 0.4};
  EXPECT_NEAR(norm(normalized(v)), 1.0, 1e-14);
}

TEST(Mat3, MatVecAndOuter) {
  Mat3 m = Mat3::diagonal(2, 3, 4);
  EXPECT_EQ(m * Vec3(1, 1, 1), Vec3(2, 3, 4));
  Mat3 o = outer(Vec3(1, 2, 3), Vec3(4, 5, 6));
  EXPECT_DOUBLE_EQ(o(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(o(2, 1), 15.0);
  EXPECT_DOUBLE_EQ(trace(m), 9.0);
}

TEST(Box, WrapMapsIntoPrimaryCell) {
  Box box(10, 20, 30);
  Vec3 w = box.wrap({-1, 25, 31});
  EXPECT_NEAR(w.x, 9, 1e-12);
  EXPECT_NEAR(w.y, 5, 1e-12);
  EXPECT_NEAR(w.z, 1, 1e-12);
}

TEST(Box, WrapIsIdempotent) {
  Box box = Box::cubic(17.3);
  SequentialRng rng(7);
  for (int i = 0; i < 200; ++i) {
    Vec3 r{rng.uniform(-100, 100), rng.uniform(-100, 100),
           rng.uniform(-100, 100)};
    Vec3 w = box.wrap(r);
    Vec3 w2 = box.wrap(w);
    EXPECT_NEAR(w.x, w2.x, 1e-12);
    EXPECT_NEAR(w.y, w2.y, 1e-12);
    EXPECT_NEAR(w.z, w2.z, 1e-12);
    EXPECT_GE(w.x, 0.0);
    EXPECT_LT(w.x, 17.3);
  }
}

TEST(Box, MinImageNeverExceedsHalfBox) {
  Box box(12, 15, 9);
  SequentialRng rng(11);
  for (int i = 0; i < 500; ++i) {
    Vec3 a{rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50)};
    Vec3 b{rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50)};
    Vec3 d = box.min_image(a, b);
    EXPECT_LE(std::abs(d.x), 6.0 + 1e-12);
    EXPECT_LE(std::abs(d.y), 7.5 + 1e-12);
    EXPECT_LE(std::abs(d.z), 4.5 + 1e-12);
  }
}

TEST(Box, MinImageAntisymmetric) {
  Box box = Box::cubic(20);
  Vec3 a{1, 2, 3}, b{18, 19, 17};
  Vec3 dab = box.min_image(a, b);
  Vec3 dba = box.min_image(b, a);
  EXPECT_NEAR(dab.x, -dba.x, 1e-12);
  EXPECT_NEAR(dab.y, -dba.y, 1e-12);
  EXPECT_NEAR(dab.z, -dba.z, 1e-12);
}

TEST(Box, InvalidEdgesThrow) {
  EXPECT_THROW(Box(0, 1, 1), Error);
  EXPECT_THROW(Box(1, -2, 1), Error);
}

TEST(CounterRng, DeterministicAcrossInstances) {
  CounterRng a(1234, 7), b(1234, 7);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.uniform(i, 3), b.uniform(i, 3));
    EXPECT_EQ(a.gaussian(i, 3), b.gaussian(i, 3));
  }
}

TEST(CounterRng, DifferentStreamsDiffer) {
  CounterRng a(1234, 0), b(1234, 1);
  int same = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    if (a.uniform(i, 0) == b.uniform(i, 0)) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(CounterRng, UniformMomentsAreRight) {
  CounterRng rng(42, 0);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double u = rng.uniform(static_cast<uint64_t>(i), 0);
    sum += u;
    sum2 += u * u;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(CounterRng, GaussianMomentsAreRight) {
  CounterRng rng(42, 3);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.gaussian(static_cast<uint64_t>(i), 5);
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(CounterRng, Gaussian3ComponentsUncorrelated) {
  CounterRng rng(9, 0);
  double sxy = 0, sxz = 0, syz = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto g = rng.gaussian3(static_cast<uint64_t>(i), 0);
    sxy += g[0] * g[1];
    sxz += g[0] * g[2];
    syz += g[1] * g[2];
  }
  EXPECT_NEAR(sxy / n, 0.0, 0.05);
  EXPECT_NEAR(sxz / n, 0.0, 0.05);
  EXPECT_NEAR(syz / n, 0.0, 0.05);
}

TEST(CounterRng, UniformIntInRange) {
  CounterRng rng(5, 0);
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_int(i, 0, 17), 17u);
  }
  EXPECT_THROW(static_cast<void>(rng.uniform_int(0, 0, 0)), Error);
}

TEST(SequentialRng, ReproducibleAndWellDistributed) {
  SequentialRng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  SequentialRng c(1);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += c.uniform();
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(CubicSpline, ReproducesCubicExactlyAtKnots) {
  std::vector<double> xs, ys;
  for (int i = 0; i <= 20; ++i) {
    double x = i * 0.5;
    xs.push_back(x);
    ys.push_back(std::sin(x));
  }
  CubicSpline s(xs, ys);
  for (int i = 0; i <= 20; ++i) {
    EXPECT_NEAR(s.value(i * 0.5), std::sin(i * 0.5), 1e-12);
  }
  // Interior accuracy for a smooth function (natural end conditions make
  // the spline's second derivative wrong near the boundary, so stay inside).
  for (double x = 1.2; x < 8.8; x += 0.37) {
    EXPECT_NEAR(s.value(x), std::sin(x), 2e-3);
    EXPECT_NEAR(s.derivative(x), std::cos(x), 2e-2);
  }
}

TEST(CubicSpline, RejectsBadInput) {
  auto make = [](std::vector<double> x, std::vector<double> y) {
    CubicSpline s(std::move(x), std::move(y));
    return s.value(1.0);
  };
  EXPECT_THROW(make({1, 2}, {1, 2}), Error);
  EXPECT_THROW(make({1, 1, 2}, {0, 0, 0}), Error);
  EXPECT_THROW(make({1, 2, 3}, {0, 0}), Error);
}

double lj_energy(double r) {
  double s6 = std::pow(1.0 / r, 6);
  return 4.0 * (s6 * s6 - s6);
}
double lj_denergy(double r) {
  double inv = 1.0 / r;
  double s6 = std::pow(inv, 6);
  return 4.0 * (-12.0 * s6 * s6 + 6.0 * s6) * inv;
}

TEST(RadialTable, MatchesAnalyticLennardJones) {
  auto table = RadialTable::from_potential(lj_energy, lj_denergy, 0.8, 3.0,
                                           2048, /*shift=*/false);
  for (double r = 0.85; r < 2.95; r += 0.013) {
    auto e = table.evaluate(r * r);
    EXPECT_NEAR(e.energy, lj_energy(r), 2e-4) << "r=" << r;
    double f_over_r = -lj_denergy(r) / r;
    EXPECT_NEAR(e.force_over_r, f_over_r, 5e-3 * std::max(1.0, std::abs(f_over_r)))
        << "r=" << r;
  }
}

TEST(RadialTable, ZeroBeyondCutoff) {
  auto table = RadialTable::from_potential(lj_energy, lj_denergy, 0.8, 3.0,
                                           256, false);
  auto e = table.evaluate(3.01 * 3.01);
  EXPECT_EQ(e.energy, 0.0);
  EXPECT_EQ(e.force_over_r, 0.0);
}

TEST(RadialTable, ShiftMakesCutoffZero) {
  auto table = RadialTable::from_potential(lj_energy, lj_denergy, 0.8, 2.5,
                                           512, true);
  auto e = table.evaluate(2.4999 * 2.4999);
  EXPECT_NEAR(e.energy, 0.0, 1e-5);
}

TEST(RadialTable, ClampsBelowRmin) {
  auto table = RadialTable::from_potential(lj_energy, lj_denergy, 0.9, 3.0,
                                           256, false);
  auto inner = table.evaluate(0.5 * 0.5);
  auto at_min = table.evaluate(0.9 * 0.9);
  EXPECT_DOUBLE_EQ(inner.energy, at_min.energy);
}

TEST(RadialTable, AccuracyImprovesWithResolution) {
  double prev_err = 1e9;
  for (size_t bins : {64, 256, 1024}) {
    auto table = RadialTable::from_potential(lj_energy, lj_denergy, 0.8, 3.0,
                                             bins, false);
    double err = 0;
    for (double r = 0.9; r < 2.9; r += 0.009) {
      auto e = table.evaluate(r * r);
      err = std::max(err, std::abs(e.energy - lj_energy(r)));
    }
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
}

TEST(FixedPos, RoundTripsWithinQuantum) {
  SequentialRng rng(3);
  for (int i = 0; i < 1000; ++i) {
    Vec3 v{rng.uniform(-500, 500), rng.uniform(-500, 500),
           rng.uniform(-500, 500)};
    Vec3 back = FixedPos::from_vec(v).to_vec();
    EXPECT_NEAR(back.x, v.x, 1.0 / fixed::kPosScale);
    EXPECT_NEAR(back.y, v.y, 1.0 / fixed::kPosScale);
    EXPECT_NEAR(back.z, v.z, 1.0 / fixed::kPosScale);
  }
}

TEST(FixedPos, SnapIsIdempotent) {
  Vec3 v{1.234567890123, -9.87654321, 0.333333333};
  Vec3 once = snap_position(v);
  EXPECT_EQ(snap_position(once), once);
}

// The core determinism property: accumulating the same pair forces in any
// order, split across any number of partial accumulators, gives bit-identical
// results.
TEST(FixedForceArray, OrderAndPartitionIndependent) {
  const size_t n_atoms = 64;
  const size_t n_pairs = 5000;
  SequentialRng rng(17);
  struct Pair {
    size_t i, j;
    Vec3 f;
  };
  std::vector<Pair> pairs;
  pairs.reserve(n_pairs);
  for (size_t k = 0; k < n_pairs; ++k) {
    size_t i = rng.uniform_int(n_atoms);
    size_t j = (i + 1 + rng.uniform_int(n_atoms - 1)) % n_atoms;
    pairs.push_back({i, j,
                     Vec3{rng.uniform(-50, 50), rng.uniform(-50, 50),
                          rng.uniform(-50, 50)}});
  }

  // Reference: sequential accumulation.
  FixedForceArray ref(n_atoms);
  for (const auto& p : pairs) ref.add_pair(p.i, p.j, p.f);

  // Shuffled order.
  std::vector<Pair> shuffled = pairs;
  std::mt19937 g(5);
  std::shuffle(shuffled.begin(), shuffled.end(), g);
  FixedForceArray out_shuffled(n_atoms);
  for (const auto& p : shuffled) out_shuffled.add_pair(p.i, p.j, p.f);
  EXPECT_EQ(ref, out_shuffled);

  // Partitioned into 7 "nodes", merged.
  for (size_t n_nodes : {2u, 7u, 16u}) {
    std::vector<FixedForceArray> parts(n_nodes, FixedForceArray(n_atoms));
    for (size_t k = 0; k < shuffled.size(); ++k) {
      parts[k % n_nodes].add_pair(shuffled[k].i, shuffled[k].j, shuffled[k].f);
    }
    FixedForceArray merged(n_atoms);
    for (const auto& p : parts) merged.merge(p);
    EXPECT_EQ(ref, merged) << n_nodes << " nodes";
  }
}

TEST(FixedForceArray, PairForcesSumToZero) {
  FixedForceArray acc(8);
  SequentialRng rng(23);
  for (int k = 0; k < 300; ++k) {
    acc.add_pair(rng.uniform_int(8), rng.uniform_int(8),
                 Vec3{rng.uniform(-3, 3), rng.uniform(-3, 3),
                      rng.uniform(-3, 3)});
  }
  Vec3 total{};
  for (size_t i = 0; i < 8; ++i) total += acc.force(i);
  EXPECT_EQ(total, Vec3(0, 0, 0));  // exact, by integer arithmetic
}

TEST(FixedScalar, OrderIndependentSum) {
  std::vector<double> values;
  SequentialRng rng(31);
  for (int i = 0; i < 2000; ++i) values.push_back(rng.uniform(-7, 7));

  FixedScalar fwd;
  for (double v : values) fwd.add(v);
  FixedScalar bwd;
  for (auto it = values.rbegin(); it != values.rend(); ++it) bwd.add(*it);
  EXPECT_EQ(fwd, bwd);
}

TEST(FixedQuantize, RoundsTiesAwayFromZeroLikeLlround) {
  for (double v : {2.5, -2.5, 0.5, -0.5, 3.49999, -7.5000001, 1e15 + 0.5}) {
    EXPECT_EQ(fixed::quantize_round(v, 1.0), fixed::quantize(v, 1.0)) << v;
  }
}

TEST(FixedQuantize, SaturatesNanAndOutOfRangeToInt64Min) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const double two63 = 9223372036854775808.0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {two63, -two63, 2.0 * two63, -2.0 * two63, nan, inf, -inf}) {
    EXPECT_EQ(fixed::truncate_i64(t), kMin) << t;
    EXPECT_EQ(fixed::quantize_round(t, 1.0), kMin) << t;
    EXPECT_EQ(fixed::quantize_round(t / fixed::kForceScale,
                                    fixed::kForceScale),
              kMin)
        << t;
  }
  // The largest doubles below 2^63 in magnitude still convert exactly.
  const double below = std::nextafter(two63, 0.0);
  EXPECT_EQ(fixed::truncate_i64(below), int64_t{9223372036854774784});
  EXPECT_EQ(fixed::quantize_round(-below, 1.0), -int64_t{9223372036854774784});
  EXPECT_EQ(fixed::truncate_i64(-2.9), -2);
  EXPECT_EQ(fixed::truncate_i64(2.9), 2);
}

TEST(Units, TimeConversionRoundTrip) {
  EXPECT_NEAR(units::internal_to_fs(units::fs_to_internal(2.5)), 2.5, 1e-12);
  // 1 internal time unit is ~48.9 fs.
  EXPECT_NEAR(units::kFsPerInternalTime, 48.888, 0.01);
}

TEST(Units, ThermalEnergyAt300K) {
  // kT at 300 K should be ~0.596 kcal/mol.
  EXPECT_NEAR(units::kBoltzmann * 300.0, 0.596, 0.001);
}

}  // namespace
}  // namespace antmd
