#include "md/neighbor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace antmd::md {

CellList::CellList(const Box& box, double cell_size) {
  ANTMD_REQUIRE(cell_size > 0, "cell size must be positive");
  nx_ = std::max(1, static_cast<int>(box.edges().x / cell_size));
  ny_ = std::max(1, static_cast<int>(box.edges().y / cell_size));
  nz_ = std::max(1, static_cast<int>(box.edges().z / cell_size));
  cells_.resize(cell_count());
}

size_t CellList::index(int cx, int cy, int cz) const {
  auto wrap = [](int c, int n) {
    int m = c % n;
    return m < 0 ? m + n : m;
  };
  return static_cast<size_t>(wrap(cx, nx_)) +
         static_cast<size_t>(nx_) *
             (static_cast<size_t>(wrap(cy, ny_)) +
              static_cast<size_t>(ny_) * static_cast<size_t>(wrap(cz, nz_)));
}

void CellList::assign(std::span<const Vec3> positions, const Box& box) {
  for (auto& c : cells_) c.clear();
  atom_cells_.resize(positions.size());
  for (uint32_t i = 0; i < positions.size(); ++i) {
    const auto c = coords_of(box.wrap(positions[i]), box);
    atom_cells_[i] = c;
    cells_[index(c[0], c[1], c[2])].push_back(i);
  }
}

std::array<int, 3> CellList::coords_of(const Vec3& w, const Box& box) const {
  return {std::min(nx_ - 1, static_cast<int>(w.x / box.edges().x * nx_)),
          std::min(ny_ - 1, static_cast<int>(w.y / box.edges().y * ny_)),
          std::min(nz_ - 1, static_cast<int>(w.z / box.edges().z * nz_))};
}

const std::vector<uint32_t>& CellList::cell(int cx, int cy, int cz) const {
  return cells_[index(cx, cy, cz)];
}

std::array<int, 3> CellList::cell_of(uint32_t atom) const {
  return atom_cells_[atom];
}

namespace {

constexpr uint32_t kW = ff::kClusterWidth;
constexpr uint32_t kJW = ff::kClusterJWidth;

/// Tile bits (a, b) whose j slot lies above the i slot when the j-group
/// starts `offset` slots into its own i-cluster (cj == 2ci or 2ci + 1):
/// the canonical orientation keeps only those.
constexpr uint32_t upper_bits(uint32_t offset) {
  uint32_t m = 0;
  for (uint32_t a = 0; a < kW; ++a) {
    for (uint32_t b = 0; b < kJW; ++b) {
      if (offset + b > a) m |= 1u << (a * kJW + b);
    }
  }
  return m;
}

/// Slot coordinates of one cluster in its own minimum-image frame (its
/// first atom's wrapped position plus the minimum image of every other
/// member relative to it), translated by whole box edges so the frame's
/// bounding-box centre lies in the primary cell.  Any representative of
/// each atom modulo the box is fine for the culling bound; the compact
/// frame keeps the box tight and lets one image shift serve a whole tile.
struct Frame {
  Vec3 center;
  Vec3 half;
};

Frame make_frame(std::span<const Vec3> wrapped, uint32_t first,
                 uint32_t real, uint32_t width, const Box& box, double* x,
                 double* y, double* z) {
  const Vec3 r0 = wrapped[first];
  Vec3 lo = r0, hi = r0;
  for (uint32_t k = 1; k < real; ++k) {
    const Vec3 u = r0 + box.min_image(wrapped[first + k], r0);
    x[first + k] = u.x;
    y[first + k] = u.y;
    z[first + k] = u.z;
    lo = {std::min(lo.x, u.x), std::min(lo.y, u.y), std::min(lo.z, u.z)};
    hi = {std::max(hi.x, u.x), std::max(hi.y, u.y), std::max(hi.z, u.z)};
  }
  Vec3 center = 0.5 * (lo + hi);
  const Vec3 wc = box.wrap(center);
  const Vec3 offset = center - wc;  // whole box edges, up to rounding
  double* axes[3] = {x, y, z};
  for (int ax = 0; ax < 3; ++ax) {
    axes[ax][first] = r0[ax] - offset[ax];
    for (uint32_t k = 1; k < real; ++k) axes[ax][first + k] -= offset[ax];
    // Padding slots repeat the first atom; their bits are masked off.
    for (uint32_t k = real; k < width; ++k) {
      axes[ax][first + k] = axes[ax][first];
    }
  }
  return {center - offset, 0.5 * (hi - lo)};
}

struct ExclusionBits {
  uint32_t cj;
  uint32_t bits;
};

}  // namespace

NeighborList::NeighborList(const Topology& topo, double cutoff, double skin,
                           bool cluster_mode)
    : topo_(&topo), cutoff_(cutoff), skin_(skin), cluster_mode_(cluster_mode) {
  ANTMD_REQUIRE(cutoff > 0 && skin >= 0, "bad neighbor-list parameters");
  if (!cluster_mode_) return;
  const size_t n = topo.atom_count();
  const auto excluded = topo.excluded_pairs();  // sorted, i < j
  excl_begin_.assign(n + 1, 0);
  for (const auto& [i, j] : excluded) {
    ++excl_begin_[i + 1];
    ++excl_begin_[j + 1];
  }
  for (size_t a = 0; a < n; ++a) excl_begin_[a + 1] += excl_begin_[a];
  excl_partners_.resize(excl_begin_[n]);
  // Sorted input fills each atom's lower partners before its upper ones,
  // both ascending.
  std::vector<uint32_t> next(excl_begin_.begin(), excl_begin_.end() - 1);
  for (const auto& [i, j] : excluded) {
    excl_partners_[next[i]++] = j;
    excl_partners_[next[j]++] = i;
  }
}

void NeighborList::require_fits(const Box& box) const {
  if (2.0 * (cutoff_ + skin_) <= box.min_edge()) return;
  std::ostringstream os;
  os << "box too small: 2*(cutoff " << cutoff_ << " A + skin " << skin_
     << " A) = " << 2.0 * (cutoff_ + skin_)
     << " A exceeds the smallest box edge " << box.min_edge()
     << " A; use a larger system or a shorter cutoff/skin";
  throw ConfigError(os.str());
}

void NeighborList::build(std::span<const Vec3> positions, const Box& box) {
  static auto& rebuild_count =
      obs::MetricsRegistry::global().counter("md.neighbor.rebuild.count");
  static auto& rebuild_ns =
      obs::MetricsRegistry::global().counter("md.neighbor.time_ns");
  obs::TracePhase phase("md.neighbor.rebuild", "md", &rebuild_ns);
  rebuild_count.add();
  ANTMD_REQUIRE(2.0 * (cutoff_ + skin_) <= box.min_edge(),
                "cutoff+skin exceeds half the smallest box edge");
  reference_positions_.assign(positions.begin(), positions.end());
  build_box_ = box;
  if (cluster_mode_) {
    ANTMD_REQUIRE(positions.size() + 1 == excl_begin_.size(),
                  "positions/topology size mismatch");
    pairs_.clear();
    pairs_ready_ = false;
    build_clusters(positions, box);
  } else {
    pairs_ = enumerate_pairs(positions, box);
    pairs_ready_ = true;
  }
  ++build_count_;
}

const std::vector<ff::PairEntry>& NeighborList::pairs() const {
  if (!pairs_ready_) {
    static auto& oracle_count =
        obs::MetricsRegistry::global().counter("md.neighbor.oracle.count");
    oracle_count.add();
    pairs_ = enumerate_pairs(reference_positions_, build_box_);
    pairs_ready_ = true;
  }
  return pairs_;
}

std::vector<ff::PairEntry> NeighborList::enumerate_pairs(
    std::span<const Vec3> positions, const Box& box) const {
  const double reach = cutoff_ + skin_;
  CellList cells(box, reach);
  cells.assign(positions, box);
  const double reach2 = reach * reach;

  std::vector<ff::PairEntry> pairs;
  // Half-stencil enumeration so each unordered pair is visited once when
  // the cell grid is at least 3 cells wide on each axis; fall back to the
  // full stencil with i<j filtering for small grids.
  const bool small_grid =
      cells.nx() < 3 || cells.ny() < 3 || cells.nz() < 3;

  auto enumerate_slice = [&](int cz, std::vector<ff::PairEntry>& out) {
    for (int cy = 0; cy < cells.ny(); ++cy) {
      for (int cx = 0; cx < cells.nx(); ++cx) {
        const auto& home = cells.cell(cx, cy, cz);
        // Pairs within the home cell.
        for (size_t a = 0; a < home.size(); ++a) {
          for (size_t b = a + 1; b < home.size(); ++b) {
            uint32_t i = std::min(home[a], home[b]);
            uint32_t j = std::max(home[a], home[b]);
            if (box.distance2(positions[i], positions[j]) >= reach2) continue;
            if (topo_->is_excluded(i, j)) continue;
            out.push_back({i, j});
          }
        }
        // Pairs with neighbouring cells.
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              // Half stencil: take only the lexicographically positive
              // offsets so each cell pair is visited once.
              if (!small_grid) {
                if (dz < 0) continue;
                if (dz == 0 && dy < 0) continue;
                if (dz == 0 && dy == 0 && dx < 0) continue;
              }
              const auto& other = cells.cell(cx + dx, cy + dy, cz + dz);
              for (uint32_t ai : home) {
                for (uint32_t bj : other) {
                  if (small_grid && ai >= bj) continue;
                  uint32_t i = std::min(ai, bj);
                  uint32_t j = std::max(ai, bj);
                  if (box.distance2(positions[i], positions[j]) >= reach2) {
                    continue;
                  }
                  if (topo_->is_excluded(i, j)) continue;
                  out.push_back({i, j});
                }
              }
            }
          }
        }
      }
    }
  };

  if (exec_ && exec_->parallel() && cells.nz() > 1) {
    // Each z-slice fills its own vector; concatenation in ascending slice
    // order plus the final sort below leaves the list independent of
    // thread scheduling.
    std::vector<std::vector<ff::PairEntry>> slices(
        static_cast<size_t>(cells.nz()));
    exec_->parallel_for(slices.size(), [&](size_t cz) {
      enumerate_slice(static_cast<int>(cz), slices[cz]);
    });
    size_t total = 0;
    for (const auto& s : slices) total += s.size();
    pairs.reserve(total);
    for (const auto& s : slices) pairs.insert(pairs.end(), s.begin(), s.end());
  } else {
    for (int cz = 0; cz < cells.nz(); ++cz) enumerate_slice(cz, pairs);
  }

  std::sort(pairs.begin(), pairs.end(),
            [](const ff::PairEntry& a, const ff::PairEntry& b) {
              return a.i != b.i ? a.i < b.i : a.j < b.j;
            });
  // With a small grid the same cell pair can be visited through two
  // different wrap-around offsets; dedupe to keep the contract exact.
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const ff::PairEntry& a, const ff::PairEntry& b) {
                            return a.i == b.i && a.j == b.j;
                          }),
              pairs.end());
  return pairs;
}

void NeighborList::build_clusters(std::span<const Vec3> positions,
                                  const Box& box) {
  static auto& order_ns =
      obs::MetricsRegistry::global().counter("md.neighbor.order.time_ns");
  static auto& tile_ns =
      obs::MetricsRegistry::global().counter("md.neighbor.tile.time_ns");
  ff::ClusterPairList& cl = clusters_;
  const size_t atom_count = positions.size();
  const size_t n_clusters = (atom_count + kW - 1) / kW;
  // j-groups holding at least one atom; an all-padding group never pairs.
  const size_t n_groups = (atom_count + kJW - 1) / kJW;
  const size_t slots = n_clusters * kW;
  const double reach = cutoff_ + skin_;
  const double reach2 = reach * reach;
  const Vec3 edges = box.edges();

  // --- order: fine-grid slot order, slot arrays and cluster frames ------
  std::vector<uint32_t> slot_of(atom_count);
  std::vector<Vec3> wrapped(slots);
  std::vector<double> ix(slots), iy(slots), iz(slots);
  std::vector<double> jx(slots), jy(slots), jz(slots);
  std::vector<Frame> iframe(n_clusters), jframe(n_groups);
  // Reach-sized cell of each i-cluster's and j-group's lead atom: the
  // advisory shift code of a tile (see ff::ClusterPairEntry::shift).
  const CellList reach_cells(box, reach);
  std::vector<std::array<int, 3>> icell(n_clusters), jcell(n_groups);
  double coord_scale = std::max({edges.x, edges.y, edges.z});
  {
    obs::ScopedTimer timer(order_ns);
    // Fine-grid atom order: bin atoms on a grid sized so each cell holds
    // ~kClusterWidth atoms and emit cell-major, ascending atom index within
    // a cell.  Consecutive slots are then spatially adjacent at the
    // *cluster* scale, so the tiles stay densely masked.
    const double target_edge =
        std::cbrt(box.volume() * static_cast<double>(kW) /
                  std::max<double>(1.0, static_cast<double>(atom_count)));
    CellList fine(box, std::max(target_edge, 1e-6));
    fine.assign(positions, box);
    cl.atoms.assign(slots, ff::kPadAtom);
    cl.slot_types.assign(slots, 0);
    cl.slot_charges.assign(slots, 0.0);
    const auto type_ids = topo_->type_ids();
    const auto charges = topo_->charges();
    size_t s = 0;
    for (int cz = 0; cz < fine.nz(); ++cz) {
      for (int cy = 0; cy < fine.ny(); ++cy) {
        for (int cx = 0; cx < fine.nx(); ++cx) {
          for (uint32_t atom : fine.cell(cx, cy, cz)) {
            cl.atoms[s] = atom;
            cl.slot_types[s] = type_ids[atom];
            cl.slot_charges[s] = charges[atom];
            slot_of[atom] = static_cast<uint32_t>(s);
            wrapped[s] = box.wrap(positions[atom]);
            const Vec3& p = positions[atom];
            coord_scale = std::max(
                {coord_scale, std::abs(p.x), std::abs(p.y), std::abs(p.z)});
            ++s;
          }
        }
      }
    }
    for (size_t c = 0; c < n_clusters; ++c) {
      const auto first = static_cast<uint32_t>(c * kW);
      const auto real = static_cast<uint32_t>(
          std::min<size_t>(kW, atom_count - first));
      iframe[c] = make_frame(wrapped, first, real, kW, box, ix.data(),
                             iy.data(), iz.data());
      icell[c] = reach_cells.coords_of(wrapped[first], box);
    }
    for (size_t g = 0; g < n_groups; ++g) {
      const auto first = static_cast<uint32_t>(g * kJW);
      const auto real = static_cast<uint32_t>(
          std::min<size_t>(kJW, atom_count - first));
      jframe[g] = make_frame(wrapped, first, real, kJW, box, jx.data(),
                             jy.data(), jz.data());
      jcell[g] = reach_cells.coords_of(wrapped[first], box);
    }
  }

  obs::ScopedTimer timer(tile_ns);
  // Floating-point slack.  `err` bounds, per component, how far the
  // cluster-frame displacement and Box::distance2's displacement of the
  // same pair can differ by rounding (a few ulps of the largest coordinate
  // or edge; 64 is generous).  Pairs whose frame distance lies within
  // `band` of reach² — or whose tile comes near half a box edge, where the
  // minimum image is ambiguous — are decided by distance2 itself, so every
  // mask bit equals the flat search's decision.
  const double err =
      64.0 * std::numeric_limits<double>::epsilon() * coord_scale;
  const double band = 16.0 * reach * err + 16.0 *
                          std::numeric_limits<double>::epsilon() * reach2;
  const double in2 = reach2 - band;
  const double out2 = reach2 + band;
  const double cull_margin = 4.0 * err;
  const double half_slack = 4.0 * err;

  // Bin the non-empty j-groups by frame centre on a grid of ~reach/2 cells.
  int gdim[3];
  double gedge[3];
  Vec3 hmax{0, 0, 0};
  for (int ax = 0; ax < 3; ++ax) {
    gdim[ax] = std::max(1, static_cast<int>(edges[ax] / (0.5 * reach)));
    gedge[ax] = edges[ax] / gdim[ax];
  }
  const size_t n_cells = static_cast<size_t>(gdim[0]) * gdim[1] * gdim[2];
  auto grid_coord = [&](double x, int ax) {
    return std::clamp(static_cast<int>(x / gedge[ax]), 0, gdim[ax] - 1);
  };
  std::vector<uint32_t> cell_begin(n_cells + 1, 0);
  std::vector<uint32_t> group_cell(n_groups);
  std::vector<uint32_t> cell_groups;
  for (uint32_t g = 0; g < n_groups; ++g) {
    const Vec3& c = jframe[g].center;
    group_cell[g] = static_cast<uint32_t>(
        grid_coord(c.x, 0) +
        gdim[0] * (grid_coord(c.y, 1) + gdim[1] * grid_coord(c.z, 2)));
    ++cell_begin[group_cell[g] + 1];
    for (int ax = 0; ax < 3; ++ax) {
      hmax[ax] = std::max(hmax[ax], jframe[g].half[ax]);
    }
  }
  for (size_t c = 0; c < n_cells; ++c) cell_begin[c + 1] += cell_begin[c];
  cell_groups.resize(n_groups);
  {
    std::vector<uint32_t> next(cell_begin.begin(), cell_begin.end() - 1);
    for (uint32_t g = 0; g < n_groups; ++g) {
      cell_groups[next[group_cell[g]]++] = g;
    }
  }

  // Both centres lie in the primary cell, so one conditional edge shift
  // gives the minimum image of their offset, and min(|d|, L - |d|) its
  // length (up to rounding at half an edge, which the margin absorbs).
  const Vec3 half_edges = 0.5 * edges;
  auto image_shift = [&](double d, int ax) {
    return d > half_edges[ax] ? edges[ax]
                              : (d < -half_edges[ax] ? -edges[ax] : 0.0);
  };
  auto axis_gap = [&](double d, double h, int ax) {
    const double a = std::abs(d);
    return std::max(0.0, std::min(a, edges[ax] - a) - h);
  };
  constexpr uint8_t kRowPairs[16] = {0, 1, 1, 2, 1, 2, 2, 3,
                                     1, 2, 2, 3, 2, 3, 3, 4};
  constexpr uint32_t kUpper0 = upper_bits(0);
  constexpr uint32_t kUpper1 = upper_bits(kJW);
  auto valid_bits = [&](uint32_t ci, uint32_t cj) {
    uint32_t m = ~0u;
    for (uint32_t a = 0; a < kW; ++a) {
      if (ci * kW + a >= atom_count) m &= ~(0xfu << (a * kJW));
    }
    for (uint32_t b = 0; b < kJW; ++b) {
      if (cj * kJW + b >= atom_count) m &= ~(0x11111111u << b);
    }
    return m;
  };
  auto shift_code = [&](uint32_t ci, uint32_t cj) {
    const int dims[3] = {reach_cells.nx(), reach_cells.ny(),
                         reach_cells.nz()};
    int code = 0;
    int mult = 1;
    for (int ax = 0; ax < 3; ++ax) {
      const int d = jcell[cj][ax] - icell[ci][ax];
      int sh = 0;
      if (d > dims[ax] / 2) {
        sh = -1;
      } else if (d < -(dims[ax] / 2)) {
        sh = 1;
      }
      code += (sh + 1) * mult;
      mult *= 3;
    }
    return static_cast<uint16_t>(code);
  };

  struct Range {
    std::vector<ff::ClusterPairEntry> entries;
    size_t real_pairs = 0;
    size_t active_rows = 0;
  };
  // Tiles of i-clusters [c0, c1), ascending (ci, cj).
  auto build_range = [&](size_t c0, size_t c1, Range& out) {
    std::vector<uint32_t> candidates(n_groups);
    std::vector<ExclusionBits> excl;
    for (auto ci = static_cast<uint32_t>(c0); ci < c1; ++ci) {
      const Frame& fi = iframe[ci];
      // Candidate j-groups: those binned in the grid cells within reach of
      // ci's box (a range as wide as the grid visits each cell once), then
      // the conservative box-gap test per group.
      int lo[3], hi[3];
      for (int ax = 0; ax < 3; ++ax) {
        const double r = reach + fi.half[ax] + hmax[ax] + 2 * cull_margin;
        lo[ax] = static_cast<int>(std::floor((fi.center[ax] - r) / gedge[ax]));
        hi[ax] = static_cast<int>(std::floor((fi.center[ax] + r) / gedge[ax]));
        if (hi[ax] - lo[ax] + 1 >= gdim[ax]) {
          lo[ax] = 0;
          hi[ax] = gdim[ax] - 1;
        }
      }
      auto wrap_cell = [](int k, int n) {
        return k < 0 ? k + n : (k >= n ? k - n : k);
      };
      size_t n_cand = 0;
      for (int z = lo[2]; z <= hi[2]; ++z) {
        const size_t wz = static_cast<size_t>(wrap_cell(z, gdim[2]));
        for (int y = lo[1]; y <= hi[1]; ++y) {
          const size_t row =
              static_cast<size_t>(gdim[0]) *
              (static_cast<size_t>(wrap_cell(y, gdim[1])) +
               static_cast<size_t>(gdim[1]) * wz);
          for (int x = lo[0]; x <= hi[0]; ++x) {
            const size_t cell =
                row + static_cast<size_t>(wrap_cell(x, gdim[0]));
            // Groups are binned in ascending order: walk down to 2ci.
            for (uint32_t k = cell_begin[cell + 1]; k > cell_begin[cell];) {
              const uint32_t cj = cell_groups[--k];
              if (cj < 2 * ci) break;
              const Frame& fj = jframe[cj];
              const double gx = axis_gap(fj.center.x - fi.center.x,
                                         fi.half.x + fj.half.x + cull_margin,
                                         0);
              const double gy = axis_gap(fj.center.y - fi.center.y,
                                         fi.half.y + fj.half.y + cull_margin,
                                         1);
              const double gz = axis_gap(fj.center.z - fi.center.z,
                                         fi.half.z + fj.half.z + cull_margin,
                                         2);
              candidates[n_cand] = cj;
              n_cand += gx * gx + gy * gy + gz * gz < reach2;
            }
          }
        }
      }
      std::sort(candidates.begin(), candidates.begin() + n_cand);

      // Exclusions with the lower slot in ci, as (cj, bit) pairs.
      excl.clear();
      for (uint32_t a = 0; a < kW; ++a) {
        const size_t s = ci * kW + a;
        if (s >= atom_count) break;
        const uint32_t atom = cl.atoms[s];
        for (uint32_t k = excl_begin_[atom]; k < excl_begin_[atom + 1]; ++k) {
          const uint32_t sp = slot_of[excl_partners_[k]];
          if (sp > s) excl.push_back({sp / kJW, 1u << (a * kJW + sp % kJW)});
        }
      }
      std::sort(excl.begin(), excl.end(),
                [](const ExclusionBits& x, const ExclusionBits& y) {
                  return x.cj < y.cj;
                });

      const double* ux = ix.data() + ci * kW;
      const double* uy = iy.data() + ci * kW;
      const double* uz = iz.data() + ci * kW;
      const bool ragged = (ci + 1) * kW > atom_count;
      size_t e = 0;
      for (size_t k = 0; k < n_cand; ++k) {
        const uint32_t cj = candidates[k];
        const Frame& fj = jframe[cj];
        uint32_t allowed = cj == 2 * ci       ? kUpper0
                           : cj == 2 * ci + 1 ? kUpper1
                                              : ~0u;
        if (ragged || (cj + 1) * kJW > atom_count) {
          allowed &= valid_bits(ci, cj);
        }
        // One image shift for the whole tile; it is the minimum image of
        // every pair when the tile stays clear of half a box edge.
        const Vec3 dc = fj.center - fi.center;
        const Vec3 shift{image_shift(dc.x, 0), image_shift(dc.y, 1),
                         image_shift(dc.z, 2)};
        const bool safe =
            std::abs(dc.x - shift.x) + fi.half.x + fj.half.x + half_slack <
                half_edges.x &&
            std::abs(dc.y - shift.y) + fi.half.y + fj.half.y + half_slack <
                half_edges.y &&
            std::abs(dc.z - shift.z) + fi.half.z + fj.half.z + half_slack <
                half_edges.z;
        uint32_t mask = 0;
        uint32_t undecided = allowed;
        if (safe) {
          double tx[kJW], ty[kJW], tz[kJW];
          for (uint32_t b = 0; b < kJW; ++b) {
            tx[b] = jx[cj * kJW + b] - shift.x;
            ty[b] = jy[cj * kJW + b] - shift.y;
            tz[b] = jz[cj * kJW + b] - shift.z;
          }
          uint32_t in = 0, near = 0;
          for (uint32_t a = 0; a < kW; ++a) {
            for (uint32_t b = 0; b < kJW; ++b) {
              const double dx = tx[b] - ux[a];
              const double dy = ty[b] - uy[a];
              const double dz = tz[b] - uz[a];
              const double d2 = dx * dx + dy * dy + dz * dz;
              const uint32_t bit = a * kJW + b;
              in |= static_cast<uint32_t>(d2 < in2) << bit;
              near |= static_cast<uint32_t>(d2 <= out2) << bit;
            }
          }
          mask = in & allowed;
          undecided = near & ~in & allowed;
        }
        // Exact fallback: the flat search's own test.
        for (uint32_t m = undecided; m != 0; m &= m - 1) {
          const auto bit = static_cast<uint32_t>(std::countr_zero(m));
          const uint32_t p = cl.atoms[ci * kW + bit / kJW];
          const uint32_t q = cl.atoms[cj * kJW + bit % kJW];
          if (box.distance2(positions[std::min(p, q)],
                            positions[std::max(p, q)]) < reach2) {
            mask |= 1u << bit;
          }
        }
        while (e < excl.size() && excl[e].cj < cj) ++e;
        for (size_t k = e; k < excl.size() && excl[k].cj == cj; ++k) {
          mask &= ~excl[k].bits;
        }
        if (mask == 0) continue;
        out.entries.push_back({ci, cj, mask, shift_code(ci, cj)});
        for (uint32_t a = 0; a < kW; ++a) {
          const uint32_t row = (mask >> (kJW * a)) & 0xfu;
          out.real_pairs += kRowPairs[row];
          out.active_rows += row != 0;
        }
      }
    }
  };

  cl.entries.clear();
  cl.real_pairs = 0;
  cl.active_rows = 0;
  const size_t chunks =
      exec_ && exec_->parallel()
          ? std::min(n_clusters, 4 * exec_->threads())
          : 1;
  if (chunks <= 1) {
    Range all;
    all.entries = std::move(cl.entries);
    build_range(0, n_clusters, all);
    cl.entries = std::move(all.entries);
    cl.real_pairs = all.real_pairs;
    cl.active_rows = all.active_rows;
    return;
  }
  std::vector<Range> ranges(chunks);
  exec_->parallel_for(chunks, [&](size_t k) {
    build_range(k * n_clusters / chunks, (k + 1) * n_clusters / chunks,
                ranges[k]);
  });
  size_t total = 0;
  for (const Range& r : ranges) total += r.entries.size();
  cl.entries.reserve(total);
  for (const Range& r : ranges) {
    cl.entries.insert(cl.entries.end(), r.entries.begin(), r.entries.end());
    cl.real_pairs += r.real_pairs;
    cl.active_rows += r.active_rows;
  }
}

bool NeighborList::needs_rebuild(std::span<const Vec3> positions,
                                 const Box& box) const {
  static auto& check_count =
      obs::MetricsRegistry::global().counter("md.neighbor.skin_check.count");
  static auto& hot_hits =
      obs::MetricsRegistry::global().counter("md.neighbor.skin_check.hot_hit");
  check_count.add();
  if (reference_positions_.size() != positions.size()) return true;
  const double limit2 = 0.25 * skin_ * skin_;
  auto exceeds = [&](size_t i) {
    // Raw displacement bounds the minimum-image displacement from above
    // (the per-axis wrap never increases a component's magnitude), so a
    // small raw distance proves the atom is inside the half-skin without
    // paying the three divisions inside Box::min_image.  Only atoms past
    // the raw bound — in practice none until a rebuild is due — fall
    // through to the exact check, which keeps the rebuild decision
    // identical to the plain loop.
    const Vec3 d = positions[i] - reference_positions_[i];
    if (norm2(d) <= limit2) return false;
    return box.distance2(positions[i], reference_positions_[i]) > limit2;
  };
  // The atom that tripped the previous check keeps drifting until the next
  // rebuild resets its reference, so testing it first turns the positive
  // case into O(1).
  if (hot_atom_ < positions.size() && exceeds(hot_atom_)) {
    hot_hits.add();
    return true;
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    if (exceeds(i)) {
      hot_atom_ = static_cast<uint32_t>(i);
      return true;
    }
  }
  return false;
}

bool NeighborList::update(std::span<const Vec3> positions, const Box& box) {
  if (!needs_rebuild(positions, box)) return false;
  build(positions, box);
  return true;
}

}  // namespace antmd::md
