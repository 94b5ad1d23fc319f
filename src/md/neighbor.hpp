// Cell list and Verlet neighbor list.
//
// A flat-mode list produces a deterministic, sorted (i < j, lexicographic)
// pair vector for ff::compute_pairs and the flat-pair machine partition.
// A cluster-mode list (the one both engines step with) builds the blocked
// ff::ClusterPairList directly: i-cluster and j-group bounding boxes cull
// tile candidates, every surviving (i, j) bit is decided by the same
// minimum-image test as the flat enumeration and exclusions are cleared as
// mask bits, so the tiles encode exactly the flat pair set without ever
// materialising it.  The distributed runtime partitions whichever form the
// list carries; with fixed-point accumulation the forces are bit-identical
// at any node count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ff/nonbonded.hpp"
#include "ff/nonbonded_cluster.hpp"
#include "math/pbc.hpp"
#include "topo/topology.hpp"
#include "util/execution.hpp"

namespace antmd::md {

/// Uniform spatial binning over the box.
class CellList {
 public:
  /// cell_size is a lower bound on the actual cell edge (cells evenly
  /// divide the box).
  CellList(const Box& box, double cell_size);

  void assign(std::span<const Vec3> positions, const Box& box);

  [[nodiscard]] size_t cell_count() const {
    return static_cast<size_t>(nx_) * ny_ * nz_;
  }
  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }

  /// Atoms in cell (cx, cy, cz) (unwrapped indices are taken modulo dims).
  [[nodiscard]] const std::vector<uint32_t>& cell(int cx, int cy,
                                                  int cz) const;
  /// Cell coordinates of atom i from the last assign().
  [[nodiscard]] std::array<int, 3> cell_of(uint32_t atom) const;
  /// Cell coordinates of a point already wrapped into the primary cell
  /// (the binning assign() applies to every atom).
  [[nodiscard]] std::array<int, 3> coords_of(const Vec3& wrapped,
                                             const Box& box) const;

 private:
  [[nodiscard]] size_t index(int cx, int cy, int cz) const;

  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<std::vector<uint32_t>> cells_;
  std::vector<std::array<int, 3>> atom_cells_;
};

/// Verlet list with a skin: rebuilt only when some atom has moved more than
/// half the skin since the last build.
class NeighborList {
 public:
  /// cluster_mode builds the blocked cluster-pair list (see
  /// ff::ClusterPairList) on every rebuild instead of the flat pair vector;
  /// pairs() then enumerates the flat list lazily, as an independent oracle.
  NeighborList(const Topology& topo, double cutoff, double skin,
               bool cluster_mode = false);

  /// Throws ConfigError naming the cutoff, the skin and the smallest box
  /// edge when the box is too small for the minimum-image pair search
  /// (2·(cutoff+skin) > smallest edge).  Engines call it on their initial
  /// box, before the first build; build() itself still rejects a box that
  /// shrinks below the limit mid-run.
  void require_fits(const Box& box) const;

  /// Rebuilds unconditionally.
  void build(std::span<const Vec3> positions, const Box& box);

  /// Rebuilds only if needed; returns true if a rebuild happened.
  bool update(std::span<const Vec3> positions, const Box& box);

  /// The flat pair list of the last build.  In cluster mode the first call
  /// after a build enumerates it from the stored build frame (bumping
  /// md.neighbor.oracle.count) with the flat search, independently of the
  /// tile build — for tests, gates and flat-pair benches, never for an
  /// engine step.  Not safe against concurrent first calls.
  [[nodiscard]] const std::vector<ff::PairEntry>& pairs() const;
  [[nodiscard]] bool cluster_mode() const { return cluster_mode_; }
  /// Blocked tile list; empty unless cluster_mode is on.  Encodes exactly
  /// the pairs() set, entries in ascending (ci, cj).
  [[nodiscard]] const ff::ClusterPairList& clusters() const {
    return clusters_;
  }
  [[nodiscard]] double cutoff() const { return cutoff_; }
  [[nodiscard]] double skin() const { return skin_; }
  [[nodiscard]] uint64_t build_count() const { return build_count_; }

  /// Opts the list into threaded rebuilds.  The tile build fans out over
  /// i-cluster ranges and the flat search over cell slices; both
  /// concatenate in ascending order (the flat search also sorts), so either
  /// list is identical to the serial build regardless of thread count.
  void set_execution(std::shared_ptr<ExecutionContext> exec) {
    exec_ = std::move(exec);
  }

 private:
  [[nodiscard]] bool needs_rebuild(std::span<const Vec3> positions,
                                   const Box& box) const;
  /// The flat search: reach-sized cells, minimum-image distance and
  /// topology exclusion test per candidate, sorted and deduplicated.
  [[nodiscard]] std::vector<ff::PairEntry> enumerate_pairs(
      std::span<const Vec3> positions, const Box& box) const;
  void build_clusters(std::span<const Vec3> positions, const Box& box);

  const Topology* topo_;
  double cutoff_;
  double skin_;
  bool cluster_mode_ = false;
  /// Cluster mode: filled by the first pairs() call after a build.
  mutable std::vector<ff::PairEntry> pairs_;
  mutable bool pairs_ready_ = true;  ///< empty before the first build
  ff::ClusterPairList clusters_;
  /// Per-atom exclusion partners (both directions, ascending), CSR; built
  /// once from the topology for the tile build's mask clearing.
  std::vector<uint32_t> excl_begin_;
  std::vector<uint32_t> excl_partners_;
  /// The build frame: skin-check reference and the oracle's input.
  std::vector<Vec3> reference_positions_;
  Box build_box_;
  uint64_t build_count_ = 0;
  std::shared_ptr<ExecutionContext> exec_;  ///< null = serial build
  /// Last atom seen beyond half-skin: checked first for an O(1) positive
  /// skin-check exit while that atom keeps drifting.
  mutable uint32_t hot_atom_ = 0;
};

}  // namespace antmd::md
