#include "machine/contention.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace antmd::machine {
namespace {

/// Halo volume split: 6 faces carry most of the import shell, 12 edges
/// less, 8 corners least (cutoff-shell geometry).
constexpr double kFaceShare = 0.70 / 6.0;
constexpr double kEdgeShare = 0.25 / 12.0;
constexpr double kCornerShare = 0.05 / 8.0;

}  // namespace

LinkContentionModel::LinkContentionModel(const MachineConfig& config)
    : config_(config), torus_(config) {
  config_.validate();
}

ContentionResult LinkContentionModel::multicast_time(
    const std::vector<NodeWork>& nodes,
    std::vector<double>* link_bytes_out) const {
  ANTMD_REQUIRE(nodes.size() == torus_.node_count(),
                "node work must cover the whole torus");
  const auto& dims = torus_.dims();

  // Route into the caller's buffer when one is supplied, so the profiler
  // gets the per-link picture without a second routing pass.
  std::vector<double> local_bytes;
  std::vector<double>& link_bytes =
      link_bytes_out ? *link_bytes_out : local_bytes;
  link_bytes.assign(torus_.node_count() * 6, 0.0);

  // Every route's directed links live in one flat array; a message holds
  // its slice [first, first + hops).
  struct Message {
    size_t first = 0;
    double bytes = 0.0;
    int hops = 0;
  };
  std::vector<Message> messages;
  std::vector<size_t> route_links;
  messages.reserve(nodes.size() * 26);
  route_links.reserve(nodes.size() * 26 * 3);

  // One hop moves a coordinate by ±1, so it leaves [0, n) by at most one.
  auto wrap = [](int c, int n) {
    return c < 0 ? c + n : (c >= n ? c - n : c);
  };

  // Route src -> dst dimension-ordered, one hop per unit offset.
  auto route = [&](const NodeCoord& src, const std::array<int, 3>& offset,
                   double bytes) {
    if (bytes <= 0.0) return;
    Message msg;
    msg.first = route_links.size();
    msg.bytes = bytes;
    NodeCoord at = src;
    for (int axis = 0; axis < 3; ++axis) {
      int steps = offset[axis];
      if (steps == 0) continue;
      int sign = steps >= 0 ? 1 : -1;
      int hops = std::abs(steps);
      // Redundant-direction reroute: when the first hop of this leg would
      // cross a down-marked link, go the other way around the ring.
      if (link_down(torus_.link_id(torus_.id_of(at), axis, sign)) &&
          dims[axis] > 1) {
        sign = -sign;
        hops = dims[axis] - hops;
      }
      for (int s = 0; s < hops; ++s) {
        size_t from = torus_.id_of(at);
        route_links.push_back(torus_.link_id(from, axis, sign));
        at[axis] = wrap(at[axis] + sign, dims[axis]);
        ++msg.hops;
      }
    }
    for (size_t k = msg.first; k < route_links.size(); ++k) {
      link_bytes[route_links[k]] += msg.bytes;
    }
    messages.push_back(msg);
  };

  for (size_t n = 0; n < nodes.size(); ++n) {
    double halo = nodes[n].import_bytes;
    if (halo <= 0.0) continue;
    const NodeCoord origin = torus_.coord_of(n);
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          int nonzero = (dx != 0) + (dy != 0) + (dz != 0);
          double share = nonzero == 1 ? kFaceShare
                         : nonzero == 2 ? kEdgeShare
                                        : kCornerShare;
          route(origin, {dx, dy, dz}, halo * share);
        }
      }
    }
  }

  ContentionResult out;
  if (messages.empty()) return out;

  for (double b : link_bytes) {
    if (b > 0.0) {
      out.max_link_bytes = std::max(out.max_link_bytes, b);
      out.mean_link_bytes += b;
      ++out.links_used;
    }
  }
  if (out.links_used) {
    out.mean_link_bytes /= static_cast<double>(out.links_used);
  }

  // Each message completes no earlier than its bottleneck link drains,
  // plus per-hop latency and injection overhead.
  for (const Message& m : messages) {
    double bottleneck = 0.0;
    for (int k = 0; k < m.hops; ++k) {
      bottleneck = std::max(bottleneck,
                            link_bytes[route_links[m.first + k]] /
                                config_.link_bandwidth_Bps);
    }
    double t = bottleneck + m.hops * config_.hop_latency_s +
               config_.message_overhead_s;
    out.phase_time_s = std::max(out.phase_time_s, t);
  }
  return out;
}

}  // namespace antmd::machine
