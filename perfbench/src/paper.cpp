#include "paper.hpp"

#include <algorithm>

namespace pb {

PaperBounds PaperBounds::of(const dsn::SensorNetwork& net) {
  const dsn::ClusterNet& cn = net.clusterNet();
  PaperBounds b;
  // A TDM window lasts at least one round, also when a tiny structure
  // has assigned no slot of a kind.
  b.maxU = std::max<double>(1, cn.rootMaxUSlot());
  b.maxB = std::max<double>(1, cn.rootMaxBSlot());
  b.maxL = std::max<double>(1, cn.rootMaxLSlot());
  b.height = cn.height();
  b.backbone = static_cast<double>(cn.backboneNodes().size());
  b.depth.assign(net.graph().size(), -1);
  for (const dsn::NodeId v : cn.netNodes()) b.depth[v] = cn.depth(v);
  return b;
}

Bound PaperBounds::rounds(dsn::BroadcastScheme scheme,
                          dsn::NodeId source) const {
  const double prefix = depth[source];
  switch (scheme) {
    case dsn::BroadcastScheme::kCff: {
      const double b = prefix + maxU * (height + 1);
      return {b, b};
    }
    case dsn::BroadcastScheme::kImprovedCff:
      return {prefix + maxB * height + maxL,
              prefix + maxB * (height + 1) + maxL};
    case dsn::BroadcastScheme::kDfo:
      return {2 * backbone, 2 * backbone};
    default:
      return {};
  }
}

Bound PaperBounds::awake(dsn::BroadcastScheme scheme,
                         dsn::NodeId source) const {
  const double prefix = depth[source];
  switch (scheme) {
    case dsn::BroadcastScheme::kCff:
      return {prefix + 2 * maxU, prefix + 2 * maxU};
    case dsn::BroadcastScheme::kImprovedCff:
      return {prefix + 2 * maxB + maxL, prefix + 2 * maxB + maxL};
    default:
      return {};
  }
}

}  // namespace pb
