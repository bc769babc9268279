// The paper's cost bounds for one deployment, read from its public
// structure accessors (Lemma 1 for CFF, Theorem 1 for iCFF, the
// Eulerian tour for DFO).
#pragma once

#include <vector>

#include "broadcast/runner.hpp"
#include "common.hpp"
#include "core/sensor_network.hpp"

namespace pb {

struct PaperBounds {
  double maxU = 0;  ///< Δ of Algorithm 1 (largest unified slot)
  double maxB = 0;  ///< δ (largest b-slot)
  double maxL = 0;  ///< Δ of Algorithm 2 (largest l-slot)
  double height = 0;
  double backbone = 0;  ///< |BT(G)|
  std::vector<int> depth;  ///< per node id; -1 outside the net

  static PaperBounds of(const dsn::SensorNetwork& net);

  /// Completion-round bound from `source`: the source-to-root prefix plus
  /// CFF Δ(h+1), iCFF δh+Δ, or the DFO Eulerian tour 2|BT| (member
  /// hand-off included; tighter than the paper's 4p-2). The iCFF gate is
  /// δ(h+1)+Δ: the implementation floods one b-window per backbone depth
  /// 0..H, and when a leaf cluster-head sits at depth H = h that is one
  /// window more than the paper counts (tests/broadcast/icff_test.cpp
  /// gates the same figure).
  Bound rounds(dsn::BroadcastScheme scheme, dsn::NodeId source) const;
  /// Awake-round bound: CFF 2Δ, iCFF 2δ+Δ, plus the prefix relay.
  Bound awake(dsn::BroadcastScheme scheme, dsn::NodeId source) const;
};

}  // namespace pb
