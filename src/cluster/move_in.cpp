// node-move-in (paper Definition 1 + Section 5.1).
//
// Inserting node `new` with net-neighbor set U:
//   (a) U contains cluster-heads  -> new becomes a pure-member of one;
//   (b) else U contains gateways  -> new becomes a head under one;
//   (c) else (only pure-members)  -> the chosen member is *promoted* to
//       gateway and new becomes a head under it.
// Afterwards: Algorithm 3 restores the time-slot conditions, the depth of
// new is parent+1, heights refresh along the root path, and the largest
// revised slots travel to the root (Theorem 2(2): +2h + 2d + D rounds).

#include <algorithm>

#include "cluster/cnet.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dsn {

NodeId ClusterNet::moveIn(NodeId v) {
  ensureKnowledgeSize();
  DSN_REQUIRE(graph_.isAlive(v), "moveIn: node must be live in the graph");
  DSN_REQUIRE(!contains(v), "moveIn: node already in the cluster net");
  DSN_TIMED_PHASE("cnet.move_in");
  if (obs::enabled())
    obs::globalMetrics().counter("cluster.move_in").increment();

  NodeKnowledge& kv = mutableKnowledge(v);

  // First node: becomes the root and a cluster-head (Definition 1(1)).
  if (root_ == kInvalidNode) {
    auto groups = std::move(kv.groups);  // survive re-seeding (move-out)
    kv = NodeKnowledge{};
    kv.groups = std::move(groups);
    kv.inNet = true;
    kv.status = NodeStatus::kClusterHead;
    kv.parent = kInvalidNode;
    kv.depth = 0;
    kv.height = 0;
    root_ = v;
    ++netSize_;
    ++backboneCount_;
    if (obs::enabled())
      obs::globalMetrics().gauge("cluster.backbone_size").set(1.0);
    return kInvalidNode;
  }

  // One pass over U keeps only the best Definition-1 class seen so far,
  // in neighbor order. NodeStatus lists the roles in priority order:
  // heads, then gateways, then pure members.
  std::vector<NodeId>& candidates = candidates_;
  candidates.clear();
  NodeStatus best = NodeStatus::kPureMember;
  for (NodeId u : adj(v)) {
    if (!contains(u)) continue;
    const NodeStatus st = know_[u].status;
    if (st < best) {
      candidates.clear();
      best = st;
    }
    if (st == best) candidates.push_back(u);
  }
  DSN_REQUIRE(!candidates.empty(),
              "moveIn: node has no neighbor inside the cluster net");

  // Attachment from [19] runs in O(d_new) expected rounds; we charge
  // exactly the degree of the joining node (DESIGN.md §2).
  costs_.attach += static_cast<std::int64_t>(graph_.degree(v));

  const NodeId w = selectCandidate(candidates);
  switch (best) {
    case NodeStatus::kClusterHead:
      kv.status = NodeStatus::kPureMember;
      break;
    case NodeStatus::kGateway:
      kv.status = NodeStatus::kClusterHead;
      ++backboneCount_;
      break;
    case NodeStatus::kPureMember:
      // Promotion: the only status mutation Definition 1 permits.
      know_[w].status = NodeStatus::kGateway;
      kv.status = NodeStatus::kClusterHead;
      backboneCount_ += 2;
      if (obs::enabled())
        obs::globalMetrics().counter("cluster.promotions").increment();
      break;
  }

  kv.inNet = true;
  kv.parent = w;
  kv.depth = know_[w].depth + 1;
  kv.height = 0;
  kv.bSlot = kNoSlot;
  kv.lSlot = kNoSlot;
  kv.uSlot = kNoSlot;
  kv.children.clear();
  kv.relayCount.clear();
  know_[w].children.push_back(v);
  ++netSize_;

  // Degrees only grow through insertions, and only at the new node and
  // its neighbors — this keeps peakDegree() an exact historical maximum.
  peakDegree_ = std::max(peakDegree_, graph_.degree(v));
  for (NodeId u : graph_.neighbors(v))
    peakDegree_ = std::max(peakDegree_, graph_.degree(u));

  // Knowledge (II) upkeep — Algorithm 3 (slot revisions report their new
  // values to the root from inside the procedures) + root-path refresh.
  updateTimeSlotsForInsert(v);
  assignUpSlot(v);
  refreshHeightsFrom(w);

  // Multicast: if v carries groups already (re-insertion during
  // move-out), push them up the new root path.
  for (GroupId g : kv.groups) adjustRelayOnPath(w, g, +1);

  if (obs::enabled())
    obs::globalMetrics()
        .gauge("cluster.backbone_size")
        .set(static_cast<double>(backboneCount_));
  return w;
}

}  // namespace dsn
