// Incremental time-slot assignment (paper Section 4).
//
// Three slot families are maintained, one per flood phase:
//  * u-slots — Algorithm 1 floods the whole CNet depth by depth, so in
//    the window a node listens only previous-depth internal (= backbone)
//    nodes transmit. Time-Slot Condition 1 applies to every non-root
//    node.
//  * b-slots — Algorithm 2 step 1 floods only the backbone; receivers
//    are backbone nodes, interferers their previous-depth backbone
//    neighbors.
//  * l-slots — Algorithm 2 step 2 delivers to leaves in ONE shared
//    window where every slotted backbone node transmits. Under
//    SlotPolicy::kStrict a pure-member's interferers are ALL its backbone
//    neighbors; under kPaperLocal only the previous-depth ones (the
//    literal Time-Slot Condition 2, kept for the ablation bench — see
//    DESIGN.md §4(1)).
//
// A receiver's condition holds when some interferer's slot is *unique*
// within the interferer set — that transmitter gets through. Slots are
// assigned lazily and only ever changed through Procedure 1
// (calculateSlot), which consults every listener constrained by the
// changing node and picks the minimum positive slot that keeps each tight
// listener deliverable; this preserves all conditions inductively.

#include <algorithm>

#include "cluster/cnet.hpp"
#include "obs/flight.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// Flight-recorder slot-recompute marker. `kind`: 0 = B, 1 = L, 2 = U,
/// 3 = up (matches the FrType::kSlotRecompute aux contract). Slot
/// assignments are rare relative to radio traffic, so they are recorded
/// whenever the cluster category is live, independent of round sampling.
void recordSlotRecompute(NodeId y, TimeSlot slot, std::uint16_t kind) {
  if (obs::FlightRecorder* fr = obs::recorderFor<obs::kFrCatCluster>()) {
    obs::FrEvent e;
    e.node = y;
    e.data = static_cast<std::uint32_t>(slot);
    e.type = static_cast<std::uint8_t>(obs::FrType::kSlotRecompute);
    e.aux = kind;
    fr->record(e);
  }
}

/// Number of values occurring exactly once in [first, last). The callers
/// only ever need the count, so the range is sorted in place and
/// singleton runs are counted.
std::size_t uniqueValueCount(std::vector<TimeSlot>::iterator first,
                             std::vector<TimeSlot>::iterator last) {
  std::sort(first, last);
  std::size_t unique = 0;
  for (auto i = first; i != last;) {
    auto j = i + 1;
    while (j != last && *j == *i) ++j;
    if (j - i == 1) ++unique;
    i = j;
  }
  return unique;
}

/// Smallest positive integer not contained in `taken` (duplicates fine;
/// sorts `taken` in place).
TimeSlot minimumFreeSlot(std::vector<TimeSlot>& taken) {
  std::sort(taken.begin(), taken.end());
  TimeSlot candidate = 1;
  for (TimeSlot t : taken) {
    if (t < candidate) continue;
    if (t == candidate)
      ++candidate;
    else
      break;
  }
  return candidate;
}

}  // namespace

// ---- Interferer sets (who transmits while v listens) ----

bool ClusterNet::transmitsInto(NodeId u, Depth d, SlotKind kind) const {
  // Only backbone nodes carry b/l/u-slots. The backbone flood and the
  // Algorithm-1 flood run depth by depth (previous depth only); the
  // shared leaf window hears every backbone neighbor under kStrict.
  if (!contains(u) || !isBackboneStatus(know_[u].status)) return false;
  return know_[u].depth == d - 1 ||
         (kind == SlotKind::kL &&
          config_.slotPolicy == SlotPolicy::kStrict);
}

std::vector<NodeId> ClusterNet::bInterferers(NodeId v) const {
  requireInNet(v, "bInterferers");
  std::vector<NodeId> out;
  for (NodeId u : adj(v))
    if (transmitsInto(u, know_[v].depth, SlotKind::kB)) out.push_back(u);
  return out;
}

std::vector<NodeId> ClusterNet::uInterferers(NodeId v) const {
  // Same node set as bInterferers (previous-depth backbone neighbors);
  // evaluated over u-slots by the callers.
  return bInterferers(v);
}

std::vector<NodeId> ClusterNet::lInterferers(NodeId v) const {
  requireInNet(v, "lInterferers");
  std::vector<NodeId> out;
  for (NodeId u : adj(v))
    if (transmitsInto(u, know_[v].depth, SlotKind::kL)) out.push_back(u);
  return out;
}

void ClusterNet::appendInterfererSlots(NodeId v, SlotKind kind,
                                       NodeId except,
                                       std::vector<TimeSlot>& out) const {
  const Depth d = know_[v].depth;
  for (NodeId u : adj(v)) {
    if (u == except || !transmitsInto(u, d, kind)) continue;
    const NodeKnowledge& k = know_[u];
    const TimeSlot s = kind == SlotKind::kB   ? k.bSlot
                       : kind == SlotKind::kL ? k.lSlot
                                              : k.uSlot;
    if (s != kNoSlot) out.push_back(s);
  }
}

// ---- Conditions ----

bool ClusterNet::conditionHolds(NodeId v, SlotKind kind,
                                std::vector<TimeSlot>& scratch) const {
  scratch.clear();
  appendInterfererSlots(v, kind, kInvalidNode, scratch);
  return uniqueValueCount(scratch.begin(), scratch.end()) > 0;
}

bool ClusterNet::bConditionHolds(NodeId v) const {
  requireInNet(v, "bConditionHolds");
  DSN_REQUIRE(isBackboneStatus(know_[v].status) && know_[v].depth > 0,
              "bConditionHolds: needs a non-root backbone node");
  std::vector<TimeSlot> scratch;
  return conditionHolds(v, SlotKind::kB, scratch);
}

bool ClusterNet::lConditionHolds(NodeId v) const {
  requireInNet(v, "lConditionHolds");
  DSN_REQUIRE(know_[v].status == NodeStatus::kPureMember,
              "lConditionHolds: needs a pure member");
  std::vector<TimeSlot> scratch;
  return conditionHolds(v, SlotKind::kL, scratch);
}

bool ClusterNet::uConditionHolds(NodeId v) const {
  requireInNet(v, "uConditionHolds");
  DSN_REQUIRE(know_[v].depth > 0,
              "uConditionHolds: the root does not receive");
  std::vector<TimeSlot> scratch;
  return conditionHolds(v, SlotKind::kU, scratch);
}

// ---- Procedure 1 (paper Section 4) ----

void ClusterNet::calculateSlot(NodeId y, SlotKind kind) {
  requireInNet(y, "calculateSlot");
  DSN_REQUIRE(isBackboneStatus(know_[y].status),
              "calculateSlot: only backbone nodes carry b/l/u-slots");

  // The listeners y must keep deliverable: every receiver of this
  // window (backbone nodes for b, pure members for l, anyone for u)
  // that hears y. Each one's interferer slots other than y's are
  // forbidden unless two of them are unique already (v safe regardless).
  std::vector<TimeSlot>& forbidden = slotScratch_;
  forbidden.clear();
  std::int64_t listeners = 0;
  for (NodeId v : adj(y)) {
    if (!contains(v)) continue;
    const NodeStatus st = know_[v].status;
    if (kind == SlotKind::kB && !isBackboneStatus(st)) continue;
    if (kind == SlotKind::kL && st != NodeStatus::kPureMember) continue;
    if (!transmitsInto(y, know_[v].depth, kind)) continue;
    ++listeners;
    const auto mark = static_cast<std::ptrdiff_t>(forbidden.size());
    appendInterfererSlots(v, kind, y, forbidden);
    if (uniqueValueCount(forbidden.begin() + mark, forbidden.end()) >= 2)
      forbidden.erase(forbidden.begin() + mark, forbidden.end());
  }
  // Procedure 1(i): one round for y's request, then each listener answers
  // in turn (Lemma 2(1): 1 + |C(y)| rounds).
  costs_.slotUpdate += 1 + listeners;

  const TimeSlot slot = minimumFreeSlot(forbidden);
  NodeKnowledge& k = know_[y];
  (kind == SlotKind::kB   ? k.bSlot
   : kind == SlotKind::kL ? k.lSlot
                          : k.uSlot) = slot;
  recordSlotRecompute(y, slot, static_cast<std::uint16_t>(kind));
  reportSlotToRoot(kind == SlotKind::kB ? slot : 0,
                   kind == SlotKind::kL ? slot : 0,
                   kind == SlotKind::kU ? slot : 0);
}

// ---- Convergecast up-slots (dsnet extension, DESIGN.md §6) ----

bool ClusterNet::upConditionHolds(NodeId v) const {
  // What convergecast correctness needs: v's PARENT can hear v — no
  // other same-depth net-neighbor of the parent shares v's up-slot.
  // (assignUpSlot guards the stronger property over every potential
  // previous-depth listener, giving slack for later re-parenting, but
  // only the parent edge is load-bearing.)
  requireInNet(v, "upConditionHolds");
  DSN_REQUIRE(v != root_, "the root reports to no one");
  const TimeSlot mine = know_[v].upSlot;
  if (mine == kNoSlot) return false;
  const Depth d = know_[v].depth;
  const NodeId p = know_[v].parent;
  for (NodeId u : adj(p)) {
    if (u == v || !contains(u)) continue;
    if (know_[u].depth == d && know_[u].upSlot == mine) return false;
  }
  return true;
}

void ClusterNet::assignUpSlot(NodeId v) {
  // Forbidden set: up-slots of every same-depth node that shares a
  // previous-depth neighbor with v — then every potential listener can
  // separate v from all other transmitters in its gather window.
  const Depth d = know_[v].depth;
  std::vector<TimeSlot>& forbidden = slotScratch_;
  forbidden.clear();
  std::int64_t listeners = 0;
  for (NodeId q : adj(v)) {
    if (!contains(q) || know_[q].depth != d - 1) continue;
    ++listeners;
    for (NodeId u : adj(q)) {
      if (u == v || !contains(u)) continue;
      if (know_[u].depth == d && know_[u].upSlot != kNoSlot)
        forbidden.push_back(know_[u].upSlot);
    }
  }
  costs_.slotUpdate += 1 + listeners;
  know_[v].upSlot = minimumFreeSlot(forbidden);
  recordSlotRecompute(v, know_[v].upSlot, 3);
  if (know_[v].upSlot > rootMaxUp_) {
    rootMaxUp_ = know_[v].upSlot;
    costs_.rootPath += root_ != kInvalidNode ? know_[root_].height : 0;
  }
}

// ---- Algorithm 3 (insertion repair) ----

bool ClusterNet::repairReceiver(NodeId v) {
  requireInNet(v, "repairReceiver");
  if (v == root_) return false;

  const NodeId w = know_[v].parent;
  // Procedure 1 repairs v by recalculating the slot of v's PARENT, whose
  // forbidden set ranges over its current graph neighbors — so the
  // repair-restores-the-condition theorem (DSN_CHECK below) holds only
  // while the tree edge is a live radio edge. On a stale structure (the
  // parent crashed, §10) no local repair can succeed; the recovery pass
  // that must follow will detach and re-home v, rebuilding its
  // conditions through a fresh insertion. This arises in practice when a
  // join lands between a crash and the batched repair of the same churn
  // tick and promotes a member whose own parent is the dead node.
  if (!graph_.hasEdge(v, w)) return false;

  // The flood-phase condition (the leaf hop for pure members, the
  // backbone flood otherwise), then the Algorithm-1 one: every non-root
  // node is a u-receiver.
  const SlotKind phase = know_[v].status == NodeStatus::kPureMember
                             ? SlotKind::kL
                             : SlotKind::kB;
  bool repaired = false;
  for (const SlotKind kind : {phase, SlotKind::kU}) {
    if (conditionHolds(v, kind, slotScratch_)) continue;
    calculateSlot(w, kind);
    DSN_CHECK(conditionHolds(v, kind, slotScratch_),
              "parent slot recalculation failed to restore the condition");
    repaired = true;
  }
  return repaired;
}

std::int64_t ClusterNet::compactSlots() {
  if (root_ == kInvalidNode) return 0;
  const RoundCost before = costs_;
  // One O(V+E) snapshot up front; every adj() below then iterates the
  // flat CSR arrays instead of per-node vectors for the whole pass.
  graph_.csrView();

  // Wipe every slot and the root's window knowledge, then re-derive in
  // BFS order: each node's delivery conditions are restored exactly as a
  // fresh insertion would (Algorithm 3), which by construction picks
  // minimum free slots.
  std::vector<NodeId>& order = subtree_;
  collectSubtree(root_, order);

  for (NodeId v : order) {
    know_[v].bSlot = kNoSlot;
    know_[v].lSlot = kNoSlot;
    know_[v].uSlot = kNoSlot;
    know_[v].upSlot = kNoSlot;
  }
  rootMaxB_ = 0;
  rootMaxL_ = 0;
  rootMaxU_ = 0;
  rootMaxUp_ = 0;

  for (NodeId v : order) {
    if (v == root_) continue;
    repairReceiver(v);
    assignUpSlot(v);
  }
  // Conditions of already-processed nodes cannot have been broken: every
  // assignment went through the listener-consulting procedures.
  return (costs_ - before).total();
}

void ClusterNet::updateTimeSlotsForInsert(NodeId v) {
  // Algorithm 3: the fresh leaf checks its own delivery conditions and,
  // where violated, its parent recalculates the relevant slot. When the
  // attachment promoted the parent (pure-member -> gateway, Definition 1
  // rule (c)), the parent became a backbone-flood receiver itself and its
  // own condition is restored the same way.
  repairReceiver(v);
  const NodeId w = know_[v].parent;
  if (w != root_ && know_[w].status == NodeStatus::kGateway &&
      know_[w].children.size() == 1) {
    // Exactly one child (v) => w was promoted by this insert (or is a
    // childless gateway regaining a child after a move-out; the repair is
    // idempotent and safe in that case too).
    repairReceiver(w);
  }
}

}  // namespace dsn
