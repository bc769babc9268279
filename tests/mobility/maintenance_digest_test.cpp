// Pinned maintenance digest: a seeded ChurnEngine run (motion, crashes,
// joins, leaves) under every repair policy x slot policy x attach
// preference, folding the whole incremental structure after every tick
// into one FNV-1a digest. The folded state is everything the Section-4/5
// maintenance path writes: each in-net node's status, parent, depth,
// height, b/l/u/up slots and relay list, every RoundCost field, and the
// root's monotone window knowledge. A host-side optimisation of that
// path must leave all twelve digests unchanged.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/sensor_network.hpp"
#include "mobility/churn.hpp"
#include "mobility/model.hpp"

namespace dsn::mobility {
namespace {

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void foldStructure(const ClusterNet& net, Fnv& f) {
  f.add(net.netSize());
  f.add(net.root());
  for (NodeId v : net.netNodes()) {
    f.add(v);
    f.add(static_cast<std::uint64_t>(net.status(v)));
    f.add(net.parent(v));
    f.add(static_cast<std::uint64_t>(net.depth(v)));
    f.add(static_cast<std::uint64_t>(net.heightOf(v)));
    f.add(net.bSlot(v));
    f.add(net.lSlot(v));
    f.add(net.uSlot(v));
    f.add(net.upSlot(v));
    for (GroupId g : net.relayListOf(v)) f.add(g);
  }
  const RoundCost& c = net.costs();
  for (std::int64_t x : {c.attach, c.slotUpdate, c.rootPath, c.eulerTour,
                         c.repair, c.groupMaintenance, c.heartbeat})
    f.add(static_cast<std::uint64_t>(x));
  f.add(net.rootMaxBSlot());
  f.add(net.rootMaxLSlot());
  f.add(net.rootMaxUSlot());
  f.add(net.rootMaxUpSlot());
}

std::uint64_t maintenanceDigest(RepairPolicy policy, SlotPolicy slots,
                                AttachPreference attach) {
  NetworkConfig nc;
  nc.field = Field::squareUnits(3);
  nc.nodeCount = 90;
  nc.seed = 0xD16E57;
  nc.cluster.slotPolicy = slots;
  nc.cluster.attachPreference = attach;
  SensorNetwork net(nc);
  // Multicast members, so re-homing also walks relay lists.
  for (NodeId v : net.clusterNet().netNodes())
    if (v % 5 == 0) net.joinGroup(v, static_cast<GroupId>(v % 3));

  WaypointConfig wc;
  wc.field = nc.field;
  wc.speed = 8.0;
  wc.period = 4;
  wc.seed = 0x3A7;
  RandomWaypointModel model(wc);
  for (NodeId v : net.clusterNet().netNodes()) model.track(v, net.position(v));

  ChurnConfig cc;
  cc.crashRate = 0.4;
  cc.joinRate = 0.5;
  cc.leaveRate = 0.2;
  cc.policy = policy;
  cc.debtFactor = 3.0;
  cc.field = nc.field;
  cc.seed = 0x5EED;
  ChurnEngine engine(net, &model, cc);

  Fnv f;
  for (Round r = 0; r < 96; ++r) {
    const ChurnTick t = engine.tick(r);
    f.add(t.moves);
    f.add(t.crashes);
    f.add(t.joins);
    f.add(t.leaves);
    f.add(t.rebuilt ? 1 : 0);
    // A rebuild swaps in a fresh ClusterNet, so fetch it every tick.
    foldStructure(net.clusterNet(), f);
  }
  EXPECT_EQ(engine.totals().validationFailures, 0u);
  EXPECT_GT(engine.totals().moves, 0u);
  EXPECT_GT(engine.totals().crashes, 0u);
  EXPECT_GT(engine.totals().joins, 0u);
  EXPECT_GT(engine.totals().leaves, 0u);
  EXPECT_GT(engine.totals().repairs, 0u);
  if (policy == RepairPolicy::kAdaptive) {
    EXPECT_GT(engine.totals().rebuilds, 0u);
    EXPECT_LT(engine.totals().rebuilds, engine.totals().repairs);
  }
  EXPECT_GT(net.clusterNet().netSize(), 20u);
  return f.value();
}

struct Pinned {
  RepairPolicy policy;
  SlotPolicy slots;
  AttachPreference attach;
  std::uint64_t digest;
};

TEST(MaintenanceDigestTest, PinnedAcrossPolicies) {
  const Pinned pinned[] = {
      {RepairPolicy::kIncremental, SlotPolicy::kStrict,
       AttachPreference::kLowestId, 0x07c734f0e278fe13ull},
      {RepairPolicy::kIncremental, SlotPolicy::kStrict,
       AttachPreference::kRandom, 0xe03838c28da97451ull},
      {RepairPolicy::kIncremental, SlotPolicy::kPaperLocal,
       AttachPreference::kLowestId, 0x3da41265111671f8ull},
      {RepairPolicy::kIncremental, SlotPolicy::kPaperLocal,
       AttachPreference::kRandom, 0xa398788fc5093b42ull},
      {RepairPolicy::kRebuild, SlotPolicy::kStrict,
       AttachPreference::kLowestId, 0xb2e09b3bb5749690ull},
      {RepairPolicy::kRebuild, SlotPolicy::kStrict,
       AttachPreference::kRandom, 0x2133dc0225e13419ull},
      {RepairPolicy::kRebuild, SlotPolicy::kPaperLocal,
       AttachPreference::kLowestId, 0x05a7bcee20315c6dull},
      {RepairPolicy::kRebuild, SlotPolicy::kPaperLocal,
       AttachPreference::kRandom, 0x72afe660b7062590ull},
      {RepairPolicy::kAdaptive, SlotPolicy::kStrict,
       AttachPreference::kLowestId, 0x72120311d28a9fb2ull},
      {RepairPolicy::kAdaptive, SlotPolicy::kStrict,
       AttachPreference::kRandom, 0x7a71a0bd6bc8c414ull},
      {RepairPolicy::kAdaptive, SlotPolicy::kPaperLocal,
       AttachPreference::kLowestId, 0x1d355af211164319ull},
      {RepairPolicy::kAdaptive, SlotPolicy::kPaperLocal,
       AttachPreference::kRandom, 0x75fd3730b58de99eull},
  };
  for (const Pinned& p : pinned) {
    const std::uint64_t got = maintenanceDigest(p.policy, p.slots, p.attach);
    EXPECT_EQ(got, p.digest)
        << toString(p.policy) << " slots=" << static_cast<int>(p.slots)
        << " attach=" << static_cast<int>(p.attach) << " got 0x" << std::hex
        << got;
  }
}

}  // namespace
}  // namespace dsn::mobility
