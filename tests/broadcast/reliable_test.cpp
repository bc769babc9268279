// Reliable broadcast (NACK repair rounds over CFF/iCFF, DESIGN.md §10).
#include "broadcast/reliable.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/sensor_network.hpp"

namespace dsn {
namespace {

NetworkConfig config(std::uint64_t seed, std::size_t n = 100) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = seed;
  return cfg;
}

TEST(ReliableBroadcastTest, CleanChannelNeedsNoRepair) {
  SensorNetwork net(config(41));
  const NodeId source = net.clusterNet().root();
  const auto run =
      net.reliableBroadcast(BroadcastScheme::kImprovedCff, source, 7);
  EXPECT_TRUE(run.allDelivered());
  EXPECT_EQ(run.repairRoundsUsed, 0);
  EXPECT_EQ(run.nacksSent, 0u);
  EXPECT_EQ(run.retransmissions, 0u);
  EXPECT_EQ(run.totalRounds, run.wave.sim.rounds);
  EXPECT_DOUBLE_EQ(run.coverage(), 1.0);
}

TEST(ReliableBroadcastTest, RejectsDfoAndBadOptions) {
  SensorNetwork net(config(42, 30));
  const NodeId source = net.clusterNet().root();
  EXPECT_THROW(
      net.reliableBroadcast(BroadcastScheme::kDfo, source, 1),
      PreconditionError);
  ReliableOptions bad;
  bad.maxRepairRounds = -1;
  EXPECT_THROW(
      net.reliableBroadcast(BroadcastScheme::kImprovedCff, source, 1, bad),
      PreconditionError);
  bad.maxRepairRounds = 4;
  bad.responderKeepProbability = 0.0;
  EXPECT_THROW(
      net.reliableBroadcast(BroadcastScheme::kImprovedCff, source, 1, bad),
      PreconditionError);
}

TEST(ReliableBroadcastTest, RepairBeatsPlainWaveUnderDrops) {
  SensorNetwork net(config(43, 150));
  const NodeId source = net.clusterNet().root();
  ReliableOptions ro;
  ro.base.dropProbability = 0.2;
  ro.base.failureSeed = 0x10ADED;
  ro.maxRepairRounds = 30;
  const auto run = net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                         source, 7, ro);
  EXPECT_GE(run.coverage(), run.wave.coverage());
  EXPECT_TRUE(run.allDelivered())
      << "residual uncovered: " << run.residualUncovered;
  if (run.repairRoundsUsed > 0) {
    EXPECT_GT(run.nacksSent, 0u);
    EXPECT_GT(run.retransmissions, 0u);
  }
}

TEST(ReliableBroadcastTest, ZeroBudgetEqualsPlainWave) {
  SensorNetwork net(config(44, 120));
  const NodeId source = net.clusterNet().root();
  ProtocolOptions plainOpts;
  plainOpts.dropProbability = 0.2;
  plainOpts.failureSeed = 0xCAFE;
  const auto plain = net.broadcast(BroadcastScheme::kImprovedCff, source,
                                   7, plainOpts);
  ReliableOptions ro;
  ro.base = plainOpts;
  ro.maxRepairRounds = 0;
  const auto run = net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                         source, 7, ro);
  EXPECT_EQ(run.repairRoundsUsed, 0);
  EXPECT_EQ(run.delivered, plain.delivered);
  EXPECT_EQ(run.totalRounds, plain.sim.rounds);
}

TEST(ReliableBroadcastTest, DeliveryRoundsAreMonotoneAcrossRepairs) {
  SensorNetwork net(config(45, 120));
  const NodeId source = net.clusterNet().root();
  ReliableOptions ro;
  ro.base.dropProbability = 0.25;
  ro.base.failureSeed = 0x5EED;
  ro.maxRepairRounds = 20;
  const auto run = net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                         source, 7, ro);
  // Nodes repaired in round k got the payload strictly after the wave
  // finished; everyone delivered within the combined timeline.
  for (NodeId v : net.clusterNet().netNodes()) {
    const Round r = run.deliveryRound[v];
    if (r < 0) continue;
    EXPECT_LT(r, run.totalRounds);
    if (run.wave.deliveryRound[v] < 0) {
      EXPECT_GE(r, run.wave.sim.rounds);
    }
  }
}

TEST(ReliableBroadcastTest, DeterministicGivenSeed) {
  const auto once = [] {
    SensorNetwork net(config(46, 120));
    ReliableOptions ro;
    ro.base.dropProbability = 0.3;
    ro.base.failureSeed = 0xABBA;
    ro.maxRepairRounds = 10;
    return net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                 net.clusterNet().root(), 7, ro);
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.totalRounds, b.totalRounds);
  EXPECT_EQ(a.nacksSent, b.nacksSent);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.deliveryRound, b.deliveryRound);
}

TEST(ReliableBroadcastTest, WorksOnPlainCffToo) {
  SensorNetwork net(config(47, 100));
  ReliableOptions ro;
  ro.base.dropProbability = 0.2;
  ro.base.failureSeed = 0xF1F1;
  ro.maxRepairRounds = 30;
  const auto run = net.reliableBroadcast(
      BroadcastScheme::kCff, net.clusterNet().root(), 7, ro);
  EXPECT_TRUE(run.allDelivered())
      << "residual uncovered: " << run.residualUncovered;
}

TEST(ReliableBroadcastTest, ScheduledDeathsAreExcludedFromRepair) {
  SensorNetwork net(config(48, 140));
  const ClusterNet& cnet = net.clusterNet();
  // Crash pure members (no structure hangs off them): four before the
  // wave starts, one a few rounds into it.
  std::vector<NodeId> members;
  for (const NodeId v : cnet.netNodes())
    if (cnet.status(v) == NodeStatus::kPureMember) members.push_back(v);
  ASSERT_GE(members.size(), 5u);
  ReliableOptions ro;
  ro.base.dropProbability = 0.3;
  ro.base.failureSeed = 0xDEAD5;
  ro.maxRepairRounds = 30;
  for (std::size_t i = 0; i < 5; ++i)
    ro.base.deaths.emplace_back(members[i * members.size() / 5],
                                i < 4 ? Round{0} : Round{3});

  const auto run = [&](SimScheduling s, int threads) {
    ReliableOptions o = ro;
    o.base.scheduling = s;
    o.base.threads = threads;
    return net.reliableBroadcast(BroadcastScheme::kImprovedCff, cnet.root(),
                                 7, o);
  };
  const auto active = run(SimScheduling::kActiveSet, 0);
  ASSERT_GT(active.repairRoundsUsed, 0);

  // Nodes dead from round 0 never get the payload; once only dead nodes
  // are left uncovered the repair loop stops instead of spending the
  // rest of its budget on them.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(active.deliveryRound[ro.base.deaths[i].first], -1);
  std::size_t uncoveredDead = 0;
  for (const NodeId v : cnet.netNodes()) {
    if (active.deliveryRound[v] >= 0) continue;
    bool dead = false;
    for (const auto& [node, round] : ro.base.deaths) dead |= node == v;
    EXPECT_TRUE(dead) << "live node " << v << " left uncovered";
    ++uncoveredDead;
  }
  EXPECT_GE(uncoveredDead, 4u);
  EXPECT_EQ(active.residualUncovered, uncoveredDead);
  EXPECT_LT(active.repairRoundsUsed, ro.maxRepairRounds);

  for (const auto& [s, threads] :
       {std::pair{SimScheduling::kFullScan, 0},
        std::pair{SimScheduling::kActiveSet, 2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto other = run(s, threads);
    EXPECT_EQ(other.delivered, active.delivered);
    EXPECT_EQ(other.repairRoundsUsed, active.repairRoundsUsed);
    EXPECT_EQ(other.nacksSent, active.nacksSent);
    EXPECT_EQ(other.retransmissions, active.retransmissions);
    EXPECT_EQ(other.totalRounds, active.totalRounds);
    EXPECT_EQ(other.deliveryRound, active.deliveryRound);
  }
}

}  // namespace
}  // namespace dsn
