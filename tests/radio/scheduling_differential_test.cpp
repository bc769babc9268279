// Differential oracle for the active-set scheduler: every protocol
// family, with and without failure injection, must produce a run that is
// bit-identical to the full-scan reference — same rounds, same event
// trace, same per-node delivery rounds and energy. This is the contract
// that lets the perf work (DESIGN.md §12) change the simulator's cost
// model without changing its semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "broadcast/convergecast.hpp"
#include "broadcast/dfo.hpp"
#include "broadcast/flooding_baseline.hpp"
#include "broadcast/reliable.hpp"
#include "broadcast/runner.hpp"
#include "core/sensor_network.hpp"

namespace dsn {
namespace {

ProtocolOptions withScheduling(ProtocolOptions opts, SimScheduling s) {
  opts.scheduling = s;
  return opts;
}

void expectSameTrace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_EQ(a.droppedEvents(), b.droppedEvents());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    EXPECT_EQ(x.type, y.type) << "event " << i;
    EXPECT_EQ(x.round, y.round) << "event " << i;
    EXPECT_EQ(x.node, y.node) << "event " << i;
    EXPECT_EQ(x.peer, y.peer) << "event " << i;
    EXPECT_EQ(x.channel, y.channel) << "event " << i;
    EXPECT_EQ(x.msgKind, y.msgKind) << "event " << i;
  }
}

void expectSameRun(const BroadcastRun& a, const BroadcastRun& b) {
  EXPECT_EQ(a.sim.rounds, b.sim.rounds);
  EXPECT_EQ(a.sim.completed, b.sim.completed);
  EXPECT_EQ(a.sim.totalTransmissions, b.sim.totalTransmissions);
  EXPECT_EQ(a.sim.totalDeliveries, b.sim.totalDeliveries);
  EXPECT_EQ(a.sim.totalCollisions, b.sim.totalCollisions);
  EXPECT_EQ(a.sim.droppedTransmissions, b.sim.droppedTransmissions);
  EXPECT_EQ(a.sim.jammedLosses, b.sim.jammedLosses);
  EXPECT_EQ(a.intended, b.intended);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.lastDeliveryRound, b.lastDeliveryRound);
  EXPECT_EQ(a.maxAwakeRounds, b.maxAwakeRounds);
  EXPECT_DOUBLE_EQ(a.meanAwakeRounds, b.meanAwakeRounds);
  EXPECT_EQ(a.deliveryRound, b.deliveryRound);
  EXPECT_EQ(a.listenRounds, b.listenRounds);
  EXPECT_EQ(a.transmitRounds, b.transmitRounds);
  expectSameTrace(a.trace, b.trace);
}

NetworkConfig paperNetwork(std::size_t n, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = seed;
  return cfg;
}

TEST(SchedulingDifferentialTest, CleanBroadcastsAllSchemes) {
  const SensorNetwork net(paperNetwork(140, 0xD1FF01));
  ProtocolOptions opts;
  opts.traceCapacity = 1 << 16;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff,
        BroadcastScheme::kDfo}) {
    const NodeId source = net.clusterNet().root();
    const auto active = net.broadcast(
        scheme, source, 7,
        withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = net.broadcast(
        scheme, source, 7, withScheduling(opts, SimScheduling::kFullScan));
    SCOPED_TRACE(toString(scheme));
    expectSameRun(active, full);
  }
}

TEST(SchedulingDifferentialTest, MultiChannelCff) {
  const SensorNetwork net(paperNetwork(160, 0xD1FF02));
  ProtocolOptions opts;
  opts.channels = 3;
  opts.traceCapacity = 1 << 16;
  const auto active =
      net.broadcast(BroadcastScheme::kCff, net.clusterNet().root(), 9,
                    withScheduling(opts, SimScheduling::kActiveSet));
  const auto full =
      net.broadcast(BroadcastScheme::kCff, net.clusterNet().root(), 9,
                    withScheduling(opts, SimScheduling::kFullScan));
  expectSameRun(active, full);
}

TEST(SchedulingDifferentialTest, DropsAndScheduledDeaths) {
  const SensorNetwork net(paperNetwork(150, 0xD1FF03));
  ProtocolOptions opts;
  opts.dropProbability = 0.15;
  opts.deaths = {{5, 2}, {17, 0}, {33, 6}, {60, 10}};
  opts.traceCapacity = 1 << 16;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    const auto active = net.broadcast(
        scheme, net.clusterNet().root(), 11,
        withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = net.broadcast(
        scheme, net.clusterNet().root(), 11,
        withScheduling(opts, SimScheduling::kFullScan));
    SCOPED_TRACE(toString(scheme));
    expectSameRun(active, full);
  }
}

TEST(SchedulingDifferentialTest, BurstLossAndJamZones) {
  const SensorNetwork net(paperNetwork(130, 0xD1FF04));
  ProtocolOptions opts;
  opts.burst.pEnterBurst = 0.1;
  opts.burst.pExitBurst = 0.3;
  opts.burst.dropBurst = 0.9;
  opts.jamZones.push_back(
      {Point2D{300.0, 300.0}, 180.0, /*from=*/2, /*until=*/25});
  opts.traceCapacity = 1 << 16;
  const auto active =
      net.broadcast(BroadcastScheme::kImprovedCff, net.clusterNet().root(), 13,
                    withScheduling(opts, SimScheduling::kActiveSet));
  const auto full =
      net.broadcast(BroadcastScheme::kImprovedCff, net.clusterNet().root(), 13,
                    withScheduling(opts, SimScheduling::kFullScan));
  expectSameRun(active, full);
}

TEST(SchedulingDifferentialTest, FloodingBaselineWithDrops) {
  const SensorNetwork net(paperNetwork(120, 0xD1FF05));
  FloodingConfig fc;
  ProtocolOptions opts;
  opts.dropProbability = 0.1;
  opts.traceCapacity = 1 << 16;
  const auto active = runFloodingBroadcast(
      net.graph(), net.clusterNet().root(), 17, fc,
      withScheduling(opts, SimScheduling::kActiveSet));
  const auto full = runFloodingBroadcast(
      net.graph(), net.clusterNet().root(), 17, fc,
      withScheduling(opts, SimScheduling::kFullScan));
  expectSameRun(active, full);
}

TEST(SchedulingDifferentialTest, ReliableBroadcastRepairRounds) {
  const SensorNetwork net(paperNetwork(140, 0xD1FF06));
  ReliableOptions opts;
  opts.base.dropProbability = 0.25;  // force the NACK/repair machinery
  const auto run = [&](SimScheduling s) {
    ReliableOptions o = opts;
    o.base.scheduling = s;
    return net.reliableBroadcast(BroadcastScheme::kCff, net.clusterNet().root(), 19, o);
  };
  const auto active = run(SimScheduling::kActiveSet);
  const auto full = run(SimScheduling::kFullScan);
  EXPECT_EQ(active.intended, full.intended);
  EXPECT_EQ(active.delivered, full.delivered);
  EXPECT_EQ(active.repairRoundsUsed, full.repairRoundsUsed);
  EXPECT_EQ(active.nacksSent, full.nacksSent);
  expectSameRun(active.wave, full.wave);
}

void expectSameGather(const GatherResult& a, const GatherResult& b) {
  EXPECT_EQ(a.sim.rounds, b.sim.rounds);
  EXPECT_EQ(a.sim.completed, b.sim.completed);
  EXPECT_EQ(a.sim.totalTransmissions, b.sim.totalTransmissions);
  EXPECT_EQ(a.sim.totalDeliveries, b.sim.totalDeliveries);
  EXPECT_EQ(a.sim.totalCollisions, b.sim.totalCollisions);
  EXPECT_EQ(a.sim.droppedTransmissions, b.sim.droppedTransmissions);
  EXPECT_EQ(a.aggregate, b.aggregate);
  EXPECT_EQ(a.contributors, b.contributors);
  EXPECT_EQ(a.expected, b.expected);
  EXPECT_EQ(a.maxAwakeRounds, b.maxAwakeRounds);
  EXPECT_DOUBLE_EQ(a.meanAwakeRounds, b.meanAwakeRounds);
  expectSameTrace(a.trace, b.trace);
}

std::vector<std::uint64_t> gatherValues(std::size_t n) {
  std::vector<std::uint64_t> values(n);
  std::iota(values.begin(), values.end(), std::uint64_t{1});
  return values;
}

TEST(SchedulingDifferentialTest, GatherCleanAndMultiChannel) {
  const SensorNetwork net(paperNetwork(160, 0xD1FF07));
  const auto values = gatherValues(net.graph().size());
  for (const Channel channels : {Channel{1}, Channel{3}}) {
    ProtocolOptions opts;
    opts.channels = channels;
    opts.traceCapacity = 1 << 16;
    const auto active = runConvergecast(
        net.clusterNet(), values,
        withScheduling(opts, SimScheduling::kActiveSet));
    const auto full = runConvergecast(
        net.clusterNet(), values,
        withScheduling(opts, SimScheduling::kFullScan));
    SCOPED_TRACE("channels=" + std::to_string(channels));
    EXPECT_TRUE(active.complete());
    expectSameGather(active, full);
  }
}

TEST(SchedulingDifferentialTest, GatherDropsAndScheduledDeaths) {
  const SensorNetwork net(paperNetwork(150, 0xD1FF08));
  const auto values = gatherValues(net.graph().size());
  ProtocolOptions opts;
  opts.dropProbability = 0.15;
  // Early and late deaths: some children go silent, so their parents'
  // windows close on the deadline rather than on the last report.
  opts.deaths = {{5, 2}, {17, 0}, {33, 6}, {60, 10}, {90, 25}};
  opts.traceCapacity = 1 << 16;
  const auto active = runConvergecast(
      net.clusterNet(), values,
      withScheduling(opts, SimScheduling::kActiveSet));
  const auto full = runConvergecast(
      net.clusterNet(), values,
      withScheduling(opts, SimScheduling::kFullScan));
  EXPECT_FALSE(active.complete());
  expectSameGather(active, full);
}

// ---- segmented runs ----
//
// A run paused with runUntil at any set of boundaries, with or without a
// mutation-free resyncTopology() at each pause, must be byte-identical to
// one run(): the pause keeps the engine's next-round wake lane, and a
// resync rebuilds both wake lanes from the protocols' nextWake hints.
// DFO and the NACK phase of a repair round keep most nodes waking every
// round, so they lean on the lane hardest.

struct SegmentedOutcome {
  SimResult result;
  Trace trace{0};
  std::vector<std::size_t> listenRounds;
  std::vector<std::size_t> transmitRounds;
  std::vector<std::size_t> framesReceived;
  std::vector<Round> payloadRound;
};

using Installer = std::function<void(RadioSimulator&)>;
using PayloadProbe = std::function<Round(const NodeProtocol&)>;

SegmentedOutcome runSegmented(const Graph& g, const SimConfig& cfg,
                              const Installer& install,
                              const PayloadProbe& probe,
                              const std::vector<Round>& pauses,
                              bool resync) {
  RadioSimulator sim(g, cfg);
  install(sim);
  SegmentedOutcome out;
  for (const Round stop : pauses) {
    if (sim.finished()) break;
    out.result = sim.runUntil(stop);
    if (resync && !sim.finished()) sim.resyncTopology();
  }
  if (!sim.finished()) out.result = sim.runUntil(cfg.maxRounds);
  out.trace = sim.trace();
  for (NodeId v = 0; v < g.size(); ++v) {
    out.listenRounds.push_back(sim.energy().node(v).listenRounds);
    out.transmitRounds.push_back(sim.energy().node(v).transmitRounds);
    out.framesReceived.push_back(sim.energy().node(v).framesReceived);
    const NodeProtocol* p = sim.protocol(v);
    out.payloadRound.push_back(p ? probe(*p) : -2);
  }
  return out;
}

void expectSameSegmented(const SegmentedOutcome& a,
                         const SegmentedOutcome& b) {
  EXPECT_EQ(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.result.completed, b.result.completed);
  EXPECT_EQ(a.result.totalTransmissions, b.result.totalTransmissions);
  EXPECT_EQ(a.result.totalDeliveries, b.result.totalDeliveries);
  EXPECT_EQ(a.result.totalCollisions, b.result.totalCollisions);
  EXPECT_EQ(a.result.droppedTransmissions, b.result.droppedTransmissions);
  EXPECT_EQ(a.listenRounds, b.listenRounds);
  EXPECT_EQ(a.transmitRounds, b.transmitRounds);
  EXPECT_EQ(a.framesReceived, b.framesReceived);
  EXPECT_EQ(a.payloadRound, b.payloadRound);
  expectSameTrace(a.trace, b.trace);
}

/// Compares single runs and several pause patterns, each with and
/// without resync, under both serial schedulers against one active-set
/// run().
void expectSegmentsMatchSingleRun(const Graph& g, SimConfig cfg,
                                  const Installer& install,
                                  const PayloadProbe& probe) {
  cfg.scheduling = SimScheduling::kActiveSet;
  const SegmentedOutcome single =
      runSegmented(g, cfg, install, probe, {}, false);
  ASSERT_GT(single.result.rounds, 8);
  ASSERT_GT(single.result.totalDeliveries, 0u);
  const Round len = single.result.rounds;
  const std::vector<std::vector<Round>> patterns = {
      {0, 1, 2, 3},
      {1, len / 3, len / 2, len - 1},
      {5, 6, 7, 2 * len / 3, len},
  };
  for (const SimScheduling s :
       {SimScheduling::kActiveSet, SimScheduling::kFullScan}) {
    cfg.scheduling = s;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      for (const bool resync : {false, true}) {
        SCOPED_TRACE(std::string(s == SimScheduling::kActiveSet
                                     ? "active"
                                     : "fullscan") +
                     " pattern=" + std::to_string(i) +
                     " resync=" + std::to_string(resync));
        expectSameSegmented(
            runSegmented(g, cfg, install, probe, patterns[i], resync),
            single);
      }
    }
  }
}

TEST(SchedulingDifferentialTest, SegmentedDfoMatchesSingleRun) {
  const SensorNetwork net(paperNetwork(120, 0xD1FF09));
  const ClusterNet& cnet = net.clusterNet();
  // A pure-member source exercises the member hand-off round too.
  NodeId source = cnet.root();
  for (const NodeId v : cnet.netNodes())
    if (cnet.status(v) == NodeStatus::kPureMember) {
      source = v;
      break;
    }
  const NodeId tourStart = source == cnet.root() ? source : cnet.parent(source);
  const Installer install = [&](RadioSimulator& sim) {
    for (const NodeId v : cnet.netNodes()) {
      if (cnet.isBackbone(v)) {
        std::vector<NodeId> bt;
        if (v != cnet.root()) bt.push_back(cnet.parent(v));
        for (const NodeId c : cnet.children(v))
          if (cnet.isBackbone(c)) bt.push_back(c);
        sim.setProtocol(v, std::make_unique<DfoBackboneProtocol>(
                               v, std::move(bt),
                               v == tourStart && source == tourStart, 5));
      } else {
        sim.setProtocol(v, std::make_unique<DfoMemberProtocol>(
                               v, cnet.parent(v), v == source, 5));
      }
    }
    sim.failures().killAt(cnet.netNodes().back(), 9);  // a death mid-tour
  };
  const PayloadProbe probe = [](const NodeProtocol& p) {
    return dynamic_cast<const BroadcastEndpoint&>(p).payloadRound();
  };
  SimConfig cfg;
  cfg.traceCapacity = 1 << 16;
  cfg.maxRounds = static_cast<Round>(4 * cnet.backboneNodes().size() + 16);
  expectSegmentsMatchSingleRun(net.graph(), cfg, install, probe);
}

TEST(SchedulingDifferentialTest, SegmentedReliableRepairMatchesSingleRun) {
  const SensorNetwork net(paperNetwork(140, 0xD1FF0A));
  const ClusterNet& cnet = net.clusterNet();
  // A lossy CFF wave leaves the holes the repair round works on.
  ProtocolOptions lossy;
  lossy.dropProbability = 0.3;
  const BroadcastRun wave =
      net.broadcast(BroadcastScheme::kCff, cnet.root(), 21, lossy);
  ASSERT_LT(wave.delivered, wave.intended);

  ReliableRepairProtocol::Config proto;
  proto.window = std::max<TimeSlot>(1, cnet.rootMaxUpSlot());
  Depth maxDepth = 0;
  for (const NodeId v : cnet.netNodes())
    maxDepth = std::max(maxDepth, cnet.depth(v));
  proto.subWindows = static_cast<int>(maxDepth) + 1;
  proto.payload = 21;

  const Installer install = [&](RadioSimulator& sim) {
    for (const NodeId v : cnet.netNodes()) {
      ReliableRepairProtocol::Config nc = proto;
      nc.self = v;
      nc.depth = cnet.depth(v);
      nc.slot = cnet.upSlot(v) == kNoSlot ? 1 : cnet.upSlot(v);
      nc.covered = wave.deliveryRound[v] >= 0;
      sim.setProtocol(v, std::make_unique<ReliableRepairProtocol>(nc));
    }
    sim.failures() = FailureModel(0xD1FF0B);
    sim.failures().setDropProbability(0.1);
  };
  const PayloadProbe probe = [](const NodeProtocol& p) {
    const auto& r = dynamic_cast<const ReliableRepairProtocol&>(p);
    return r.hasPayload() ? r.payloadRound() : Round{-1};
  };
  SimConfig cfg;
  cfg.traceCapacity = 1 << 16;
  cfg.maxRounds = ReliableRepairProtocol(proto).scheduleLength();
  expectSegmentsMatchSingleRun(net.graph(), cfg, install, probe);
}

}  // namespace
}  // namespace dsn
