// Differential oracle for the spatially sharded round engine: at every
// worker count, every scheme and every fault regime must produce a run
// bit-identical to the active-set scheduler (which is itself pinned to
// the full-scan reference by scheduling_differential_test.cpp). Identity
// covers traces, per-node delivery rounds, and per-node energy — the
// tile merge at the round barrier is order-exact, not just
// count-preserving (DESIGN.md §14).
//
// Every test zeroes shardSerialThreshold so even these small fixtures
// exercise the parallel tile path instead of the serial fallback.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "broadcast/convergecast.hpp"
#include "broadcast/flooding_baseline.hpp"
#include "broadcast/inflight.hpp"
#include "broadcast/reliable.hpp"
#include "broadcast/runner.hpp"
#include "core/sensor_network.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

ProtocolOptions withThreads(ProtocolOptions opts, int threads) {
  opts.threads = threads;
  opts.shardSerialThreshold = 0;  // force the parallel path
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

TEST(ShardedDifferentialTest, CleanBroadcastsAllSchemesAllThreadCounts) {
  const SensorNetwork net(paperNetwork(140, 0xD1FF01));
  ProtocolOptions opts;
  opts.traceCapacity = 1 << 16;
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff,
        BroadcastScheme::kDfo}) {
    const NodeId source = net.clusterNet().root();
    const auto reference = net.broadcast(scheme, source, 7, opts);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::string(toString(scheme)) + " threads=" +
                   std::to_string(threads));
      const auto sharded =
          net.broadcast(scheme, source, 7, withThreads(opts, threads));
      expectSameRun(sharded, reference);
    }
  }
}

TEST(ShardedDifferentialTest, MultiChannelCff) {
  const SensorNetwork net(paperNetwork(160, 0xD1FF02));
  ProtocolOptions opts;
  opts.channels = 3;
  opts.traceCapacity = 1 << 16;
  const NodeId source = net.clusterNet().root();
  const auto reference = net.broadcast(BroadcastScheme::kCff, source, 9, opts);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto sharded = net.broadcast(BroadcastScheme::kCff, source, 9,
                                       withThreads(opts, threads));
    expectSameRun(sharded, reference);
  }
}

TEST(ShardedDifferentialTest, DropsAndScheduledDeaths) {
  const SensorNetwork net(paperNetwork(150, 0xD1FF03));
  ProtocolOptions opts;
  opts.dropProbability = 0.15;
  opts.deaths = {{5, 2}, {17, 0}, {33, 6}, {60, 10}};
  opts.traceCapacity = 1 << 16;
  const NodeId source = net.clusterNet().root();
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    const auto reference = net.broadcast(scheme, source, 11, opts);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::string(toString(scheme)) + " threads=" +
                   std::to_string(threads));
      const auto sharded =
          net.broadcast(scheme, source, 11, withThreads(opts, threads));
      expectSameRun(sharded, reference);
    }
  }
}

TEST(ShardedDifferentialTest, BurstLossAndJamZones) {
  const SensorNetwork net(paperNetwork(130, 0xD1FF04));
  ProtocolOptions opts;
  opts.burst.pEnterBurst = 0.1;
  opts.burst.pExitBurst = 0.3;
  opts.burst.dropBurst = 0.9;
  opts.jamZones.push_back(
      {Point2D{300.0, 300.0}, 180.0, /*from=*/2, /*until=*/25});
  opts.traceCapacity = 1 << 16;
  const NodeId source = net.clusterNet().root();
  const auto reference =
      net.broadcast(BroadcastScheme::kImprovedCff, source, 13, opts);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto sharded = net.broadcast(BroadcastScheme::kImprovedCff, source,
                                       13, withThreads(opts, threads));
    expectSameRun(sharded, reference);
  }
}

TEST(ShardedDifferentialTest, FloodingBaselineWithDrops) {
  // runFloodingBroadcast takes the graph directly, so no position vector
  // is auto-filled: the partition falls back to blocked id ranges, which
  // the merge must handle identically.
  const SensorNetwork net(paperNetwork(120, 0xD1FF05));
  FloodingConfig fc;
  ProtocolOptions opts;
  opts.dropProbability = 0.1;
  opts.traceCapacity = 1 << 16;
  const NodeId source = net.clusterNet().root();
  const auto reference =
      runFloodingBroadcast(net.graph(), source, 17, fc, opts);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto sharded = runFloodingBroadcast(net.graph(), source, 17, fc,
                                              withThreads(opts, threads));
    expectSameRun(sharded, reference);
  }
}

TEST(ShardedDifferentialTest, ReliableBroadcastRepairRounds) {
  const SensorNetwork net(paperNetwork(140, 0xD1FF06));
  ReliableOptions opts;
  opts.base.dropProbability = 0.25;  // force the NACK/repair machinery
  const NodeId source = net.clusterNet().root();
  const auto reference =
      net.reliableBroadcast(BroadcastScheme::kCff, source, 19, opts);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReliableOptions o = opts;
    o.base = withThreads(o.base, threads);
    const auto sharded =
        net.reliableBroadcast(BroadcastScheme::kCff, source, 19, o);
    EXPECT_EQ(sharded.intended, reference.intended);
    EXPECT_EQ(sharded.delivered, reference.delivered);
    EXPECT_EQ(sharded.repairRoundsUsed, reference.repairRoundsUsed);
    EXPECT_EQ(sharded.nacksSent, reference.nacksSent);
    expectSameRun(sharded.wave, reference.wave);
  }
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
  EXPECT_EQ(a.maxAwakeRounds, b.maxAwakeRounds);
  EXPECT_DOUBLE_EQ(a.meanAwakeRounds, b.meanAwakeRounds);
  expectSameTrace(a.trace, b.trace);
}

TEST(ShardedDifferentialTest, GatherCleanAndUnderFaults) {
  const SensorNetwork net(paperNetwork(150, 0xD1FF08));
  std::vector<std::uint64_t> values(net.graph().size());
  std::iota(values.begin(), values.end(), std::uint64_t{1});
  ProtocolOptions clean;
  clean.traceCapacity = 1 << 16;
  ProtocolOptions faulty = clean;
  faulty.dropProbability = 0.15;
  faulty.deaths = {{5, 2}, {17, 0}, {33, 6}, {60, 10}, {90, 25}};
  for (const ProtocolOptions& opts : {clean, faulty}) {
    const auto reference = runConvergecast(net.clusterNet(), values, opts);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("drop=" + std::to_string(opts.dropProbability) +
                   " threads=" + std::to_string(threads));
      const auto sharded = runConvergecast(net.clusterNet(), values,
                                           withThreads(opts, threads));
      expectSameGather(sharded, reference);
    }
  }
}

TEST(ShardedDifferentialTest, ExplicitTileKnobsDoNotChangeResults) {
  // Correctness must never depend on the partition geometry: coarse,
  // fine, and degenerate single-tile partitions all merge to the same
  // story.
  const SensorNetwork net(paperNetwork(150, 0xD1FF07));
  ProtocolOptions opts;
  opts.traceCapacity = 1 << 16;
  const NodeId source = net.clusterNet().root();
  const auto reference = net.broadcast(BroadcastScheme::kCff, source, 23, opts);
  for (const std::uint32_t tiles : {1u, 4u, 97u}) {
    SCOPED_TRACE("tileTarget=" + std::to_string(tiles));
    ProtocolOptions o = withThreads(opts, 4);
    o.tileTarget = tiles;
    const auto sharded = net.broadcast(BroadcastScheme::kCff, source, 23, o);
    expectSameRun(sharded, reference);
  }
}

// ---- interleaved move/broadcast programs ----
//
// The sharded engine must stay order-exact through the reconfiguration
// seam too: a wave paused mid-flight while nodes move (and the position
// partition is refreshed under it) replays bit-identically at every
// worker count. Each run rebuilds the network from the same seed and
// replays the same mutation script, so only the scheduler varies.

struct InterleavedOutcome {
  std::size_t rounds = 0;
  std::size_t transmissions = 0;
  std::size_t deliveries = 0;
  std::size_t collisions = 0;
  std::size_t delivered = 0;
  std::vector<std::uint8_t> payloadByNode;
};

InterleavedOutcome runInterleavedMoves(BroadcastScheme scheme, int threads,
                                       std::uint64_t seed) {
  SensorNetwork net(paperNetwork(130, seed));
  ProtocolOptions opts;
  opts.threads = threads;
  opts.shardSerialThreshold = 0;
  if (threads > 0) {
    opts.nodePositions.resize(net.graph().size());
    for (NodeId v = 0; v < net.graph().size(); ++v)
      if (net.index().contains(v)) opts.nodePositions[v] = net.index().position(v);
    opts.tileMinEdge = net.range();
  }

  const NodeId source = net.clusterNet().root();
  InFlightBroadcast wave(net.clusterNet(), scheme, source, 0x5E6, opts);

  // Three segments; between them a deterministic drift of a few nodes —
  // enough to migrate ids across tile boundaries mid-wave.
  Rng rng(seed ^ 0xD1FF);
  for (int segment = 0; segment < 3; ++segment) {
    wave.advanceTo(wave.cursor() + 4);
    if (wave.finished()) break;
    for (int k = 0; k < 4; ++k) {
      const NodeId v = net.randomNode(rng);
      if (v == source) continue;
      const Point2D p = net.position(v);
      net.moveSensor(v, {p.x + rng.uniformReal(-60.0, 60.0),
                         p.y + rng.uniformReal(-60.0, 60.0)});
      wave.noteDisplaced(v);
    }
    wave.refreshPositions(net.index());
    wave.onTopologyChanged();
  }
  wave.runToCompletion();

  const InFlightReport r = wave.finish();
  InterleavedOutcome out;
  out.rounds = static_cast<std::size_t>(r.sim.rounds);
  out.transmissions = r.sim.totalTransmissions;
  out.deliveries = r.sim.totalDeliveries;
  out.collisions = r.sim.totalCollisions;
  out.delivered = r.delivered;
  out.payloadByNode.reserve(wave.intended().size());
  for (NodeId v : wave.intended())
    out.payloadByNode.push_back(wave.deliveredTo(v) ? 1 : 0);
  return out;
}

TEST(ShardedDifferentialTest, InterleavedMoveBroadcastPrograms) {
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kCff, BroadcastScheme::kImprovedCff}) {
    for (const std::uint64_t seed : {0xD1FF10ull, 0xD1FF11ull}) {
      const auto reference = runInterleavedMoves(scheme, /*threads=*/0, seed);
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE(std::string(toString(scheme)) + " seed=" +
                     std::to_string(seed) + " threads=" +
                     std::to_string(threads));
        const auto sharded = runInterleavedMoves(scheme, threads, seed);
        EXPECT_EQ(sharded.rounds, reference.rounds);
        EXPECT_EQ(sharded.transmissions, reference.transmissions);
        EXPECT_EQ(sharded.deliveries, reference.deliveries);
        EXPECT_EQ(sharded.collisions, reference.collisions);
        EXPECT_EQ(sharded.delivered, reference.delivered);
        EXPECT_EQ(sharded.payloadByNode, reference.payloadByNode);
      }
    }
  }
}

}  // namespace
}  // namespace dsn
