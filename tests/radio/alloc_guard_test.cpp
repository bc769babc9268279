// Steady-state allocation guard for the transmitter-driven resolver.
//
// The active-set simulator promises zero heap allocations per round once
// its scratch buffers are warm (DESIGN.md §12); this binary overrides the
// global allocator with a counting shim and fails if any resolveRound
// call after warm-up allocates. A second armed pass reruns 1000 rounds
// with the flight recorder enabled on a deliberately undersized ring —
// record() must stay allocation-free even while wrapping (DESIGN.md §13).
// A third pass covers the sharded round engine (DESIGN.md §14): its
// per-tile buffers reach a high-water capacity and are then reused, so a
// 4x longer run must cost exactly as many allocations as a short one —
// the per-round marginal cost is zero. A fourth pass runs warm DFO and
// gather waves on the active-set engine — DFO keeps every node listening
// every round (the next-round wake lane), gather mixes the lane with
// multi-round heap wakes — and requires that, once the engine is seeded,
// not one round allocates: both wake lanes are reserved in seed(). A
// fifth pass drives the cluster maintenance path (withdraw + moveIn of
// leaves and inner nodes, slot compaction) on a warm net and requires
// zero allocations per cycle once a cycle reproduces the tree it started
// from (DESIGN.md §4). A plain executable (not gtest) so the override
// sees only our own code paths.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "broadcast/convergecast.hpp"
#include "broadcast/dfo.hpp"
#include "core/sensor_network.hpp"
#include "graph/deploy.hpp"
#include "graph/unit_disk.hpp"
#include "obs/flight.hpp"
#include "radio/channel.hpp"
#include "radio/simulator.hpp"
#include "util/rng.hpp"

namespace {

// The sharded pass runs worker threads, so the counter is atomic.
std::atomic<std::size_t> g_allocs{0};
bool g_armed = false;

}  // namespace

// GCC pairs the inlined `new` inside make_unique with the std::free in
// our replacement delete and flags a mismatch; with BOTH operators
// replaced malloc/free is the correct pairing, so the warning is a
// false positive here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_armed) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dsn {
namespace {

/// Minimal SoA protocol for the sharded pass: every node beacons once
/// per 16-round period (staggered by id) and listens otherwise, so each
/// round carries the same mix of transmissions, deliveries, and
/// collisions forever. Never done — the run always exhausts maxRounds,
/// which lets two runs differ only in round count.
class BeaconSwarm final : public SwarmProtocol {
 public:
  BeaconSwarm(std::size_t nodes, Channel channels)
      : channels_(channels), heard_(nodes, 0) {}

  Action onRound(NodeId v, Round r) override {
    if ((static_cast<Round>(v) + r) % 16 == 0) {
      Message m;
      m.sender = v;
      return Action::transmit(m, static_cast<Channel>(v % channels_));
    }
    return Action::listen(v % 2 == 0 ? kAllChannels
                                     : static_cast<Channel>(v % channels_));
  }
  // Distinct nodes only, so the plain per-node counters are race-free
  // even when tiles run on separate workers.
  void onReceive(NodeId v, const Message&, Round, Channel) override {
    ++heard_[v];
  }
  bool isDone(NodeId) const override { return false; }

 private:
  Channel channels_;
  std::vector<std::uint32_t> heard_;
};

bool sameOutcome(const ChannelOutcome& a, const ChannelOutcome& b) {
  if (a.deliveries.size() != b.deliveries.size()) return false;
  if (a.collisionSites.size() != b.collisionSites.size()) return false;
  if (a.transmissions != b.transmissions) return false;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    if (a.deliveries[i].receiver != b.deliveries[i].receiver ||
        a.deliveries[i].transmitter != b.deliveries[i].transmitter ||
        a.deliveries[i].channel != b.deliveries[i].channel)
      return false;
  }
  for (std::size_t i = 0; i < a.collisionSites.size(); ++i) {
    if (a.collisionSites[i].listener != b.collisionSites[i].listener ||
        a.collisionSites[i].channel != b.collisionSites[i].channel)
      return false;
  }
  return true;
}

/// Installs a DFO wave from the root over `net`.
void installDfo(RadioSimulator& sim, const ClusterNet& net) {
  for (const NodeId v : net.netNodes()) {
    if (net.isBackbone(v)) {
      std::vector<NodeId> bt;
      if (v != net.root()) bt.push_back(net.parent(v));
      for (const NodeId c : net.children(v))
        if (net.isBackbone(c)) bt.push_back(c);
      sim.setProtocol(v, std::make_unique<DfoBackboneProtocol>(
                             v, std::move(bt), v == net.root(), 1));
    } else {
      sim.setProtocol(
          v, std::make_unique<DfoMemberProtocol>(v, net.parent(v), false, 1));
    }
  }
}

/// Installs a gather wave over `net` (every node reports its id).
void installGather(RadioSimulator& sim, const ClusterNet& net) {
  int maxDepth = 0;
  for (const NodeId v : net.netNodes())
    maxDepth = std::max(maxDepth, static_cast<int>(net.depth(v)));
  for (const NodeId v : net.netNodes()) {
    GatherNodeConfig nc;
    nc.self = v;
    nc.parent = v == net.root() ? kInvalidNode : net.parent(v);
    nc.depth = net.depth(v);
    nc.children = net.children(v);
    nc.upSlot = v == net.root() ? kNoSlot : net.upSlot(v);
    nc.window = net.rootMaxUpSlot();
    nc.maxDepth = maxDepth;
    nc.value = v;
    sim.setProtocol(v, std::make_unique<GatherNodeProtocol>(nc));
  }
}

/// Incremental Section-4/5 maintenance on a warm net: withdraw(v) +
/// moveIn(v) cycles over leaves and inner nodes (each withdrawal
/// re-inserts v's subtree and repairs the boundary), then compactSlots()
/// — a repairReceiver sweep over every node with all slots wiped. The
/// first cycles re-shape the tree (a re-inserted subtree attaches by the
/// move-in rules, not in construction order), and a bigger subtree or
/// child list may grow a buffer to a new high-water mark. Once a cycle
/// reproduces the tree it started from, every later cycle repeats the
/// same work and must allocate nothing. Returns false (after printing
/// why) otherwise.
bool warmMaintenanceAllocatesNothing() {
  Rng rng(0xC1C1E);
  const auto points = deployIncrementalAttach(
      {Field::squareUnits(6), 50.0, 300}, rng);
  Graph g = buildUnitDiskGraph(points, 50.0);
  ClusterNet net(g);
  std::vector<NodeId> order(g.size());
  for (NodeId v = 0; v < g.size(); ++v) order[v] = v;
  net.buildAll(order);

  // A dozen leaves and a dozen inner (non-root, with children) nodes.
  std::vector<NodeId> picks;
  std::size_t leaves = 0;
  std::size_t inner = 0;
  for (NodeId v : net.netNodes()) {
    if (v == net.root()) continue;
    if (net.children(v).empty() ? leaves++ < 12 : inner++ < 12)
      picks.push_back(v);
  }
  std::size_t reinserted = 0;
  auto cycle = [&] {
    for (NodeId v : picks) {
      reinserted += net.withdraw(v).subtreeSize;
      net.moveIn(v);
    }
    net.compactSlots();
  };
  auto parents = [&] {
    std::vector<NodeId> p;
    for (NodeId v : net.netNodes()) p.push_back(net.parent(v));
    return p;
  };
  int warmCycles = 0;
  for (std::vector<NodeId> start; warmCycles < 8; ++warmCycles) {
    start = parents();
    cycle();
    if (parents() == start) break;
  }
  const std::vector<NodeId> fixedPoint = parents();
  const std::size_t before = g_allocs.load(std::memory_order_relaxed);
  g_armed = true;
  for (int i = 0; i < 3; ++i) cycle();
  g_armed = false;
  const std::size_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  if (inner < 12 || leaves < 12 || reinserted == 0 ||
      parents() != fixedPoint || warmCycles == 8) {
    std::fprintf(stderr, "FAIL: maintenance cycles withdrew no inner "
                         "subtrees or never reached a fixed tree — not a "
                         "meaningful guard\n");
    return false;
  }
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: warm withdraw/moveIn/compactSlots cycles "
                 "allocated %zu times (expected 0)\n",
                 allocs);
    return false;
  }
  std::printf("ok: warm maintenance, %d warm-up cycles, then 3 cycles of "
              "%zu withdraw/moveIn + compactSlots with 0 allocations "
              "(%zu subtree nodes re-inserted in all)\n",
              warmCycles + 1, picks.size(), reinserted);
  return true;
}

/// Runs one wave to completion twice on a shared resolve scratch: the
/// first run warms the scratch's outcome buffers, the second is seeded
/// (runUntil(0) builds the engine) and then armed for its whole round
/// loop. Returns false (after printing why) unless the armed loop ran a
/// real wave with zero allocations.
template <typename Install>
bool warmWaveAllocatesNothing(const char* name, const Graph& g,
                              Round maxRounds, Install install) {
  ResolveScratch scratch;
  SimConfig cfg;
  cfg.maxRounds = maxRounds;
  cfg.resolveScratch = &scratch;
  {
    RadioSimulator warm(g, cfg);
    install(warm);
    warm.run();
  }
  RadioSimulator sim(g, cfg);
  install(sim);
  sim.runUntil(0);
  const std::size_t before = g_allocs.load(std::memory_order_relaxed);
  g_armed = true;
  const SimResult res = sim.runUntil(maxRounds);
  g_armed = false;
  const std::size_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  if (!res.completed || res.totalDeliveries == 0) {
    std::fprintf(stderr, "FAIL: warm %s wave did not complete with "
                         "deliveries — not a meaningful guard\n", name);
    return false;
  }
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: warm %s wave allocated %zu times across %lld "
                 "rounds (expected 0)\n",
                 name, allocs, static_cast<long long>(res.rounds));
    return false;
  }
  std::printf("ok: warm %s wave, %lld rounds, %zu deliveries, 0 "
              "allocations\n",
              name, static_cast<long long>(res.rounds),
              res.totalDeliveries);
  return true;
}

int run() {
  constexpr Channel kChannels = 2;
  Rng rng(0xA110C);
  const auto points = deployIncrementalAttach(
      {Field::squareUnits(10), 50.0, 400}, rng);
  const Graph g = buildUnitDiskGraph(points, 50.0);

  // A dense mid-flood round: every 10th node transmits (alternating
  // channels), everyone else listens — half wide-band, half tuned.
  std::vector<Action> actions(g.size(), Action::sleep());
  std::vector<NodeId> transmitters;
  for (NodeId v = 0; v < g.size(); ++v) {
    if (v % 10 == 0) {
      Message m;
      m.sender = v;
      actions[v] = Action::transmit(m, static_cast<Channel>(v / 10 % 2));
      transmitters.push_back(v);
    } else {
      actions[v] = Action::listen(
          v % 2 == 0 ? kAllChannels : static_cast<Channel>(v % kChannels));
    }
  }

  const CsrView& csr = g.csrView();
  ResolveScratch scratch;
  scratch.prepare(g.size(), kChannels);

  // The transmitter-driven resolver must agree with the full scan.
  const ChannelOutcome fullScan = resolveRound(g, actions, kChannels);
  const ChannelOutcome& warm =
      resolveRoundActive(csr, actions, transmitters, kChannels, scratch);
  if (!sameOutcome(fullScan, warm)) {
    std::fprintf(stderr,
                 "FAIL: transmitter-driven outcome differs from full scan\n");
    return 1;
  }
  if (warm.deliveries.empty() || warm.collisionSites.empty()) {
    std::fprintf(stderr, "FAIL: scenario exercises no deliveries or "
                         "collisions — not a meaningful guard\n");
    return 1;
  }

  // Steady state: with warm scratch and outcome capacity, a round costs
  // zero allocations.
  g_armed = true;
  for (int i = 0; i < 1000; ++i)
    resolveRoundActive(csr, actions, transmitters, kChannels, scratch);
  g_armed = false;

  if (g_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu heap allocations across 1000 steady-state "
                 "rounds (expected 0)\n",
                 g_allocs.load(std::memory_order_relaxed));
    return 1;
  }

  // Same guarantee with the flight recorder enabled: record() must stay
  // an indexed store even while the ring wraps. The ring is sized well
  // below 1000 rounds' worth of events so the overflow path is the one
  // being measured.
  obs::FlightRecorder recorder;
  obs::FrConfig traceConfig;
  traceConfig.capacity = 4096;
  recorder.configure(traceConfig);
  {
    obs::ScopedRecorderSink sink(recorder);
    g_armed = true;
    for (int round = 0; round < 1000; ++round) {
      const ChannelOutcome& out =
          resolveRoundActive(csr, actions, transmitters, kChannels, scratch);
      // Mirror the simulator's per-round instrumentation.
      obs::FlightRecorder* frRadio = obs::recorderFor<obs::kFrCatRadio>();
      obs::FlightRecorder* frColl = obs::recorderFor<obs::kFrCatCollision>();
      if (frRadio) {
        for (const NodeId tx : transmitters) {
          obs::FrEvent e;
          e.round = static_cast<std::uint32_t>(round);
          e.node = tx;
          e.type = static_cast<std::uint8_t>(obs::FrType::kTransmit);
          frRadio->record(e);
        }
        for (const Delivery& d : out.deliveries) {
          obs::FrEvent e;
          e.round = static_cast<std::uint32_t>(round);
          e.node = d.receiver;
          e.data = d.transmitter;
          e.channel = static_cast<std::uint8_t>(d.channel);
          e.type = static_cast<std::uint8_t>(obs::FrType::kDelivery);
          frRadio->record(e);
        }
      }
      if (frColl) {
        for (const CollisionSite& c : out.collisionSites) {
          obs::FrEvent e;
          e.round = static_cast<std::uint32_t>(round);
          e.node = c.listener;
          e.channel = static_cast<std::uint8_t>(c.channel);
          e.type = static_cast<std::uint8_t>(obs::FrType::kCollision);
          frColl->record(e);
        }
      }
    }
    g_armed = false;
  }

  if (g_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu heap allocations across 1000 recorded rounds "
                 "(expected 0)\n",
                 g_allocs.load(std::memory_order_relaxed));
    return 1;
  }
  if (recorder.droppedEvents() == 0) {
    std::fprintf(stderr,
                 "FAIL: ring never wrapped (%zu stored) — the recorded "
                 "guard is not exercising overflow\n",
                 recorder.storedEvents());
    return 1;
  }
  // Sharded engine: per-tile buffers reach a high-water capacity during
  // the first beacon period and are then reused, so extending a run by
  // 300 rounds must not add a single allocation. Two fresh engines with
  // identical setup, differing only in maxRounds, are compared on total
  // allocation count — any per-round marginal cost shows up as growth.
  auto shardedRun = [&](Round maxRounds, std::size_t* allocsOut) {
    SimConfig cfg;
    cfg.channelCount = kChannels;
    cfg.maxRounds = maxRounds;
    cfg.scheduling = SimScheduling::kSharded;
    cfg.threads = 2;
    cfg.shardSerialThreshold = 0;  // force the parallel tile path
    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    g_armed = true;
    SimResult res;
    {
      RadioSimulator sim(g, cfg);
      std::vector<NodeId> members(g.size());
      for (NodeId v = 0; v < g.size(); ++v) members[v] = v;
      sim.setSwarm(std::make_unique<BeaconSwarm>(g.size(), kChannels),
                   members);
      res = sim.run();
    }
    g_armed = false;
    *allocsOut = g_allocs.load(std::memory_order_relaxed) - before;
    return res;
  };

  std::size_t allocsShort = 0;
  std::size_t allocsLong = 0;
  const SimResult shortRun = shardedRun(100, &allocsShort);
  const SimResult longRun = shardedRun(400, &allocsLong);

  if (shortRun.totalDeliveries == 0 || shortRun.totalCollisions == 0) {
    std::fprintf(stderr, "FAIL: sharded scenario exercises no deliveries "
                         "or collisions — not a meaningful guard\n");
    return 1;
  }
  if (longRun.rounds != 400 || shortRun.rounds != 100 ||
      longRun.totalDeliveries <= shortRun.totalDeliveries) {
    std::fprintf(stderr, "FAIL: sharded runs did not exhaust their round "
                         "budgets (%llu / %llu rounds)\n",
                 static_cast<unsigned long long>(shortRun.rounds),
                 static_cast<unsigned long long>(longRun.rounds));
    return 1;
  }
  if (allocsLong > allocsShort) {
    std::fprintf(stderr,
                 "FAIL: sharded engine allocates per round in steady "
                 "state: 100 rounds cost %zu allocations, 400 rounds "
                 "cost %zu (expected no growth)\n",
                 allocsShort, allocsLong);
    return 1;
  }

  // And the numbers the sharded engine produced are the real ones.
  SimConfig refCfg;
  refCfg.channelCount = kChannels;
  refCfg.maxRounds = 400;
  refCfg.scheduling = SimScheduling::kActiveSet;
  RadioSimulator refSim(g, refCfg);
  std::vector<NodeId> everyone(g.size());
  for (NodeId v = 0; v < g.size(); ++v) everyone[v] = v;
  refSim.setSwarm(std::make_unique<BeaconSwarm>(g.size(), kChannels),
                  everyone);
  const SimResult refRun = refSim.run();
  if (refRun.totalTransmissions != longRun.totalTransmissions ||
      refRun.totalDeliveries != longRun.totalDeliveries ||
      refRun.totalCollisions != longRun.totalCollisions ||
      refRun.rounds != longRun.rounds) {
    std::fprintf(stderr, "FAIL: sharded totals diverge from the "
                         "active-set reference\n");
    return 1;
  }

  NetworkConfig netCfg;
  netCfg.nodeCount = 300;
  netCfg.seed = 0xA110D;
  const SensorNetwork net(netCfg);
  const ClusterNet& cnet = net.clusterNet();
  if (!warmWaveAllocatesNothing(
          "DFO", net.graph(),
          static_cast<Round>(4 * cnet.backboneNodes().size() + 16),
          [&](RadioSimulator& sim) { installDfo(sim, cnet); }) ||
      !warmWaveAllocatesNothing(
          "gather", net.graph(), 1 << 16,
          [&](RadioSimulator& sim) { installGather(sim, cnet); }) ||
      !warmMaintenanceAllocatesNothing())
    return 1;

  std::printf("ok: 1000 steady-state rounds, 0 allocations, %zu "
              "deliveries + %zu collision sites per round; recorded "
              "rerun stored %zu events (%llu dropped) with 0 "
              "allocations; sharded 100->400 rounds added 0 of %zu "
              "setup allocations\n",
              warm.deliveries.size(), warm.collisionSites.size(),
              recorder.storedEvents(),
              static_cast<unsigned long long>(recorder.droppedEvents()),
              allocsShort);
  return 0;
}

}  // namespace
}  // namespace dsn

int main() { return dsn::run(); }
