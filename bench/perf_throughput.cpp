// Perf — macro simulator throughput: rounds/sec and deliveries/sec of a
// CFF (Algorithm 1) broadcast under the active-set scheduler vs the
// full-scan reference, at n = 500 / 2000 / 5000. Next to the CFF cell,
// each row carries the active-set rate and the active/full-scan ratio of
// the schemes that keep most nodes awake most rounds: the DFO token
// tour, a gather wave, and reliable iCFF (5% drops, so NACK repair
// rounds run). Their ratios show what the wake schedule saves per
// scheme; the CFF columns stay the CI gate's calibrated reference.
// Two host-cost cells cover the structure layers: construction (ns per
// moveIn while cnet.build inserts all n nodes into a fresh ClusterNet)
// and churn repair (ChurnEngine ticks/s over 250 ticks = 2000 rounds at
// wsn_campaign's defaults: churn 0.3, adaptive repair, random waypoint
// at speed 20 every 32 rounds, validator on). The churn cell runs at
// n = 500 only (the churn_waves size; 0 in the other rows), since a tick
// at n = 5000 costs ~35x more. They only report numbers; no gate reads
// them.
//
// Both schedulers produce bit-identical runs (the differential suite in
// tests/radio enforces it), so the full-scan column doubles as an
// in-process calibration reference: CI compares the measured
// active/full-scan ratio against the committed baseline in
// bench/baselines/BENCH_perf.json, which cancels out host speed.
//
// Field area scales with n (the paper's max density, 5 nodes per unit
// square) so the 2000- and 5000-node points stress round count and node
// count rather than degenerate into a dense clique.
//
// --trace-overhead switches the binary into a separate mode that
// measures flight-recorder cost at n = 2000 (recorder off vs sampled vs
// every-round) and emits results/BENCH_perf_trace.json. It never touches
// the "perf" record, so the CI perf gate's column contract is unchanged.
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>

#include "bench/bench_common.hpp"
#include "broadcast/convergecast.hpp"
#include "broadcast/reliable.hpp"
#include "broadcast/runner.hpp"
#include "mobility/churn.hpp"
#include "mobility/model.hpp"
#include "obs/flight.hpp"

namespace {

struct Throughput {
  double roundsPerSec = 0.0;
  double deliveriesPerSec = 0.0;
};

/// Simulated rounds and deliveries of one timed operation.
struct OpCount {
  double rounds = 0.0;
  double deliveries = 0.0;
};

/// Times `op` (one call = one run, returning its OpCount) after one
/// warm-up call.
template <typename Op>
Throughput measureOp(const Op& op, int minReps, double minSeconds = 0.15) {
  op();  // warm-up

  // Time-targeted: a single small-n broadcast runs in microseconds, so a
  // fixed rep count yields cache/frequency noise that would destabilize
  // the CI gate's calibrated ratio. Repeat until the cell has measured a
  // meaningful wall-clock span (bounded, in case a run is pathologically
  // slow already).
  double rounds = 0.0;
  double deliveries = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  double secs = 0.0;
  for (int done = 0;;) {
    const OpCount c = op();
    rounds += c.rounds;
    deliveries += c.deliveries;
    ++done;
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count();
    if (done >= minReps && (secs >= minSeconds || done >= minReps * 200))
      break;
  }
  return {rounds / secs, deliveries / secs};
}

Throughput measure(const dsn::SensorNetwork& net, dsn::NodeId source,
                   const dsn::ProtocolOptions& opts, int minReps,
                   double minSeconds = 0.15) {
  return measureOp(
      [&] {
        const auto run =
            net.broadcast(dsn::BroadcastScheme::kCff, source, 1, opts);
        return OpCount{static_cast<double>(run.sim.rounds),
                       static_cast<double>(run.delivered)};
      },
      minReps, minSeconds);
}

Throughput measure(const dsn::SensorNetwork& net, dsn::NodeId source,
                   dsn::SimScheduling scheduling, int minReps) {
  dsn::ProtocolOptions opts;
  opts.scheduling = scheduling;
  return measure(net, source, opts, minReps);
}

/// Active-set rate and active/full-scan ratio of one scheme cell. These
/// runs are 10-1000x longer than a CFF wave, so one rep is the minimum.
std::pair<double, double> schemeCell(
    const std::function<OpCount(dsn::SimScheduling)>& op) {
  const Throughput active =
      measureOp([&] { return op(dsn::SimScheduling::kActiveSet); }, 1);
  const Throughput full =
      measureOp([&] { return op(dsn::SimScheduling::kFullScan); }, 1);
  return {active.roundsPerSec, active.roundsPerSec / full.roundsPerSec};
}

/// ns per moveIn of a whole bulk construction (cnet.build) over `g`.
double constructionNsPerMoveIn(const dsn::Graph& g) {
  dsn::Graph graph = g;  // a ClusterNet borrows its graph mutably
  const std::vector<dsn::NodeId> order = graph.liveNodes();
  const Throughput t = measureOp(
      [&] {
        dsn::ClusterNet net(graph);
        net.buildAll(order);
        return OpCount{static_cast<double>(order.size()), 0.0};
      },
      1);
  return 1e9 / t.roundsPerSec;
}

/// Churn ticks per second on a fresh deployment built from `nc`, at
/// wsn_campaign's default churn, motion and repair settings.
double churnTicksPerSec(const dsn::NetworkConfig& nc) {
  using namespace dsn::mobility;
  constexpr double kChurn = 0.3;
  constexpr int kTicks = 250;
  constexpr dsn::Round kChurnPeriod = 8;
  dsn::SensorNetwork net(nc);
  WaypointConfig wc;
  wc.field = nc.field;
  wc.speed = 20.0;
  wc.period = 32;
  wc.seed = nc.seed ^ 0x30B11E;
  RandomWaypointModel model(wc);
  for (dsn::NodeId v : net.clusterNet().netNodes())
    model.track(v, net.position(v));
  ChurnConfig cc;
  cc.crashRate = 0.4 * kChurn;
  cc.joinRate = 0.5 * kChurn;
  cc.leaveRate = 0.1 * kChurn;
  cc.policy = RepairPolicy::kAdaptive;
  cc.field = nc.field;
  cc.seed = nc.seed ^ 0xC0FFEE;
  ChurnEngine engine(net, &model, cc);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTicks; ++i) engine.tick(i * kChurnPeriod);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return kTicks / secs;
}

}  // namespace

namespace {

// The --trace-overhead mode: one 2000-node CFF cell timed with the
// flight recorder off, sampled (every 8th round), and on every round.
int runTraceOverhead(dsn::ExperimentConfig cfg) {
  using namespace dsn;
  constexpr std::size_t n = 2000;
  cfg.nodeCounts = {n};
  bench::printHeader("PerfTrace",
                     "flight-recorder overhead, off vs sampled vs full",
                     cfg);

  const int fieldUnits = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n) / 5.0)));
  NetworkConfig nc;
  nc.field = Field::squareUnits(fieldUnits, cfg.unitMeters);
  nc.range = cfg.range;
  nc.nodeCount = n;
  nc.seed = cfg.trialSeed(n, 0);
  const SensorNetwork net(nc);
  Rng rng(cfg.trialSeed(n, 1));
  const NodeId source = net.randomNode(rng);

  auto timed = [&](std::uint32_t sampleEvery) {
    if (sampleEvery > 0) {
      obs::FrConfig fc;
      fc.capacity = 1 << 20;
      fc.sampleEvery = sampleEvery;
      obs::processRecorder().configure(fc);
    }
    const Throughput t =
        measure(net, source, SimScheduling::kActiveSet, cfg.trials);
    obs::processRecorder().configure({});  // recorder off again
    return t;
  };
  const Throughput off = timed(0);
  const Throughput sampled = timed(8);
  const Throughput full = timed(1);

  std::vector<std::vector<double>> rows;
  rows.push_back({static_cast<double>(n), off.roundsPerSec,
                  sampled.roundsPerSec,
                  sampled.roundsPerSec / off.roundsPerSec,
                  full.roundsPerSec, full.roundsPerSec / off.roundsPerSec});
  bench::emitBench(
      "perf_trace", "PerfTrace — flight-recorder overhead (CFF broadcast)",
      {"n", "off r/s", "sampled r/s", "sampled ratio", "full r/s",
       "full ratio"},
      rows, cfg, 3);
  return 0;
}

// The --scale mode: one grid-deployed CFF cell at n = 100k (or 1M with
// --big), timed under the serial active-set engine (threads = 0) and the
// sharded engine at 1/2/4/8 workers. Grid deployment keeps network
// construction linear in n; the speedup column is relative to the
// sharded engine's own single-thread run so CI can gate thread scaling
// without a committed wall-clock number. Emits
// results/BENCH_perf_scale.json, never the "perf" record.
int runScale(dsn::ExperimentConfig cfg, std::size_t n) {
  using namespace dsn;
  cfg.nodeCounts = {n};
  bench::printHeader("PerfScale",
                     "sharded thread scaling, grid CFF broadcast", cfg);

  const int fieldUnits = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n) / 5.0)));
  NetworkConfig nc;
  nc.field = Field::squareUnits(fieldUnits, cfg.unitMeters);
  nc.range = cfg.range;
  nc.nodeCount = n;
  nc.seed = cfg.trialSeed(n, 0);
  nc.deployment = DeploymentKind::kGrid;
  const SensorNetwork net(nc);
  Rng rng(cfg.trialSeed(n, 1));
  const NodeId source = net.randomNode(rng);

  auto shardedOpts = [](int threads) {
    ProtocolOptions o;
    o.threads = threads;
    return o;
  };
  // One rep minimum, half a second target: a single run at these sizes
  // already lasts long enough to time, and the cell count is what makes
  // this bench expensive.
  constexpr double kScaleSeconds = 0.5;
  const Throughput serial =
      measure(net, source, ProtocolOptions{}, 1, kScaleSeconds);
  const Throughput one =
      measure(net, source, shardedOpts(1), 1, kScaleSeconds);
  std::vector<std::vector<double>> rows;
  rows.push_back({static_cast<double>(n), 0.0, serial.roundsPerSec,
                  serial.deliveriesPerSec,
                  serial.roundsPerSec / one.roundsPerSec});
  rows.push_back({static_cast<double>(n), 1.0, one.roundsPerSec,
                  one.deliveriesPerSec, 1.0});
  for (const int t : {2, 4, 8}) {
    const Throughput m =
        measure(net, source, shardedOpts(t), 1, kScaleSeconds);
    rows.push_back({static_cast<double>(n), static_cast<double>(t),
                    m.roundsPerSec, m.deliveriesPerSec,
                    m.roundsPerSec / one.roundsPerSec});
  }
  bench::emitBench(
      "perf_scale", "PerfScale — sharded thread scaling (grid CFF broadcast)",
      {"n", "threads", "r/s", "dlv/s", "speedup"}, rows, cfg, 2);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsn;
  auto cfg = bench::defaultConfig(argc, argv);
  bench::jobsArg(argc, argv);  // accepted for CI symmetry; timing is serial
  bool scale = false;
  bool big = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-overhead") == 0)
      return runTraceOverhead(cfg);
    if (std::strcmp(argv[i], "--scale") == 0) scale = true;
    if (std::strcmp(argv[i], "--big") == 0) big = true;
  }
  if (scale) return runScale(cfg, big ? 1'000'000 : 100'000);
  cfg.nodeCounts = {500, 2000, 5000};
  bench::printHeader("Perf", "simulator throughput, active-set vs full-scan",
                     cfg);

  std::vector<std::vector<double>> rows;
  for (std::size_t n : cfg.nodeCounts) {
    // 5 nodes per unit square — the paper's densest operating point.
    const int fieldUnits = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(n) / 5.0)));
    NetworkConfig nc;
    nc.field = Field::squareUnits(fieldUnits, cfg.unitMeters);
    nc.range = cfg.range;
    nc.nodeCount = n;
    nc.seed = cfg.trialSeed(n, 0);
    const SensorNetwork net(nc);

    Rng rng(cfg.trialSeed(n, 1));
    const NodeId source = net.randomNode(rng);

    const Throughput active =
        measure(net, source, SimScheduling::kActiveSet, cfg.trials);
    const Throughput full =
        measure(net, source, SimScheduling::kFullScan, cfg.trials);

    const auto dfo = schemeCell([&](SimScheduling s) {
      ProtocolOptions o;
      o.scheduling = s;
      const auto run = net.broadcast(BroadcastScheme::kDfo, source, 1, o);
      return OpCount{static_cast<double>(run.sim.rounds),
                     static_cast<double>(run.delivered)};
    });
    std::vector<std::uint64_t> values(net.graph().size());
    std::iota(values.begin(), values.end(), std::uint64_t{1});
    const auto gather = schemeCell([&](SimScheduling s) {
      ProtocolOptions o;
      o.scheduling = s;
      const auto run = runConvergecast(net.clusterNet(), values, o);
      return OpCount{static_cast<double>(run.sim.rounds),
                     static_cast<double>(run.contributors)};
    });
    const auto reliable = schemeCell([&](SimScheduling s) {
      ReliableOptions o;
      o.base.scheduling = s;
      o.base.dropProbability = 0.05;
      o.base.failureSeed = cfg.trialSeed(n, 2);
      const auto run =
          net.reliableBroadcast(BroadcastScheme::kImprovedCff, source, 1, o);
      return OpCount{static_cast<double>(run.totalRounds),
                     static_cast<double>(run.delivered)};
    });

    rows.push_back({static_cast<double>(n), active.roundsPerSec,
                    active.deliveriesPerSec, full.roundsPerSec,
                    full.deliveriesPerSec,
                    active.roundsPerSec / full.roundsPerSec, dfo.first,
                    dfo.second, gather.first, gather.second, reliable.first,
                    reliable.second, constructionNsPerMoveIn(net.graph()),
                    n == 500 ? churnTicksPerSec(nc) : 0.0});
  }

  bench::emitBench(
      "perf", "Perf — simulator throughput (CFF broadcast; DFO, gather, "
              "reliable iCFF cells; construction and churn host cost)",
      {"n", "active r/s", "active dlv/s", "fullscan r/s", "fullscan dlv/s",
       "speedup", "dfo r/s", "dfo speedup", "gather r/s", "gather speedup",
       "reliable r/s", "reliable speedup", "build ns/moveIn",
       "churn ticks/s"},
      rows, cfg, 1);
  return 0;
}
