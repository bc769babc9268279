#include "broadcast/reliable.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "broadcast/runner.hpp"
#include "broadcast/runner_detail.hpp"
#include "cluster/cnet.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "radio/simulator.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// SplitMix64 finalizer — the same mixer the experiment seeding uses;
/// local copy because dsn_broadcast sits below dsn_core.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic coin in [0,1) from (seed, node, repair round); drives
/// the responder backoff without any shared RNG state.
double hashCoin(std::uint64_t seed, NodeId v, int repairRound) {
  const std::uint64_t h =
      mix64(mix64(seed ^ (0xBACC0FFull + v)) ^
            static_cast<std::uint64_t>(repairRound));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Shifts the failure plan of `base` by `elapsed` virtual rounds so a
/// repair-round simulator (whose clock restarts at 0) sees deaths and
/// jam intervals at the right wall-clock moments. Drop/burst coins get a
/// per-round derived seed.
ProtocolOptions shiftedOptions(const ProtocolOptions& base, Round elapsed,
                               int repairRound) {
  ProtocolOptions out = base;
  const std::uint64_t salt =
      std::uint64_t{0x5EC0FDA7} + static_cast<std::uint64_t>(repairRound);
  out.failureSeed = mix64(base.failureSeed ^ salt);
  out.deaths.clear();
  for (const auto& [node, round] : base.deaths)
    out.deaths.emplace_back(node, std::max<Round>(0, round - elapsed));
  out.jamZones.clear();
  for (JamZone z : base.jamZones) {
    if (z.toRound != std::numeric_limits<Round>::max()) {
      if (z.toRound - elapsed <= 0) continue;  // interval already over
      z.toRound -= elapsed;
    }
    z.fromRound = std::max<Round>(0, z.fromRound - elapsed);
    out.jamZones.push_back(z);
  }
  return out;
}

void flushReliableMetrics(const ReliableBroadcastRun& run) {
  if (!obs::enabled()) return;
  auto& m = obs::globalMetrics();
  m.counter("broadcast.reliable.runs").increment();
  m.counter("broadcast.reliable.repair_rounds")
      .increment(static_cast<std::uint64_t>(run.repairRoundsUsed));
  m.counter("broadcast.reliable.nacks").increment(run.nacksSent);
  m.counter("broadcast.reliable.retransmissions")
      .increment(run.retransmissions);
  m.counter("broadcast.reliable.residual_uncovered")
      .increment(run.residualUncovered);
  m.histogram("broadcast.reliable.repair_rounds_used",
              obs::Histogram::exponentialBounds(6))
      .observe(static_cast<double>(run.repairRoundsUsed));
}

}  // namespace

ReliableBroadcastRun runReliableBroadcast(BroadcastScheme scheme,
                                          const ClusterNet& net,
                                          NodeId source,
                                          std::uint64_t payload,
                                          const ReliableOptions& options) {
  DSN_REQUIRE(isSlottedScheme(scheme),
              "reliable mode needs a slotted flooding scheme (CFF/iCFF): "
              "the NACK repair waves reuse the depth-indexed slot "
              "schedule, which the DFO token tour and the flat arena "
              "rivals do not have");
  DSN_REQUIRE(options.maxRepairRounds >= 0,
              "maxRepairRounds must be non-negative");
  DSN_REQUIRE(options.responderKeepProbability > 0.0 &&
                  options.responderKeepProbability <= 1.0,
              "responderKeepProbability must be in (0,1]");
  DSN_TIMED_PHASE("broadcast.reliable");
  obs::recordRunBegin(obs::FrRunKind::kReliable, source);

  const Graph& g = net.graph();
  ReliableBroadcastRun run;
  run.wave = runBroadcast(scheme, net, source, payload, options.base);

  // Intended = alive net nodes (a stale structure may still reference
  // crashed ones; they are not reachable and not counted).
  std::vector<NodeId> intended;
  Depth maxDepth = 0;
  for (NodeId v : net.netNodes()) {
    if (!g.isAlive(v)) continue;
    intended.push_back(v);
    maxDepth = std::max(maxDepth, net.depth(v));
  }
  run.intended = intended.size();

  run.deliveryRound = run.wave.deliveryRound;
  run.deliveryRound.resize(g.size(), -1);
  std::vector<char> covered(g.size(), 0);
  for (NodeId v : intended)
    if (run.deliveryRound[v] >= 0) covered[v] = 1;

  Round elapsed = run.wave.sim.rounds;

  // Earliest scheduled death per node, so the per-repair-round dead check
  // below is O(1) instead of a scan of the whole death list.
  std::vector<Round> deathRound(g.size(), std::numeric_limits<Round>::max());
  for (const auto& [node, round] : options.base.deaths)
    if (node < deathRound.size())
      deathRound[node] = std::min(deathRound[node], round);

  const TimeSlot upWindow = net.rootMaxUpSlot();
  for (int k = 0; k < options.maxRepairRounds; ++k) {
    // A node already scheduled to be dead by now cannot be repaired;
    // stop once only such nodes remain uncovered so they do not burn the
    // remaining budget.
    if (std::none_of(intended.begin(), intended.end(), [&](NodeId v) {
          return !covered[v] && deathRound[v] > elapsed;
        }))
      break;

    const ProtocolOptions opts = shiftedOptions(options.base, elapsed, k);
    ReliableRepairProtocol::Config proto;
    proto.window = upWindow == 0 ? 1 : upWindow;
    proto.channels = opts.channels;
    proto.subWindows = static_cast<int>(maxDepth) + 1;

    SimConfig cfg;
    cfg.channelCount = opts.channels;
    cfg.traceCapacity = 0;
    cfg.scheduling = opts.scheduling;
    cfg.resolveScratch = opts.resolveScratch;
    cfg.maxRounds = ReliableRepairProtocol(proto).scheduleLength();

    RadioSimulator sim(g, cfg);
    detail::applyFailures(sim, opts);

    std::vector<ReliableRepairProtocol*> repairers(g.size(), nullptr);
    for (NodeId v : intended) {
      ReliableRepairProtocol::Config nc = proto;
      nc.self = v;
      nc.depth = net.depth(v);
      nc.slot = net.upSlot(v) == kNoSlot ? 1 : net.upSlot(v);
      nc.covered = covered[v] != 0;
      nc.eligible = k == 0 || options.responderKeepProbability >= 1.0 ||
                    hashCoin(options.base.failureSeed, v, k) <
                        options.responderKeepProbability;
      nc.payload = payload;
      auto p = std::make_unique<ReliableRepairProtocol>(nc);
      repairers[v] = p.get();
      sim.setProtocol(v, std::move(p));
    }

    const SimResult result = sim.run();
    ++run.repairRoundsUsed;

    for (NodeId v : intended) {
      const ReliableRepairProtocol* p = repairers[v];
      if (!p) continue;
      if (p->nackSent()) ++run.nacksSent;
      if (p->responded()) ++run.retransmissions;
      if (!covered[v] && p->hasPayload()) {
        covered[v] = 1;
        run.deliveryRound[v] = elapsed + p->payloadRound();
      }
    }
    elapsed += result.rounds;
  }

  run.delivered = 0;
  for (NodeId v : intended)
    if (covered[v]) ++run.delivered;
  run.residualUncovered = run.intended - run.delivered;
  run.totalRounds = elapsed;
  obs::recordRunEnd(obs::FrRunKind::kReliable,
                    static_cast<std::uint32_t>(run.delivered),
                    static_cast<std::uint32_t>(run.totalRounds));
  flushReliableMetrics(run);
  return run;
}

}  // namespace dsn
