// large_field: single public calls over a few warm n = 2000 deployments
// on a 20x20 field (the paper's density of 5 nodes per unit², four
// times its largest size). One thread, read-only, no serve/exec layer:
// it loads the quadratic paths — DFO, reliable repair, gather,
// multicast — next to the cheap slotted waves.
#include <map>

#include "broadcast/convergecast.hpp"
#include "paper.hpp"
#include "workload.hpp"

namespace pb {
namespace {

using dsn::BroadcastScheme;

constexpr std::size_t kDeployments = 4;
constexpr std::size_t kNodes = 2000;
constexpr int kFieldUnits = 20;
constexpr dsn::GroupId kGroup = 1;
constexpr double kReliableDrop = 0.05;

enum class OpKind { kIcff, kCff, kDfo, kReliable, kPruned, kFlood, kGather };

const char* className(OpKind k) {
  switch (k) {
    case OpKind::kIcff: return "icff";
    case OpKind::kCff: return "cff";
    case OpKind::kDfo: return "dfo";
    case OpKind::kReliable: return "reliable";
    case OpKind::kPruned: return "multicast_pruned";
    case OpKind::kFlood: return "multicast_flood";
    case OpKind::kGather: return "gather";
  }
  return "?";
}

const char* spanName(OpKind k) {
  switch (k) {
    case OpKind::kIcff:
    case OpKind::kCff: return "broadcast.slotted";
    case OpKind::kDfo: return "broadcast.dfo";
    case OpKind::kReliable: return "broadcast.reliable";
    case OpKind::kPruned:
    case OpKind::kFlood: return "broadcast.multicast";
    case OpKind::kGather: return "broadcast.gather";
  }
  return "?";
}

/// One rotation of op classes; op k runs rotation[k % 500]. Per 500
/// ops, ascending by cost at n = 2000: pruned multicast 55, flood
/// multicast 47, CFF 75 (~1 ms each), iCFF 250 (~1.4 ms), DFO 60
/// (~45 ms), gather 12 (~230 ms), reliable iCFF 1 (~2.2 s). A run holds
/// whole rotations and at least two, so p50 falls inside the iCFF class,
/// p90 inside DFO and p99 inside gather, each well away from a class
/// boundary, while DFO, gather and reliable repair each take roughly a
/// third of the op time.
std::vector<OpKind> makeRotation() {
  const std::pair<OpKind, int> weights[] = {
      {OpKind::kIcff, 250},  {OpKind::kCff, 75},   {OpKind::kPruned, 55},
      {OpKind::kFlood, 47},  {OpKind::kDfo, 60},   {OpKind::kGather, 12},
      {OpKind::kReliable, 1},
  };
  int total = 0;
  for (const auto& [k, w] : weights) total += w;
  // Spread each class evenly over the rotation (largest-remainder
  // interleave) so a run that stops mid-rotation keeps the mix.
  std::vector<OpKind> rot;
  std::vector<double> credit(std::size(weights), 0.0);
  for (int i = 0; i < total; ++i) {
    std::size_t best = 0;
    for (std::size_t c = 0; c < std::size(weights); ++c) {
      credit[c] += static_cast<double>(weights[c].second) / total;
      if (credit[c] > credit[best]) best = c;
    }
    credit[best] -= 1.0;
    rot.push_back(weights[best].first);
  }
  return rot;
}

struct Deployment {
  std::unique_ptr<dsn::SensorNetwork> net;
  PaperBounds bounds;
  std::vector<dsn::NodeId> nodes;
  std::vector<std::uint64_t> values;
  std::uint64_t valueSum = 0;
  std::size_t groupSize = 0;
};

class LargeField final : public Workload {
 public:
  explicit LargeField(std::uint64_t seed)
      : seed_(seed), rotation_(makeRotation()), ordinal_(rotation_.size()) {
    std::map<OpKind, std::size_t> seen;
    for (std::size_t i = 0; i < rotation_.size(); ++i)
      ordinal_[i] = seen[rotation_[i]]++;
    classCount_ = seen;
  }

  void setup(Tracer* tracer) override {
    for (std::size_t d = 0; d < kDeployments; ++d) {
      Deployment dep;
      dsn::NetworkConfig cfg;
      cfg.field = dsn::Field::squareUnits(kFieldUnits);
      cfg.nodeCount = kNodes;
      cfg.seed = streamSeed(kPoolSeed, 1, d);
      {
        SpanScope s(tracer, "cluster.build");
        dep.net = std::make_unique<dsn::SensorNetwork>(cfg);
      }
      {
        SpanScope s(tracer, "graph.csr_build");
        dep.net->graph().csrView();
      }
      dep.nodes = dep.net->clusterNet().netNodes();
      // Group 1: every node whose benchmark hash lands in the lowest
      // tenth — a fixed ~10% membership for the multicast ops.
      for (const dsn::NodeId v : dep.nodes) {
        if (streamSeed(kPoolSeed, 2, d * kNodes + v) % 10 == 0) {
          dep.net->joinGroup(v, kGroup);
          ++dep.groupSize;
        }
      }
      dep.values.assign(dep.net->graph().size(), 0);
      for (const dsn::NodeId v : dep.nodes) {
        dep.values[v] = v + 1;
        dep.valueSum += v + 1;
      }
      dep.bounds = PaperBounds::of(*dep.net);
      deps_.push_back(std::move(dep));
    }
  }

  std::size_t period() const override { return rotation_.size(); }

  void step(std::size_t k, RunCtx& ctx) override {
    const OpKind kind = rotation_[k % rotation_.size()];
    SplitMix64 rng(streamSeed(seed_, 3, k));
    // Each class cycles through the deployments from a seed-chosen offset,
    // so every run gives each class each deployment equally often.
    const std::size_t ordinal =
        k / rotation_.size() * classCount_[kind] + ordinal_[k % rotation_.size()];
    Deployment& dep = deps_[(ordinal + streamSeed(seed_, 4, static_cast<std::uint64_t>(kind))) %
                            deps_.size()];
    const dsn::NodeId src = dep.nodes[rng.below(dep.nodes.size())];
    const std::uint64_t payload = rng.next();
    const bool window = ctx.inWindow();
    SimTotals& sim = ctx.sim;

    bool ok = true;
    const auto t0 = Clock::now();
    SpanScope opSpan(ctx.tracer, "op");
    switch (kind) {
      case OpKind::kIcff:
      case OpKind::kCff:
      case OpKind::kDfo: {
        const BroadcastScheme scheme =
            kind == OpKind::kIcff  ? BroadcastScheme::kImprovedCff
            : kind == OpKind::kCff ? BroadcastScheme::kCff
                                   : BroadcastScheme::kDfo;
        dsn::BroadcastRun run;
        {
          SpanScope s(ctx.tracer, spanName(kind));
          run = dep.net->broadcast(scheme, src, payload);
        }
        ok &= checkCoverage(ctx, run.coverage(), className(kind));
        ok &= checkBound(ctx, window, className(kind),
                         static_cast<double>(run.completionRounds()),
                         dep.bounds.rounds(scheme, src));
        if (scheme != BroadcastScheme::kDfo)
          ok &= checkBound(ctx, window, className(kind),
                           static_cast<double>(run.maxAwakeRounds),
                           dep.bounds.awake(scheme, src));
        if (window) {
          ++sim.broadcasts;
          sim.roundsSum += static_cast<double>(run.completionRounds());
          sim.awakeSum += static_cast<double>(run.maxAwakeRounds);
          addRun(sim, run);
        }
        break;
      }
      case OpKind::kPruned:
      case OpKind::kFlood: {
        dsn::BroadcastRun run;
        {
          SpanScope s(ctx.tracer, spanName(kind));
          run = dep.net->multicast(src, kGroup, payload,
                                   kind == OpKind::kPruned
                                       ? dsn::MulticastMode::kPrunedRelay
                                       : dsn::MulticastMode::kFullFlood);
        }
        // Pruned relaying may starve a member whose only unique-slot
        // provider was pruned (the paper's §3.4 gap, measured by
        // tests/broadcast/multicast_test.cpp); only the full flood owes
        // every member the payload.
        if (kind == OpKind::kFlood)
          ok &= checkCoverage(ctx, run.coverage(), className(kind));
        if (window) addRun(sim, run);
        break;
      }
      case OpKind::kReliable: {
        dsn::ReliableOptions ro;
        ro.base.dropProbability = kReliableDrop;
        ro.base.failureSeed = rng.next();
        dsn::ReliableBroadcastRun run;
        {
          SpanScope s(ctx.tracer, spanName(kind));
          run = dep.net->reliableBroadcast(BroadcastScheme::kImprovedCff, src,
                                           payload, ro);
        }
        if (window) {
          sim.delivered += static_cast<double>(run.delivered);
          sim.intended += static_cast<double>(run.intended);
          sim.rounds += static_cast<std::uint64_t>(run.totalRounds);
          sim.transmissions += run.wave.transmissions + run.nacksSent +
                               run.retransmissions;
          repairRounds_ += static_cast<std::uint64_t>(run.repairRoundsUsed);
          fnvFold(sim.digest, run.delivered);
          fnvFold(sim.digest, static_cast<std::uint64_t>(run.totalRounds));
          fnvFold(sim.digest, run.nacksSent);
        }
        break;
      }
      case OpKind::kGather: {
        dsn::GatherResult g;
        {
          SpanScope s(ctx.tracer, spanName(kind));
          g = dsn::runConvergecast(dep.net->clusterNet(), dep.values);
        }
        if (!g.complete() || g.aggregate != dep.valueSum) {
          ctx.problem("gather: incomplete or wrong aggregate on a clean channel");
          ok = false;
        }
        if (window) {
          sim.rounds += static_cast<std::uint64_t>(g.sim.rounds);
          sim.transmissions += g.sim.totalTransmissions;
          sim.deliveries += g.sim.totalDeliveries;
          sim.collisions += g.sim.totalCollisions;
          fnvFold(sim.digest, g.aggregate);
          fnvFold(sim.digest, static_cast<std::uint64_t>(g.sim.rounds));
        }
        break;
      }
    }
    const double ms = msBetween(t0, Clock::now());
    if (window) sim.hostMs += ms;
    ctx.op(className(kind), ms, ok);
  }

  /// The ops never mutate a deployment; each must still be
  /// validator-clean after the run.
  void finish(RunCtx& ctx) override {
    for (const Deployment& dep : deps_) {
      const dsn::ValidationReport r = dep.net->validate();
      if (!r.ok()) ctx.problem("large_field deployment invalid: " + r.summary());
    }
  }

  void layers(const TracedInputs& in, std::map<std::string, double>& out) override {
    const Tracer& t = in.tracer;
    const SimTotals& sim = in.traced.sim;
    const double opMs = t.of("op").totalMs;
    for (const char* cls : {"slotted", "dfo", "reliable", "gather", "multicast"}) {
      const Tracer::Totals s = t.of(std::string("broadcast.") + cls);
      out[std::string("broadcast.") + cls + "_ms"] =
          s.count ? s.totalMs / static_cast<double>(s.count) : 0.0;
      out[std::string("broadcast.") + cls + "_share"] =
          opMs > 0 ? s.totalMs / opMs : 0.0;
    }
    const Tracer::Totals build = t.of("cluster.build");
    out["cluster.build_ms"] = build.totalMs / static_cast<double>(build.count);
    const Tracer::Totals csr = t.of("graph.csr_build");
    out["graph.csr_build_ms"] = csr.totalMs / static_cast<double>(csr.count);
    out["broadcast.repair_rounds"] = static_cast<double>(repairRounds_);
    radioLayers(sim, out);
    const auto it = in.obsCounters.find("graph.csr.rebuild");
    out["graph.csr_rebuilds"] =
        it == in.obsCounters.end() ? 0.0 : static_cast<double>(it->second);
  }

 private:
  std::uint64_t seed_;
  std::vector<OpKind> rotation_;
  /// Position of each rotation slot among the slots of its class.
  std::vector<std::size_t> ordinal_;
  std::map<OpKind, std::size_t> classCount_;
  std::vector<Deployment> deps_;
  std::uint64_t repairRounds_ = 0;

  static bool checkCoverage(RunCtx& ctx, double coverage, const char* what) {
    if (coverage < 1.0) {
      ctx.problem(std::string(what) + ": clean-channel coverage below 1");
      return false;
    }
    return true;
  }

  static void addRun(SimTotals& sim, const dsn::BroadcastRun& run) {
    sim.delivered += static_cast<double>(run.delivered);
    sim.intended += static_cast<double>(run.intended);
    sim.rounds += static_cast<std::uint64_t>(run.sim.rounds);
    sim.transmissions += run.sim.totalTransmissions;
    sim.deliveries += run.sim.totalDeliveries;
    sim.collisions += run.sim.totalCollisions;
    // The source holds the payload without a radio reception.
    sim.useful += run.delivered > 0 ? run.delivered - 1 : 0;
    fnvFold(sim.digest, run.delivered);
    fnvFold(sim.digest, static_cast<std::uint64_t>(run.completionRounds()));
    fnvFold(sim.digest, run.maxAwakeRounds);
    fnvFold(sim.digest, run.transmissions);
    fnvFold(sim.digest, run.collisions);
  }
};

}  // namespace

std::unique_ptr<Workload> makeLargeField(std::uint64_t seed) {
  return std::make_unique<LargeField>(seed);
}

}  // namespace pb
