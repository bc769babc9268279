// churn_waves: the write side. Every op is one campaign segment on a
// persistent n = 500 deployment on the 10x10 field — the in-flight iCFF
// wave advances churnPeriod rounds, one ChurnEngine tick runs Section-5
// maintenance (withdraw, move-in, recovery, adaptive rebuild) and
// invalidates the CSR snapshot, then the wave resyncs. The round clock
// keeps running from one op to the next. Waves are admitted every
// wavePeriod rounds; a wave that missed settled receivers is re-issued
// against the repaired structure (repair waves), as wsn_campaign does.
//
// A campaign lasts wsn_campaign's default 10,000 rounds (1250 segments);
// a run is a sequence of whole campaigns, each on a fresh deployment
// (the set-up builds the first eight).
// Campaign c's deployment, motion and churn come from the fixed pool;
// the run seed picks the wave sources.
// Random-waypoint motion at this density (mean degree ~4, below the
// unit-disk percolation point) fragments the field, and the structure
// only covers the root's component; past ~60,000 rounds it can shrink
// to a node or two for good, so one endless campaign would make an op's
// cost depend on how long the run lasted.
#include "broadcast/inflight.hpp"
#include "mobility/churn.hpp"
#include "mobility/model.hpp"
#include "paper.hpp"
#include "workload.hpp"

namespace pb {
namespace {

using dsn::BroadcastScheme;

constexpr std::size_t kNodes = 500;
constexpr int kFieldUnits = 10;
// wsn_campaign defaults.
constexpr dsn::Round kWavePeriod = 200;
constexpr dsn::Round kChurnPeriod = 8;
constexpr double kChurn = 0.3;
constexpr double kSpeed = 20.0;
constexpr dsn::Round kWalkPeriod = 32;
constexpr std::size_t kMaxRepairWaves = 2;
constexpr BroadcastScheme kScheme = BroadcastScheme::kImprovedCff;
constexpr std::size_t kCampaignSegments = 10000 / kChurnPeriod;
/// Campaigns the set-up builds: more than a 25-second run uses on the
/// development host, so the timed phase rarely builds one.
constexpr std::size_t kPrebuiltCampaigns = 8;

class ChurnWaves final : public Workload {
 public:
  explicit ChurnWaves(std::uint64_t seed) : rng_(streamSeed(seed, 4, 0)) {}

  void setup(Tracer* tracer) override {
    for (std::size_t c = 0; c < kPrebuiltCampaigns; ++c)
      prebuilt_.push_back(buildCampaign(c, tracer));
    startCampaign(0);
  }

  std::size_t period() const override { return kCampaignSegments; }

  void step(std::size_t k, RunCtx& ctx) override {
    const std::size_t campaign = k / kCampaignSegments;
    if (campaign != campaign_) {
      // Building a campaign the set-up did not is set-up work, not an op.
      const auto s0 = Clock::now();
      startCampaign(campaign);
      ctx.excludedMs += msBetween(s0, Clock::now());
    }
    segment(k, (k + 1) % kCampaignSegments == 0, ctx);
  }

  void layers(const TracedInputs& in, std::map<std::string, double>& out) override {
    const Tracer& t = in.tracer;
    const auto mean = [&](const char* name) {
      const Tracer::Totals s = t.of(name);
      return s.count ? s.totalMs / static_cast<double>(s.count) : 0.0;
    };
    out["cluster.build_ms"] = mean("cluster.build");
    out["cluster.tick_ms"] = mean("cluster.tick");
    out["cluster.moves"] = static_cast<double>(moves_);
    out["cluster.repairs"] = static_cast<double>(repairs_);
    out["cluster.rebuilds"] = static_cast<double>(rebuilds_);
    out["cluster.rebuild_ratio"] =
        repairs_ + rebuilds_ > 0
            ? static_cast<double>(rebuilds_) / static_cast<double>(repairs_ + rebuilds_)
            : 0.0;
    out["cluster.maintenance_rounds"] = static_cast<double>(maintenanceRounds_);
    const auto counter = [&](const char* name) {
      const auto it = in.obsCounters.find(name);
      return it == in.obsCounters.end() ? 0.0 : static_cast<double>(it->second);
    };
    out["cluster.move_in_calls"] = counter("cluster.move_in");
    out["graph.csr_rebuilds"] = counter("graph.csr.rebuild");
    out["graph.csr_build_ms"] = mean("graph.csr_build");
    out["broadcast.inflight_resync_ms"] = mean("broadcast.inflight_resync");
    out["broadcast.repair_rounds"] = static_cast<double>(repairWaves_);
    const double opMs = t.of("op").totalMs;
    const Tracer::Totals slotted = t.of("broadcast.slotted");
    out["broadcast.slotted_ms"] = mean("broadcast.slotted");
    out["broadcast.slotted_share"] = opMs > 0 ? slotted.totalMs / opMs : 0.0;
    out["mobility.displaced_ratio"] =
        intended_ > 0 ? static_cast<double>(displaced_) / static_cast<double>(intended_) : 0.0;
    radioLayers(in.traced.sim, out);
    // Radio work here is the waves' simulator time, not whole segments.
    const double radioMs = t.of("broadcast.inflight_advance").totalMs +
                           t.of("broadcast.inflight_finish").totalMs +
                           t.of("broadcast.inflight_resync").totalMs;
    const SimTotals& sim = in.traced.sim;
    out["radio.host_ns_per_round"] =
        sim.rounds ? radioMs * 1e6 / static_cast<double>(sim.rounds) : 0.0;
    out["radio.host_ns_per_delivery"] =
        sim.deliveries ? radioMs * 1e6 / static_cast<double>(sim.deliveries) : 0.0;
  }

 private:
  /// Campaign `c`'s deployment, motion model and churn engine.
  struct Campaign {
    std::unique_ptr<dsn::SensorNetwork> net;
    std::unique_ptr<dsn::mobility::RandomWaypointModel> model;
    std::unique_ptr<dsn::mobility::ChurnEngine> engine;
  };

  SplitMix64 rng_;
  std::size_t campaign_ = 0;
  std::vector<Campaign> prebuilt_;
  Campaign current_;
  dsn::SensorNetwork* net_ = nullptr;
  dsn::mobility::ChurnEngine* engine_ = nullptr;
  std::unique_ptr<dsn::InFlightBroadcast> wave_;
  bool waveInWindow_ = false;
  double waveAwake_ = 0.0;
  dsn::Round waveStart_ = 0;
  dsn::Round nextWave_ = 0;
  std::uint64_t payload_ = 0xDA7A0000;
  // Window totals for the per-layer report.
  std::size_t moves_ = 0, repairs_ = 0, rebuilds_ = 0, repairWaves_ = 0;
  std::size_t intended_ = 0, displaced_ = 0;
  std::int64_t maintenanceRounds_ = 0;

  static Campaign buildCampaign(std::size_t c, Tracer* tracer) {
    Campaign cp;
    dsn::NetworkConfig nc;
    nc.field = dsn::Field::squareUnits(kFieldUnits);
    nc.nodeCount = kNodes;
    nc.seed = streamSeed(kPoolSeed, 1, c);
    {
      SpanScope s(tracer, "cluster.build");
      cp.net = std::make_unique<dsn::SensorNetwork>(nc);
    }
    {
      SpanScope s(tracer, "graph.csr_build");
      cp.net->graph().csrView();
    }
    dsn::mobility::WaypointConfig wc;
    wc.field = nc.field;
    wc.speed = kSpeed;
    wc.period = kWalkPeriod;
    wc.seed = streamSeed(kPoolSeed, 2, c);
    cp.model = std::make_unique<dsn::mobility::RandomWaypointModel>(wc);
    for (const dsn::NodeId v : cp.net->clusterNet().netNodes())
      cp.model->track(v, cp.net->position(v));
    dsn::mobility::ChurnConfig cc;
    cc.crashRate = 0.4 * kChurn;
    cc.joinRate = 0.5 * kChurn;
    cc.leaveRate = 0.1 * kChurn;
    cc.policy = dsn::mobility::RepairPolicy::kAdaptive;
    cc.field = nc.field;
    cc.seed = streamSeed(kPoolSeed, 3, c);
    cp.engine = std::make_unique<dsn::mobility::ChurnEngine>(*cp.net, cp.model.get(), cc);
    return cp;
  }

  /// Makes campaign `c` current, from the set-up's prebuilt ones when it
  /// is among them.
  void startCampaign(std::size_t c) {
    wave_.reset();
    current_ = c < prebuilt_.size() ? std::move(prebuilt_[c]) : buildCampaign(c, nullptr);
    campaign_ = c;
    nextWave_ = 0;
    net_ = current_.net.get();
    engine_ = current_.engine.get();
  }

  /// One segment; the campaign's last one completes its in-flight wave.
  void segment(std::size_t k, bool last, RunCtx& ctx) {
    const dsn::Round r =
        static_cast<dsn::Round>(k % kCampaignSegments) * kChurnPeriod;
    const bool window = ctx.inWindow();
    bool ok = true;
    const double excludedBefore = ctx.excludedMs;
    const auto t0 = Clock::now();
    SpanScope opSpan(ctx.tracer, "op");

    if (!wave_ && r >= nextWave_) {
      nextWave_ = r + kWavePeriod;
      if (net_->size() >= 2) admit(r, window, ctx, ok);
    }
    if (wave_) {
      {
        SpanScope s(ctx.tracer, "broadcast.inflight_advance");
        wave_->advanceTo(r + kChurnPeriod - waveStart_);
      }
      if (wave_->finished()) {
        finalize(window && waveInWindow_, ctx);
        wave_.reset();
      }
    }

    dsn::mobility::ChurnTick t;
    {
      SpanScope s(ctx.tracer, "cluster.tick");
      t = engine_->tick(r);
    }
    if (!t.validated) {
      ctx.problem("churn tick " + std::to_string(k) + " failed validation");
      ok = false;
    }
    if (window) {
      moves_ += t.moves;
      repairs_ += t.repaired ? 1 : 0;
      rebuilds_ += t.rebuilt ? 1 : 0;
      const dsn::mobility::ChurnTotals& tot = engine_->totals();
      maintenanceRounds_ = tot.incrementalCost + tot.rebuildCost;
      fnvFold(ctx.sim.digest, t.moves);
      fnvFold(ctx.sim.digest, t.crashes + 8 * t.joins + 64 * t.leaves);
      fnvFold(ctx.sim.digest, t.disturbed.size());
    }
    if (ctx.tracer && !net_->graph().csrViewIfFresh()) {
      // Traced runs pay the snapshot rebuild here, where it can be timed,
      // instead of inside the next simulator call.
      SpanScope s(ctx.tracer, "graph.csr_build");
      net_->graph().csrView();
    }
    if (wave_) {
      SpanScope s(ctx.tracer, "broadcast.inflight_resync");
      for (const dsn::NodeId v : t.disturbed) wave_->noteDisplaced(v);
      wave_->refreshPositions(net_->index());
      wave_->onTopologyChanged();
    }
    if (last && wave_) {
      finalize(window && waveInWindow_, ctx);
      wave_.reset();
    }
    const double ms =
        msBetween(t0, Clock::now()) - (ctx.excludedMs - excludedBefore);
    if (window) ctx.sim.hostMs += ms;
    ctx.op("segment", ms, ok);
  }


  dsn::NodeId pickSource() {
    const std::vector<dsn::NodeId> nodes = net_->clusterNet().netNodes();
    return nodes[rng_.below(nodes.size())];
  }

  /// Admits a wave on a clean structure. In the simulation window a
  /// clean reference run of the same wave on the admission-time
  /// structure (excluded from the op's time) supplies the awake figure
  /// the in-flight report does not carry, and is checked against the
  /// paper's bounds.
  void admit(dsn::Round r, bool window, RunCtx& ctx, bool& ok) {
    if (net_->hasStaleStructure()) net_->repairAfterFailures();
    const dsn::NodeId src = pickSource();
    const std::uint64_t payload = payload_++;
    waveInWindow_ = window;
    if (window) {
      const auto s0 = Clock::now();
      const PaperBounds bounds = PaperBounds::of(*net_);
      const dsn::BroadcastRun ref = net_->broadcast(kScheme, src, payload);
      if (ref.coverage() < 1.0) {
        ctx.problem("churn_waves: clean reference wave coverage below 1");
        ok = false;
      }
      ok &= checkBound(ctx, true, "icff", static_cast<double>(ref.completionRounds()),
                       bounds.rounds(kScheme, src));
      ok &= checkBound(ctx, true, "icff", static_cast<double>(ref.maxAwakeRounds),
                       bounds.awake(kScheme, src));
      waveAwake_ = static_cast<double>(ref.maxAwakeRounds);
      ctx.excludedMs += msBetween(s0, Clock::now());
    }
    SpanScope s(ctx.tracer, "broadcast.slotted");
    wave_ = std::make_unique<dsn::InFlightBroadcast>(net_->clusterNet(), kScheme, src,
                                                     payload, dsn::ProtocolOptions{});
    waveStart_ = r;
  }

  /// Completes the wave (with repair waves). Its outcome feeds the
  /// simulated totals only when both its admission and its completion
  /// fall in the window.
  void finalize(bool counted, RunCtx& ctx) {
    SpanScope span(ctx.tracer, "broadcast.inflight_finish");
    dsn::InFlightBroadcast& w = *wave_;
    w.runToCompletion();
    // Receivers severed from the net by a repair (without moving) were
    // disrupted as surely as movers: they leave the settled class.
    for (const dsn::NodeId v : w.intended())
      if (net_->graph().isAlive(v) && !net_->clusterNet().contains(v)) w.noteDisplaced(v);
    const dsn::InFlightReport rep = w.finish();

    std::vector<dsn::NodeId> missing;
    for (const dsn::NodeId v : w.intended())
      if (net_->graph().isAlive(v) && !w.wasDisplaced(v) && !w.deliveredTo(v))
        missing.push_back(v);
    std::size_t covered = rep.deliveredSettled;
    SimTotals& sim = ctx.sim;
    for (std::size_t attempt = 0; attempt < kMaxRepairWaves && !missing.empty(); ++attempt) {
      std::erase_if(missing, [&](dsn::NodeId v) { return !net_->clusterNet().contains(v); });
      if (missing.empty() || net_->size() < 2) break;
      if (net_->hasStaleStructure()) net_->repairAfterFailures();
      dsn::InFlightBroadcast repair(net_->clusterNet(), kScheme, pickSource(), payload_++,
                                    dsn::ProtocolOptions{});
      repair.runToCompletion();
      std::vector<dsn::NodeId> still;
      for (const dsn::NodeId v : missing) {
        if (repair.deliveredTo(v))
          ++covered;
        else
          still.push_back(v);
      }
      missing.swap(still);
      if (counted) {
        ++repairWaves_;
        addSim(sim, repair.finish());
      }
    }
    if (!counted) return;
    ++sim.broadcasts;
    sim.roundsSum += static_cast<double>(rep.lastDeliveryRound + 1);
    sim.awakeSum += waveAwake_;
    sim.delivered += static_cast<double>(covered);
    sim.intended += static_cast<double>(rep.settled);
    intended_ += rep.intended;
    displaced_ += rep.displaced;
    addSim(sim, rep);
    fnvFold(sim.digest, rep.intended);
    fnvFold(sim.digest, rep.departed);
    fnvFold(sim.digest, rep.displaced);
    fnvFold(sim.digest, rep.settled);
    fnvFold(sim.digest, covered);
    fnvFold(sim.digest, static_cast<std::uint64_t>(rep.lastDeliveryRound + 1));
  }

  static void addSim(SimTotals& sim, const dsn::InFlightReport& rep) {
    sim.rounds += static_cast<std::uint64_t>(rep.sim.rounds);
    sim.transmissions += rep.sim.totalTransmissions;
    sim.deliveries += rep.sim.totalDeliveries;
    sim.collisions += rep.sim.totalCollisions;
    sim.useful += rep.delivered > 0 ? rep.delivered - 1 : 0;
  }
};

}  // namespace

std::unique_ptr<Workload> makeChurnWaves(std::uint64_t seed) {
  return std::make_unique<ChurnWaves>(seed);
}

}  // namespace pb
