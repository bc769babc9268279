#include "broadcast/convergecast.hpp"

#include <algorithm>
#include <memory>

#include "broadcast/runner_detail.hpp"
#include "radio/simulator.hpp"
#include "util/error.hpp"

namespace dsn {

GatherNodeProtocol::GatherNodeProtocol(const GatherNodeConfig& cfg)
    : cfg_(cfg),
      tdm_(cfg.window == 0 ? 1 : cfg.window, cfg.channels),
      sum_(cfg.value),
      sent_(cfg.depth == 0 || cfg.upSlot == kNoSlot) {}

Round GatherNodeProtocol::childWindowStart() const {
  // The window of depth j runs at index (maxDepth - j); children are at
  // depth + 1.
  return static_cast<Round>(cfg_.maxDepth - (cfg_.depth + 1)) *
         tdm_.windowLength();
}

Round GatherNodeProtocol::childWindowEnd() const {
  return childWindowStart() + tdm_.windowLength();
}

Round GatherNodeProtocol::transmitRound() const {
  return static_cast<Round>(cfg_.maxDepth - cfg_.depth) *
             tdm_.windowLength() +
         tdm_.roundOffset(cfg_.upSlot);
}

Action GatherNodeProtocol::onRound(Round r) {
  if (!cfg_.children.empty() && r >= childWindowEnd())
    windowClosed_ = true;
  // Listen through the children's window until every child reported.
  if (!cfg_.children.empty() && childrenHeard_ < cfg_.children.size() &&
      r >= childWindowStart() && r < childWindowEnd()) {
    return Action::listen();
  }
  if (!sent_) {
    const Round tx = transmitRound();
    if (r == tx) {
      sent_ = true;
      Message m;
      m.kind = MsgKind::kData;
      m.sender = cfg_.self;
      m.target = cfg_.parent;
      m.slot = cfg_.upSlot;
      m.windowSize = cfg_.window;
      m.depth = cfg_.depth;
      m.payload = sum_;
      m.sequence = count_;
      return Action::transmit(m, tdm_.channelOf(cfg_.upSlot));
    }
    if (r > tx) sent_ = true;  // schedule slipped past (defensive)
  }
  return Action::sleep();
}

void GatherNodeProtocol::onReceive(const Message& m, Round, Channel) {
  if (m.kind != MsgKind::kData || m.target != cfg_.self) return;
  // Only tree children address us; count each at most once.
  const bool isChild =
      std::find(cfg_.children.begin(), cfg_.children.end(), m.sender) !=
      cfg_.children.end();
  if (!isChild) return;
  sum_ += m.payload;
  count_ += m.sequence;
  ++childrenHeard_;
}

bool GatherNodeProtocol::isDone() const {
  if (!sent_) return false;
  return cfg_.children.empty() ||
         childrenHeard_ == cfg_.children.size() || windowClosed_;
}

Round GatherNodeProtocol::nextWake(Round now) const {
  if (isDone()) return kNoWake;
  const Round soonest = now + 1;
  Round wake = kNoWake;
  if (!cfg_.children.empty()) {
    const Round end = childWindowEnd();
    if (childrenHeard_ < cfg_.children.size() && soonest < end)
      wake = std::max(childWindowStart(), soonest);
    if (!windowClosed_) wake = std::min(wake, std::max(end, soonest));
  }
  if (!sent_) wake = std::min(wake, std::max(transmitRound(), soonest));
  return wake;
}

GatherResult runConvergecast(const ClusterNet& net,
                             const std::vector<std::uint64_t>& values,
                             const ProtocolOptions& options) {
  DSN_REQUIRE(net.netSize() > 0, "convergecast on an empty net");
  const Graph& g = net.graph();

  int maxDepth = 0;
  for (NodeId v : net.netNodes())
    maxDepth = std::max(maxDepth, static_cast<int>(net.depth(v)));

  const TimeSlot window = net.rootMaxUpSlot();
  const TdmMap tdm(window == 0 ? 1 : window, options.channels);
  const Round schedule =
      static_cast<Round>(maxDepth) * tdm.windowLength() +
      tdm.windowLength();

  SimConfig cfg;
  cfg.channelCount = options.channels;
  cfg.maxRounds = options.maxRounds > 0 ? options.maxRounds : schedule + 4;
  cfg.traceCapacity = options.traceCapacity;
  detail::applyScheduling(cfg, options);

  RadioSimulator sim(g, cfg);
  detail::applyFailures(sim, options);

  GatherNodeProtocol* rootProtocol = nullptr;
  std::size_t aliveNodes = 0;
  for (NodeId v : net.netNodes()) {
    // Skip stale (crashed, unrepaired) entries.
    if (!g.isAlive(v)) continue;
    ++aliveNodes;
    GatherNodeConfig nc;
    nc.self = v;
    nc.parent = v == net.root() ? kInvalidNode : net.parent(v);
    nc.depth = net.depth(v);
    nc.children = net.children(v);
    nc.upSlot = v == net.root() ? kNoSlot : net.upSlot(v);
    nc.window = window;
    nc.channels = options.channels;
    nc.maxDepth = maxDepth;
    nc.value = v < values.size() ? values[v] : 0;
    auto p = std::make_unique<GatherNodeProtocol>(nc);
    if (v == net.root()) rootProtocol = p.get();
    sim.setProtocol(v, std::move(p));
  }
  DSN_CHECK(rootProtocol != nullptr, "root protocol missing");

  GatherResult result;
  result.expected = aliveNodes;
  result.scheduleLength = schedule;
  result.sim = sim.run();
  result.aggregate = rootProtocol->partialSum();
  result.contributors = rootProtocol->contributors();
  result.maxAwakeRounds = sim.energy().maxAwakeRounds();
  result.meanAwakeRounds = sim.energy().meanAwakeRounds();
  result.transmissions = result.sim.totalTransmissions;
  result.collisions = result.sim.totalCollisions;
  if (sim.trace().enabled()) result.trace = sim.trace();
  return result;
}

}  // namespace dsn
