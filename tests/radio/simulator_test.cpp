#include "radio/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace dsn {
namespace {

/// Transmits one frame at a fixed round, then is done.
class OneShotTransmitter : public NodeProtocol {
 public:
  OneShotTransmitter(NodeId self, Round when) : self_(self), when_(when) {}
  Action onRound(Round r) override {
    if (r == when_) {
      Message m;
      m.sender = self_;
      m.payload = 77;
      sent_ = true;
      return Action::transmit(m);
    }
    return Action::sleep();
  }
  void onReceive(const Message&, Round, Channel) override {}
  bool isDone() const override { return sent_; }

 private:
  NodeId self_;
  Round when_;
  bool sent_ = false;
};

/// Listens until it receives anything, then is done.
class ListenUntilReceive : public NodeProtocol {
 public:
  Action onRound(Round) override {
    return got_ ? Action::sleep() : Action::listen();
  }
  void onReceive(const Message& m, Round r, Channel) override {
    got_ = true;
    payload_ = m.payload;
    receivedAt_ = r;
  }
  bool isDone() const override { return got_; }

  bool got_ = false;
  std::uint64_t payload_ = 0;
  Round receivedAt_ = -1;
};

Graph pair() {
  Graph g(2);
  g.addEdge(0, 1);
  return g;
}

TEST(SimulatorTest, DeliversBetweenTwoNodes) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 2));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));

  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(lp->got_);
  EXPECT_EQ(lp->payload_, 77u);
  EXPECT_EQ(lp->receivedAt_, 2);
  EXPECT_EQ(r.totalTransmissions, 1u);
  EXPECT_EQ(r.totalDeliveries, 1u);
  EXPECT_EQ(r.rounds, 3);  // rounds 0,1,2 executed; done detected at 3
}

TEST(SimulatorTest, EnergyAccounting) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 2));
  sim.setProtocol(1, std::make_unique<ListenUntilReceive>());
  sim.run();
  EXPECT_EQ(sim.energy().node(0).transmitRounds, 1u);
  EXPECT_EQ(sim.energy().node(0).listenRounds, 0u);
  EXPECT_EQ(sim.energy().node(1).listenRounds, 3u);  // rounds 0..2
  EXPECT_EQ(sim.energy().node(1).framesReceived, 1u);
  EXPECT_EQ(sim.energy().node(1).awakeRounds(), 3u);
  EXPECT_EQ(sim.energy().maxAwakeRounds(), 3u);
}

TEST(SimulatorTest, NodesWithoutProtocolSleep) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 0));
  // Nodes 1 and 2 have no protocol; run ends after 0 transmits.
  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.totalDeliveries, 0u);
}

TEST(SimulatorTest, MaxRoundsStopsHangingProtocol) {
  const Graph g = pair();
  SimConfig cfg;
  cfg.maxRounds = 10;
  RadioSimulator sim(g, cfg);
  sim.setProtocol(1, std::make_unique<ListenUntilReceive>());  // never gets
  const SimResult r = sim.run();
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 10);
}

TEST(SimulatorTest, RunTwiceRejected) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.run();
  EXPECT_THROW(sim.run(), PreconditionError);
}

TEST(SimulatorTest, DeadNodeNeitherActsNorReceives) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 1));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));
  sim.failures().killAt(1, 0);
  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);  // dead node doesn't block completion
  EXPECT_FALSE(lp->got_);
  EXPECT_EQ(sim.energy().node(1).listenRounds, 0u);
}

TEST(SimulatorTest, DeathMidRunStopsParticipation) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 5));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));
  sim.failures().killAt(1, 3);  // dies before the round-5 transmission
  sim.run();
  EXPECT_FALSE(lp->got_);
  EXPECT_EQ(sim.energy().node(1).listenRounds, 3u);  // rounds 0..2
}

TEST(SimulatorTest, DroppedTransmissionCostsEnergyButNothingArrives) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 0));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));
  sim.failures().setDropProbability(1.0);
  const SimResult r = sim.run();
  EXPECT_FALSE(lp->got_);
  EXPECT_EQ(r.droppedTransmissions, 1u);
  EXPECT_EQ(r.totalTransmissions, 0u);  // never went on air
  EXPECT_EQ(sim.energy().node(0).transmitRounds, 1u);  // energy spent
}

TEST(SimulatorTest, TraceRecordsEvents) {
  const Graph g = pair();
  SimConfig cfg;
  cfg.traceCapacity = 100;
  RadioSimulator sim(g, cfg);
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 0));
  sim.setProtocol(1, std::make_unique<ListenUntilReceive>());
  sim.run();
  EXPECT_EQ(sim.trace().countOf(TraceEventType::kTransmit), 1u);
  EXPECT_EQ(sim.trace().countOf(TraceEventType::kReceive), 1u);
  EXPECT_EQ(sim.trace().countOf(TraceEventType::kCollision), 0u);
}

TEST(SimulatorTest, ProtocolAfterRunRejected) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.run();
  EXPECT_THROW(sim.setProtocol(0, std::make_unique<ListenUntilReceive>()),
               PreconditionError);
}

TEST(SimulatorTest, CollisionObservedInTrace) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(2, 1);
  SimConfig cfg;
  cfg.traceCapacity = 100;
  cfg.maxRounds = 20;  // listener starves; don't run the default budget
  RadioSimulator sim(g, cfg);
  sim.setProtocol(0, std::make_unique<OneShotTransmitter>(0, 0));
  sim.setProtocol(2, std::make_unique<OneShotTransmitter>(2, 0));
  auto listener = std::make_unique<ListenUntilReceive>();
  auto* lp = listener.get();
  sim.setProtocol(1, std::move(listener));
  SimResult r = sim.run();
  EXPECT_FALSE(r.completed);  // listener starves (hits maxRounds)...
  EXPECT_FALSE(lp->got_);
  EXPECT_EQ(sim.trace().countOf(TraceEventType::kCollision), 1u);
}

/// Wakes on a fixed per-node schedule that mixes 1-round gaps with
/// k-round gaps (k depends on the id), so at any round the wakers are an
/// interleaving of every-round listeners and nodes returning from a
/// longer sleep. Logs each on-schedule onRound call as (round, node);
/// off-schedule calls (the full scan makes them) are pure sleeps.
class GappedWaker : public NodeProtocol {
 public:
  using CallLog = std::vector<std::pair<Round, NodeId>>;

  GappedWaker(NodeId self, Round horizon, CallLog* log)
      : self_(self), on_(static_cast<std::size_t>(horizon), 0), log_(log) {
    for (Round r = self % 3; r < horizon;
         r += (r + self) % 4 == 0 ? 2 + self % 5 : 1) {
      on_[static_cast<std::size_t>(r)] = 1;
      last_ = r;
    }
  }

  Action onRound(Round r) override {
    if (!scheduled(r)) {
      ++offSchedule_;
      return Action::sleep();
    }
    log_->emplace_back(r, self_);
    seen_ = r;
    if ((r + self_) % 5 == 0) {
      Message m;
      m.sender = self_;
      m.payload = static_cast<std::uint64_t>(r);
      return Action::transmit(m);
    }
    return Action::listen();
  }
  void onReceive(const Message&, Round, Channel) override {}
  bool isDone() const override { return seen_ == last_; }
  Round nextWake(Round now) const override {
    for (Round r = now + 1; r <= last_; ++r)
      if (scheduled(r)) return r;
    return kNoWake;
  }

  std::size_t offSchedule() const { return offSchedule_; }

 private:
  bool scheduled(Round r) const {
    return r >= 0 && r < static_cast<Round>(on_.size()) &&
           on_[static_cast<std::size_t>(r)] != 0;
  }

  NodeId self_;
  std::vector<char> on_;
  Round last_ = -1;
  Round seen_ = -1;
  std::size_t offSchedule_ = 0;
  CallLog* log_;
};

struct GappedRun {
  GappedWaker::CallLog calls;
  SimResult result;
  std::vector<TraceEvent> events;
  std::size_t offSchedule = 0;
};

GappedRun runGapped(SimScheduling scheduling) {
  constexpr NodeId kNodes = 24;
  constexpr Round kHorizon = 60;
  Graph g(kNodes);
  for (NodeId v = 0; v + 1 < kNodes; ++v) g.addEdge(v, v + 1);
  for (NodeId v = 0; v + 3 < kNodes; ++v) g.addEdge(v, v + 3);
  SimConfig cfg;
  cfg.scheduling = scheduling;
  cfg.traceCapacity = 1 << 12;
  cfg.maxRounds = 2 * kHorizon;
  GappedRun out;
  RadioSimulator sim(g, cfg);
  std::vector<const GappedWaker*> wakers;
  for (NodeId v = 0; v < kNodes; ++v) {
    auto p = std::make_unique<GappedWaker>(v, kHorizon, &out.calls);
    wakers.push_back(p.get());
    sim.setProtocol(v, std::move(p));
  }
  out.result = sim.run();
  out.events = sim.trace().events();
  for (const GappedWaker* w : wakers) out.offSchedule += w->offSchedule();
  return out;
}

TEST(SimulatorTest, MixedWakeGapsKeepFullScanCallOrder) {
  const GappedRun active = runGapped(SimScheduling::kActiveSet);
  const GappedRun full = runGapped(SimScheduling::kFullScan);
  // The active set makes exactly the scheduled calls, in the full scan's
  // (round, node) order.
  EXPECT_EQ(active.offSchedule, 0u);
  EXPECT_GT(full.offSchedule, 0u);
  ASSERT_FALSE(active.calls.empty());
  EXPECT_EQ(active.calls, full.calls);
  EXPECT_TRUE(active.result.completed);
  EXPECT_EQ(active.result.rounds, full.result.rounds);
  EXPECT_EQ(active.result.totalTransmissions, full.result.totalTransmissions);
  EXPECT_EQ(active.result.totalDeliveries, full.result.totalDeliveries);
  EXPECT_EQ(active.result.totalCollisions, full.result.totalCollisions);
  ASSERT_EQ(active.events.size(), full.events.size());
  for (std::size_t i = 0; i < active.events.size(); ++i) {
    EXPECT_EQ(active.events[i].type, full.events[i].type) << "event " << i;
    EXPECT_EQ(active.events[i].round, full.events[i].round) << "event " << i;
    EXPECT_EQ(active.events[i].node, full.events[i].node) << "event " << i;
    EXPECT_EQ(active.events[i].peer, full.events[i].peer) << "event " << i;
  }
  // Both gap kinds occur: some node is called in consecutive rounds and
  // some node skips at least one round between calls.
  bool oneGap = false;
  bool longGap = false;
  std::vector<Round> lastCall(24, -1);
  for (const auto& [r, v] : active.calls) {
    if (lastCall[v] >= 0) {
      (r - lastCall[v] == 1 ? oneGap : longGap) = true;
    }
    lastCall[v] = r;
  }
  EXPECT_TRUE(oneGap);
  EXPECT_TRUE(longGap);
}

}  // namespace
}  // namespace dsn
