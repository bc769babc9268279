// Reliable broadcast: NACK-driven repair rounds on top of CFF/iCFF
// (DESIGN.md §10).
//
// The paper's flooding schemes are one-shot: under the collision-freedom
// guarantee a single wave suffices, but under transient loss (drops,
// bursts, jamming) or a stale structure the wave leaves holes. Reliable
// mode runs the plain wave first, then up to `maxRepairRounds` repair
// rounds. Each repair round is its own simulator run in two phases:
//
//   NACK phase — per-depth sub-windows of the convergecast up-slot
//     window: an uncovered node at depth d transmits a kNack frame in
//     sub-window d at its up-slot offset, while every covered node
//     listens. Within a sub-window only same-depth nodes transmit, so the
//     up-slot condition guarantees every covered parent hears each of its
//     uncovered children collision-free.
//   Data phase — symmetric sub-windows: a covered node that heard at
//     least one NACK retransmits the payload in its depth's sub-window at
//     its up-slot offset; uncovered nodes listen throughout.
//
// Residual collisions among responders are possible (the up-slot
// condition does not cover arbitrary responder subsets); from the second
// repair round on, each responder backs off with a deterministic
// hash-based coin so any persistent collision pattern breaks without
// sacrificing bit-reproducibility across `--jobs` counts.
#pragma once

#include <cstdint>

#include "broadcast/run_result.hpp"
#include "broadcast/tdm.hpp"
#include "radio/protocol.hpp"
#include "util/types.hpp"

namespace dsn {

class ClusterNet;
enum class BroadcastScheme : std::uint8_t;

/// Knobs of a reliable broadcast run.
struct ReliableOptions {
  /// Failure injection + radio configuration, shared by the wave and
  /// every repair round (drop/burst seeds are re-derived per round;
  /// deaths and jam intervals shift with accumulated virtual time).
  ProtocolOptions base;
  /// Retry budget: repair rounds after the main wave.
  int maxRepairRounds = 8;
  /// Responder keep-probability for the hash-coin backoff applied from
  /// the second repair round on (1.0 disables the backoff).
  double responderKeepProbability = 0.7;
};

/// Outcome of a reliable broadcast (wave + repair rounds).
struct ReliableBroadcastRun {
  /// The plain wave (its per-node vectors are superseded by the merged
  /// fields below).
  BroadcastRun wave;
  /// Alive net nodes that were supposed to end up with the payload.
  std::size_t intended = 0;
  /// ... and how many actually did after all repair rounds.
  std::size_t delivered = 0;
  /// Repair rounds actually executed (0 = the wave already covered all).
  int repairRoundsUsed = 0;
  /// NACK frames transmitted across all repair rounds.
  std::size_t nacksSent = 0;
  /// Payload retransmissions across all repair rounds.
  std::size_t retransmissions = 0;
  /// Intended nodes still without the payload when the budget ran out.
  std::size_t residualUncovered = 0;
  /// Wave rounds + every repair-round simulation, end to end.
  Round totalRounds = 0;
  /// Per-node first-delivery round on the combined timeline (wave rounds
  /// count from 0; repair rounds continue the clock). -1 = never.
  std::vector<Round> deliveryRound;

  bool allDelivered() const { return delivered == intended; }
  double coverage() const {
    return intended == 0
               ? 1.0
               : static_cast<double>(delivered) /
                     static_cast<double>(intended);
  }
};

/// Per-node state machine for one repair round (NACK phase, then data
/// phase; see the file comment). Each repair round of
/// runReliableBroadcast is one simulator run over these protocols.
class ReliableRepairProtocol final : public NodeProtocol {
 public:
  struct Config {
    NodeId self = kInvalidNode;
    Depth depth = 0;
    /// Up-slot (root falls back to slot 1).
    TimeSlot slot = 1;
    TimeSlot window = 1;  ///< largest up-slot (TDM window basis)
    Channel channels = 1;
    int subWindows = 1;  ///< maxDepth + 1 per phase
    bool covered = false;
    bool eligible = true;  ///< responder backoff coin (covered nodes)
    std::uint64_t payload = 0;
  };

  explicit ReliableRepairProtocol(const Config& cfg)
      : cfg_(cfg), tdm_(cfg.window == 0 ? 1 : cfg.window, cfg.channels) {}

  Round nackPhaseLength() const {
    return static_cast<Round>(cfg_.subWindows) * tdm_.windowLength();
  }
  Round scheduleLength() const { return 2 * nackPhaseLength(); }

  Action onRound(Round r) override {
    const Round nackEnd = nackPhaseLength();
    if (cfg_.covered) {
      if (r < nackEnd) return Action::listen();
      if (!heardNack_ || !cfg_.eligible) {
        done_ = true;
        return Action::sleep();
      }
      const Round tx = nackEnd +
                       static_cast<Round>(cfg_.depth) * tdm_.windowLength() +
                       tdm_.roundOffset(cfg_.slot);
      if (r == tx) {
        done_ = true;
        responded_ = true;
        Message m;
        m.kind = MsgKind::kData;
        m.sender = cfg_.self;
        m.depth = cfg_.depth;
        m.slot = cfg_.slot;
        m.payload = cfg_.payload;
        return Action::transmit(m, tdm_.channelOf(cfg_.slot));
      }
      if (r > tx) done_ = true;
      return Action::sleep();
    }

    // Uncovered: one NACK in our depth's sub-window, then listen through
    // the whole data phase.
    if (hasPayload_) {
      done_ = true;
      return Action::sleep();
    }
    const Round nackTx = static_cast<Round>(cfg_.depth) * tdm_.windowLength() +
                         tdm_.roundOffset(cfg_.slot);
    if (r == nackTx) {
      nackSent_ = true;
      Message m;
      m.kind = MsgKind::kNack;
      m.sender = cfg_.self;
      m.depth = cfg_.depth;
      m.slot = cfg_.slot;
      return Action::transmit(m, tdm_.channelOf(cfg_.slot));
    }
    if (r >= nackEnd) return Action::listen();
    return Action::sleep();
  }

  void onReceive(const Message& m, Round r, Channel) override {
    if (cfg_.covered) {
      if (m.kind == MsgKind::kNack) heardNack_ = true;
      return;
    }
    if (m.kind == MsgKind::kData && !hasPayload_) {
      hasPayload_ = true;
      payloadRound_ = r;
    }
  }

  bool isDone() const override { return done_; }

  Round nextWake(Round now) const override {
    if (done_) return kNoWake;
    const Round nackEnd = nackPhaseLength();
    if (cfg_.covered) {
      if (now + 1 < nackEnd) return now + 1;  // NACK-phase listening
      if (!heardNack_ || !cfg_.eligible) return now + 1;  // done transition
      const Round tx = nackEnd +
                       static_cast<Round>(cfg_.depth) * tdm_.windowLength() +
                       tdm_.roundOffset(cfg_.slot);
      return tx > now ? tx : now + 1;
    }
    if (hasPayload_) return now + 1;  // done transition
    const Round nackTx =
        static_cast<Round>(cfg_.depth) * tdm_.windowLength() +
        tdm_.roundOffset(cfg_.slot);
    if (nackTx > now) return nackTx;  // our NACK sub-window slot
    if (now + 1 < nackEnd) return nackEnd;  // sleep out the NACK phase
    return now + 1;  // data-phase listening
  }

  bool hasPayload() const { return hasPayload_; }
  Round payloadRound() const { return payloadRound_; }
  bool nackSent() const { return nackSent_; }
  bool responded() const { return responded_; }

 private:
  Config cfg_;
  TdmMap tdm_;
  bool heardNack_ = false;
  bool hasPayload_ = false;
  Round payloadRound_ = -1;
  bool nackSent_ = false;
  bool responded_ = false;
  bool done_ = false;
};

/// Runs the wave with `scheme` (kCff or kImprovedCff; the DFO token tour
/// has no slot structure to repair against) followed by NACK repair.
ReliableBroadcastRun runReliableBroadcast(BroadcastScheme scheme,
                                          const ClusterNet& net,
                                          NodeId source,
                                          std::uint64_t payload,
                                          const ReliableOptions& options = {});

}  // namespace dsn
