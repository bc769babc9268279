// serve_mixed: the resident engine's per-job path — parse, warm lease,
// run, record formatting, in-order emit — through ServeEngine::
// serveStream, wsn_serve's entry point. One closed-loop client sends
// fixed chunks of job lines and waits for every record of a chunk
// before sending the next; the engine runs min(nproc, 4) workers over
// 16 warm deployments at the paper's sizes (n = 100..475, 10x10 field).
#include "serve_mixed.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <streambuf>
#include <thread>

#include "obs/metrics.hpp"
#include "paper.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "workload.hpp"

namespace pb {

// ---- job generator ----

namespace {

/// Chunk composition: every chunk holds exactly these counts, in an
/// order the seed shuffles.
constexpr std::pair<JobKind, int> kChunkMix[] = {
    {JobKind::kIcff, 20},     {JobKind::kCff, 9},       {JobKind::kValidate, 7},
    {JobKind::kMulticast, 7}, {JobKind::kGather, 7},    {JobKind::kReliable, 3},
    {JobKind::kDfo, 3},       {JobKind::kRival, 3},     {JobKind::kMutating, 4},
    {JobKind::kMalformed, 1},
};

std::size_t kindCount(JobKind k) {
  for (const auto& [kind, count] : kChunkMix)
    if (kind == k) return static_cast<std::size_t>(count);
  return 0;
}

/// The pool: one deployment of each size 100, 125, ..., 475.
std::size_t deploymentNodes(std::size_t d) { return 100 + 25 * d; }

std::uint64_t deploymentSeed(std::size_t d) {
  return streamSeed(kPoolSeed, 2, d) % 1000000 + 1;
}

std::string head(std::size_t nodes, std::uint64_t depSeed) {
  return "{\"schema\":\"dsnet-job-v1\",\"nodes\":" + std::to_string(nodes) +
         ",\"seed\":" + std::to_string(depSeed);
}

}  // namespace

const char* jobKindName(JobKind k) {
  switch (k) {
    case JobKind::kIcff: return "icff";
    case JobKind::kCff: return "cff";
    case JobKind::kValidate: return "validate";
    case JobKind::kMulticast: return "multicast";
    case JobKind::kGather: return "gather";
    case JobKind::kReliable: return "reliable";
    case JobKind::kDfo: return "dfo";
    case JobKind::kRival: return "rival";
    case JobKind::kMutating: return "mutating";
    case JobKind::kMalformed: return "malformed";
  }
  return "?";
}

std::vector<GeneratedJob> generateChunk(std::uint64_t seed, std::size_t chunk) {
  std::vector<JobKind> kinds;
  for (const auto& [kind, count] : kChunkMix)
    for (int i = 0; i < count; ++i) kinds.push_back(kind);
  SplitMix64 order(streamSeed(seed, 3, chunk));
  for (std::size_t i = kinds.size(); i > 1; --i)
    std::swap(kinds[i - 1], kinds[order.below(i)]);

  // Each kind cycles through the deployment pool from a seed-chosen
  // offset, so every 16 chunks give each kind every deployment equally
  // often: the run's cost mix does not hinge on which sizes the heavy
  // jobs happened to draw.
  std::map<JobKind, std::size_t> seen;
  std::vector<GeneratedJob> jobs;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    GeneratedJob j;
    j.kind = kinds[i];
    SplitMix64 rng(streamSeed(seed, 4, chunk * kChunkSize + i));
    const std::size_t ordinal = chunk * kindCount(j.kind) + seen[j.kind]++;
    j.deployment = (ordinal + streamSeed(seed, 5, static_cast<std::uint64_t>(j.kind))) %
                   kServeDeployments;
    const std::size_t n = deploymentNodes(j.deployment);
    j.source = static_cast<std::uint32_t>(rng.below(n));
    const std::string h = head(n, deploymentSeed(j.deployment));
    const std::string src = std::to_string(j.source);
    const auto x = [&] { return std::to_string(rng.below(1000)); };
    switch (j.kind) {
      case JobKind::kIcff:
        j.line = h + ",\"scenario\":\"broadcast " + src + " icff\"}";
        break;
      case JobKind::kCff:
        j.line = h + ",\"scenario\":\"broadcast " + src + " cff\"}";
        break;
      case JobKind::kDfo:
        j.line = h + ",\"scenario\":\"broadcast " + src + " dfo\"}";
        break;
      case JobKind::kValidate:
        j.line = h + ",\"scenario\":\"validate\"}";
        break;
      case JobKind::kMulticast:
        j.line = h + ",\"scenario\":\"multicast " + src + " 1 pruned\"}";
        break;
      case JobKind::kGather:
        j.line = h + ",\"scenario\":\"gather\"}";
        break;
      case JobKind::kReliable:
        j.line = h + ",\"drop\":0.05,\"scenario\":\"rbroadcast " + src + " icff 8\"}";
        break;
      case JobKind::kRival:
        j.line = h + ",\"scenario\":\"broadcast " + src + " counter\"}";
        break;
      case JobKind::kMutating:
        // The broadcast source is drawn after the mutations, from the
        // nodes still in the net (a moved node may have left it).
        if (rng.below(2) == 0) {
          j.line = h + ",\"scenario\":\"join " + x() + " " + x() + "\\nmove " +
                   std::to_string(rng.below(n)) + " " + x() + " " + x() +
                   "\\nbroadcast random icff\"}";
        } else {
          j.line = h + ",\"scenario\":\"churn 1.5 2\\nbroadcast random icff\"}";
        }
        break;
      case JobKind::kMalformed:
        switch (rng.below(4)) {
          case 0: j.line = h + ",\"scenario\":\"broadcast " + src + " warp\"}"; break;
          case 1: j.line = "{\"schema\":\"dsnet-job-v1\",\"scenario\":\"gather\"}"; break;
          case 2: j.line = h + ",\"scenario\":"; break;
          default: j.line = "not a job line"; break;
        }
        break;
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

// ---- record fields ----

bool recordNumber(std::string_view record, std::string_view key, double& out) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = record.find(needle);
  if (at == std::string_view::npos) return false;
  const char* begin = record.data() + at + needle.size();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  return end != begin;
}

namespace {

/// Reads the "max" of histogram `name` in a record's telemetry section.
bool histogramMax(std::string_view record, std::string_view name, double& out) {
  const std::size_t at = record.find("\"" + std::string(name) + "\":{");
  if (at == std::string_view::npos) return false;
  return recordNumber(record.substr(at), "max", out);
}

}  // namespace

std::string checkRecord(const GeneratedJob& job, std::size_t index,
                        std::string_view record) {
  const std::string pos = std::to_string(index);
  if (job.kind == JobKind::kMalformed) {
    if (record.rfind("{\"schema\":\"dsnet-error-v1\"", 0) != 0)
      return "line " + pos + ": malformed line did not get an error record";
    if (record.find("\"line\":" + std::to_string(index + 1) + ",") ==
        std::string_view::npos)
      return "line " + pos + ": error record out of stream order";
    return {};
  }
  if (record.rfind("{\"schema\":\"dsnet-run-v1\"", 0) != 0)
    return "line " + pos + ": well-formed line did not get a run record";
  if (record.find("\"job\":" + pos + ",") == std::string_view::npos)
    return "line " + pos + ": record out of stream order";
  if (record.find("\"valid\":true") == std::string_view::npos)
    return "line " + pos + ": scenario outcome invalid";
  return {};
}

// ---- the workload ----

namespace {

/// Output buffer that stamps the time each record's newline lands.
class StampingBuf : public std::streambuf {
 public:
  std::string text;
  std::vector<Clock::time_point> stamps;

  void reset() {
    text.clear();
    stamps.clear();
  }

 protected:
  int_type overflow(int_type c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    text.push_back(static_cast<char>(c));
    if (c == '\n') stamps.push_back(Clock::now());
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) overflow(static_cast<unsigned char>(s[i]));
    return n;
  }
};

std::vector<std::string_view> splitLines(const std::string& text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      out.emplace_back(text.data() + start, i - start);
      start = i + 1;
    }
  }
  return out;
}

std::string chunkText(const std::vector<GeneratedJob>& jobs) {
  std::string s;
  for (const GeneratedJob& j : jobs) {
    s += j.line;
    s += '\n';
  }
  return s;
}

int serveWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* tracer) override {
    dsn::serve::ServeOptions so;
    so.jobs = serveWorkers();
    engine_ = std::make_unique<dsn::serve::ServeEngine>(so);
    engine_->warmUp();
    for (std::size_t d = 0; d < kServeDeployments; ++d) {
      const dsn::serve::ServeJob probe = dsn::serve::parseJobLine(
          head(deploymentNodes(d), deploymentSeed(d)) +
              ",\"scenario\":\"validate\"}",
          0);
      const dsn::NetworkConfig cfg = dsn::serve::jobNetworkConfig(probe);
      configs_.push_back(cfg);
      SpanScope s(tracer, "cluster.build");
      const auto lease = engine_->cache().lease(cfg);
      bounds_.push_back(PaperBounds::of(lease.network()));
    }
  }

  void step(std::size_t c, RunCtx& ctx) override {
    const std::vector<GeneratedJob> jobs = generateChunk(seed_, c);
    const std::string text = chunkText(jobs);
    const bool window = ctx.inWindow();
    out_.reset();
    std::ostream os(&out_);
    std::istringstream is(text);
    const auto t0 = Clock::now();
    dsn::serve::ServeReport rep;
    {
      SpanScope s(ctx.tracer, "serve.stream");
      rep = engine_->serveStream(is, os);
    }
    const auto checks0 = Clock::now();
    if (!out_.stamps.empty()) {
      firstRecordMs_ += msBetween(t0, out_.stamps.front());
      ++chunks_;
    }
    hits_ += rep.cache.hits;
    lookups_ += rep.cache.hits + rep.cache.misses;
    csrStale_ += rep.cache.csrStale;
    if (c == 0) firstChunk_ = out_.text;

    const std::vector<std::string_view> records = splitLines(out_.text);
    bool chunkOk = records.size() == jobs.size() && out_.stamps.size() == jobs.size();
    if (!chunkOk) ctx.problem("chunk " + std::to_string(c) + ": record count mismatch");
    std::size_t malformed = 0;
    for (const GeneratedJob& j : jobs) malformed += j.kind == JobKind::kMalformed;
    if (rep.parseErrors != malformed || rep.jobsFailed != 0 || rep.invalidOutcomes != 0 ||
        rep.cache.csrStale != 0) {
      ctx.problem("chunk " + std::to_string(c) + ": engine report: " +
                  std::to_string(rep.parseErrors) + " parse errors (" +
                  std::to_string(malformed) + " malformed lines), " +
                  std::to_string(rep.jobsFailed) + " failed jobs, " +
                  std::to_string(rep.invalidOutcomes) + " invalid outcomes, " +
                  std::to_string(rep.cache.csrStale) + " stale snapshots");
      chunkOk = false;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      bool ok = chunkOk;
      const std::string_view rec = i < records.size() ? records[i] : std::string_view{};
      if (ok) {
        const std::string problem = checkRecord(jobs[i], i, rec);
        if (!problem.empty()) {
          ctx.problem("chunk " + std::to_string(c) + " " + problem);
          ok = false;
        }
      }
      if (ok) ok = checkSim(jobs[i], rec, window, ctx);
      const double ms = i < out_.stamps.size() ? msBetween(t0, out_.stamps[i]) : 0.0;
      ctx.op(jobKindName(jobs[i].kind), ms, ok);
    }
    if (window) {
      fnvFoldBytes(ctx.sim.digest, out_.text);
      for (const std::string_view r : records) {
        recordBytes_ += r.size();
        ++records_;
        double v = 0;
        if (r.find("\"mutates\":true") != std::string_view::npos) ++privateBuilds_;
        if (recordNumber(r, "sim.rounds", v)) ctx.sim.rounds += static_cast<std::uint64_t>(v);
        if (recordNumber(r, "sim.transmissions", v))
          ctx.sim.transmissions += static_cast<std::uint64_t>(v);
        if (recordNumber(r, "sim.deliveries", v)) ctx.sim.deliveries += static_cast<std::uint64_t>(v);
        if (recordNumber(r, "sim.collisions", v)) ctx.sim.collisions += static_cast<std::uint64_t>(v);
        if (recordNumber(r, "broadcast.delivered", v)) ctx.sim.useful += static_cast<std::uint64_t>(v);
        if (recordNumber(r, "cluster.move_in", v)) moveIns_ += static_cast<std::uint64_t>(v);
      }
      windowLines_.push_back(text);
    }
    ctx.excludedMs += msBetween(checks0, Clock::now());
  }

  /// Serving one sampled chunk on a single worker must give the bytes
  /// the multi-worker engine emitted.
  void finish(RunCtx& ctx) override {
    if (firstChunk_.empty()) return;
    dsn::serve::ServeEngine solo(dsn::serve::ServeOptions{});
    std::istringstream is(chunkText(generateChunk(seed_, 0)));
    std::ostringstream os;
    solo.serveStream(is, os);
    if (os.str() != firstChunk_) {
      ctx.problem("chunk 0 differs between 1 worker and " +
                  std::to_string(serveWorkers()) + " workers");
      ctx.op("cross_check", 0.0, false);
    }
  }

  void layers(const TracedInputs& in, std::map<std::string, double>& out) override {
    const Tracer& t = in.tracer;
    const Tracer::Totals build = t.of("cluster.build");
    out["cluster.build_ms"] = build.count ? build.totalMs / static_cast<double>(build.count) : 0;
    out["cluster.move_in_calls"] = static_cast<double>(moveIns_);
    out["serve.first_record_ms"] = chunks_ ? firstRecordMs_ / static_cast<double>(chunks_) : 0;
    out["serve.record_bytes"] =
        records_ ? static_cast<double>(recordBytes_) / static_cast<double>(records_) : 0;
    out["serve.cache_hit_ratio"] =
        lookups_ ? static_cast<double>(hits_) / static_cast<double>(lookups_) : 0;
    out["serve.private_builds"] = static_cast<double>(privateBuilds_);
    out["serve.csr_stale"] = static_cast<double>(csrStale_);
    radioLayers(in.traced.sim, out);
    out.erase("radio.host_ns_per_round");
    out.erase("radio.host_ns_per_delivery");
    out["radio.host_ns_per_round"] = 0;
    out["radio.host_ns_per_delivery"] = 0;
    replay(in.seconds / 2, in.tracer, out);
    out["exec.parallel_efficiency"] = parallelEfficiency(in.seconds / 2);
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<dsn::serve::ServeEngine> engine_;
  std::vector<PaperBounds> bounds_;
  std::vector<dsn::NetworkConfig> configs_;
  StampingBuf out_;
  std::string firstChunk_;
  std::vector<std::string> windowLines_;
  double firstRecordMs_ = 0;
  std::size_t chunks_ = 0;
  std::uint64_t hits_ = 0, lookups_ = 0, csrStale_ = 0;
  std::uint64_t recordBytes_ = 0, records_ = 0, privateBuilds_ = 0, moveIns_ = 0;

  void warm(dsn::serve::ServeEngine& e) {
    e.warmUp();
    for (const dsn::NetworkConfig& cfg : configs_) e.cache().lease(cfg);
  }

  /// Simulated totals and paper-bound checks from one record.
  bool checkSim(const GeneratedJob& job, std::string_view rec, bool window, RunCtx& ctx) {
    double coverage = 1, intended = 0;
    recordNumber(rec, "worst_coverage", coverage);
    recordNumber(rec, "broadcast.intended", intended);
    const bool broadcastType = job.kind == JobKind::kIcff || job.kind == JobKind::kCff ||
                               job.kind == JobKind::kDfo || job.kind == JobKind::kReliable ||
                               job.kind == JobKind::kRival || job.kind == JobKind::kMutating;
    if (window && broadcastType) {
      ctx.sim.intended += intended;
      ctx.sim.delivered += coverage * intended;
    }
    if (job.kind != JobKind::kIcff && job.kind != JobKind::kCff && job.kind != JobKind::kDfo)
      return true;
    if (coverage < 1.0) {
      ctx.problem(std::string(jobKindName(job.kind)) + ": clean-channel coverage below 1");
      return false;
    }
    // Rounds and awake time ride in the record's telemetry section,
    // present when the engine runs with telemetry on (as wsn_serve does).
    if (!dsn::obs::enabled()) return true;
    const dsn::BroadcastScheme scheme = job.kind == JobKind::kIcff ? dsn::BroadcastScheme::kImprovedCff
                                        : job.kind == JobKind::kCff ? dsn::BroadcastScheme::kCff
                                                                    : dsn::BroadcastScheme::kDfo;
    double rounds = 0, awake = 0;
    if (!histogramMax(rec, "broadcast.delivery_latency", rounds) ||
        !recordNumber(rec, "broadcast.max_awake_rounds", awake)) {
      ctx.problem(std::string(jobKindName(job.kind)) + " record lacks broadcast telemetry");
      return false;
    }
    bool ok = true;
    const PaperBounds& b = bounds_[job.deployment];
    ok &= checkBound(ctx, window, jobKindName(job.kind), rounds, b.rounds(scheme, job.source));
    if (scheme != dsn::BroadcastScheme::kDfo)
      ok &= checkBound(ctx, window, jobKindName(job.kind), awake, b.awake(scheme, job.source));
    if (window) {
      ++ctx.sim.broadcasts;
      ctx.sim.roundsSum += rounds;
      ctx.sim.awakeSum += awake;
    }
    return ok;
  }

  /// Serial replay of the window's lines through the public calls the
  /// engine makes per job: parse, then the whole job on a one-worker
  /// engine (lease + runScenario + record + emit), then runScenario and
  /// validate alone on the leased network.
  void replay(double seconds, Tracer& t, std::map<std::string, double>& out) {
    dsn::serve::ServeEngine solo(dsn::serve::ServeOptions{});
    warm(solo);
    std::string sink;
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
    std::uint32_t op = 0;
    for (const std::string& text : windowLines_) {
      if (Clock::now() > deadline) break;
      std::size_t start = 0;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\n') continue;
        const std::string line = text.substr(start, i - start);
        start = i + 1;
        t.setOp(op++);
        dsn::serve::ServeJob job;
        {
          SpanScope s(&t, "serve.parse");
          job = dsn::serve::parseJobLine(line, 0);
        }
        {
          SpanScope s(&t, "serve.job");
          solo.serveJobs({job}, [&](std::string_view rec) {
            SpanScope e(&t, "serve.emit");
            sink.assign(rec);
          });
        }
        if (job.failed() || job.mutates) continue;
        const auto lease = solo.cache().lease(dsn::serve::jobNetworkConfig(job));
        auto& net = const_cast<dsn::SensorNetwork&>(lease.network());
        {
          SpanScope s(&t, "core.scenario");
          dsn::runScenario(net, job.events, dsn::serve::jobScenarioOptions(job));
        }
        SpanScope s(&t, "core.validate");
        net.validate();
      }
    }
    const auto meanUs = [&](const char* name) {
      const Tracer::Totals s = t.of(name);
      return s.count ? 1000.0 * s.totalMs / static_cast<double>(s.count) : 0.0;
    };
    out["serve.parse_us"] = meanUs("serve.parse");
    out["serve.job_us"] = meanUs("serve.job");
    out["serve.emit_us"] = meanUs("serve.emit");
    out["core.scenario_ms"] = meanUs("core.scenario") / 1000.0;
    out["core.validate_ms"] = meanUs("core.validate") / 1000.0;
  }

  /// ops/s at W workers over (W x ops/s at one worker), same chunks,
  /// both engines warm.
  double parallelEfficiency(double seconds) {
    const int w = serveWorkers();
    const auto rate = [&](int workers) {
      dsn::serve::ServeOptions so;
      so.jobs = workers;
      dsn::serve::ServeEngine e(so);
      warm(e);
      std::ostringstream sink;
      std::size_t jobs = 0;
      const auto t0 = Clock::now();
      const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds / 2));
      for (std::size_t c = 0; c < windowLines_.size() && Clock::now() < deadline; ++c) {
        std::istringstream is(windowLines_[c]);
        jobs += e.serveStream(is, sink).jobsRun;
      }
      return static_cast<double>(jobs) / (msBetween(t0, Clock::now()) / 1000.0);
    };
    const double one = rate(1);
    return rate(w) / (static_cast<double>(w) * one);
  }
};

}  // namespace

std::unique_ptr<Workload> makeServeMixed(std::uint64_t seed) {
  return std::make_unique<ServeMixed>(seed);
}

}  // namespace pb
