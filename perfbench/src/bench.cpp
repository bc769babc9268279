#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "workload.hpp"

namespace pb {

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> all = {
      {"serve_mixed", 1024, true, &makeServeMixed},
      {"large_field", 1000, false, &makeLargeField},
      {"churn_waves", 2500, false, &makeChurnWaves},
  };
  return all;
}

const WorkloadInfo* findWorkload(const std::string& name) {
  for (const WorkloadInfo& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> all = {
      {"ops_per_s", "ops/s", "higher"},
      {"op_ms_p50", "ms", "lower"},
      {"op_ms_p90", "ms", "lower"},
      {"op_ms_p99", "ms", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
      {"ok_ratio", "ratio", "higher"},
      {"coverage", "ratio", "higher"},
      {"rounds_per_broadcast", "rounds", "lower"},
      {"awake_per_broadcast", "rounds", "lower"},
      {"bound_ratio_max", "ratio", "lower"},
  };
  return all;
}

const std::vector<MetricDef>& layerMetrics() {
  static const std::vector<MetricDef> all = {
      {"serve.parse_us", "us", "lower"},
      {"serve.job_us", "us", "lower"},
      {"serve.first_record_ms", "ms", "lower"},
      {"serve.emit_us", "us", "lower"},
      {"serve.record_bytes", "bytes", "lower"},
      {"serve.cache_hit_ratio", "ratio", "higher"},
      {"serve.private_builds", "count", "lower"},
      {"serve.csr_stale", "count", "lower"},
      {"exec.parallel_efficiency", "ratio", "higher"},
      {"core.scenario_ms", "ms", "lower"},
      {"core.validate_ms", "ms", "lower"},
      {"cluster.build_ms", "ms", "lower"},
      {"cluster.tick_ms", "ms", "lower"},
      {"cluster.moves", "count", "lower"},
      {"cluster.repairs", "count", "lower"},
      {"cluster.rebuilds", "count", "lower"},
      {"cluster.rebuild_ratio", "ratio", "lower"},
      {"cluster.move_in_calls", "count", "lower"},
      {"cluster.maintenance_rounds", "rounds", "lower"},
      {"graph.csr_rebuilds", "count", "lower"},
      {"graph.csr_build_ms", "ms", "lower"},
      {"radio.rounds", "rounds", "lower"},
      {"radio.transmissions", "count", "lower"},
      {"radio.deliveries", "count", "lower"},
      {"radio.collisions", "count", "lower"},
      {"radio.host_ns_per_round", "ns", "lower"},
      {"radio.host_ns_per_delivery", "ns", "lower"},
      {"radio.useful_delivery_ratio", "ratio", "higher"},
      {"broadcast.slotted_ms", "ms", "lower"},
      {"broadcast.slotted_share", "ratio", "lower"},
      {"broadcast.dfo_ms", "ms", "lower"},
      {"broadcast.dfo_share", "ratio", "lower"},
      {"broadcast.reliable_ms", "ms", "lower"},
      {"broadcast.reliable_share", "ratio", "lower"},
      {"broadcast.gather_ms", "ms", "lower"},
      {"broadcast.gather_share", "ratio", "lower"},
      {"broadcast.multicast_ms", "ms", "lower"},
      {"broadcast.multicast_share", "ratio", "lower"},
      {"broadcast.repair_rounds", "rounds", "lower"},
      {"broadcast.inflight_resync_ms", "ms", "lower"},
      {"mobility.displaced_ratio", "ratio", "lower"},
      {"obs.bench_trace_overhead", "ratio", "lower"},
      {"obs.telemetry_overhead", "ratio", "lower"},
  };
  return all;
}

double peakRssMb() {
  // VmHWM is this process image's own peak. ru_maxrss would not do: Linux
  // carries the launching process's peak across exec into it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void radioLayers(const SimTotals& sim, std::map<std::string, double>& out) {
  out["radio.rounds"] = static_cast<double>(sim.rounds);
  out["radio.transmissions"] = static_cast<double>(sim.transmissions);
  out["radio.deliveries"] = static_cast<double>(sim.deliveries);
  out["radio.collisions"] = static_cast<double>(sim.collisions);
  if (sim.rounds > 0)
    out["radio.host_ns_per_round"] =
        sim.hostMs * 1e6 / static_cast<double>(sim.rounds);
  if (sim.deliveries > 0) {
    out["radio.host_ns_per_delivery"] =
        sim.hostMs * 1e6 / static_cast<double>(sim.deliveries);
    out["radio.useful_delivery_ratio"] =
        static_cast<double>(sim.useful) / static_cast<double>(sim.deliveries);
  }
}

namespace {

/// setup_s repeats set-up at least this often, and until this much set-up
/// time has accumulated, then reports the median.
constexpr int kSetupMinRepeats = 5;
constexpr double kSetupMinTotalS = 0.5;

struct Pass {
  RunCtx ctx;
  double wallMs = 0.0;
  double opsPerS = 0.0;
  double peakRssMb = 0.0;
  std::map<std::string, std::uint64_t> windowCounters;
};

std::map<std::string, std::uint64_t> counterSnapshot() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : dsn::obs::processMetrics().counters())
    out[name] = value;
  return out;
}

/// Runs ops until `seconds` have passed and at least `minOps` ran, ending
/// on a whole op period. The first `window` ops feed the simulated totals.
/// With `speed`, the host speed is sampled every 100 ms between ops; the
/// probe's time is not part of the pass.
Pass runPass(Workload& w, std::size_t window, std::size_t minOps,
             double seconds, Tracer* tracer, HostSpeed* speed) {
  Pass p;
  p.ctx.tracer = tracer;
  p.ctx.simWindow = window;
  std::map<std::string, std::uint64_t> before = counterSnapshot();
  bool windowDone = false;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const double probeBefore = speed ? speed->spentMs() : 0.0;
  auto nextSample = t0;
  for (std::size_t s = 0; p.ctx.attempted < minOps || Clock::now() < deadline ||
                          p.ctx.attempted % w.period() != 0;
       ++s) {
    if (tracer) tracer->setOp(static_cast<std::uint32_t>(s));
    if (speed && Clock::now() >= nextSample) {
      speed->sample();
      nextSample = Clock::now() + std::chrono::milliseconds(100);
    }
    w.step(s, p.ctx);
    if (!windowDone && p.ctx.attempted >= window) {
      windowDone = true;
      for (const auto& [name, value] : counterSnapshot())
        p.windowCounters[name] = value - before[name];
    }
  }
  p.wallMs = msBetween(t0, Clock::now()) - p.ctx.excludedMs -
             (speed ? speed->spentMs() - probeBefore : 0.0);
  p.peakRssMb = peakRssMb();
  const std::size_t completed = p.ctx.attempted - p.ctx.failed;
  p.opsPerS = static_cast<double>(completed) / (p.wallMs / 1000.0);
  return p;
}

std::unique_ptr<Workload> setUp(const WorkloadInfo& info, std::uint64_t seed,
                                Tracer* tracer, double* seconds) {
  const auto t0 = Clock::now();
  std::unique_ptr<Workload> w = info.make(seed);
  w->setup(tracer);
  if (seconds) *seconds = msBetween(t0, Clock::now()) / 1000.0;
  return w;
}

void collect(RunOutput& out, const RunCtx& ctx) {
  out.attempted += ctx.attempted;
  out.failed += ctx.failed;
  for (const std::string& f : ctx.failures) out.problems.push_back(f);
}

RunOutput untraced(const WorkloadInfo& info, const Options& opt,
                   std::size_t window) {
  RunOutput out;
  // setup_s: the median of several complete set-ups on this thread; the
  // last one's state is what the timed phase runs on.
  HostSpeed speed;
  std::vector<double> setupS;
  std::unique_ptr<Workload> w;
  double setupTotal = 0.0;
  while (setupS.size() < kSetupMinRepeats || setupTotal < kSetupMinTotalS) {
    w.reset();
    speed.sample();
    double s = 0.0;
    w = setUp(info, opt.seed, nullptr, &s);
    setupS.push_back(s);
    setupTotal += s;
  }

  dsn::obs::setEnabled(info.telemetryOn);
  Pass p = runPass(*w, window, window, opt.seconds, nullptr, &speed);
  w->finish(p.ctx);
  dsn::obs::setEnabled(false);
  collect(out, p.ctx);

  const SimTotals& sim = p.ctx.sim;
  const std::vector<double>& lat = p.ctx.latencyMs;
  // Wall-clock figures are reported at the reference host speed.
  const double f = speed.factor();
  auto& m = out.metrics;
  m["ops_per_s"] = p.opsPerS / f;
  m["op_ms_p50"] = percentile(lat, 50.0) * f;
  m["op_ms_p90"] = percentile(lat, 90.0) * f;
  m["op_ms_p99"] = percentile(lat, 99.0) * f;
  // Every reported percentile needs at least 10 samples beyond it.
  if (highestSupportedPercentile({50.0, 90.0, 99.0}, lat.size()) < 99.0) {
    out.problems.push_back("p99 needs " + std::to_string(samplesNeededFor(99)) +
                           " samples, the run has " + std::to_string(lat.size()));
  }
  m["setup_s"] = median(setupS) * f;
  m["peak_rss_mb"] = p.peakRssMb;
  m["ok_ratio"] = p.ctx.attempted == 0
                      ? 0.0
                      : static_cast<double>(p.ctx.attempted - p.ctx.failed) /
                            static_cast<double>(p.ctx.attempted);
  m["coverage"] = sim.intended > 0 ? sim.delivered / sim.intended : 0.0;
  const double b = static_cast<double>(std::max<std::size_t>(1, sim.broadcasts));
  m["rounds_per_broadcast"] = sim.roundsSum / b;
  m["awake_per_broadcast"] = sim.awakeSum / b;
  m["bound_ratio_max"] = sim.boundRatioMax;
  out.simDigest = sim.digest;

  std::fprintf(stderr,
               "%s: %zu ops in %.1f s; %zu set-ups, median %.4f s; host speed "
               "factor %.4f; unscaled ops/s %.2f, p50 %.4f ms, p90 %.4f ms, "
               "p99 %.4f ms\n",
               info.name, p.ctx.attempted, p.wallMs / 1000.0, setupS.size(),
               median(setupS), f, p.opsPerS, percentile(lat, 50.0),
               percentile(lat, 90.0), percentile(lat, 99.0));
  std::fprintf(stderr, "  op time by class:");
  double total = 0.0;
  for (const auto& [cls, t] : p.ctx.classTime) total += t.ms;
  for (const auto& [cls, t] : p.ctx.classTime)
    std::fprintf(stderr, " %s %zu ops %.1f%% (%.3f ms/op);", cls.c_str(),
                 t.count, 100.0 * t.ms / total, t.ms / static_cast<double>(t.count));
  std::fprintf(stderr, "\n");
  return out;
}

/// The traced run: after a warm-up pass, three passes over exactly the
/// simulation window's ops — untraced, telemetry toggled, and traced — so
/// their rates compare the same work; then the workload's per-layer
/// report.
RunOutput traced(const WorkloadInfo& info, const Options& opt,
                 std::size_t window) {
  RunOutput out;
  const auto pass = [&](bool telemetry, Tracer* tracer, std::size_t ops,
                        std::unique_ptr<Workload>* keep) {
    auto w = setUp(info, opt.seed, tracer, nullptr);
    dsn::obs::setEnabled(telemetry);
    Pass p = runPass(*w, window, ops, 0.0, tracer, nullptr);
    w->finish(p.ctx);
    dsn::obs::setEnabled(false);
    collect(out, p.ctx);
    if (keep) *keep = std::move(w);
    return p;
  };
  // The process's first pass runs slower (allocator growth, cold code);
  // an untimed pass over the same ops absorbs that before the compared
  // passes.
  pass(info.telemetryOn, nullptr, window, nullptr);
  const Pass a = pass(info.telemetryOn, nullptr, window, nullptr);
  const Pass c = pass(!info.telemetryOn, nullptr, window, nullptr);
  Tracer tracer;
  std::unique_ptr<Workload> w;
  const Pass b = pass(info.telemetryOn, &tracer, window, &w);

  const Pass& on = info.telemetryOn ? a : c;
  const Pass& off = info.telemetryOn ? c : a;
  std::map<std::string, double> layers;
  for (const MetricDef& d : layerMetrics()) layers[d.name] = 0.0;
  const TracedInputs in{b.ctx, tracer, on.windowCounters, opt.seconds};
  w->layers(in, layers);
  if (!opt.spansPath.empty()) {
    std::ofstream spans(opt.spansPath);
    tracer.writeJsonl(spans);
    if (!spans) throw std::runtime_error("cannot write " + opt.spansPath);
  }
  layers["obs.bench_trace_overhead"] = a.opsPerS / b.opsPerS;
  layers["obs.telemetry_overhead"] = off.opsPerS / on.opsPerS;
  for (const auto& [name, value] : layers) {
    bool known = false;
    for (const MetricDef& d : layerMetrics()) known |= name == d.name;
    if (!known) throw std::logic_error("unlisted layer metric " + name);
  }
  out.metrics = layers;
  out.simDigest = b.ctx.sim.digest;
  std::fprintf(stderr, "%s traced: %zu ops per pass; ops/s untraced %.1f, "
               "traced %.1f, telemetry on %.1f, off %.1f\n",
               info.name, window, a.opsPerS, b.opsPerS, on.opsPerS, off.opsPerS);
  return out;
}

}  // namespace

RunOutput runWorkload(const Options& opt) {
  const WorkloadInfo* info = findWorkload(opt.workload);
  if (!info) throw std::invalid_argument("unknown workload " + opt.workload);
  RunOutput out = opt.trace ? traced(*info, opt, info->simWindow)
                            : untraced(*info, opt, info->simWindow);
  if (out.failed > 0 || !out.problems.empty()) out.correct = false;
  return out;
}

std::string resultJson(const RunOutput& out, bool trace) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : trace ? layerMetrics() : endToEndMetrics()) {
    const auto it = out.metrics.find(d.name);
    if (it == out.metrics.end()) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    if (!first) s += ", ";
    first = false;
    s += "\"";
    s += d.name;
    s += "\": {\"value\": ";
    s += buf;
    s += ", \"unit\": \"";
    s += d.unit;
    s += "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace pb
