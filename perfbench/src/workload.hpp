// The workload interface, the metric catalogue, and the timed passes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

/// Inputs the traced run hands a workload for its per-layer report.
struct TracedInputs {
  /// The traced pass (window sums in traced.sim).
  const RunCtx& traced;
  /// The traced pass's spans; extra measurements add their spans here.
  Tracer& tracer;
  /// obs counter deltas over the simulation window of the pass that ran
  /// with telemetry on.
  const std::map<std::string, std::uint64_t>& obsCounters;
  /// Wall budget for any extra measurement the workload makes.
  double seconds;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every deployment the workload uses and warms its engines.
  /// Runs on one thread; the caller times it as setup_s.
  virtual void setup(Tracer* tracer) = 0;
  /// Runs op batch `step` (one or more ops) into `ctx`.
  virtual void step(std::size_t step, RunCtx& ctx) = 0;
  /// Runs end on a multiple of this many ops, so every run carries
  /// whole rotations of the op mix.
  virtual std::size_t period() const { return 1; }
  /// Output checks that need the whole pass; not timed.
  virtual void finish(RunCtx& ctx) { (void)ctx; }
  /// Per-layer values for the traced report (names from layerMetrics()).
  virtual void layers(const TracedInputs& in,
                      std::map<std::string, double>& out) = 0;
};

struct WorkloadInfo {
  const char* name;
  /// Ops in the simulation window; also the minimum ops of a run.
  std::size_t simWindow;
  /// Telemetry state the workload's entry point runs with (wsn_serve
  /// runs with obs on; library calls default to off).
  bool telemetryOn;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

const std::vector<WorkloadInfo>& workloads();
const WorkloadInfo* findWorkload(const std::string& name);

std::unique_ptr<Workload> makeServeMixed(std::uint64_t seed);
std::unique_ptr<Workload> makeLargeField(std::uint64_t seed);
std::unique_ptr<Workload> makeChurnWaves(std::uint64_t seed);

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};
/// End-to-end metrics, printed by untraced runs (BENCHMARK.json end_to_end).
const std::vector<MetricDef>& endToEndMetrics();
/// Per-layer metrics, printed by traced runs (BENCHMARK.json per_layer).
const std::vector<MetricDef>& layerMetrics();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs write the traced pass's spans here (JSONL) when set.
  std::string spansPath;
};

/// The JSON result line plus its parts.
struct RunOutput {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;
  std::uint64_t simDigest = 0;
  std::vector<std::string> problems;
};

/// Fills the radio.* layer values from a window's simulated totals.
void radioLayers(const SimTotals& sim, std::map<std::string, double>& out);

/// Runs one invocation (untraced or traced) of one workload.
RunOutput runWorkload(const Options& opt);

/// Renders the result object (one line, no trailing newline).
std::string resultJson(const RunOutput& out, bool trace);

/// Peak resident set of this process, MiB.
double peakRssMb();

}  // namespace pb
