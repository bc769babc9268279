// perfbench — the dsnet end-to-end benchmark.
//
//   perfbench --workload serve_mixed|large_field|churn_waves --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//   perfbench --list-metrics
//
// Prints `sim_digest <workload> <hex>` and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics.
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

void listMetrics() {
  const auto print = [](const char* key, const std::vector<pb::MetricDef>& defs) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < defs.size(); ++i)
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                  i ? ", " : "", defs[i].name, defs[i].unit, defs[i].better);
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  for (std::size_t i = 0; i < pb::workloads().size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", pb::workloads()[i].name);
  std::printf("], ");
  print("end_to_end", pb::endToEndMetrics());
  std::printf(", ");
  print("per_layer", pb::layerMetrics());
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      listMetrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
      haveWorkload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (!(opt.seconds > 0.0)) return usage();
    } else if (arg == "--spans") {
      opt.spansPath = v;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
    } else {
      return usage();
    }
    if (end && *end != '\0') return usage();
  }
  if (!haveWorkload || !pb::findWorkload(opt.workload)) return usage();

  pb::RunOutput out;
  try {
    out = pb::runWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& p : out.problems)
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  std::printf("sim_digest %s %016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(out.simDigest));
  std::printf("%s\n", pb::resultJson(out, opt.trace).c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
