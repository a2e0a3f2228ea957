// lan_perfbench: the LAN end-to-end benchmark driver.
//
//   lan_perfbench --workload <paper_protocol|hot_repeat|churn> --seed <n>
//                 --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints a human-readable summary, then as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones (tracing off); with --trace 1 they are
// the per-layer ones. perfbench/run.py builds this binary and runs it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "lan_perfbench: %s\nusage: lan_perfbench --workload "
               "<paper_protocol|hot_repeat|churn> --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload_name = value;
      have_workload = true;
      if (a.workload_name == "paper_protocol") {
        a.workload = WorkloadKind::kPaperProtocol;
      } else if (a.workload_name == "hot_repeat") {
        a.workload = WorkloadKind::kHotRepeat;
      } else if (a.workload_name == "churn") {
        a.workload = WorkloadKind::kChurn;
      } else {
        Usage("unknown workload");
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
      if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      a.workdir = value;
      have_workdir = true;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload || !have_workdir) Usage("--workload and --workdir needed");
  return a;
}

std::vector<Metric> EndToEndMetrics(const PhaseOutput& phase,
                                    const CheckResult& checks,
                                    const Served& served, double setup_s) {
  double ndc = 0.0;
  int64_t measured = 0;
  for (const QueryRecord& r : phase.queries) {
    if (r.traced) continue;
    ndc += static_cast<double>(r.result.stats.ndc);
    ++measured;
  }
  return {
      {"setup_s", setup_s, "s"},
      {"qps",
       phase.round_qps.empty()
           ? static_cast<double>(phase.measured_queries) / phase.query_wall_s
           : Percentile(phase.round_qps, 50),
       "queries/s"},
      {"query_p50_ms", Percentile(phase.query_latencies, 50) * 1e3, "ms"},
      {"query_p90_ms", Percentile(phase.query_latencies, 90) * 1e3, "ms"},
      {"recall_at_10", checks.recall_at_10, "fraction"},
      {"ndc_per_query", ndc / static_cast<double>(std::max<int64_t>(1, measured)),
       "calls/query"},
      {"peak_rss_mb", phase.peak_rss_mb, "MB"},
      {"snapshot_mb", static_cast<double>(served.snapshot_bytes) / (1 << 20),
       "MB"},
      {"insert_p50_ms", Percentile(phase.insert_latencies, 50) * 1e3, "ms"},
      {"insert_p90_ms", Percentile(phase.insert_latencies, 90) * 1e3, "ms"},
  };
}

void Report(const Args& args, const PhaseOutput& phase,
            const CheckResult& checks, const std::vector<Metric>& metrics) {
  std::printf("workload %s  seed %llu  %s run  %lld queries timed\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced",
              static_cast<long long>(phase.queries.size()));
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted %lld  failed %lld  correct %s\n",
              static_cast<long long>(checks.attempted),
              static_cast<long long>(checks.failed),
              checks.correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += checks.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  lan::SetLogLevel(lan::LogLevel::kWarning);
  const int threads = std::max(
      1, std::min<int>(kMaxThreads,
                       static_cast<int>(std::thread::hardware_concurrency())));
  std::filesystem::create_directories(args.workdir);

  const Inputs inputs = MakeInputs(args.workload, args.seed);
  // Untraced runs set up kSetupRepeats times and serve the last index;
  // setup_s is the median. Each earlier index is gone before the next
  // setup starts (paper_protocol reuses the snapshot path).
  const int repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setups;
  Served served;
  for (int r = 0; r < repeats; ++r) {
    served = Served{};
    served = SetUp(args.workload, inputs, threads, args.workdir);
    setups.push_back(served.setup_s);
    std::fprintf(stderr, "perfbench: setup %d: %.3f s\n", r, served.setup_s);
  }
  if (args.workload != WorkloadKind::kPaperProtocol) {
    // Untimed: snapshot size and save/open cost of the freshly set-up
    // index (paper_protocol measures these inside its setup).
    MeasureSnapshot(&served, args.workdir);
  }
  double t = Now();
  PhaseOutput phase = RunPhase(args, inputs, &served, threads);
  std::fprintf(stderr, "perfbench: timed phase + write probe: %.3f s\n",
               Now() - t);
  t = Now();
  const CheckResult checks = RunChecks(args, inputs, served, phase, threads);
  std::fprintf(stderr, "perfbench: checks: %.3f s\n", Now() - t);
  t = Now();
  const std::vector<Metric> metrics =
      args.trace ? LayerMetrics(inputs, served, phase, checks)
                 : EndToEndMetrics(phase, checks, served,
                                   Percentile(setups, 50));
  std::fprintf(stderr, "perfbench: metrics: %.3f s\n", Now() - t);
  Report(args, phase, checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
