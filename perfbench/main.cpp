// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// One workload per process, so that peak memory is the workload's own
// (run.py's --workload all starts one process per workload).
//
// Prints every metric by name with its unit, then, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 1 when an output check failed.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n       perfbench --selftest\n");
  return 2;
}

void print_report(const std::string& name, const perfbench::WorkloadResult& r) {
  std::printf("== %s\n", name.c_str());
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double fail_ratio =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  %-34s %18.6f %s\n", "fail_ratio", fail_ratio, "ratio");
  if (!r.layers.empty()) {
    if (r.layer_sum_checked) {
      std::printf("  blocking-path self time of the traced passes "
                  "(wall %.4f s, tolerance %.0f%%):\n",
                  r.traced_wall_s, perfbench::kLayerSumTolerance * 100.0);
    } else {
      std::printf("  blocking-path self time of the traced passes "
                  "(wall %.4f s, split only, not checked):\n",
                  r.traced_wall_s);
    }
    for (const perfbench::LayerTime& l : r.layers) {
      std::printf("    %-20s %10.4f s  %5.1f%%\n", l.layer.c_str(), l.seconds,
                  r.traced_wall_s > 0.0 ? 100.0 * l.seconds / r.traced_wall_s
                                        : 0.0);
    }
  }
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  for (const std::string& e : r.errors) std::printf("  ERROR: %s\n", e.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Runs one workload and prints its report; returns the exit code.
int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool trace) {
  const perfbench::WorkloadResult r =
      perfbench::run_workload(workload, seed, seconds, trace);
  print_report(workload, r);
  const bool correct = r.correct && r.errors.empty();
  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = val == "1";
    } else {
      return usage();
    }
  }
  const std::vector<std::string>& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end() ||
      !(seconds > 0.0)) {
    return usage();
  }

  // The workload runs in a forked child. Peak memory (ru_maxrss) survives
  // execve, so a process started from a larger one, such as run.py's
  // interpreter, would report its starter's peak; a forked child counts
  // from this small process instead.
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    return 1;
  }
  if (pid == 0) {
    const int code = run(workload, seed, seconds, trace);
    std::fflush(stdout);
    std::_Exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return 1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
