// The benchmark's workloads. Each one is a closed loop on this process
// (at most four busy threads) that repeats one fixed unit of work, built
// from the seed, until the requested time has passed, and checks every
// unit's output. README.md in this directory lists the metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One line of the layer-sum table: a layer's self time on the blocking
/// path of the traced passes.
struct LayerTime {
  std::string layer;
  double seconds = 0.0;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<LayerTime> layers;  ///< traced runs only
  double traced_wall_s = 0.0;     ///< traced runs only
  bool layer_sum_checked = false;  ///< the table must add up to the wall
  std::vector<std::string> notes;   ///< digests and sizes, for the report
  std::vector<std::string> errors;
};

/// The default seed, at which every deterministic digest is pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Tolerated |traced wall - sum of layer self times| / traced wall.
inline constexpr double kLayerSumTolerance = 0.05;

const std::vector<std::string>& workload_names();

/// Runs `name` for about `seconds`. Untraced runs report the end-to-end
/// metrics; traced runs alternate untraced and traced passes and report
/// the per-layer metrics.
WorkloadResult run_workload(const std::string& name, std::uint64_t seed,
                            double seconds, bool trace);

/// Shows on small cells that the probes leave every digest unchanged.
/// Returns the number of failed checks.
int run_selftest();

}  // namespace perfbench
