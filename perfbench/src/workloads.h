#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// @file
/// The benchmark's three workloads (see NOTES.md for why each exists) and
/// the report they fill: end-to-end metrics on untraced runs, per-layer
/// metrics on the traced run, and a count of checked operations.

#include <cstdint>
#include <string>
#include <vector>

#include "core/tqsim.h"
#include "tracing.h"

namespace perfbench {

/// Pinned configuration: every knob that would otherwise auto-calibrate
/// per host, so two commits on one host do identical work.
inline constexpr double kCopyCostGates = 10.0;
inline constexpr int kMaxFusedQubits = 4;
inline constexpr std::uint64_t kFusedDiagThreshold = std::uint64_t{1} << 22;
inline constexpr int kThreads = 1;

/// Command-line inputs of one benchmark run.
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Where the traced run writes its span file ("" = nowhere).
    std::string trace_path;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a run prints: operations attempted/failed and its metrics.
class Report
{
  public:
    /// Counts one checked operation; a false @p ok is a failure and is
    /// printed with @p what.
    bool check(bool ok, const std::string& what);

    void add_metric(const std::string& name, double value,
                    const std::string& unit);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<Metric>& metrics() const { return metrics_; }

    /// The one-line JSON result.
    std::string json() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/// Shared run options with the pinned knobs applied.
tqsim::core::RunOptions pinned_options(std::uint64_t shots,
                                       std::uint64_t seed);

/// One decorated execution and what its decorators recorded.
struct TracedRun
{
    Recorder rec;
    tqsim::core::RunResult result;
};

/// Runs @p circuit through core::plan + core::execute_tree on decorated
/// backend, arena, transport (sharded runs) and plan cache; the baseline
/// plan (N,1) when @p baseline_shots > 0.
TracedRun traced_run(const tqsim::sim::Circuit& circuit,
                     const tqsim::noise::NoiseModel& model,
                     const tqsim::core::RunOptions& opt,
                     std::uint64_t baseline_shots = 0);

/// Holds a traced run to the untraced run @p plain of the same inputs:
/// bit-identical distribution and deterministic counters, and decorator
/// counts equal to ExecStats (state copies, transport bytes and messages,
/// channel applications; branch applications for pure unitary-mixture
/// models, renormalizations for pure general-channel models).
void check_traced(const TracedRun& traced,
                  const tqsim::core::RunResult& plain,
                  const tqsim::noise::NoiseModel& model,
                  const std::string& what, Report& report);

void run_suite_depol(const Options& opt, Report& report);
void run_wide_ideal_sharded(const Options& opt, Report& report);
void run_service_loop(const Options& opt, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
