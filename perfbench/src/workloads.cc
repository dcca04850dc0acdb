#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/qft.h"
#include "circuits/qsc.h"
#include "circuits/qv.h"
#include "circuits/suite.h"
#include "core/baseline_runner.h"
#include "dist/sharded_backend.h"
#include "dist/transport.h"
#include "service/job_service.h"
#include "sim/parallel.h"
#include "host_ref.h"
#include "stats.h"
#include "tracing.h"
#include "util/rng.h"

namespace perfbench {

namespace core = tqsim::core;
namespace noise = tqsim::noise;
namespace sim = tqsim::sim;
namespace service = tqsim::service;

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

bool
Report::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::printf("CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
}

void
Report::add_metric(const std::string& name, double value,
                   const std::string& unit)
{
    metrics_.push_back({name, value, unit});
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                          : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os << (i ? ", " : "") << '"' << metrics_[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

core::RunOptions
pinned_options(std::uint64_t shots, std::uint64_t seed)
{
    core::RunOptions opt;
    opt.shots = shots;
    opt.strategy = core::PartitionStrategy::kDCP;
    opt.copy_cost_gates = kCopyCostGates;
    opt.seed = seed;
    opt.backend.max_fused_qubits = kMaxFusedQubits;
    opt.backend.fused_diag_threshold = kFusedDiagThreshold;
    return opt;
}

namespace {

bool
same_distribution(const tqsim::metrics::Distribution& a,
                  const tqsim::metrics::Distribution& b)
{
    return a.probabilities() == b.probabilities();
}

/// Deterministic ExecStats counters that must match across decorated and
/// plain runs of one (circuit, model, options).
bool
same_counters(const core::ExecStats& a, const core::ExecStats& b)
{
    return a.gate_applications == b.gate_applications &&
           a.channel_applications == b.channel_applications &&
           a.error_events == b.error_events &&
           a.state_copies == b.state_copies &&
           a.nodes_simulated == b.nodes_simulated &&
           a.outcomes == b.outcomes && a.comm_bytes == b.comm_bytes &&
           a.comm_messages == b.comm_messages &&
           a.global_gates == b.global_gates && a.fused_ops == b.fused_ops;
}

}  // namespace

// ---------------------------------------------------------------------------
// Traced execution
// ---------------------------------------------------------------------------

TracedRun
traced_run(const sim::Circuit& circuit, const noise::NoiseModel& model,
           const core::RunOptions& opt, std::uint64_t baseline_shots)
{
    Recorder rec;
    std::int64_t t0 = now_ns();
    const core::PartitionPlan plan =
        baseline_shots > 0
            ? core::PartitionPlan{core::TreeStructure::baseline(
                                      baseline_shots),
                                  {0, circuit.size()}}
            : core::plan(circuit, model, opt);
    if (baseline_shots == 0) {
        rec.plan.add(now_ns() - t0);
    }
    tqsim::dist::InProcessTransport in_process;
    TracingTransport transport(in_process, rec);
    std::unique_ptr<sim::StateBackend> inner;
    if (opt.backend.kind == sim::BackendKind::kSharded) {
        inner = std::make_unique<tqsim::dist::ShardedStateBackend>(
            circuit.num_qubits(), opt.backend.num_shards, &transport,
            core::resolved_fused_diag_threshold(
                opt.backend.fused_diag_threshold));
    } else {
        inner = core::make_state_backend(opt.backend, circuit.num_qubits());
    }
    TracingBackend backend(*inner, model, rec);
    TracingPlanCache plan_cache(rec);
    core::ExecutorOptions exec = opt.executor_options();
    exec.plan_cache = &plan_cache;
    t0 = now_ns();
    core::RunResult result =
        core::execute_tree(circuit, model, plan, exec, backend);
    rec.execute.add(now_ns() - t0);
    return TracedRun{std::move(rec), std::move(result)};
}

void
check_traced(const TracedRun& traced, const core::RunResult& plain,
             const noise::NoiseModel& model, const std::string& what,
             Report& report)
{
    const core::ExecStats& st = traced.result.stats;
    const Recorder& rec = traced.rec;
    report.check(same_distribution(traced.result.distribution,
                                   plain.distribution) &&
                     same_counters(st, plain.stats),
                 what + ": traced run bit-identical to untraced");
    report.check(rec.snapshot.calls == st.state_copies,
                 what + ": arena snapshots == ExecStats.state_copies");
    report.check(rec.comm_bytes == st.comm_bytes &&
                     rec.comm_messages == st.comm_messages,
                 what + ": transport bytes/messages == ExecStats comm");
    report.check(rec.channel_applications == st.channel_applications,
                 what + ": noisy-op channels == ExecStats.channel_applications");
    bool all_mixture = true;
    bool all_general = true;
    for (const auto* list : {&model.on_1q_gates(), &model.on_2q_gates()}) {
        for (const noise::Channel& c : *list) {
            (c.is_unitary_mixture() ? all_general : all_mixture) = false;
        }
    }
    if (all_mixture) {
        report.check(rec.kraus_apply.calls == st.error_events &&
                         rec.kraus_prob.calls == 0,
                     what + ": mixture branch applications == error_events");
    }
    if (all_general) {
        report.check(rec.renormalize.calls == st.channel_applications,
                     what + ": general-channel renormalizations == "
                            "channel_applications");
    }
}

namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// splitmix64 finalizer: derives independent seeds from (seed, salt).
std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
seconds_since(std::int64_t t0)
{
    return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Checks that the library resolves the pinned knobs to the pinned values
/// and prints the resolved configuration (one check per knob).
void
stamp_configuration(const core::RunOptions& options, Report& report)
{
    const int cap =
        core::resolved_max_fused_qubits(options.backend.max_fused_qubits);
    const std::uint64_t diag = core::resolved_fused_diag_threshold(
        options.backend.fused_diag_threshold);
    const bool sharded = options.backend.kind == sim::BackendKind::kSharded;
    std::printf("config: resolved_max_fused_qubits=%d "
                "resolved_fused_diag_threshold=%" PRIu64
                " backend=%s shards=%d threads=%d copy_cost_gates=%g "
                "integrity=%s\n",
                cap, diag, sharded ? "sharded" : "dense",
                sharded ? options.backend.num_shards : 1, sim::num_threads(),
                options.copy_cost_gates,
                options.integrity.level == tqsim::util::IntegrityLevel::kOff
                    ? "off"
                    : "on");
    report.check(cap == kMaxFusedQubits, "resolved fusion cap is pinned");
    report.check(diag == kFusedDiagThreshold,
                 "resolved diag threshold is pinned");
    report.check(sim::num_threads() == kThreads, "thread count is pinned");
    report.check(options.copy_cost_gates == kCopyCostGates,
                 "copy cost is pinned");
    report.check(options.integrity.level == tqsim::util::IntegrityLevel::kOff,
                 "integrity checking is off");
}

/// Peak resident set size of this process in MiB (VmHWM).
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0.0;
}

/// Per-item repetition times of a timed section, in seconds: as measured
/// on the wall clock and rescaled to the reference host speed (host_ref.h).
struct ItemTimes
{
    std::vector<std::vector<double>> raw;
    std::vector<std::vector<double>> scaled;

    explicit ItemTimes(std::size_t items) : raw(items), scaled(items) {}

    void
    add(std::size_t item, double seconds, double reference_s)
    {
        raw[item].push_back(seconds);
        scaled[item].push_back(host_scaled(seconds, reference_s));
    }
};

/// Times rounds of every item until @p seconds have elapsed (at least
/// @p min_rounds), calling @p after_round (untimed) after each round.
/// Items are interleaved — each round runs every item once, starting one
/// item later than the round before — so a host burst spreads over items
/// instead of landing on one.  Every repetition is preceded by one run of
/// the reference kernel, which rescales it.
ItemTimes
timed_rounds(std::size_t items, double seconds, int min_rounds,
             const std::function<void(std::size_t)>& run,
             const std::function<void()>& after_round = {})
{
    ItemTimes times(items);
    const std::int64_t start = now_ns();
    for (int round = 0;
         round < min_rounds || seconds_since(start) < seconds; ++round) {
        for (std::size_t k = 0; k < items; ++k) {
            const std::size_t i = (k + static_cast<std::size_t>(round)) % items;
            const double reference_s = reference_seconds();
            const std::int64_t t0 = now_ns();
            run(i);
            times.add(i, seconds_since(t0), reference_s);
        }
        if (after_round) {
            after_round();
        }
    }
    return times;
}

std::vector<double>
item_medians(const std::vector<std::vector<double>>& times)
{
    std::vector<double> out;
    for (const auto& t : times) {
        out.push_back(median(t));
    }
    return out;
}

/// All repetitions of all items, in milliseconds.
std::vector<double>
all_ms(const std::vector<std::vector<double>>& times)
{
    std::vector<double> ms;
    for (const auto& t : times) {
        for (double x : t) {
            ms.push_back(x * 1e3);
        }
    }
    return ms;
}

/// Median raw / host-scaled ratio: how much slower than the reference
/// speed the host ran during the timed repetitions.
double
host_factor(const ItemTimes& times)
{
    std::vector<double> ratio;
    for (std::size_t i = 0; i < times.raw.size(); ++i) {
        for (std::size_t r = 0; r < times.raw[i].size(); ++r) {
            ratio.push_back(times.raw[i][r] / times.scaled[i][r]);
        }
    }
    return ratio.empty() ? 0.0 : median(ratio);
}

double
sum(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v) {
        s += x;
    }
    return s;
}

/// Prints each item's repetition quartiles so host noise stays visible:
/// host-scaled quartiles and spread, then the raw median and spread.
void
print_quartiles(const char* label, const std::vector<std::string>& names,
                const ItemTimes& times)
{
    std::printf("  %s per-item repetitions (ms, host-scaled q1 / median / "
                "q3, IQR/median | raw median, IQR/median):\n",
                label);
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::vector<double>& t = times.scaled[i];
        const std::vector<double> q = quantiles(t, 4);
        std::printf("    %-12s %9.3f / %9.3f / %9.3f  %.3f | %9.3f  %.3f  "
                    "n=%zu\n",
                    names[i].c_str(), q[0] * 1e3, median(t) * 1e3,
                    q[2] * 1e3, relative_iqr(t), median(times.raw[i]) * 1e3,
                    relative_iqr(times.raw[i]), t.size());
    }
}

/// Median copy bandwidth (GB/s, read + write) of a @p qubits-qubit state,
/// the in-run reference for the sim.*_gbps figures.
double
state_copy_gbps(int qubits)
{
    sim::StateVector src(qubits);
    sim::StateVector dst(qubits);
    const double bytes = 2.0 * static_cast<double>(src.size()) *
                         static_cast<double>(sizeof(sim::Complex));
    const int copies = std::max(1, static_cast<int>((64u << 20) / bytes));
    std::vector<double> rates;
    for (int rep = 0; rep < 7; ++rep) {
        const std::int64_t t0 = now_ns();
        for (int c = 0; c < copies; ++c) {
            src.data()[0] = sim::Complex{1.0 + c, 0.0};
            dst = src;
        }
        rates.push_back(bytes * copies /
                        static_cast<double>(now_ns() - t0));
    }
    return median(rates);
}

std::vector<double>
marginals(const tqsim::metrics::Distribution& d)
{
    std::vector<double> m(static_cast<std::size_t>(d.num_qubits()), 0.0);
    for (std::size_t x = 0; x < d.size(); ++x) {
        for (int q = 0; q < d.num_qubits(); ++q) {
            if ((x >> q) & 1U) {
                m[static_cast<std::size_t>(q)] += d[x];
            }
        }
    }
    return m;
}


/// Per-layer figures accumulated over the traced passes of a run.
struct LayerTotals
{
    Recorder rec;
    int passes = 0;
    std::uint64_t fused_ops = 0;
    std::uint64_t fused_gates_absorbed = 0;
    std::vector<double> fusion_reduction;
    std::uint64_t global_gates = 0;
    std::uint64_t error_events = 0;
    std::uint64_t channel_applications = 0;
    std::uint64_t nodes_simulated = 0;
    std::uint64_t state_copies = 0;
    double reuse_realization = 0.0;
    double reuse_speedup = 0.0;
    double overhead_ratio = 0.0;
    double state_copy_gbps = 0.0;

    void
    add(const TracedRun& run)
    {
        const core::ExecStats& st = run.result.stats;
        rec.merge_counters(run.rec);
        fused_ops += st.fused_ops;
        fused_gates_absorbed += st.fused_gates_absorbed;
        fusion_reduction.push_back(st.segment_fusion_reduction);
        global_gates += st.global_gates;
        error_events += st.error_events;
        channel_applications += st.channel_applications;
        nodes_simulated += st.nodes_simulated;
        state_copies += st.state_copies;
    }
};

/// Service-level figures of the traced service run (zero elsewhere).
struct ServiceFigures
{
    double submit_s = 0.0;
    double overhead_ms = 0.0;
    double plan_hit_ratio = 0.0;
    double prefix_hit_ratio = 0.0;
    double evictions = 0.0;
    double prefix_leases = 0.0;
    double sweep_p50_ms = 0.0;
    double thermal_p50_ms = 0.0;
};

double
gbps(const Slot& s)
{
    return s.ns == 0 ? 0.0
                     : static_cast<double>(s.bytes) /
                           static_cast<double>(s.ns);
}

/// Emits every per-layer metric (per traced pass), zeros included.
void
emit_layer_metrics(const LayerTotals& t, const ServiceFigures& svc,
                   Report& report)
{
    const double per = t.passes > 0 ? 1.0 / t.passes : 0.0;
    const Recorder& r = t.rec;
    for (std::size_t k = 0; k < kNumSegOpKinds; ++k) {
        const std::string kind =
            seg_op_kind_name(static_cast<sim::SegOpKind>(k));
        report.add_metric("sim.apply_op_s." + kind,
                          r.apply_op[k].seconds() * per, "s");
        report.add_metric("sim.apply_op_calls." + kind,
                          static_cast<double>(r.apply_op[k].calls) * per,
                          "count");
        report.add_metric("sim.apply_op_gbps." + kind, gbps(r.apply_op[k]),
                          "GB/s");
    }
    report.add_metric("sim.fused_ops", static_cast<double>(t.fused_ops) * per,
                      "count");
    report.add_metric("sim.fused_gates_absorbed",
                      static_cast<double>(t.fused_gates_absorbed) * per,
                      "count");
    report.add_metric("sim.segment_fusion_reduction",
                      t.fusion_reduction.empty()
                          ? 0.0
                          : sum(t.fusion_reduction) /
                                static_cast<double>(t.fusion_reduction.size()),
                      "ratio");
    report.add_metric("sim.snapshot_s", r.snapshot.seconds() * per, "s");
    report.add_metric("sim.snapshot_gbps", gbps(r.snapshot), "GB/s");
    report.add_metric("sim.sample_s", r.sample.seconds() * per, "s");
    report.add_metric("sim.compile_s", r.compile.seconds() * per, "s");
    report.add_metric("sim.state_copy_gbps", t.state_copy_gbps, "GB/s");
    report.add_metric("dist.gather_s", r.gather.seconds() * per, "s");
    report.add_metric("dist.scatter_s", r.scatter.seconds() * per, "s");
    report.add_metric("dist.comm_bytes",
                      static_cast<double>(r.comm_bytes) * per, "B");
    report.add_metric("dist.comm_messages",
                      static_cast<double>(r.comm_messages) * per, "count");
    report.add_metric("dist.global_gates",
                      static_cast<double>(t.global_gates) * per, "count");
    report.add_metric("noise.kraus_prob_s", r.kraus_prob.seconds() * per,
                      "s");
    report.add_metric(
        "noise.kraus_apply_s",
        (r.kraus_apply.seconds() + r.renormalize.seconds()) * per, "s");
    report.add_metric("noise.channel_applications",
                      static_cast<double>(t.channel_applications) * per,
                      "count");
    report.add_metric("noise.error_events",
                      static_cast<double>(t.error_events) * per, "count");
    const double self_s =
        (static_cast<double>(r.execute.ns) -
         static_cast<double>(r.child_ns())) * 1e-9;
    report.add_metric("core.executor_self_s", self_s * per, "s");
    report.add_metric("core.nodes_simulated",
                      static_cast<double>(t.nodes_simulated) * per, "count");
    report.add_metric("core.state_copies",
                      static_cast<double>(t.state_copies) * per, "count");
    report.add_metric("core.plan_s", r.plan.seconds() * per, "s");
    report.add_metric("core.reuse_speedup", t.reuse_speedup, "ratio");
    report.add_metric("core.reuse_realization", t.reuse_realization,
                      "ratio");
    report.add_metric("service.submit_s", svc.submit_s, "s");
    report.add_metric("service.overhead_ms", svc.overhead_ms, "ms");
    report.add_metric("service.cache.plan_hit_ratio", svc.plan_hit_ratio,
                      "ratio");
    report.add_metric("service.cache.prefix_hit_ratio", svc.prefix_hit_ratio,
                      "ratio");
    report.add_metric("service.cache.evictions", svc.evictions, "count");
    report.add_metric("service.prefix_leases", svc.prefix_leases, "count");
    report.add_metric("service.sweep.latency_p50_ms", svc.sweep_p50_ms, "ms");
    report.add_metric("service.thermal.latency_p50_ms", svc.thermal_p50_ms,
                      "ms");
    report.add_metric("trace.overhead_ratio", t.overhead_ratio, "ratio");
}

/// Times complete set-ups of a workload (inputs, plans, backends, service).
/// Three run before the warm-up and one more after every timed round, so
/// the set-ups sample the whole run rather than one instant of the host's
/// phase pattern; setup_s is the median of their host-scaled times.
template <typename T>
class SetupTimer
{
  public:
    explicit SetupTimer(std::function<T()> build) : build_(std::move(build))
    {
    }

    T
    build()
    {
        const double reference_s = reference_seconds();
        const std::int64_t t0 = now_ns();
        T out = build_();
        times_.push_back(host_scaled(seconds_since(t0), reference_s));
        return out;
    }

    double
    median_s() const
    {
        std::printf("setup: %zu set-ups, host-scaled %.6f .. %.6f s (median "
                    "reported)\n",
                    times_.size(),
                    *std::min_element(times_.begin(), times_.end()),
                    *std::max_element(times_.begin(), times_.end()));
        return median(times_);
    }

  private:
    std::function<T()> build_;
    std::vector<double> times_;
};

/// End-to-end metrics every workload reports, in BENCHMARK.json order.
struct EndToEnd
{
    double setup_s = 0.0;
    double shots_per_s = 0.0;
    double baseline_shots_per_s = 0.0;
    double jobs_per_s = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    std::size_t latency_samples = 0;
    /// Median raw / host-scaled time ratio over the timed repetitions.
    double host_factor = 0.0;
};

void
emit_end_to_end(const EndToEnd& e, Report& report)
{
    const double rss = peak_rss_mb();
    std::printf("host: timed repetitions ran %.3fx slower than the "
                "reference speed (median); times below are host-scaled\n",
                e.host_factor);
    std::printf("metric setup_s = %.6f s\n", e.setup_s);
    std::printf("metric peak_rss_mb = %.3f MB\n", rss);
    std::printf("metric shots_per_s = %.3f 1/s\n", e.shots_per_s);
    std::printf("metric baseline_shots_per_s = %.3f 1/s\n",
                e.baseline_shots_per_s);
    std::printf("metric jobs_per_s = %.4f 1/s\n", e.jobs_per_s);
    std::printf("metric latency_p50_ms = %.3f ms (n=%zu)\n", e.latency_p50_ms,
                e.latency_samples);
    std::printf("metric latency_p95_ms = %.3f ms (n=%zu)\n", e.latency_p95_ms,
                e.latency_samples);
    std::printf("metric (ungated) reuse speedup = %.3fx\n",
                e.baseline_shots_per_s > 0.0
                    ? e.shots_per_s / e.baseline_shots_per_s
                    : 0.0);
    report.add_metric("setup_s", e.setup_s, "s");
    report.add_metric("peak_rss_mb", rss, "MB");
    report.add_metric("shots_per_s", e.shots_per_s, "1/s");
    report.add_metric("baseline_shots_per_s", e.baseline_shots_per_s, "1/s");
    report.add_metric("jobs_per_s", e.jobs_per_s, "1/s");
    report.add_metric("latency_p50_ms", e.latency_p50_ms, "ms");
    report.add_metric("latency_p95_ms", e.latency_p95_ms, "ms");
}

/// The trace file (when requested) and a one-line span summary.
void
finish_trace(const Recorder& spans, const Options& opt, Report& report)
{
    std::printf("trace: %zu spans\n", spans.spans.size());
    if (!opt.trace_path.empty()) {
        report.check(spans.write_trace(opt.trace_path),
                     "span file written to " + opt.trace_path);
    }
}

// ---------------------------------------------------------------------------
// Item-style workloads (suite_depol, wide_ideal_sharded)
// ---------------------------------------------------------------------------

/// One circuit of an item-style workload with its pinned run options.
struct Item
{
    std::string name;
    sim::Circuit circuit{1};
    core::RunOptions tree_opt;
    core::RunOptions base_opt;
    std::uint64_t base_shots = 0;
    core::PartitionPlan plan{core::TreeStructure::baseline(1), {}};
};

struct ItemWorkload
{
    noise::NoiseModel model;
    std::vector<Item> items;
};

/// First (reference) outputs of every item, for the bit-identity checks.
struct ItemOutputs
{
    std::vector<core::RunResult> tree;
    std::vector<core::RunResult> base;
};

core::RunResult
run_tree(const ItemWorkload& w, const Item& it)
{
    return core::run(it.circuit, w.model, it.tree_opt);
}

core::RunResult
run_base(const ItemWorkload& w, const Item& it)
{
    return core::run_baseline(it.circuit, w.model, it.base_shots,
                              it.base_opt.executor_options());
}

std::vector<std::string>
item_names(const ItemWorkload& w)
{
    std::vector<std::string> names;
    for (const Item& it : w.items) {
        names.push_back(it.name);
    }
    return names;
}

/// The shared timed section: tree and baseline runs interleaved per item,
/// every repetition held bit-identical to the item's first output.
EndToEnd
measure_items(const ItemWorkload& w, const ItemOutputs& first,
              double seconds, const std::function<void()>& after_round,
              Report& report)
{
    const std::size_t n = w.items.size();
    // 2n timed units: tree of item i at 2i, its baseline at 2i + 1.
    const auto times = timed_rounds(2 * n, seconds, 3, [&](std::size_t u) {
        const Item& it = w.items[u / 2];
        if (u % 2 == 0) {
            const core::RunResult r = run_tree(w, it);
            report.check(same_distribution(r.distribution,
                                           first.tree[u / 2].distribution),
                         it.name + ": tree repetition bit-identical");
        } else {
            const core::RunResult r = run_base(w, it);
            report.check(same_distribution(r.distribution,
                                           first.base[u / 2].distribution),
                         it.name + ": baseline repetition bit-identical");
        }
    }, after_round);
    ItemTimes tree_t(n);
    ItemTimes base_t(n);
    for (std::size_t u = 0; u < 2 * n; ++u) {
        ItemTimes& into = u % 2 == 0 ? tree_t : base_t;
        into.raw[u / 2] = times.raw[u];
        into.scaled[u / 2] = times.scaled[u];
    }
    const std::vector<double> tree_med = item_medians(tree_t.scaled);
    const std::vector<double> base_med = item_medians(base_t.scaled);
    double tree_shots = 0.0;
    double base_shots = 0.0;
    for (const Item& it : w.items) {
        tree_shots += static_cast<double>(it.tree_opt.shots);
        base_shots += static_cast<double>(it.base_shots);
    }
    print_quartiles("tree", item_names(w), tree_t);
    print_quartiles("baseline", item_names(w), base_t);
    EndToEnd e;
    e.shots_per_s = tree_shots / sum(tree_med);
    e.baseline_shots_per_s = base_shots / sum(base_med);
    e.jobs_per_s = static_cast<double>(n) / sum(tree_med);
    // One request per item, at its median: percentiles over all repetitions
    // would interpolate between the extremes of two items' clusters.
    std::vector<double> ms;
    for (double t : tree_med) {
        ms.push_back(t * 1e3);
    }
    e.latency_p50_ms = percentile(ms, 50.0);
    e.latency_p95_ms = percentile(ms, 95.0);
    e.latency_samples = ms.size();
    e.host_factor = host_factor(times);
    return e;
}

/// The traced run of an item-style workload: every run is made twice in a
/// row, untraced and traced, so the overhead ratio compares runs the host
/// saw in the same state; per-layer figures are per traced pass.
LayerTotals
trace_items(const ItemWorkload& w, const ItemOutputs& first, double seconds,
            Recorder& spans, Report& report)
{
    LayerTotals totals;
    totals.state_copy_gbps =
        state_copy_gbps(w.items.front().circuit.num_qubits());
    std::vector<double> plain_pass;
    std::vector<double> traced_pass;
    std::vector<std::vector<double>> tree_t(w.items.size());
    std::vector<std::vector<double>> base_t(w.items.size());
    const std::int64_t start = now_ns();
    std::vector<double> slowdown;
    while (totals.passes == 0 || seconds_since(start) < seconds) {
        slowdown.push_back(reference_seconds() / kReferenceNominalSeconds);
        double plain_s = 0.0;
        double traced_s = 0.0;
        const std::uint64_t pass_span = spans.begin_span("traced_pass");
        for (std::size_t i = 0; i < w.items.size(); ++i) {
            const Item& it = w.items[i];
            const std::uint64_t item_span = spans.begin_span(it.name, pass_span);
            // Which run of a pair goes first alternates, so cache warmth
            // from the first favours neither side of the overhead ratio.
            const bool traced_first =
                (i + static_cast<std::size_t>(totals.passes)) % 2 == 1;
            const auto paired = [&](const char* label, std::uint64_t shots,
                                    const core::RunOptions& opt,
                                    std::vector<double>& plain_times) {
                const auto plain = [&] {
                    const std::int64_t t0 = now_ns();
                    shots > 0 ? run_base(w, it) : run_tree(w, it);
                    plain_times.push_back(seconds_since(t0));
                    plain_s += plain_times.back();
                };
                if (!traced_first) {
                    plain();
                }
                const std::uint64_t run_span = spans.begin_span(label, item_span);
                const std::int64_t t0 = now_ns();
                TracedRun traced = traced_run(it.circuit, w.model, opt, shots);
                traced_s += seconds_since(t0);
                spans.end_span(run_span);
                if (traced_first) {
                    plain();
                }
                return traced;
            };
            const TracedRun tree = paired("tree", 0, it.tree_opt, tree_t[i]);
            const TracedRun base =
                paired("baseline", it.base_shots, it.base_opt, base_t[i]);
            spans.end_span(item_span);
            check_traced(tree, first.tree[i], w.model, it.name + " tree",
                         report);
            check_traced(base, first.base[i], w.model, it.name + " baseline",
                         report);
            totals.add(tree);
            totals.add(base);
        }
        spans.end_span(pass_span);
        plain_pass.push_back(plain_s);
        traced_pass.push_back(traced_s);
        ++totals.passes;
    }
    totals.overhead_ratio = median(traced_pass) / median(plain_pass);
    std::vector<double> realization;
    double tree_time = 0.0;
    double base_time = 0.0;
    double tree_shots = 0.0;
    double base_shots = 0.0;
    for (std::size_t i = 0; i < w.items.size(); ++i) {
        const Item& it = w.items[i];
        const double tm = median(tree_t[i]);
        const double bm = median(base_t[i]);
        const double measured =
            (bm / static_cast<double>(it.base_shots)) /
            (tm / static_cast<double>(it.tree_opt.shots));
        realization.push_back(measured / it.plan.theoretical_speedup());
        tree_time += tm;
        base_time += bm;
        tree_shots += static_cast<double>(it.tree_opt.shots);
        base_shots += static_cast<double>(it.base_shots);
    }
    totals.reuse_realization = geomean(realization);
    totals.reuse_speedup = (tree_shots / tree_time) / (base_shots / base_time);
    std::printf("traced passes: %d, overhead %.3fx (traced / untraced wall "
                "of paired runs); host: %.3fx slower than the reference "
                "speed (median), per-layer times are raw\n",
                totals.passes, totals.overhead_ratio, median(slowdown));
    return totals;
}

/// Builds the first outputs, warms up, then either measures end-to-end
/// metrics or runs the traced passes.
void
run_item_workload(const Options& opt, const std::function<ItemWorkload()>& build,
                  const std::function<void(const ItemWorkload&,
                                           const ItemOutputs&, Report&)>& verify,
                  Report& report)
{
    SetupTimer<ItemWorkload> setup(build);
    const ItemWorkload w = setup.build();
    setup.build();
    setup.build();
    stamp_configuration(w.items.front().tree_opt, report);
    ItemOutputs first;
    const std::int64_t t0 = now_ns();
    for (const Item& it : w.items) {
        first.tree.push_back(run_tree(w, it));
        first.base.push_back(run_base(w, it));
        std::printf("item %-12s qubits=%d gates=%zu tree=%s (DCP, %" PRIu64
                    " shots, theoretical speedup %.3f) baseline=(%" PRIu64
                    ",1..1)\n",
                    it.name.c_str(), it.circuit.num_qubits(),
                    it.circuit.size(), it.plan.tree.to_string().c_str(),
                    it.tree_opt.shots, it.plan.theoretical_speedup(),
                    it.base_shots);
    }
    std::printf("warm-up pass: %.3f s (not timed)\n", seconds_since(t0));
    verify(w, first, report);
    if (opt.trace) {
        Recorder spans;
        const LayerTotals totals =
            trace_items(w, first, opt.seconds, spans, report);
        emit_layer_metrics(totals, ServiceFigures{}, report);
        finish_trace(spans, opt, report);
        return;
    }
    EndToEnd e = measure_items(
        w, first, opt.seconds, [&] { setup.build(); }, report);
    e.setup_s = setup.median_s();
    emit_end_to_end(e, report);
}

// ---------------------------------------------------------------------------
// suite_depol
// ---------------------------------------------------------------------------

/// Hoeffding deviation of a mean of @p n independent [0,1] terms at
/// failure probability @p delta (two-sided).
double
hoeffding(double n, double delta)
{
    return std::sqrt(std::log(2.0 / delta) / (2.0 * n));
}

/// The independent reference for the reuse tree: the no-reuse baseline
/// under another seed.  Per-qubit marginals must agree within the sum of
/// two Hoeffding deviations: the baseline's shots are independent, and the
/// tree's level-0 subtrees are independent and identically distributed
/// (each draws its own split RNG stream), so its marginal is a mean of
/// A0 independent subtree averages.  Failure probability <= 1e-6 per run.
void
verify_suite(const ItemWorkload& w, const ItemOutputs& first, Report& report)
{
    std::size_t comparisons = 0;
    for (const Item& it : w.items) {
        comparisons += static_cast<std::size_t>(it.circuit.num_qubits());
    }
    const double delta = 1e-6 / (2.0 * static_cast<double>(comparisons));
    for (std::size_t i = 0; i < w.items.size(); ++i) {
        const Item& it = w.items[i];
        const std::vector<double> mt = marginals(first.tree[i].distribution);
        const std::vector<double> mb = marginals(first.base[i].distribution);
        const double bound =
            hoeffding(static_cast<double>(it.plan.tree.arity(0)), delta) +
            hoeffding(static_cast<double>(it.base_shots), delta);
        double worst = 0.0;
        for (std::size_t q = 0; q < mt.size(); ++q) {
            worst = std::max(worst, std::abs(mt[q] - mb[q]));
        }
        std::printf("reference %-12s max |marginal(tree) - marginal(baseline)| "
                    "= %.4f <= %.4f\n",
                    it.name.c_str(), worst, bound);
        report.check(worst <= bound,
                     it.name + ": tree agrees with the baseline reference");
    }
}

ItemWorkload
build_suite(std::uint64_t seed)
{
    static const char* const kNames[] = {"adder_n10_2", "bv_n10",  "mul_n11_2",
                                         "qaoa_n10",    "qft_n10", "qpe_n9_3",
                                         "qsc_n10",     "qv_n8"};
    ItemWorkload w;
    w.model = noise::NoiseModel::sycamore_depolarizing();
    const std::vector<tqsim::circuits::BenchmarkCase> suite =
        tqsim::circuits::benchmark_suite(tqsim::circuits::SuiteScale::kReduced);
    for (std::size_t k = 0; k < std::size(kNames); ++k) {
        const auto found =
            std::find_if(suite.begin(), suite.end(),
                         [&](const auto& c) { return c.name == kNames[k]; });
        if (found == suite.end()) {
            throw std::runtime_error(std::string("suite circuit missing: ") +
                                     kNames[k]);
        }
        Item it;
        it.name = kNames[k];
        it.circuit = found->circuit;
        it.tree_opt = pinned_options(4096, mix(seed, 2 * k));
        // The no-reuse cost is linear in shots; 256 shots keep the
        // baseline's share of each round small.
        it.base_opt = pinned_options(256, mix(seed, 2 * k + 1));
        it.base_shots = 256;
        it.plan = core::plan(it.circuit, w.model, it.tree_opt);
        w.items.push_back(std::move(it));
    }
    return w;
}

// ---------------------------------------------------------------------------
// wide_ideal_sharded
// ---------------------------------------------------------------------------

constexpr std::uint64_t kWideCheckShots = 256;
constexpr std::uint64_t kWideRepShots = 32;

/// Applies independent per-bit readout flips to a distribution.
std::vector<double>
readout_flipped(std::vector<double> p, int qubits, double flip)
{
    for (int q = 0; q < qubits; ++q) {
        const std::size_t bit = std::size_t{1} << q;
        for (std::size_t x = 0; x < p.size(); ++x) {
            if ((x & bit) == 0) {
                const double a = p[x];
                const double b = p[x | bit];
                p[x] = (1.0 - flip) * a + flip * b;
                p[x | bit] = flip * a + (1.0 - flip) * b;
            }
        }
    }
    return p;
}

/// E|X/N - p| for X ~ Binomial(N, p) (de Moivre's closed form).
double
binomial_mad(double n, double p)
{
    if (p <= 0.0 || p >= 1.0) {
        return 0.0;
    }
    const double k = std::floor(n * p) + 1.0;
    const double log_term = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                            std::lgamma(n - k + 1.0) + k * std::log(p) +
                            (n - k + 1.0) * std::log1p(-p) + std::log(k);
    return 2.0 * std::exp(log_term) / n;
}

/// Total-variation distance to the readout-flipped ideal distribution,
/// held to E[TVD] of N independent shots plus a McDiarmid deviation
/// (each shot moves the TVD by at most 1/N) at failure probability 1e-6;
/// plus per-qubit marginals under a Hoeffding bound.
void
verify_wide(const ItemWorkload& w, const ItemOutputs& /*first*/,
            Report& report)
{
    const double delta = 1e-6;
    for (std::size_t i = 0; i < w.items.size(); ++i) {
        const Item& it = w.items[i];
        const int n = it.circuit.num_qubits();
        const std::vector<double> p = readout_flipped(
            core::ideal_distribution(it.circuit).probabilities(), n,
            w.model.readout_flip_probability());
        core::RunOptions check_opt = it.tree_opt;
        check_opt.shots = kWideCheckShots;
        const core::RunResult checked =
            core::run(it.circuit, w.model, check_opt);
        std::printf("check run %-12s tree=%s (DCP, %" PRIu64 " shots)\n",
                    it.name.c_str(), checked.plan.tree.to_string().c_str(),
                    kWideCheckShots);
        const auto& q = checked.distribution.probabilities();
        const double shots = static_cast<double>(kWideCheckShots);
        double tvd = 0.0;
        double expected = 0.0;
        for (std::size_t x = 0; x < p.size(); ++x) {
            tvd += std::abs(p[x] - q[x]);
            expected += binomial_mad(shots, p[x]);
        }
        tvd *= 0.5;
        expected *= 0.5;
        const double bound = expected + std::sqrt(std::log(1.0 / delta) /
                                                  (2.0 * shots));
        std::printf("reference %-12s TVD(run, ideal+readout) = %.4f <= %.4f "
                    "(E=%.4f at %.0f shots)\n",
                    it.name.c_str(), tvd, bound, expected, shots);
        report.check(tvd <= bound, it.name + ": TVD within shot-noise bound");
        std::vector<double> mp(static_cast<std::size_t>(n), 0.0);
        for (std::size_t x = 0; x < p.size(); ++x) {
            for (int b = 0; b < n; ++b) {
                if ((x >> b) & 1U) {
                    mp[static_cast<std::size_t>(b)] += p[x];
                }
            }
        }
        const std::vector<double> mq = marginals(checked.distribution);
        double worst = 0.0;
        for (int b = 0; b < n; ++b) {
            worst = std::max(worst, std::abs(mp[static_cast<std::size_t>(b)] -
                                             mq[static_cast<std::size_t>(b)]));
        }
        const double mbound = hoeffding(shots, delta / n);
        std::printf("reference %-12s max |marginal(run) - marginal(ideal)| = "
                    "%.4f <= %.4f\n",
                    it.name.c_str(), worst, mbound);
        report.check(worst <= mbound,
                     it.name + ": marginals within shot-noise bound");
    }
}

ItemWorkload
build_wide(std::uint64_t seed)
{
    ItemWorkload w;
    w.model = noise::NoiseModel::readout_only(0.01);
    const sim::Circuit circuits[] = {
        tqsim::circuits::qft(14),
        tqsim::circuits::qsc(14, 8, mix(seed, 100)),
        tqsim::circuits::quantum_volume(14, 7, mix(seed, 101))};
    const char* const names[] = {"qft_n14", "qsc_n14", "qv_n14"};
    for (std::size_t k = 0; k < std::size(circuits); ++k) {
        Item it;
        it.name = names[k];
        it.circuit = circuits[k];
        // A 256-shot run takes seconds here, so the timed repetition is a
        // 32-shot run (per-shot work is identical: DCP picks the flat tree
        // (N) at zero gate noise); the 256-shot run is the checked output.
        it.tree_opt = pinned_options(kWideRepShots, mix(seed, 2 * k));
        it.tree_opt.backend.kind = sim::BackendKind::kSharded;
        it.tree_opt.backend.num_shards = 4;
        it.base_opt = it.tree_opt;
        it.base_opt.seed = mix(seed, 2 * k + 1);
        // The no-reuse cost is linear in shots; a quarter of the shots
        // keeps the baseline's share of the run small.
        it.base_shots = kWideRepShots / 4;
        it.plan = core::plan(it.circuit, w.model, it.tree_opt);
        w.items.push_back(std::move(it));
    }
    return w;
}

// ---------------------------------------------------------------------------
// service_loop
// ---------------------------------------------------------------------------

constexpr int kServiceQubits = 9;
constexpr int kServiceGates = 120;
constexpr std::uint64_t kServiceArity = 16;
constexpr std::uint64_t kServiceShots = kServiceArity * kServiceArity;
/// Job specs each tenant cycles through.  Thermal's six distinct circuits
/// exceed the cache capacity, so under LRU every thermal job misses.
constexpr std::uint64_t kSpecsPerTenant = 6;

/// Appends @p gates seeded random gates (1q rotations, H, CX, CZ).
void
random_gates(sim::Circuit& c, tqsim::util::Rng& rng, int gates)
{
    for (int g = 0; g < gates; ++g) {
        const int a = static_cast<int>(rng.uniform_u64(kServiceQubits));
        int b = static_cast<int>(rng.uniform_u64(kServiceQubits - 1));
        b += b >= a ? 1 : 0;
        const double angle = 2.0 * M_PI * rng.uniform();
        switch (rng.uniform_u64(6)) {
          case 0: c.h(a); break;
          case 1: c.rx(a, angle); break;
          case 2: c.ry(a, angle); break;
          case 3: c.rz(a, angle); break;
          case 4: c.cx(a, b); break;
          default: c.cz(a, b); break;
        }
    }
}

/// The seeded job generator.  Tenant "sweep" shares one prefix and one
/// seed and sweeps a tail rotation; tenant "thermal" runs a distinct
/// circuit per spec under thermal relaxation plus 1% readout error.
struct JobGenerator
{
    std::uint64_t seed = 0;
    noise::NoiseModel sweep_model = noise::NoiseModel::sycamore_depolarizing();
    noise::NoiseModel thermal_model =
        noise::NoiseModel::thermal(25000, 30000, 35, 350)
            .set_readout_error(0.01);

    service::JobSpec
    make(bool thermal, std::uint64_t spec_index) const
    {
        service::JobSpec spec{sim::Circuit(kServiceQubits),
                              thermal ? thermal_model : sweep_model};
        core::RunOptions opt = pinned_options(kServiceShots, 0);
        // A manual 2-level tree splits the gates evenly, so level 0 is
        // exactly the sweep tenant's shared prefix.
        opt.strategy = core::PartitionStrategy::kManual;
        opt.manual_arities = {kServiceArity, kServiceArity};
        if (thermal) {
            tqsim::util::Rng rng(mix(seed, 1000 + spec_index));
            random_gates(spec.circuit, rng, kServiceGates);
            opt.seed = mix(seed, 5000 + spec_index);
            spec.tenant = "thermal";
        } else {
            tqsim::util::Rng rng(mix(seed, 999));
            random_gates(spec.circuit, rng, kServiceGates / 2);
            const double theta = 0.05 + 0.1 * static_cast<double>(spec_index);
            for (int g = 0; g < kServiceGates / 2; ++g) {
                const int q = g % kServiceQubits;
                if (g % 3 == 2) {
                    spec.circuit.cx(q, (q + 1) % kServiceQubits);
                } else {
                    spec.circuit.ry(q, theta * (1 + g % 5));
                }
            }
            opt.seed = mix(seed, 7);
            spec.tenant = "sweep";
        }
        spec.options = opt;
        return spec;
    }
};

service::JobServiceConfig
service_config()
{
    service::JobServiceConfig cfg;
    cfg.num_lanes = 2;
    // Below the thermal tenant's working set (per spec: 16 prefix
    // snapshots of 8 KiB plus two plans), so its inserts evict.
    cfg.cache.capacity_bytes = 512ULL << 10;
    return cfg;
}

/// Items are (tenant, spec): sweep specs first, then thermal specs.
std::size_t
item_of(bool thermal, std::uint64_t spec_index)
{
    return (thermal ? kSpecsPerTenant : 0) + spec_index;
}

std::string
item_name(std::size_t item)
{
    return std::string(item < kSpecsPerTenant ? "sweep_" : "thermal_") +
           std::to_string(item % kSpecsPerTenant);
}

/// One completed closed-loop job.
struct JobRecord
{
    std::size_t item = 0;
    service::JobId id = 0;
    double reference_s = 0.0;
    double submit_s = 0.0;
    double latency_s = 0.0;
    double wall_s = 0.0;
    bool done = false;
    std::uint64_t prefix_leases = 0;
};

/// Closed-loop job counts per second of loop time, about 80% of what each
/// client completes on an uncontended 4-vCPU Xeon host, so a loop sized for
/// T seconds takes roughly T there.  The counts are fixed per run (not the
/// loop's duration) so every commit does the same work and retains the
/// same number of results.
constexpr double kSweepJobsPerSecond = 40.0;
constexpr double kThermalJobsPerSecond = 8.0;

/// Jobs per client for a loop of about @p seconds: whole cycles of specs.
std::uint64_t
loop_jobs(double seconds, double rate)
{
    const double cycles =
        std::ceil(seconds * rate / static_cast<double>(kSpecsPerTenant));
    return static_cast<std::uint64_t>(std::max(1.0, cycles)) * kSpecsPerTenant;
}

/// Two clients, one per tenant, each cycling submit -> wait over its
/// tenant's specs for a fixed number of jobs sized to about @p seconds.
/// A client also stops after 2.5 x @p seconds, which bounds the run on a
/// host more than ~2x slower than usual (fewer jobs then, never a failure).
/// Returns the records and the loop's wall time.
std::vector<JobRecord>
closed_loop(service::JobService& svc, const JobGenerator& gen, double seconds,
            double* wall_s)
{
    std::vector<JobRecord> records;
    std::mutex mu;
    const std::uint64_t sweep_jobs = loop_jobs(seconds, kSweepJobsPerSecond);
    const std::uint64_t thermal_jobs =
        loop_jobs(seconds, kThermalJobsPerSecond);
    const std::int64_t start = now_ns();
    auto client = [&](bool thermal) {
        const std::uint64_t jobs = thermal ? thermal_jobs : sweep_jobs;
        for (std::uint64_t k = 0;
             k < jobs && seconds_since(start) < 2.5 * seconds; ++k) {
            const std::uint64_t spec_index = k % kSpecsPerTenant;
            JobRecord rec;
            rec.item = item_of(thermal, spec_index);
            service::JobSpec spec = gen.make(thermal, spec_index);
            // The client's think time: one reference run, which rescales
            // this job's latency.
            rec.reference_s = reference_seconds();
            const std::int64_t t0 = now_ns();
            rec.id = svc.submit(std::move(spec));
            rec.submit_s = seconds_since(t0);
            const service::JobStatus st = svc.wait(rec.id);
            rec.latency_s = seconds_since(t0);
            rec.done = st.state == service::JobState::kDone;
            if (rec.done) {
                const core::RunResult& r = svc.result(rec.id);
                rec.wall_s = r.stats.wall_seconds;
                rec.prefix_leases = r.stats.prefix_leases;
            }
            const std::lock_guard<std::mutex> lock(mu);
            records.push_back(rec);
        }
    };
    std::thread sweep(client, false);
    std::thread thermal(client, true);
    sweep.join();
    thermal.join();
    *wall_s = seconds_since(start);
    return records;
}

/// Median raw latency (ms) of one tenant's jobs.
double
tenant_p50_ms(const std::vector<JobRecord>& records, bool thermal)
{
    std::vector<double> ms;
    for (const JobRecord& r : records) {
        if ((r.item >= kSpecsPerTenant) == thermal) {
            ms.push_back(r.latency_s * 1e3);
        }
    }
    return ms.empty() ? 0.0 : median(ms);
}

struct ServiceSetup
{
    JobGenerator gen;
    std::vector<service::JobSpec> specs;  ///< indexed by item
    std::unique_ptr<service::JobService> svc;
};

/// Service-level figures for the traced run.
ServiceFigures
service_figures(const std::vector<JobRecord>& records,
                const service::ReuseCache::Stats& cache)
{
    ServiceFigures f;
    std::vector<double> submit;
    std::vector<double> overhead;
    for (const JobRecord& r : records) {
        submit.push_back(r.submit_s);
        if (r.done) {
            overhead.push_back((r.latency_s - r.wall_s) * 1e3);
            f.prefix_leases += static_cast<double>(r.prefix_leases);
        }
    }
    f.submit_s = submit.empty() ? 0.0 : median(submit);
    f.overhead_ms = overhead.empty() ? 0.0 : median(overhead);
    const auto ratio = [](std::uint64_t hit, std::uint64_t miss) {
        return hit + miss == 0 ? 0.0
                               : static_cast<double>(hit) /
                                     static_cast<double>(hit + miss);
    };
    f.plan_hit_ratio = ratio(cache.plan_hits, cache.plan_misses);
    f.prefix_hit_ratio = ratio(cache.prefix_hits, cache.prefix_misses);
    f.evictions = static_cast<double>(cache.evictions);
    f.sweep_p50_ms = tenant_p50_ms(records, false);
    f.thermal_p50_ms = tenant_p50_ms(records, true);
    return f;
}

/// The traced service run: the closed loop's service figures, then a
/// traced replay of the tenants' specs outside the service, alternating
/// plain and decorated runs.
void
trace_service(const ServiceSetup& s, const std::vector<JobRecord>& records,
              const service::ReuseCache::Stats& cache,
              const std::vector<core::RunResult>& reference, double seconds,
              const Options& opt, Report& report)
{
    Recorder spans;
    LayerTotals totals;
    totals.state_copy_gbps = state_copy_gbps(kServiceQubits);
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    const std::int64_t start = now_ns();
    const std::uint64_t replay = spans.begin_span("replay");
    std::vector<double> slowdown;
    while (totals.passes == 0 || seconds_since(start) < seconds) {
        slowdown.push_back(reference_seconds() / kReferenceNominalSeconds);
        for (std::size_t item = 0; item < s.specs.size(); ++item) {
            const service::JobSpec& spec = s.specs[item];
            std::int64_t t0 = now_ns();
            core::run(spec.circuit, spec.model, spec.options);
            plain_s.push_back(seconds_since(t0));
            const std::uint64_t job = spans.begin_span(item_name(item), replay);
            t0 = now_ns();
            const TracedRun traced =
                traced_run(spec.circuit, spec.model, spec.options);
            traced_s.push_back(seconds_since(t0));
            spans.end_span(job);
            check_traced(traced, reference[item], spec.model, item_name(item),
                         report);
            totals.add(traced);
        }
        ++totals.passes;
    }
    spans.end_span(replay);
    totals.overhead_ratio = sum(traced_s) / sum(plain_s);
    // Reuse figures: the specs' tree against their (N,1) baseline.
    std::vector<double> realization;
    double tree_t = 0.0;
    double base_t = 0.0;
    for (std::size_t item = 0; item < s.specs.size(); ++item) {
        const service::JobSpec& spec = s.specs[item];
        const double tt = plain_s[item];
        const std::int64_t t0 = now_ns();
        core::run_baseline(spec.circuit, spec.model, kServiceShots,
                           spec.options.executor_options());
        const double bt = seconds_since(t0);
        tree_t += tt;
        base_t += bt;
        realization.push_back((bt / tt) /
                              reference[item].plan.theoretical_speedup());
    }
    totals.reuse_speedup = base_t / tree_t;
    totals.reuse_realization = geomean(realization);
    std::printf("traced replay: %d passes over %zu specs, overhead %.3fx; "
                "host: %.3fx slower than the reference speed (median), "
                "per-layer times are raw\n",
                totals.passes, s.specs.size(), totals.overhead_ratio,
                median(slowdown));
    emit_layer_metrics(totals, service_figures(records, cache), report);
    finish_trace(spans, opt, report);
}

void
run_service(const Options& opt, Report& report)
{
    SetupTimer<ServiceSetup> setup([&] {
            ServiceSetup out;
            out.gen.seed = opt.seed;
            for (bool thermal : {false, true}) {
                for (std::uint64_t k = 0; k < kSpecsPerTenant; ++k) {
                    out.specs.push_back(out.gen.make(thermal, k));
                }
            }
            out.svc = std::make_unique<service::JobService>(service_config());
            return out;
        });
    setup.build();
    setup.build();
    const ServiceSetup s = setup.build();
    stamp_configuration(s.specs.front().options, report);
    service::JobService& svc = *s.svc;

    // Isolated reference per spec (also the warm-up of the code paths),
    // then one service job per spec to bring the cache to steady state.
    std::int64_t t0 = now_ns();
    std::vector<core::RunResult> reference;
    for (const service::JobSpec& spec : s.specs) {
        reference.push_back(core::run(spec.circuit, spec.model, spec.options));
    }
    for (const service::JobSpec& spec : s.specs) {
        const service::JobStatus st = svc.wait(svc.submit(spec));
        report.check(st.state == service::JobState::kDone, "warm-up job done");
    }
    std::printf("service: 2 lanes, 2 closed-loop clients, %zu specs per "
                "tenant, tree (%" PRIu64 ",%" PRIu64 "), cache %" PRIu64
                " KiB; warm-up %.3f s (not timed)\n",
                static_cast<std::size_t>(kSpecsPerTenant), kServiceArity,
                kServiceArity, service_config().cache.capacity_bytes >> 10,
                seconds_since(t0));

    // The traced run spends half its time in the loop and half in the
    // traced replay; the untraced run spends a fifth on the baseline.
    double wall_s = 0.0;
    const std::vector<JobRecord> records = closed_loop(
        svc, s.gen, opt.seconds * (opt.trace ? 0.5 : 0.8), &wall_s);
    ItemTimes latency(s.specs.size());
    std::vector<double> raw_ms;
    for (const JobRecord& r : records) {
        const bool ok =
            r.done && same_distribution(svc.result(r.id).distribution,
                                        reference[r.item].distribution);
        report.check(ok, "job " + std::to_string(r.id) + " (" +
                             item_name(r.item) +
                             ") done and bit-identical to isolated core::run");
        latency.add(r.item, r.latency_s, r.reference_s);
        raw_ms.push_back(r.latency_s * 1e3);
    }
    const service::ServiceStats stats = svc.service_stats();
    const service::ReuseCache::Stats cache = svc.cache_stats();
    report.check(stats.jobs_failed == 0 && stats.retries == 0,
                 "service: zero failed jobs and zero retries");
    for (const auto& l : latency.raw) {
        report.check(!l.empty(), "every spec completed at least one job");
        if (l.empty()) {
            return;
        }
    }
    std::printf("closed loop: %zu jobs in %.3f s = %.3f jobs/s; raw latency "
                "p50 %.3f ms p95 %.3f ms (sweep p50 %.3f, thermal p50 %.3f); "
                "cache plan %" PRIu64 "/%" PRIu64 " prefix %" PRIu64
                "/%" PRIu64 " evictions %" PRIu64 "\n",
                records.size(), wall_s,
                static_cast<double>(records.size()) / wall_s,
                percentile(raw_ms, 50.0), percentile(raw_ms, 95.0),
                tenant_p50_ms(records, false), tenant_p50_ms(records, true),
                cache.plan_hits, cache.plan_hits + cache.plan_misses,
                cache.prefix_hits, cache.prefix_hits + cache.prefix_misses,
                cache.evictions);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < s.specs.size(); ++i) {
        names.push_back(item_name(i));
    }
    print_quartiles("job latency", names, latency);

    if (opt.trace) {
        trace_service(s, records, cache, reference, opt.seconds * 0.5, opt,
                      report);
        return;
    }

    // No-reuse reference: spec 0 and 1 of each tenant under (N,1).
    const std::vector<std::size_t> base_items = {0, 1, kSpecsPerTenant,
                                                 kSpecsPerTenant + 1};
    const auto base_times = timed_rounds(
        base_items.size(), opt.seconds * 0.2, 3, [&](std::size_t i) {
            const service::JobSpec& spec = s.specs[base_items[i]];
            core::run_baseline(spec.circuit, spec.model, kServiceShots,
                               spec.options.executor_options());
        },
        [&] { setup.build(); });
    std::vector<std::string> base_names;
    for (std::size_t item : base_items) {
        base_names.push_back(item_name(item));
    }
    print_quartiles("baseline", base_names, base_times);

    // A closed-loop client completes one job per latency, so its rate is a
    // spec cycle's job count over the cycle's summed latencies (each spec
    // at its median host-scaled latency).  The reference runs in the
    // clients, not in the lanes, so rescaling the loop's wall time instead
    // tracked the lanes' slowdown less well.  The raw rate is printed
    // above.
    EndToEnd e;
    e.setup_s = setup.median_s();
    e.host_factor = host_factor(latency);
    const std::vector<double> spec_latency = item_medians(latency.scaled);
    double sweep_cycle = 0.0;
    double thermal_cycle = 0.0;
    for (std::size_t i = 0; i < spec_latency.size(); ++i) {
        (i < kSpecsPerTenant ? sweep_cycle : thermal_cycle) += spec_latency[i];
    }
    e.jobs_per_s = static_cast<double>(kSpecsPerTenant) / sweep_cycle +
                   static_cast<double>(kSpecsPerTenant) / thermal_cycle;
    e.shots_per_s = e.jobs_per_s * static_cast<double>(kServiceShots);
    e.baseline_shots_per_s =
        static_cast<double>(base_items.size() * kServiceShots) /
        sum(item_medians(base_times.scaled));
    const std::vector<double> ms = all_ms(latency.scaled);
    e.latency_p50_ms = percentile(ms, 50.0);
    e.latency_p95_ms = percentile(ms, 95.0);
    e.latency_samples = ms.size();
    emit_end_to_end(e, report);
}

}  // namespace

void
run_suite_depol(const Options& opt, Report& report)
{
    run_item_workload(
        opt, [&] { return build_suite(opt.seed); }, verify_suite, report);
}

void
run_wide_ideal_sharded(const Options& opt, Report& report)
{
    run_item_workload(
        opt, [&] { return build_wide(opt.seed); }, verify_wide, report);
}

void
run_service_loop(const Options& opt, Report& report)
{
    run_service(opt, report);
}

}  // namespace perfbench
