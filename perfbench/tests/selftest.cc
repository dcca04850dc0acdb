/// @file
/// The benchmark's own tests: the order-statistics helpers on fixed
/// vectors (expected values are Python's statistics module output), and
/// decorator purity — a decorated run is bit-identical to core::run and
/// its decorator counts equal ExecStats — on small circuits, dense and
/// sharded, under a unitary-mixture model and a general-channel model.
///
/// Run:  python3 perfbench/run.py --selftest        (exit 0 = pass)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "circuits/qft.h"
#include "circuits/qv.h"
#include "sim/parallel.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
}

bool
near(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!near(a[i], b[i])) {
            return false;
        }
    }
    return true;
}

void
test_stats()
{
    using perfbench::geomean;
    using perfbench::median;
    using perfbench::quantiles;
    expect(near(quantiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), {2.75, 5.5, 8.25}),
           "quantiles of 1..10");
    expect(near(quantiles({1, 2}), {0.75, 1.5, 2.25}),
           "quantiles of two values (clamped index)");
    expect(near(quantiles({3, 1, 2}), {1.0, 2.0, 3.0}),
           "quantiles of unsorted input");
    expect(near(quantiles({0.5, 9, 2, 7, 4.25}), {1.25, 4.25, 8.0}),
           "quantiles of five values");
    expect(near(quantiles({5, 5, 5, 5}), {5.0, 5.0, 5.0}),
           "quantiles of a constant sample");
    expect(near(median({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5),
           "median of even count");
    expect(near(median({3, 1, 2}), 2.0), "median of odd count");
    expect(near(geomean({1, 2, 4, 8}), 2.82842712474619), "geomean 1,2,4,8");
    expect(near(geomean({0.5, 2, 3}), 1.4422495703074085),
           "geomean 0.5,2,3");
    expect(near(perfbench::relative_iqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                (8.25 - 2.75) / 5.5),
           "relative IQR");
    bool threw = false;
    try {
        geomean({1.0, 0.0});
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    expect(threw, "geomean rejects non-positive values");
}

void
test_decorator_purity(const tqsim::sim::Circuit& circuit,
                      const tqsim::noise::NoiseModel& model,
                      tqsim::core::RunOptions opt, const std::string& what)
{
    perfbench::Report report;
    const tqsim::core::RunResult plain = tqsim::core::run(circuit, model, opt);
    const perfbench::TracedRun traced =
        perfbench::traced_run(circuit, model, opt);
    perfbench::check_traced(traced, plain, model, what, report);
    expect(report.attempted() >= 4 && report.failed() == 0,
           what + ": decorated run pure and counts match ExecStats");
    expect(traced.rec.execute.calls == 1 && traced.rec.plan.calls == 1,
           what + ": one plan and one execute_tree call recorded");
    std::uint64_t ops = 0;
    for (const perfbench::Slot& s : traced.rec.apply_op) {
        ops += s.calls;
    }
    expect(ops > 0, what + ": apply_op calls recorded");

    // The checks must be able to fail: a run with another seed differs.
    perfbench::Report negative;
    opt.seed += 1;
    const tqsim::core::RunResult other =
        tqsim::core::run(circuit, model, opt);
    perfbench::check_traced(traced, other, model, what, negative);
    expect(negative.failed() > 0, what + ": a different run is detected");
}

}  // namespace

int
main()
{
    tqsim::sim::set_num_threads(perfbench::kThreads);
    test_stats();

    const tqsim::sim::Circuit qft = tqsim::circuits::qft(6);
    const tqsim::sim::Circuit qv = tqsim::circuits::quantum_volume(6, 4, 7);
    const auto depol = tqsim::noise::NoiseModel::sycamore_depolarizing();
    const auto thermal =
        tqsim::noise::NoiseModel::thermal(25000, 30000, 35, 350);

    tqsim::core::RunOptions dense = perfbench::pinned_options(512, 11);
    test_decorator_purity(qft, depol, dense, "qft6 depolarizing dense");
    test_decorator_purity(qv, thermal, dense, "qv6 thermal dense");

    tqsim::core::RunOptions sharded = dense;
    sharded.backend.kind = tqsim::sim::BackendKind::kSharded;
    sharded.backend.num_shards = 4;
    test_decorator_purity(qft, depol, sharded, "qft6 depolarizing sharded");
    test_decorator_purity(
        qv, tqsim::noise::NoiseModel::readout_only(0.01), sharded,
        "qv6 readout-only sharded");
    {
        perfbench::Report report;
        const perfbench::TracedRun traced = perfbench::traced_run(
            qv, tqsim::noise::NoiseModel::readout_only(0.01), sharded);
        expect(traced.rec.comm_bytes > 0 && traced.rec.gather.calls > 0,
               "sharded run moves slices through the decorated transport");
    }

    std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL",
                failures);
    return failures == 0 ? 0 : 1;
}
