/// @file
/// perfbench: same-host benchmark program for the TQSim library.
///
///   perfbench --workload <suite_depol|wide_ideal_sharded|service_loop>
///             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
///
/// Prints human-readable lines (resolved configuration, per-item
/// repetition quartiles, reference checks) and, as the last line, one JSON
/// object with the keys correct, attempted, failed and metrics.  --trace 0
/// reports the end-to-end metrics; --trace 1 runs the decorated replay and
/// reports the per-layer metrics.  See NOTES.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "sim/parallel.h"
#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <suite_depol|"
                 "wide_ideal_sharded|service_loop> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), nullptr);
        } else if (key == "--trace") {
            opt.trace = value == "1";
        } else if (key == "--trace-out") {
            opt.trace_path = value;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !(opt.seconds > 0.0)) {
        return usage();
    }
    tqsim::sim::set_num_threads(perfbench::kThreads);
    perfbench::Report report;
    try {
        std::printf("workload %s seed %llu seconds %g trace %d\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), opt.seconds,
                    opt.trace ? 1 : 0);
        if (opt.workload == "suite_depol") {
            perfbench::run_suite_depol(opt, report);
        } else if (opt.workload == "wide_ideal_sharded") {
            perfbench::run_wide_ideal_sharded(opt, report);
        } else if (opt.workload == "service_loop") {
            perfbench::run_service_loop(opt, report);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::printf("operations: attempted %llu failed %llu\n",
                static_cast<unsigned long long>(report.attempted()),
                static_cast<unsigned long long>(report.failed()));
    std::printf("%s\n", report.json().c_str());
    return 0;
}
