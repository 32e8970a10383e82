/**
 * @file
 * perfbench: run one benchmark workload and print its result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-dir DIR]
 *
 * Informational lines start with '#'. The last line of standard output
 * is one JSON object: {"correct", "attempted", "failed", "metrics"},
 * with the end-to-end metrics when --trace is 0 and the per-layer
 * metrics when it is 1. Usage errors exit 2 without a result.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n";
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos || text.size() > 19)
        usage(flag + " needs a whole number, got '" + text + "'");
    return std::stoull(text);
}

std::string
jsonNumber(double value)
{
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions options;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = parseUnsigned(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            const uint64_t seconds = parseUnsigned(flag, value);
            if (seconds < 1 || seconds > 60)
                usage("--seconds must be 1..60");
            options.seconds = static_cast<double>(seconds);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--trace-dir") {
            options.traceDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const std::string &name : perfbench::workloadNames())
        known = known || name == options.workload;
    if (!known)
        usage("unknown workload '" + options.workload + "'");
    if (options.trace && options.traceDir.empty())
        usage("--trace 1 needs --trace-dir");
    // Injected I/O faults would turn a timing run into a chaos run.
    if (const char *fp = std::getenv("RELAXFAULT_FAILPOINTS");
        fp != nullptr && *fp != '\0')
        usage("refusing to run with RELAXFAULT_FAILPOINTS set");

    std::cout << "# workload " << options.workload << " seed "
              << options.seed << " seconds " << options.seconds
              << " trace " << (options.trace ? 1 : 0) << "\n"
              << "# build " << PERFBENCH_BUILD_TYPE << ", ecc simd tier "
              << relaxfault::simdLevelName(relaxfault::activeSimdLevel())
              << "\n";

    const perfbench::Outcome outcome = perfbench::runWorkload(options);
    for (const std::string &note : outcome.notes)
        std::cout << "# " << note << "\n";
    for (const std::string &failure : outcome.failures) {
        std::cout << "# FAIL " << failure << "\n";
        std::cerr << "perfbench: FAIL " << failure << "\n";
    }

    bool finite = true;
    std::string metrics;
    for (const perfbench::Metric &metric : outcome.metrics) {
        finite = finite && std::isfinite(metric.value);
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
                   metric.name + "\": {\"value\": " +
                   jsonNumber(std::isfinite(metric.value) ? metric.value
                                                          : 0.0) +
                   ", \"unit\": \"" + metric.unit + "\"}";
    }
    const bool correct = outcome.failed == 0 && finite;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << outcome.attempted
              << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return 0;
}
