// perfbench: the repository benchmark program.
//
//   perfbench --workload <rec_scan|ml_pooled|lm_fleet> --seed <n>
//             --seconds <s> --trace <0|1> [--span-file <path>]
//   perfbench --self-test
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when any
// timed lookup is wrong or fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "analysis.h"
#include "workloads.h"

namespace {

int Usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--span-file <path>]\n"
                 "       perfbench --self-test\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") return perfbench::RunSelfTests() ? 0 : 1;
        if (i + 1 >= argc) return Usage();
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--trace") {
            options.trace = value == "1";
        } else if (arg == "--span-file") {
            options.span_file = value;
        } else {
            return Usage();
        }
    }
    if (!have_workload || options.seconds <= 0) return Usage();
    try {
        const perfbench::RunReport report = perfbench::RunWorkload(options);
        try {
            perfbench::RunRaggedBinProbe();
        } catch (const std::exception& e) {
            std::printf("ragged-bin probe could not run: %s\n", e.what());
        }
        std::printf("%s\n", perfbench::ResultJson(report.correct,
                                                  report.attempted,
                                                  report.failed, report.metrics)
                                .c_str());
        std::fflush(stdout);
        return report.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
