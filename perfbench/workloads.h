// The benchmark's three closed-loop workloads (see README.md beside this
// file for why each exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis.h"

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    // false: end-to-end metrics, untraced. true: per-layer metrics from an
    // untraced window, a traced window and an unloaded replay.
    bool trace = false;
    // Where the traced run writes its spans (JSON lines); empty = nowhere.
    std::string span_file;
};

struct RunReport {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

// Builds the workload's world from its seed, measures it and checks every
// timed lookup bit for bit. Throws on an unknown workload.
RunReport RunWorkload(const RunOptions& options);

// Known-defect probe: one ShardedRouter lookup against a table whose hot
// row count is not a multiple of its bin count. Prints the outcome; never
// affects the run's verdict.
void RunRaggedBinProbe();

}  // namespace perfbench
