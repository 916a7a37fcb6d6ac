// Pure measurement arithmetic of the benchmark: percentiles with their
// sample-support rule, span self time, metric-name validation and the
// result-line JSON. Kept free of program code, so a change under src/
// cannot change how the benchmark computes its numbers; the self-test
// (`perfbench --self-test`) covers it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Samples strictly above the pct-th percentile of n samples (pct an
// integer percent): n - ceil(n * pct / 100).
std::size_t SamplesBeyond(std::size_t n, unsigned pct);

// A percentile is reported only when at least ten samples lie beyond it,
// so p95 needs n >= 200.
bool PercentileSupported(std::size_t n, unsigned pct);

// Linear-interpolated percentile of an unsorted sample; 0 for no samples.
double Percentile(std::vector<double> samples, unsigned pct);

// Completions of one timed window, cut into consecutive slices of at
// least `min_per_slice` samples each (at most max_slices, at least one).
// A run reports the median over slices of each figure, so a burst of host
// interference shorter than half the window cannot move it.
struct SliceStats {
    std::size_t count = 0;
    double per_s = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
};
// `samples` holds (completion time ns, latency) pairs inside [t0, t1).
std::vector<SliceStats> SliceWindow(
    std::vector<std::pair<std::int64_t, double>> samples, std::int64_t t0,
    std::int64_t t1, std::size_t min_per_slice, std::size_t max_slices);

double MedianOf(const std::vector<SliceStats>& slices,
                double SliceStats::*field);

// One traced layer call. Times are steady-clock nanoseconds; `parent` is
// the index of the enclosing span in the same vector, -1 for a root.
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children (clipped to the span).
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
// letter or digit.
bool ValidMetricName(const std::string& name);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// Throws std::invalid_argument on an invalid or repeated metric name.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

// Runs the self-tests; prints failures to stderr and returns false on any.
bool RunSelfTests();

}  // namespace perfbench
