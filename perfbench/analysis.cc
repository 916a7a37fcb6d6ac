#include "analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::size_t SamplesBeyond(std::size_t n, unsigned pct) {
    const std::size_t at_or_below = (n * pct + 99) / 100;
    return n - std::min(n, at_or_below);
}

bool PercentileSupported(std::size_t n, unsigned pct) {
    return SamplesBeyond(n, pct) >= 10;
}

double Percentile(std::vector<double> samples, unsigned pct) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        pct / 100.0 * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

std::vector<SliceStats> SliceWindow(
    std::vector<std::pair<std::int64_t, double>> samples, std::int64_t t0,
    std::int64_t t1, std::size_t min_per_slice, std::size_t max_slices) {
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    const std::size_t count = std::max<std::size_t>(
        1, std::min(max_slices, n / std::max<std::size_t>(1, min_per_slice)));
    std::vector<SliceStats> slices(count);
    std::int64_t begin = t0;
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t lo = n * k / count;
        const std::size_t hi = n * (k + 1) / count;
        const std::int64_t end =
            k + 1 == count ? t1 : samples[hi - 1].first;
        std::vector<double> lat;
        for (std::size_t i = lo; i < hi; ++i) lat.push_back(samples[i].second);
        SliceStats& s = slices[k];
        s.count = hi - lo;
        s.per_s = end > begin ? static_cast<double>(s.count) /
                                    (static_cast<double>(end - begin) * 1e-9)
                              : 0.0;
        s.p50 = Percentile(lat, 50);
        s.p95 = Percentile(lat, 95);
        begin = end;
    }
    return slices;
}

double MedianOf(const std::vector<SliceStats>& slices,
                double SliceStats::*field) {
    std::vector<double> v;
    for (const SliceStats& s : slices) v.push_back(s.*field);
    return Percentile(v, 50);
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent < 0) continue;
        const Span& p = spans.at(static_cast<std::size_t>(s.parent));
        const std::int64_t lo = std::max(s.start_ns, p.start_ns);
        const std::int64_t hi = std::min(s.end_ns, p.end_ns);
        if (lo < hi) covered[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = covered[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t union_ns = 0;
        std::int64_t cur_lo = 0;
        std::int64_t cur_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open) union_ns += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open) union_ns += cur_hi - cur_lo;
        self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
    }
    return self;
}

bool ValidMetricName(const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0])) return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
    std::set<std::string> seen;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (!ValidMetricName(m.name) || !seen.insert(m.name).second) {
            throw std::invalid_argument("bad or repeated metric name: " +
                                        m.name);
        }
        if (!std::isfinite(m.value)) {
            throw std::invalid_argument("non-finite metric: " + m.name);
        }
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        if (i > 0) out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    out += "}}";
    return out;
}

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
    if (ok) return;
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
}

}  // namespace

bool RunSelfTests() {
    g_failures = 0;

    // Percentile support: ten samples strictly beyond the percentile.
    Expect(SamplesBeyond(200, 95) == 10, "200 samples leave 10 beyond p95");
    Expect(PercentileSupported(200, 95), "p95 supported at n=200");
    Expect(!PercentileSupported(199, 95), "p95 unsupported at n=199");
    Expect(PercentileSupported(20, 50), "p50 supported at n=20");
    Expect(!PercentileSupported(19, 50), "p50 unsupported at n=19");
    Expect(!PercentileSupported(999, 99), "p99 unsupported at n=999");
    Expect(PercentileSupported(1000, 99), "p99 supported at n=1000");
    Expect(SamplesBeyond(0, 95) == 0, "no samples, none beyond");
    Expect(Percentile({3.0, 1.0, 2.0}, 50) == 2.0, "median of 1,2,3");
    Expect(Percentile({1.0, 2.0}, 50) == 1.5, "interpolated median");
    Expect(Percentile({}, 95) == 0.0, "empty percentile is 0");

    // Slices: consecutive, at least min_per_slice each, rate per slice.
    std::vector<std::pair<std::int64_t, double>> window;
    for (int i = 0; i < 30; ++i) {
        // 10 completions/s for 1 s, then 20/s for 1 s: ends at 0.1 s
        // steps, then 0.05 s steps.
        const std::int64_t t = i < 10 ? (i + 1) * 100'000'000LL
                                      : 1'000'000'000LL +
                                            (i - 9) * 50'000'000LL;
        window.push_back({t, static_cast<double>(i)});
    }
    const auto slices = SliceWindow(window, 0, 2'000'000'000LL, 10, 8);
    Expect(slices.size() == 3, "30 samples, 10 per slice: 3 slices");
    Expect(slices[0].count == 10 && slices[0].per_s > 9.99 &&
               slices[0].per_s < 10.01,
           "first slice runs at 10/s");
    Expect(slices[2].per_s > 19.99 && slices[2].per_s < 20.01,
           "last slice runs at 20/s to the window end");
    Expect(MedianOf(slices, &SliceStats::per_s) > 19.99,
           "median slice rate");
    Expect(SliceWindow(window, 0, 2'000'000'000LL, 100, 8).size() == 1,
           "too few samples: one slice");
    Expect(SliceWindow(window, 0, 2'000'000'000LL, 1, 4).size() == 4,
           "slice cap");

    // Self time: children's union is removed, overlaps counted once,
    // parts outside the parent clipped away.
    std::vector<Span> spans(6);
    spans[0] = {"root", 0, 100, -1, 1};
    spans[1] = {"a", 10, 30, 0, 1};
    spans[2] = {"b", 20, 50, 0, 1};   // overlaps a: union [10,50)
    spans[3] = {"c", 90, 120, 0, 1};  // clipped to [90,100)
    spans[4] = {"a.child", 12, 18, 1, 1};
    spans[5] = {"other", 0, 7, -1, 2};
    const auto self = SelfTimesNs(spans);
    Expect(self[0] == 100 - 40 - 10, "root self = 100 - [10,50) - [90,100)");
    Expect(self[1] == 20 - 6, "child self excludes grandchild");
    Expect(self[2] == 30, "leaf self is its duration");
    Expect(self[3] == 30, "clipped child keeps its own duration");
    Expect(self[5] == 7, "independent root");
    std::vector<Span> seq = {{"r", 0, 10, -1, 0},
                             {"x", 0, 4, 0, 0},
                             {"y", 4, 10, 0, 0}};
    Expect(SelfTimesNs(seq)[0] == 0, "fully covered parent has no self");

    // Metric names.
    Expect(ValidMetricName("lat_p95_ms"), "plain name");
    Expect(ValidMetricName("client.prepare_ms"), "dotted name");
    Expect(ValidMetricName("9-lives"), "leading digit, dash");
    Expect(!ValidMetricName(""), "empty name");
    Expect(!ValidMetricName("_x"), "leading underscore");
    Expect(!ValidMetricName(".x"), "leading dot");
    Expect(!ValidMetricName("a b"), "space");
    Expect(!ValidMetricName("a/b"), "slash");
    Expect(!ValidMetricName("\xc3\xa9t\xc3\xa9"), "non-ASCII");
    Expect(ValidMetricName(std::string(64, 'a')), "64 characters");
    Expect(!ValidMetricName(std::string(65, 'a')), "65 characters");
    bool threw = false;
    try {
        ResultJson(true, 1, 0, {{"x", 1.0, "ms"}, {"x", 2.0, "ms"}});
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    Expect(threw, "repeated metric name rejected");
    Expect(ResultJson(true, 2, 0, {{"a", 0.5, "s"}}) ==
               "{\"correct\": true, \"attempted\": 2, \"failed\": 0, "
               "\"metrics\": {\"a\": {\"value\": 0.5, \"unit\": \"s\"}}}",
           "result line format");

    if (g_failures == 0) std::fprintf(stderr, "self-test: ok\n");
    return g_failures == 0;
}

}  // namespace perfbench
