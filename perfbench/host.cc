#include "host.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <thread>

namespace perfbench {

std::vector<int> UsableCpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus.push_back(c);
        }
    }
    if (cpus.empty()) cpus.push_back(0);
    return cpus;
}

void PinCurrentThread(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) CPU_SET(c, &set);
    // Best effort: an unpinnable host still runs, only less steadily.
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void RunPinned(const std::vector<int>& cpus, const std::function<void()>& fn) {
    std::exception_ptr error;
    std::thread t([&] {
        PinCurrentThread(cpus);
        try {
            fn();
        } catch (...) {
            error = std::current_exception();
        }
    });
    t.join();
    if (error) std::rethrow_exception(error);
}

double ProcessCpuSeconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuJiffies ReadCpuJiffies() {
    CpuJiffies j;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return j;
    unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    // cpu user nice system idle iowait irq softirq steal
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        for (const auto x : v) j.total += x;
        j.steal = v[7];
    }
    std::fclose(f);
    return j;
}

double StealFraction(const CpuJiffies& before, const CpuJiffies& after) {
    if (after.total <= before.total) return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

double ReferenceLoopMs() {
    const std::int64_t t0 = NowNs();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = x;
    (void)sink;
    return static_cast<double>(NowNs() - t0) * 1e-6;
}

}  // namespace perfbench
