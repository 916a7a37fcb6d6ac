// Host plumbing for the benchmark: core pinning, process CPU and memory
// counters, and the two drift diagnostics (steal share from /proc/stat
// and a reference loop that runs no program code).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// CPUs this process may run on, in ascending order.
std::vector<int> UsableCpus();

// Pins the calling thread to the given CPUs. Threads it creates later
// inherit the mask, which is how the serving stacks' pools, batchers and
// connection threads end up confined.
void PinCurrentThread(const std::vector<int>& cpus);

// Runs fn on a fresh thread pinned to `cpus` and waits for it, rethrowing
// its exception. Used to construct every server stack.
void RunPinned(const std::vector<int>& cpus, const std::function<void()>& fn);

// Process user+sys CPU seconds so far (all threads).
double ProcessCpuSeconds();

// Peak resident set size of the process, MiB.
double PeakRssMb();

// Aggregate CPU jiffies from /proc/stat; steal share = dsteal / dtotal.
struct CpuJiffies {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
double StealFraction(const CpuJiffies& before, const CpuJiffies& after);

// Milliseconds a fixed integer loop takes on the calling thread: a probe
// of host speed that no program change can move.
double ReferenceLoopMs();

}  // namespace perfbench
