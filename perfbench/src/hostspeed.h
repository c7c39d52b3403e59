// Host-speed normalisation of the benchmark's timings, and CPU placement.
//
// The benchmark runs on vCPUs of a shared host. For tens of seconds to
// minutes at a time, other tenants on the same physical cores slow every
// thread-level-parallel workload down by up to 1.6x (on a 4-vCPU Xeon
// virtual machine, paper-week's decide p50 moved from 1.4 to 2.2 ms and
// back between runs of the same code and inputs). No median inside a run
// removes a slowdown that lasts the whole run. So just before every
// repetition the benchmark times a fixed reference kernel on the CPUs that
// will run it, and multiplies the repetition's durations by
// kReferenceSeconds / (the kernel's time): timings are reported as they
// would read on a host where the kernel takes kReferenceSeconds.
//
// The kernel is benchmark code that no library change touches: integer
// hashing with data-dependent branches, independent floating-point
// multiply-add chains, and a stream over an L2-sized array, all at high
// instruction-level parallelism. On that host these parts' times followed
// paper-week's slowdowns with round-to-round correlations of 0.94-0.98; a
// latency-bound floating-point chain followed them only weakly, which is
// why the kernel is throughput-bound. The library's own speed passes
// through unchanged; only the host's share of the core cancels.
#pragma once
#include <vector>

namespace perfbench {

// Any constant would do: it fixes the unit in which scaled timings are
// reported. This one is a round figure for the host above, where the
// kernel took 60-80 us, so scaled timings read close to wall time there.
inline constexpr double kReferenceSeconds = 60e-6;

// Wall seconds of the reference kernel on the calling thread: the geometric
// mean of its three parts, each the median of five runs.
[[nodiscard]] double reference_seconds();

// kReferenceSeconds / reference_seconds(), measured with the calling thread
// pinned to `cpu` (on its current CPU when `cpu` is negative). Restores the
// thread's CPU affinity. Multiply a duration measured on that CPU by it.
[[nodiscard]] double host_scale(int cpu);

// The CPUs the calling thread may run on, in increasing order.
[[nodiscard]] std::vector<int> allowed_cpus();

// Pins the calling thread to `cpu`; a negative cpu leaves it as it is.
// Best effort: an unpinned thread measures the same work, only noisier.
void pin_current_thread(int cpu);

}  // namespace perfbench
