#include "hostspeed.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "attribution.h"

namespace perfbench {

namespace {

volatile double g_sink = 0.0;

// Median of five timed runs of `part`, in seconds.
template <typename Part>
double median_of_five(Part part) {
  std::array<double, 5> seconds{};
  for (double& s : seconds) {
    const Clock::time_point start = Clock::now();
    part();
    s = std::chrono::duration<double>(Clock::now() - start).count();
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[2];
}

// Four interleaved integer hash streams and a data-dependent branch: keeps
// the integer ports and the branch predictor busy, as the solver's scans do.
void hash_streams() {
  std::uint64_t h0 = 1, h1 = 2, h2 = 3, h3 = 4;
  int taken = 0;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    h0 = h0 * 0x9E3779B97F4A7C15ull + i;
    h1 ^= (h1 >> 13) ^ h0;
    h2 = h2 * 31 + (h1 & 255);
    h3 += (h2 & 1) != 0 ? h1 : h0;
    if ((h3 & 0x100) != 0) ++taken;
  }
  g_sink = static_cast<double>(h0 + h1 + h2 + h3) + taken;
}

// Eight independent multiply-add chains over an L1-resident array: keeps
// the floating-point ports busy.
void fp_chains() {
  static const std::vector<double> data(2048, 1.0001);
  std::array<double, 8> acc{};
  for (int pass = 0; pass < 40; ++pass) {
    for (std::size_t i = 0; i < data.size(); i += acc.size()) {
      for (std::size_t j = 0; j < acc.size(); ++j) {
        acc[j] += data[i + j] * (1.0 + 0.125 * static_cast<double>(j));
      }
    }
  }
  double sum = 0.0;
  for (const double a : acc) sum += a;
  g_sink = sum;
}

// Sum of a 1 MiB array with four accumulators: L2 bandwidth.
void l2_stream() {
  static const std::vector<double> data(1 << 17, 1.0);
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
  for (std::size_t i = 0; i < data.size(); i += 4) {
    a += data[i];
    b += data[i + 1];
    c += data[i + 2];
    d += data[i + 3];
  }
  g_sink = a + b + c + d;
}

}  // namespace

double reference_seconds() {
  return std::cbrt(median_of_five(hash_streams) * median_of_five(fp_chains) *
                   median_of_five(l2_stream));
}

double host_scale(int cpu) {
  if (cpu < 0) return kReferenceSeconds / reference_seconds();
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool restore =
      pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) == 0;
  pin_current_thread(cpu);
  const double seconds = reference_seconds();
  if (restore) {
    (void)pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
  }
  return kReferenceSeconds / seconds;
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_current_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace perfbench
