// BDMA — Benders' Decomposition Motivated Algorithm for P2 (paper Alg. 2).
//
// Alternates between the two subproblems for at most z iterations:
//   P2-A: fix Ω, solve the assignment with a P2-A solver (CGBA by default;
//         MCBA / ROPT give the paper's "<solver>-based DPP" baselines);
//   P2-B: fix (x, y), solve the frequencies by per-server convex search.
// The best (x, y, Ω) by the P2 objective f = V·T + Q·Θ across iterations is
// returned (line 5-8 of Algorithm 2). Ω starts at Ω^L, which is what the
// approximation proof of Theorem 3 relies on.
//
// Fixed-point exit (CGBA only). When the warm-started CGBA pass of some
// iteration k > 0 moves no device, z_k = z_{k-1}. P2-B is a pure function
// of the assignment, so it would return the Ω_{k-1} and objective that
// iteration k-1 already recorded (the strict `<` keeps the best pair), and
// iteration k+1 would rebuild the same weights, warm-start from the same
// profile and again move nothing; cgba_from draws no randomness. Every
// later iteration is therefore an exact repeat and is skipped: decisions,
// p2a_iterations and the rng stream equal those of the full z-iteration
// loop bit for bit. MCBA and ROPT draw from the rng on every iteration and
// always run all z.
#pragma once

#include <vector>

#include "core/cgba.h"
#include "core/counters.h"
#include "core/instance.h"
#include "core/mcba.h"
#include "core/p2b.h"
#include "core/sharded.h"
#include "core/solve_result.h"
#include "core/wcg.h"
#include "util/rng.h"

namespace eotora::core {

enum class P2aSolverKind { kCgba, kMcba, kRopt };

struct BdmaConfig {
  std::size_t iterations = 5;  // the paper's z
  P2aSolverKind solver = P2aSolverKind::kCgba;
  CgbaConfig cgba;
  McbaConfig mcba;
  double freq_tolerance = 1e-7;
};

struct BdmaResult {
  Assignment assignment;
  Frequencies frequencies;
  double objective = 0.0;    // f(x̄, ȳ, Ω̄) = V·T + Q·Θ
  double latency = 0.0;      // T_t(x̄, ȳ, Ω̄, β)
  double theta = 0.0;        // Θ(Ω̄, p) = C_t - C̄
  std::size_t p2a_iterations = 0;  // total inner-solver work
  // Objective after each P2-B solve (size <= config.iterations: the
  // fixed-point exit drops the entries that would repeat the last one); the
  // running minimum of this series is what Algorithm 2's lines 5-8 keep.
  std::vector<double> objective_history;
};

// Reusable per-slot scratch state. bdma() rebuilds the workspace problem in
// place (WcgProblem::rebuild), so a caller that keeps one workspace across
// the simulation horizon pays no per-slot arena/index reallocation. Not
// thread-safe: use one workspace per concurrent caller.
struct BdmaWorkspace {
  WcgProblem problem;
  // Scratch for the sharded P2-A drivers (used only when the inner solver
  // config enables shard_workers).
  ShardedWorkspace sharded;
  // Scratch for the per-iteration P2-B solve (batched kernel lanes).
  P2bWorkspace p2b;
  P2bResult p2b_result;
};

// The loop-carried state of Algorithm 2, exposed so the per-iteration
// halves below can be driven either by bdma() or one half at a time by the
// sim::pipeline P2-A / P2-B stages. bdma() and a stage-driven loop execute
// the exact same statements in the exact same order, so their results are
// bit-identical by construction. Drivers call both halves z times per slot;
// the halves themselves turn into no-ops once the fixed point is reached.
struct BdmaLoopState {
  Frequencies omega;      // Ω fed into the next P2-A solve
  SolveResult previous;   // last P2-A solution (CGBA warm start)
  SolveResult p2a;        // current iteration's P2-A solution
  Assignment assignment;  // current iteration's (x, y)
  BdmaResult best;        // lines 5-8: running best by the P2 objective
  // Set by the warm CGBA pass that moved no device; every later iterate
  // call of the slot is a no-op. Cleared by bdma_begin_slot.
  bool fixed_point = false;
  // Sharding telemetry of the last P2-A solve — component count and
  // per-shard effort of that one solve. 0 / empty when the solve ran
  // unsharded; overwritten each iterate so stage wrappers can accumulate.
  // A no-op iterate ran no solve: it empties p2a_shard_counters and keeps
  // p2a_shards (the slot's decomposition is unchanged).
  std::size_t p2a_shards = 0;
  std::vector<counters::SolverCounters> p2a_shard_counters;
};

// Line 1 of Algorithm 2: reset `loop`, set Ω = Ω^L, and rebuild the
// workspace problem for this slot's state.
void bdma_begin_slot(const Instance& instance, const SlotState& state,
                     BdmaWorkspace& workspace, BdmaLoopState& loop);

// Line 3: one P2-A solve at the current Ω (`iteration` is 0-based; the
// first iteration keeps the frequencies installed by bdma_begin_slot, later
// ones re-derive the compute weights from loop.omega first). Sets
// loop.fixed_point when a warm CGBA pass moves no device. Once it is set,
// returns at once: no solve, no counter, no rng draw.
void bdma_p2a_iterate(const Instance& instance, const SlotState& state,
                      const BdmaConfig& config, std::size_t iteration,
                      util::Rng& rng, BdmaWorkspace& workspace,
                      BdmaLoopState& loop);

// Lines 4-8: one P2-B solve at the fixed assignment (reading the per-server
// loads from the workspace problem's option arena), best-pair tracking by
// the P2 objective, and the Ω hand-off to the next iteration. Returns at
// once, adding no objective_history entry, when loop.fixed_point is set.
void bdma_p2b_iterate(const Instance& instance, const SlotState& state,
                      double v, double q, const BdmaConfig& config,
                      BdmaWorkspace& workspace, BdmaLoopState& loop);

// As above for drivers without a BdmaWorkspace (the sim::pipeline P2-B
// stage): the per-server loads come from the sqrt-chain overload of
// solve_p2b, which carries the same bits as the arena path.
void bdma_p2b_iterate(const Instance& instance, const SlotState& state,
                      double v, double q, const BdmaConfig& config,
                      P2bWorkspace& p2b_workspace, P2bResult& p2b_result,
                      BdmaLoopState& loop);

// Derives the reported latency and Θ for loop.best after the last
// iteration (Algorithm 2's return values).
void bdma_finish_slot(const Instance& instance, const SlotState& state,
                      BdmaLoopState& loop);

// Solves P2 at one slot. `v` is the DPP weight V, `q` the current queue
// backlog Q(t).
[[nodiscard]] BdmaResult bdma(const Instance& instance, const SlotState& state,
                              double v, double q, const BdmaConfig& config,
                              util::Rng& rng);

// As above, reusing `workspace` allocations across calls.
[[nodiscard]] BdmaResult bdma(const Instance& instance, const SlotState& state,
                              double v, double q, const BdmaConfig& config,
                              util::Rng& rng, BdmaWorkspace& workspace);

}  // namespace eotora::core
