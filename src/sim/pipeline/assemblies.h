// Canned pipeline assemblies — every registry policy, as a PolicyGraph of
// the stages in sim/pipeline/stages.h. This is the one implementation of
// each policy: the registry (sim/registry.cpp) builds every name through
// these, and callers holding a solver config (core::DppConfig, MpcConfig,
// ...) call them directly. One golden fixture per registry name
// (tests/golden/) pins each assembly's decisions.
#pragma once

#include <memory>

#include "core/beta_only.h"
#include "core/cgba.h"
#include "core/dpp.h"
#include "core/instance.h"
#include "sim/mpc_policy.h"
#include "sim/policy.h"

namespace eotora::sim::pipeline {

// Algorithm 1: StateIn → QueueUpdate → [P2aSolve ⇄ P2bSolve]×z →
// AuditTap → DppDecisionOut, with the solver loop under the "dpp/bdma"
// span, for any inner P2-A solver ("dpp-bdma", "dpp-mcba", "dpp-ropt").
[[nodiscard]] std::unique_ptr<Policy> make_dpp_pipeline(
    const core::Instance& instance, const core::DppConfig& config);

// StateIn → BudgetFrequency → CgbaAssign → AuditTap → CgbaDecisionOut.
// The myopic baseline ("greedy-budget"): spend up to the budget EVERY
// slot. Unlike DPP it cannot bank cheap-hour headroom against expensive
// hours, which is exactly the gap the Lyapunov queue closes.
[[nodiscard]] std::unique_ptr<Policy> make_greedy_budget_pipeline(
    const core::Instance& instance, const core::CgbaConfig& cgba = {});

// StateIn → FixedFrequency → CgbaAssign → AuditTap → CgbaDecisionOut.
// The non-Lyapunov ablation ("fixed-*"): CGBA assignment at a constant
// clock, `fraction` of every server's range (1.0 = F^U, 0.0 = F^L).
// Throws std::invalid_argument unless 0 <= fraction <= 1.
[[nodiscard]] std::unique_ptr<Policy> make_fixed_frequency_pipeline(
    const core::Instance& instance, double fraction,
    const core::CgbaConfig& cgba = {});

// StateIn → BetaOracle → AuditTap → BetaDecisionOut. The Lemma-2 β-only
// oracle as an online policy ("beta-only"): each slot, minimize latency
// subject to spending at most C̄. Queue-free by construction.
[[nodiscard]] std::unique_ptr<Policy> make_beta_only_pipeline(
    const core::Instance& instance, const core::BetaOnlyConfig& config = {});

// StateIn → TrendObserve → MinFrequency → CgbaAssign → MpcPlan →
// AuditTap → MpcDecisionOut. The receding-horizon baseline ("mpc",
// sim/mpc_policy.h).
[[nodiscard]] std::unique_ptr<Policy> make_mpc_pipeline(
    const core::Instance& instance, const MpcConfig& config = {});

}  // namespace eotora::sim::pipeline
