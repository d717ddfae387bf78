// Closed-form IID analysis of Section 4.1: the probability P_M that a
// single communication round satisfies each model's requirements when
// every link delivers timely with IID probability p, and the resulting
// expected number of rounds to global decision (Equations (1)-(10)).
//
// Conventions from the paper:
//  * the process's link with itself is NOT treated differently - it is an
//    IID Bernoulli(p) entry like all others ("For simplicity, we do not
//    treat a process' link with itself differently than other links");
//  * an algorithm that needs R conforming rounds decides once R
//    consecutive rounds conform; with per-round success probability P^R
//    for a window starting at any round, the paper bounds
//    E(D) = P^-R + (R - 1).
#pragma once

#include "models/timing_model.hpp"

namespace timing::analysis {

/// Equation (1): P_ES = p^(n^2).
double p_es(int n, double p) noexcept;

/// Equation (4): Pr(M|L) - given a timely leader entry in a row, the
/// probability that the row still reaches a majority of ones:
/// sum_{i=floor(n/2)}^{n-1} C(n-1, i) p^i (1-p)^(n-1-i).
double pr_majority_given_leader(int n, double p) noexcept;

/// Equation (3): P_<>LM = (p * Pr(M|L))^n.
double p_lm(int n, double p) noexcept;

/// Equation (6): P_<>WLM = p^n * Pr(M|L).
double p_wlm(int n, double p) noexcept;

/// Equation (9) (lower bound): P_<>AFM >= Pr(X > n/2)^(2n),
/// X ~ Binomial(n, p).
double p_afm(int n, double p) noexcept;

/// Dispatch per model.
double p_model(TimingModel m, int n, double p) noexcept;

/// E(D) = P^-R + (R-1) for an algorithm needing R conforming rounds -
/// the PAPER's formula. It treats the R-round windows starting at each
/// round as independent Bernoulli(P^R) events, which is optimistic: the
/// windows overlap. See exact_expected_rounds.
double expected_rounds(double p_round, int rounds_needed) noexcept;

/// The exact expectation of the first round by which R consecutive
/// conforming IID rounds have occurred (the classical run-of-successes
/// renewal formula): E = (1 - P^R) / ((1 - P) P^R). Always at least the
/// paper's approximation; they agree as P -> 1. Our own refinement - see
/// `timing_lab run ablation/window_formula` for how much the paper's
/// curves shift.
double exact_expected_rounds(double p_round, int rounds_needed) noexcept;

/// exact_expected_rounds applied to a model's closed-form P_M.
double e_rounds_exact(AnalyzedAlgorithm a, int n, double p) noexcept;

/// Equations (2), (5), (7), (8), (10) in one place.
double e_rounds_es(int n, double p) noexcept;           ///< Eq. (2),  R=3
double e_rounds_lm(int n, double p) noexcept;           ///< Eq. (5),  R=3
double e_rounds_wlm_direct(int n, double p) noexcept;   ///< Eq. (7),  R=4
double e_rounds_wlm_simulated(int n, double p) noexcept;///< Eq. (8),  R=7
double e_rounds_afm(int n, double p) noexcept;          ///< Eq. (10), R=5

/// E(D) for any analysed algorithm (Figure 1(a)/(b) curves).
double e_rounds(AnalyzedAlgorithm a, int n, double p) noexcept;

/// log10 of E(D) (stable for large n, Appendix C sweeps).
double log10_e_rounds(AnalyzedAlgorithm a, int n, double p) noexcept;

/// Appendix C, Lemma 13: the Chernoff upper bound
/// E(D_<>AFM) <= (1 - e^{-(1 - 1/(2p))^2 np/2})^{-10n} + 4, for p > 1/2;
/// tends to 5 as n grows.
double afm_chernoff_upper_bound(int n, double p) noexcept;

}  // namespace timing::analysis
