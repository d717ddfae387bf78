// Per-round predicates: does the communication matrix A of one round meet
// the timeliness requirements of a timing model? (Section 4.1.)
//
// Conventions, matching the paper's analysis and measurements:
//  * rows of A are destinations, columns are sources;
//  * a process's link with itself counts towards source/destination counts
//    (footnote 1 in the paper), and LinkMatrix always marks self links
//    timely;
//  * all processes are assumed correct unless a `correct` mask is given -
//    the measurement sections run failure-free experiments, like the paper.
//
// The scalar loops over LinkMatrix are the oracle, and the only code that
// evaluates crash masks. The packed evaluate_all and
// evaluate_all_granular run the one bit-plane kernel of
// sim/packed_eval.hpp (popcounts and word compares over the uint64 rows),
// the homogeneous models as its all-sync case.
// tests/predicate_kernel_test.cpp and tests/granular_test.cpp assert the
// two agree bit-for-bit on randomized matrices across the one-, two- and
// three-word row boundaries.
#pragma once

#include <cstdint>
#include <vector>

#include "models/link_model_matrix.hpp"
#include "models/timing_model.hpp"
#include "obs/trace_sink.hpp"
#include "sim/link_matrix.hpp"
#include "sim/packed_eval.hpp"

namespace timing {

/// Optional aliveness mask; null means everyone is correct.
using CorrectMask = std::vector<bool>;

/// ES: every link between correct processes is timely.
bool satisfies_es(const LinkMatrix& a, const CorrectMask* correct = nullptr);

/// <>LM: the leader is an n-source this round (its column is all timely)
/// and every correct process receives timely messages from at least
/// floor(n/2)+1 correct processes (every row has a majority of ones).
bool satisfies_lm(const LinkMatrix& a, ProcessId leader,
                  const CorrectMask* correct = nullptr);

/// <>WLM: the leader is an n-source this round and receives timely
/// messages from a majority (only the leader's row needs a majority).
bool satisfies_wlm(const LinkMatrix& a, ProcessId leader,
                   const CorrectMask* correct = nullptr);

/// <>AFM (simplified): every correct process is a majority-destination and
/// a majority-source this round.
bool satisfies_afm(const LinkMatrix& a, const CorrectMask* correct = nullptr);

/// Dispatch on the model. `leader` is ignored for ES and <>AFM.
bool satisfies(TimingModel m, const LinkMatrix& a, ProcessId leader,
               const CorrectMask* correct = nullptr);

/// Evaluate all four predicates at once; bit static_cast<int>(m) of the
/// result is set iff model m held (the canonical ES/LM/WLM/AFM bit order
/// of obs/trace_event.hpp). When `sink` is non-null, one PredicateEval
/// event for round `k` is emitted — this is the instrumentation point the
/// measurement harness records P_M incidence through.
std::uint8_t evaluate_all(const LinkMatrix& a, ProcessId leader,
                          const CorrectMask* correct = nullptr,
                          TraceSink* sink = nullptr, Round k = 0);

/// Packed path: one sweep of the kernel over the all-sync planes (see
/// sim/packed_eval.hpp). Identical mask and trace event. A crash mask is
/// evaluated by the scalar oracle on an unpacked copy.
std::uint8_t evaluate_all(const PackedLinkMatrix& a, ProcessId leader,
                          const CorrectMask* correct = nullptr,
                          TraceSink* sink = nullptr, Round k = 0);

// ---------------------------------------------------------------------
// Granular (per-link) predicates. Every requirement and quorum count is
// restricted to the *reliable* plane of a LinkModelMatrix (sync + psync
// links); async links carry no obligation and cannot count towards a
// quorum (see link_model_matrix.hpp for the full semantics). With an
// all-sync matrix the granular predicates are bit-identical to the
// homogeneous ones above — tests/granular_test.cpp pins that.

/// Immutable evaluation context for one LinkModelMatrix: owns the matrix
/// plus the pre-packed bit planes the granular kernels sweep. Build once
/// per trial (or per scenario), evaluate many rounds.
class GranularContext {
 public:
  explicit GranularContext(LinkModelMatrix matrix);

  int n() const noexcept { return matrix_.n(); }
  const LinkModelMatrix& matrix() const noexcept { return matrix_; }
  const GranularPlanes& planes() const noexcept { return planes_; }

 private:
  LinkModelMatrix matrix_;
  GranularPlanes planes_;
};

/// Result of one granular round evaluation. `sat` uses the canonical
/// ES/LM/WLM/AFM bit order; `csat` bit c is set iff every class-c link
/// (between correct processes) was timely this round — the per-class
/// conformance trace_tool summary reports.
struct GranularEval {
  std::uint8_t sat = 0;
  std::uint8_t csat = 0;
};

/// Single granular predicate. `leader` is ignored for ES and <>AFM.
bool satisfies_granular(TimingModel m, const LinkMatrix& a, ProcessId leader,
                        const GranularContext& g,
                        const CorrectMask* correct = nullptr);

/// Evaluate all four granular predicates plus per-class conformance.
/// When `sink` is non-null, one PredicateEval event with the csat field
/// is emitted for round `k`.
GranularEval evaluate_all_granular(const LinkMatrix& a, ProcessId leader,
                                   const GranularContext& g,
                                   const CorrectMask* correct = nullptr,
                                   TraceSink* sink = nullptr, Round k = 0);

/// Packed path: one sweep of the kernel (sim/packed_eval.hpp), every
/// process correct. Identical result and trace event.
GranularEval evaluate_all_granular(const PackedLinkMatrix& a,
                                   ProcessId leader, const GranularContext& g,
                                   TraceSink* sink = nullptr, Round k = 0);

}  // namespace timing
