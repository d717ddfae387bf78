#include "models/predicates.hpp"

#include <utility>

#include "common/check.hpp"

namespace timing {

namespace {

bool alive(const CorrectMask* correct, ProcessId i) {
  return correct == nullptr || (*correct)[static_cast<std::size_t>(i)];
}

/// Timely links into `dst` from correct sources (self included).
int timely_in_from_correct(const LinkMatrix& a, ProcessId dst,
                           const CorrectMask* correct) {
  int c = 0;
  for (ProcessId s = 0; s < a.n(); ++s) {
    if (alive(correct, s) && a.timely(dst, s)) ++c;
  }
  return c;
}

/// Timely links out of `src`; recipients need not be correct (the paper's
/// <>j-source definition does not require correctness of recipients), but
/// delivery to a crashed process is vacuous, so we count all rows.
int timely_out(const LinkMatrix& a, ProcessId src) {
  int c = 0;
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (a.timely(d, src)) ++c;
  }
  return c;
}

}  // namespace

bool satisfies_es(const LinkMatrix& a, const CorrectMask* correct) {
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!alive(correct, d)) continue;
    for (ProcessId s = 0; s < a.n(); ++s) {
      if (!alive(correct, s)) continue;
      if (!a.timely(d, s)) return false;
    }
  }
  return true;
}

bool satisfies_lm(const LinkMatrix& a, ProcessId leader,
                  const CorrectMask* correct) {
  TM_CHECK(leader >= 0 && leader < a.n(), "leader out of range");
  if (!alive(correct, leader)) return false;
  // Leader is an n-source: timely outgoing links to all n processes.
  // A crashed recipient satisfies the requirement vacuously.
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (alive(correct, d) && !a.timely(d, leader)) return false;
  }
  const int maj = majority_size(a.n());
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!alive(correct, d)) continue;
    if (timely_in_from_correct(a, d, correct) < maj) return false;
  }
  return true;
}

bool satisfies_wlm(const LinkMatrix& a, ProcessId leader,
                   const CorrectMask* correct) {
  TM_CHECK(leader >= 0 && leader < a.n(), "leader out of range");
  if (!alive(correct, leader)) return false;
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (alive(correct, d) && !a.timely(d, leader)) return false;
  }
  return timely_in_from_correct(a, leader, correct) >= majority_size(a.n());
}

bool satisfies_afm(const LinkMatrix& a, const CorrectMask* correct) {
  const int maj = majority_size(a.n());
  for (ProcessId i = 0; i < a.n(); ++i) {
    if (!alive(correct, i)) continue;
    if (timely_in_from_correct(a, i, correct) < maj) return false;
    // Majority-source: count all timely outgoing links (self included).
    if (correct == nullptr) {
      if (timely_out(a, i) < maj) return false;
    } else {
      int c = 0;
      for (ProcessId d = 0; d < a.n(); ++d) {
        // Recipients need not be correct for the source count, but a
        // crashed destination cannot "receive"; in failure-free runs the
        // distinction is moot. We count deliveries to correct processes
        // plus the self link, the conservative reading.
        if ((d == i || alive(correct, d)) && a.timely(d, i)) ++c;
      }
      if (c < maj) return false;
    }
  }
  return true;
}

bool satisfies(TimingModel m, const LinkMatrix& a, ProcessId leader,
               const CorrectMask* correct) {
  switch (m) {
    case TimingModel::kEs: return satisfies_es(a, correct);
    case TimingModel::kLm: return satisfies_lm(a, leader, correct);
    case TimingModel::kWlm: return satisfies_wlm(a, leader, correct);
    case TimingModel::kAfm: return satisfies_afm(a, correct);
  }
  return false;
}

// The packed kernel uses its own bit constants so sim/ does not depend on
// the TimingModel enum; pin the two orders together here, where both are
// visible.
static_assert(kPackedEsBit == 1u << static_cast<int>(TimingModel::kEs));
static_assert(kPackedLmBit == 1u << static_cast<int>(TimingModel::kLm));
static_assert(kPackedWlmBit == 1u << static_cast<int>(TimingModel::kWlm));
static_assert(kPackedAfmBit == 1u << static_cast<int>(TimingModel::kAfm));

std::uint8_t evaluate_all(const LinkMatrix& a, ProcessId leader,
                          const CorrectMask* correct, TraceSink* sink,
                          Round k) {
  TM_CHECK(leader >= 0 && leader < a.n(), "leader out of range");
  std::uint8_t mask = 0;
  for (TimingModel m : kAllModels) {
    if (satisfies(m, a, leader, correct)) {
      mask |= static_cast<std::uint8_t>(1u << static_cast<int>(m));
    }
  }
  TM_TRACE(sink, TraceEvent::predicates(k, mask));
  return mask;
}

std::uint8_t evaluate_all(const PackedLinkMatrix& a, ProcessId leader,
                          const CorrectMask* correct, TraceSink* sink,
                          Round k) {
  if (correct != nullptr) {
    LinkMatrix unpacked;
    a.copy_to(unpacked);
    return evaluate_all(unpacked, leader, correct, sink, k);
  }
  TM_CHECK(leader >= 0 && leader < a.n(), "leader out of range");
  // Per-thread scratch, so the hot path never allocates.
  thread_local ColumnDeficits cols;
  const std::uint8_t mask =
      packed_evaluate_granular(a, leader, all_sync_planes(a.n()), cols).sat;
  TM_TRACE(sink, TraceEvent::predicates(k, mask));
  return mask;
}

// ---------------------------------------------------------------------
// Granular predicates. Pin the LinkModelClass order to the generic class
// indices of sim/packed_eval.hpp (sync and psync required, async exempt)
// and to the obs csat bit order, here where all three are visible.
static_assert(static_cast<int>(LinkModelClass::kSync) == 0);
static_assert(static_cast<int>(LinkModelClass::kPartialSync) == 1);
static_assert(static_cast<int>(LinkModelClass::kAsync) == 2);
static_assert(kNumLinkModelClasses == GranularPlanes::kNumClasses);
static_assert(static_cast<int>(LinkModelClass::kPartialSync) <
              GranularPlanes::kNumRequiredClasses);
static_assert(static_cast<int>(LinkModelClass::kAsync) >=
              GranularPlanes::kNumRequiredClasses);
static_assert(kNumLinkModelClasses == kTraceNumLinkClasses);

GranularContext::GranularContext(LinkModelMatrix matrix)
    : matrix_(std::move(matrix)),
      planes_(matrix_.n(),
              [this](ProcessId dst, ProcessId src) {
                return static_cast<int>(matrix_.at(dst, src));
              }) {}

namespace {

/// Required-and-timely links into `dst` from correct sources (self
/// included; self links are always required).
int granular_timely_in(const LinkMatrix& a, const GranularContext& g,
                       ProcessId dst, const CorrectMask* correct) {
  int c = 0;
  for (ProcessId s = 0; s < a.n(); ++s) {
    if (alive(correct, s) && g.matrix().reliable(dst, s) &&
        a.timely(dst, s)) {
      ++c;
    }
  }
  return c;
}

bool granular_es(const LinkMatrix& a, const GranularContext& g,
                 const CorrectMask* correct) {
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!alive(correct, d)) continue;
    for (ProcessId s = 0; s < a.n(); ++s) {
      if (!alive(correct, s)) continue;
      if (g.matrix().reliable(d, s) && !a.timely(d, s)) return false;
    }
  }
  return true;
}

/// Required leader-column links into correct processes are timely; an
/// async (d <- leader) link is vacuously fine.
bool granular_leader_column_ok(const LinkMatrix& a, const GranularContext& g,
                               ProcessId leader,
                               const CorrectMask* correct) {
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!alive(correct, d)) continue;
    if (g.matrix().reliable(d, leader) && !a.timely(d, leader)) return false;
  }
  return true;
}

bool granular_lm(const LinkMatrix& a, const GranularContext& g,
                 ProcessId leader, const CorrectMask* correct) {
  if (!alive(correct, leader)) return false;
  if (!granular_leader_column_ok(a, g, leader, correct)) return false;
  const int maj = majority_size(a.n());
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!alive(correct, d)) continue;
    if (granular_timely_in(a, g, d, correct) < maj) return false;
  }
  return true;
}

bool granular_wlm(const LinkMatrix& a, const GranularContext& g,
                  ProcessId leader, const CorrectMask* correct) {
  if (!alive(correct, leader)) return false;
  if (!granular_leader_column_ok(a, g, leader, correct)) return false;
  return granular_timely_in(a, g, leader, correct) >= majority_size(a.n());
}

bool granular_afm(const LinkMatrix& a, const GranularContext& g,
                  const CorrectMask* correct) {
  const int maj = majority_size(a.n());
  for (ProcessId i = 0; i < a.n(); ++i) {
    if (!alive(correct, i)) continue;
    if (granular_timely_in(a, g, i, correct) < maj) return false;
    // Majority-source over required links, same recipient convention as
    // the homogeneous predicate above.
    int c = 0;
    for (ProcessId d = 0; d < a.n(); ++d) {
      if ((d == i || alive(correct, d)) && g.matrix().reliable(d, i) &&
          a.timely(d, i)) {
        ++c;
      }
    }
    if (c < maj) return false;
  }
  return true;
}

/// Scalar per-class conformance: bit c iff all class-c links between
/// correct processes were timely.
std::uint8_t granular_class_conformance(const LinkMatrix& a,
                                        const GranularContext& g,
                                        const CorrectMask* correct) {
  bool class_ok[kNumLinkModelClasses] = {true, true, true};
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!alive(correct, d)) continue;
    for (ProcessId s = 0; s < a.n(); ++s) {
      if (!alive(correct, s)) continue;
      if (!a.timely(d, s)) {
        class_ok[static_cast<int>(g.matrix().at(d, s))] = false;
      }
    }
  }
  std::uint8_t csat = 0;
  for (int c = 0; c < kNumLinkModelClasses; ++c) {
    if (class_ok[c]) csat |= static_cast<std::uint8_t>(1u << c);
  }
  return csat;
}

}  // namespace

bool satisfies_granular(TimingModel m, const LinkMatrix& a, ProcessId leader,
                        const GranularContext& g,
                        const CorrectMask* correct) {
  TM_CHECK(g.n() == a.n(), "link model matrix size mismatch");
  switch (m) {
    case TimingModel::kEs: return granular_es(a, g, correct);
    case TimingModel::kLm:
      TM_CHECK(leader >= 0 && leader < a.n(), "leader out of range");
      return granular_lm(a, g, leader, correct);
    case TimingModel::kWlm:
      TM_CHECK(leader >= 0 && leader < a.n(), "leader out of range");
      return granular_wlm(a, g, leader, correct);
    case TimingModel::kAfm: return granular_afm(a, g, correct);
  }
  return false;
}

GranularEval evaluate_all_granular(const LinkMatrix& a, ProcessId leader,
                                   const GranularContext& g,
                                   const CorrectMask* correct,
                                   TraceSink* sink, Round k) {
  TM_CHECK(leader >= 0 && leader < a.n(), "leader out of range");
  TM_CHECK(g.n() == a.n(), "link model matrix size mismatch");
  GranularEval e;
  for (TimingModel m : kAllModels) {
    if (satisfies_granular(m, a, leader, g, correct)) {
      e.sat |= static_cast<std::uint8_t>(1u << static_cast<int>(m));
    }
  }
  e.csat = granular_class_conformance(a, g, correct);
  TM_TRACE(sink, TraceEvent::granular_predicates(k, e.sat, e.csat));
  return e;
}

GranularEval evaluate_all_granular(const PackedLinkMatrix& a,
                                   ProcessId leader, const GranularContext& g,
                                   TraceSink* sink, Round k) {
  TM_CHECK(leader >= 0 && leader < a.n(), "leader out of range");
  TM_CHECK(g.n() == a.n(), "link model matrix size mismatch");
  thread_local ColumnDeficits cols;
  const GranularPackedEval p =
      packed_evaluate_granular(a, leader, g.planes(), cols);
  const GranularEval e{p.sat, p.csat};
  TM_TRACE(sink, TraceEvent::granular_predicates(k, e.sat, e.csat));
  return e;
}

}  // namespace timing
