// Bit-plane predicate kernels for PackedLinkMatrix.
//
// These are the Section 4.1 per-round model predicates rewritten as
// popcounts and word compares over the packed rows:
//   ES    - every row is all-ones (row popcount == n);
//   <>LM  - the leader column is all-ones and every row has a majority;
//   <>WLM - the leader column is all-ones and the leader row has a
//           majority;
//   <>AFM - every row has a majority and every column has a majority.
// Column counts are accumulated from the zero bits of each row (the
// complement), so in the common high-p case the whole evaluation touches
// ~n/64 words per row and a handful of stray zero bits.
//
// This header lives in sim/ so the fused sample-and-evaluate kernel of
// sampler.cpp can use it; models/predicates.cpp wraps it behind the
// TimingModel enum (and static_asserts the bit order matches). The mask
// bit layout is the canonical ES/LM/WLM/AFM order of obs/trace_event.hpp.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/link_matrix.hpp"

namespace timing {

inline constexpr std::uint8_t kPackedEsBit = 1u << 0;
inline constexpr std::uint8_t kPackedLmBit = 1u << 1;
inline constexpr std::uint8_t kPackedWlmBit = 1u << 2;
inline constexpr std::uint8_t kPackedAfmBit = 1u << 3;

/// Scratch for the column (source) counts of the <>AFM predicate. Reused
/// across rounds so the hot path never allocates; resize() is a no-op
/// after the first round of a trial.
class ColumnDeficits {
 public:
  void reset(int n) {
    deficits_.assign(static_cast<std::size_t>(n), 0);
  }
  void bump(int src) noexcept { ++deficits_[static_cast<std::size_t>(src)]; }
  int at(int src) const noexcept {
    return deficits_[static_cast<std::size_t>(src)];
  }

 private:
  std::vector<int> deficits_;
};

/// All four predicates of one failure-free round in a single sweep over
/// the bit plane. `cols` is caller-provided scratch (see ColumnDeficits).
inline std::uint8_t packed_evaluate_mask(const PackedLinkMatrix& a,
                                         ProcessId leader,
                                         ColumnDeficits& cols) {
  const int n = a.n();
  const int words = a.words_per_row();
  const int maj = majority_size(n);
  const int lw = leader / PackedLinkMatrix::kWordBits;
  const std::uint64_t lbit =
      1ULL << (static_cast<unsigned>(leader) % PackedLinkMatrix::kWordBits);

  cols.reset(n);
  bool es = true;
  bool rows_ok = true;     // every row popcount >= maj
  bool leader_col = true;  // leader bit set in every row
  int leader_row_cnt = 0;

  for (ProcessId dst = 0; dst < n; ++dst) {
    const std::uint64_t* row = a.row_words(dst);
    int cnt = 0;
    for (int w = 0; w < words; ++w) {
      const std::uint64_t bits = row[w];
      cnt += std::popcount(bits);
      // Column deficits from the complement: rare in the high-p regime.
      std::uint64_t comp = ~bits & a.word_mask(w);
      while (comp != 0) {
        cols.bump(w * PackedLinkMatrix::kWordBits + std::countr_zero(comp));
        comp &= comp - 1;
      }
    }
    es &= cnt == n;
    rows_ok &= cnt >= maj;
    leader_col &= (row[lw] & lbit) != 0;
    if (dst == leader) leader_row_cnt = cnt;
  }

  bool cols_ok = true;
  for (ProcessId src = 0; src < n; ++src) {
    cols_ok &= n - cols.at(src) >= maj;
  }

  std::uint8_t mask = 0;
  if (es) mask |= kPackedEsBit;
  if (leader_col && rows_ok) mask |= kPackedLmBit;
  if (leader_col && leader_row_cnt >= maj) mask |= kPackedWlmBit;
  if (rows_ok && cols_ok) mask |= kPackedAfmBit;
  return mask;
}

/// Convenience overload with its own scratch (cold paths and tests).
inline std::uint8_t packed_evaluate_mask(const PackedLinkMatrix& a,
                                         ProcessId leader) {
  ColumnDeficits cols;
  return packed_evaluate_mask(a, leader, cols);
}

// ---------------------------------------------------------------------
// Crash-mask variants. `correct` is the std::vector<bool> aliveness mask
// of models/predicates.hpp (null means everyone correct); the kernels
// first pack it into uint64 words, then reuse the same word arithmetic.

/// Packed aliveness mask; word layout matches PackedLinkMatrix rows.
class PackedCorrectMask {
 public:
  PackedCorrectMask(const std::vector<bool>& correct, int n)
      : words_(static_cast<std::size_t>((n + 63) / 64), 0), alive_(0) {
    for (int i = 0; i < n; ++i) {
      if (correct[static_cast<std::size_t>(i)]) {
        words_[static_cast<std::size_t>(i / 64)] |=
            1ULL << (static_cast<unsigned>(i) % 64);
        ++alive_;
      }
    }
  }
  const std::uint64_t* words() const noexcept { return words_.data(); }
  int alive() const noexcept { return alive_; }
  bool test(int i) const noexcept {
    return (words_[static_cast<std::size_t>(i / 64)] >>
            (static_cast<unsigned>(i) % 64)) &
           1u;
  }

 private:
  std::vector<std::uint64_t> words_;
  int alive_;
};

inline bool packed_satisfies_es(const PackedLinkMatrix& a,
                                const PackedCorrectMask& cm) {
  const int n = a.n();
  const int words = a.words_per_row();
  for (ProcessId dst = 0; dst < n; ++dst) {
    if (!cm.test(dst)) continue;
    const std::uint64_t* row = a.row_words(dst);
    for (int w = 0; w < words; ++w) {
      if ((cm.words()[w] & ~row[w]) != 0) return false;
    }
  }
  return true;
}

/// Timely links into `dst` from correct sources, incl. self if correct.
inline int packed_timely_in_from_correct(const PackedLinkMatrix& a,
                                         ProcessId dst,
                                         const PackedCorrectMask& cm) {
  const std::uint64_t* row = a.row_words(dst);
  int c = 0;
  for (int w = 0; w < a.words_per_row(); ++w) {
    c += std::popcount(row[w] & cm.words()[w]);
  }
  return c;
}

inline bool packed_leader_column_ok(const PackedLinkMatrix& a,
                                    ProcessId leader,
                                    const PackedCorrectMask& cm) {
  const int lw = leader / PackedLinkMatrix::kWordBits;
  const std::uint64_t lbit =
      1ULL << (static_cast<unsigned>(leader) % PackedLinkMatrix::kWordBits);
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (cm.test(d) && (a.row_words(d)[lw] & lbit) == 0) return false;
  }
  return true;
}

inline bool packed_satisfies_lm(const PackedLinkMatrix& a, ProcessId leader,
                                const PackedCorrectMask& cm) {
  if (!cm.test(leader)) return false;
  if (!packed_leader_column_ok(a, leader, cm)) return false;
  const int maj = majority_size(a.n());
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!cm.test(d)) continue;
    if (packed_timely_in_from_correct(a, d, cm) < maj) return false;
  }
  return true;
}

inline bool packed_satisfies_wlm(const PackedLinkMatrix& a, ProcessId leader,
                                 const PackedCorrectMask& cm) {
  if (!cm.test(leader)) return false;
  if (!packed_leader_column_ok(a, leader, cm)) return false;
  return packed_timely_in_from_correct(a, leader, cm) >=
         majority_size(a.n());
}

inline bool packed_satisfies_afm(const PackedLinkMatrix& a,
                                 const PackedCorrectMask& cm) {
  const int n = a.n();
  const int maj = majority_size(n);
  for (ProcessId i = 0; i < n; ++i) {
    if (!cm.test(i)) continue;
    if (packed_timely_in_from_correct(a, i, cm) < maj) return false;
    // Majority-source over correct recipients (self is correct here).
    const int iw = i / PackedLinkMatrix::kWordBits;
    const std::uint64_t ibit =
        1ULL << (static_cast<unsigned>(i) % PackedLinkMatrix::kWordBits);
    int c = 0;
    for (ProcessId d = 0; d < n; ++d) {
      if (cm.test(d) && (a.row_words(d)[iw] & ibit) != 0) ++c;
    }
    if (c < maj) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Granular (per-link) variants. Each directed link carries a class in
// [0, GranularPlanes::kNumClasses); classes 0 and 1 are *required*
// (they carry a timing obligation and count towards quorums), class 2 is
// exempt (it can neither violate a predicate nor count towards one).
// models/predicates.cpp maps the LinkModelClass enum onto these indices
// (sync=0, psync=1, async=2) and static_asserts the order.
//
// The predicates restrict both sides of every rule to the required plane:
//   G-ES    - every required link is timely;
//   G-<>LM  - required leader-column links are timely and every row's
//             required-and-timely count has a majority;
//   G-<>WLM - required leader-column links are timely and the leader
//             row's required-and-timely count has a majority;
//   G-<>AFM - every row's and every column's required-and-timely count
//             has a majority.
// Majority thresholds stay majority_size(n): exempting links from a
// quorum does not shrink the quorum the algorithm needs. With the
// all-required plane (every off-diagonal link class 0/1) these reduce
// exactly to the homogeneous kernels above.

/// Per-link class assignment pre-packed into bit planes so the granular
/// sweep stays word-at-a-time. Row layout matches PackedLinkMatrix.
class GranularPlanes {
 public:
  static constexpr int kNumClasses = 3;
  static constexpr int kNumRequiredClasses = 2;

  GranularPlanes() = default;

  /// `class_fn(dst, src)` returns the class index of link (dst <- src).
  /// Self links must be required (class 0 or 1).
  template <class ClassFn>
  GranularPlanes(int n, ClassFn&& class_fn)
      : n_(n),
        words_((n + PackedLinkMatrix::kWordBits - 1) /
               PackedLinkMatrix::kWordBits),
        require_(static_cast<std::size_t>(n) * words_, 0),
        require_row_(static_cast<std::size_t>(n), 0),
        require_col_(static_cast<std::size_t>(n), 0) {
    for (auto& plane : cls_) {
      plane.assign(static_cast<std::size_t>(n) * words_, 0);
    }
    for (ProcessId dst = 0; dst < n; ++dst) {
      for (ProcessId src = 0; src < n; ++src) {
        const int c = class_fn(dst, src);
        const std::size_t idx =
            static_cast<std::size_t>(dst) * words_ +
            static_cast<std::size_t>(src / PackedLinkMatrix::kWordBits);
        const std::uint64_t bit =
            1ULL
            << (static_cast<unsigned>(src) % PackedLinkMatrix::kWordBits);
        cls_[static_cast<std::size_t>(c)][idx] |= bit;
        if (c < kNumRequiredClasses) {
          require_[idx] |= bit;
          ++require_row_[static_cast<std::size_t>(dst)];
          ++require_col_[static_cast<std::size_t>(src)];
        }
      }
    }
  }

  int n() const noexcept { return n_; }
  int words_per_row() const noexcept { return words_; }

  const std::uint64_t* require_row(ProcessId dst) const noexcept {
    return require_.data() + static_cast<std::size_t>(dst) * words_;
  }
  const std::uint64_t* class_row(int c, ProcessId dst) const noexcept {
    return cls_[static_cast<std::size_t>(c)].data() +
           static_cast<std::size_t>(dst) * words_;
  }
  /// Number of required links into row `dst` over all n columns.
  int require_row_count(ProcessId dst) const noexcept {
    return require_row_[static_cast<std::size_t>(dst)];
  }
  /// Number of required links into column `src` over all n rows.
  int require_col(ProcessId src) const noexcept {
    return require_col_[static_cast<std::size_t>(src)];
  }
  bool require(ProcessId dst, ProcessId src) const noexcept {
    return (require_row(dst)[src / PackedLinkMatrix::kWordBits] >>
            (static_cast<unsigned>(src) % PackedLinkMatrix::kWordBits)) &
           1u;
  }
  /// Class index of link (dst <- src).
  int class_of(ProcessId dst, ProcessId src) const noexcept {
    const int w = src / PackedLinkMatrix::kWordBits;
    const auto bit =
        static_cast<unsigned>(src) % PackedLinkMatrix::kWordBits;
    for (int c = 0; c + 1 < kNumClasses; ++c) {
      if ((class_row(c, dst)[w] >> bit) & 1u) return c;
    }
    return kNumClasses - 1;
  }

 private:
  int n_ = 0;
  int words_ = 0;
  std::vector<std::uint64_t> require_;
  std::array<std::vector<std::uint64_t>, kNumClasses> cls_;
  std::vector<int> require_row_;
  std::vector<int> require_col_;
};

/// Result of one granular evaluation: `sat` uses the canonical
/// ES/LM/WLM/AFM bit order, `csat` has bit c set iff every class-c link
/// (between correct processes) was timely this round.
struct GranularPackedEval {
  std::uint8_t sat = 0;
  std::uint8_t csat = 0;
};

/// All four granular predicates plus per-class conformance of one
/// failure-free round in a single sweep over the bit plane.
inline GranularPackedEval packed_evaluate_granular(const PackedLinkMatrix& a,
                                                   ProcessId leader,
                                                   const GranularPlanes& g,
                                                   ColumnDeficits& cols) {
  const int n = a.n();
  const int words = a.words_per_row();
  const int maj = majority_size(n);
  const int lw = leader / PackedLinkMatrix::kWordBits;
  const std::uint64_t lbit =
      1ULL << (static_cast<unsigned>(leader) % PackedLinkMatrix::kWordBits);

  cols.reset(n);
  bool es = true;
  bool rows_ok = true;     // every row's required-and-timely count >= maj
  bool leader_col = true;  // every required leader bit set
  int leader_row_cnt = 0;
  bool class_ok[GranularPlanes::kNumClasses] = {true, true, true};

  for (ProcessId dst = 0; dst < n; ++dst) {
    const std::uint64_t* row = a.row_words(dst);
    const std::uint64_t* req = g.require_row(dst);
    int cnt = 0;
    for (int w = 0; w < words; ++w) {
      const std::uint64_t bits = row[w];
      cnt += std::popcount(bits & req[w]);
      // Required-but-untimely links; rare in the high-p regime. The class
      // planes only hold valid bits, so no word_mask is needed.
      std::uint64_t comp = req[w] & ~bits;
      es &= comp == 0;
      while (comp != 0) {
        cols.bump(w * PackedLinkMatrix::kWordBits + std::countr_zero(comp));
        comp &= comp - 1;
      }
      for (int c = 0; c < GranularPlanes::kNumClasses; ++c) {
        class_ok[c] &= (g.class_row(c, dst)[w] & ~bits) == 0;
      }
    }
    rows_ok &= cnt >= maj;
    leader_col &= ((req[lw] & lbit) & ~row[lw]) == 0;
    if (dst == leader) leader_row_cnt = cnt;
  }

  bool cols_ok = true;
  for (ProcessId src = 0; src < n; ++src) {
    cols_ok &= g.require_col(src) - cols.at(src) >= maj;
  }

  GranularPackedEval out;
  if (es) out.sat |= kPackedEsBit;
  if (leader_col && rows_ok) out.sat |= kPackedLmBit;
  if (leader_col && leader_row_cnt >= maj) out.sat |= kPackedWlmBit;
  if (rows_ok && cols_ok) out.sat |= kPackedAfmBit;
  for (int c = 0; c < GranularPlanes::kNumClasses; ++c) {
    if (class_ok[c]) out.csat |= static_cast<std::uint8_t>(1u << c);
  }
  return out;
}

/// Convenience overload with its own scratch (cold paths and tests).
inline GranularPackedEval packed_evaluate_granular(const PackedLinkMatrix& a,
                                                   ProcessId leader,
                                                   const GranularPlanes& g) {
  ColumnDeficits cols;
  return packed_evaluate_granular(a, leader, g, cols);
}

// Granular crash-mask variants (cold path: the chaos gate). Requirements
// and quorum counts intersect the required plane with the aliveness mask.

inline bool packed_granular_satisfies_es(const PackedLinkMatrix& a,
                                         const GranularPlanes& g,
                                         const PackedCorrectMask& cm) {
  for (ProcessId dst = 0; dst < a.n(); ++dst) {
    if (!cm.test(dst)) continue;
    const std::uint64_t* row = a.row_words(dst);
    const std::uint64_t* req = g.require_row(dst);
    for (int w = 0; w < a.words_per_row(); ++w) {
      if ((req[w] & cm.words()[w] & ~row[w]) != 0) return false;
    }
  }
  return true;
}

/// Required-and-timely links into `dst` from correct sources.
inline int packed_granular_timely_in(const PackedLinkMatrix& a,
                                     const GranularPlanes& g, ProcessId dst,
                                     const PackedCorrectMask& cm) {
  const std::uint64_t* row = a.row_words(dst);
  const std::uint64_t* req = g.require_row(dst);
  int c = 0;
  for (int w = 0; w < a.words_per_row(); ++w) {
    c += std::popcount(row[w] & req[w] & cm.words()[w]);
  }
  return c;
}

inline bool packed_granular_leader_column_ok(const PackedLinkMatrix& a,
                                             const GranularPlanes& g,
                                             ProcessId leader,
                                             const PackedCorrectMask& cm) {
  const int lw = leader / PackedLinkMatrix::kWordBits;
  const std::uint64_t lbit =
      1ULL << (static_cast<unsigned>(leader) % PackedLinkMatrix::kWordBits);
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!cm.test(d)) continue;
    if ((g.require_row(d)[lw] & lbit & ~a.row_words(d)[lw]) != 0) {
      return false;
    }
  }
  return true;
}

inline bool packed_granular_satisfies_lm(const PackedLinkMatrix& a,
                                         const GranularPlanes& g,
                                         ProcessId leader,
                                         const PackedCorrectMask& cm) {
  if (!cm.test(leader)) return false;
  if (!packed_granular_leader_column_ok(a, g, leader, cm)) return false;
  const int maj = majority_size(a.n());
  for (ProcessId d = 0; d < a.n(); ++d) {
    if (!cm.test(d)) continue;
    if (packed_granular_timely_in(a, g, d, cm) < maj) return false;
  }
  return true;
}

inline bool packed_granular_satisfies_wlm(const PackedLinkMatrix& a,
                                          const GranularPlanes& g,
                                          ProcessId leader,
                                          const PackedCorrectMask& cm) {
  if (!cm.test(leader)) return false;
  if (!packed_granular_leader_column_ok(a, g, leader, cm)) return false;
  return packed_granular_timely_in(a, g, leader, cm) >=
         majority_size(a.n());
}

inline bool packed_granular_satisfies_afm(const PackedLinkMatrix& a,
                                          const GranularPlanes& g,
                                          const PackedCorrectMask& cm) {
  const int n = a.n();
  const int maj = majority_size(n);
  for (ProcessId i = 0; i < n; ++i) {
    if (!cm.test(i)) continue;
    if (packed_granular_timely_in(a, g, i, cm) < maj) return false;
    const int iw = i / PackedLinkMatrix::kWordBits;
    const std::uint64_t ibit =
        1ULL << (static_cast<unsigned>(i) % PackedLinkMatrix::kWordBits);
    int c = 0;
    for (ProcessId d = 0; d < n; ++d) {
      if (cm.test(d) && g.require(d, i) &&
          (a.row_words(d)[iw] & ibit) != 0) {
        ++c;
      }
    }
    if (c < maj) return false;
  }
  return true;
}

/// Per-class conformance under a crash mask: bit c set iff every class-c
/// link between correct processes was timely.
inline std::uint8_t packed_granular_class_conformance(
    const PackedLinkMatrix& a, const GranularPlanes& g,
    const PackedCorrectMask& cm) {
  bool class_ok[GranularPlanes::kNumClasses] = {true, true, true};
  for (ProcessId dst = 0; dst < a.n(); ++dst) {
    if (!cm.test(dst)) continue;
    const std::uint64_t* row = a.row_words(dst);
    for (int w = 0; w < a.words_per_row(); ++w) {
      for (int c = 0; c < GranularPlanes::kNumClasses; ++c) {
        class_ok[c] &=
            (g.class_row(c, dst)[w] & cm.words()[w] & ~row[w]) == 0;
      }
    }
  }
  std::uint8_t csat = 0;
  for (int c = 0; c < GranularPlanes::kNumClasses; ++c) {
    if (class_ok[c]) csat |= static_cast<std::uint8_t>(1u << c);
  }
  return csat;
}

}  // namespace timing
