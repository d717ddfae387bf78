// The per-round communication matrix A of Section 4.1.
//
// Rows are destinations, columns are sources (as in the paper). Instead of
// only 0/1 we record the *fate* of a message sent on the link in this
// round: delivered timely (delay 0), delivered d >= 1 rounds late, or lost.
// The analysis only distinguishes timely vs not; algorithm executions also
// exercise late deliveries (indulgence).
//
// Two representations share this file:
//  * LinkMatrix       - one int16 fate per cell; the original layout, kept
//                       as the oracle for the packed fast path;
//  * PackedLinkMatrix - the timely/not-timely bit plane as uint64 row
//                       words (bit src of row dst == A_{dst,src}) next to
//                       a lazily allocated delay plane that is read only
//                       for cells whose bit is 0. Predicates become
//                       popcounts and word compares, and readers of an
//                       all-timely round never touch the int16 plane.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace timing {

/// Fate of one message: number of rounds of extra delay. 0 = timely
/// (arrives in the round it was sent, i.e. A entry = 1).
using Delay = std::int16_t;

/// Sentinel: the message never arrives.
inline constexpr Delay kLost = -1;

class LinkMatrix {
 public:
  LinkMatrix() = default;
  explicit LinkMatrix(int n, Delay fill = 0)
      : n_(n), cells_(static_cast<std::size_t>(n) * n, fill) {}

  int n() const noexcept { return n_; }

  Delay at(ProcessId dst, ProcessId src) const noexcept {
    return cells_[static_cast<std::size_t>(dst) * n_ + src];
  }
  void set(ProcessId dst, ProcessId src, Delay d) noexcept {
    cells_[static_cast<std::size_t>(dst) * n_ + src] = d;
  }

  /// A_{dst,src} = 1 in the paper's notation.
  bool timely(ProcessId dst, ProcessId src) const noexcept {
    return at(dst, src) == 0;
  }

  void fill(Delay d) noexcept {
    for (auto& c : cells_) c = d;
  }

  /// Number of timely incoming links of `dst` (a full row of ones count);
  /// includes the self link, matching the paper ("p's link with itself
  /// counts towards the count").
  int timely_into(ProcessId dst) const noexcept {
    int c = 0;
    for (ProcessId s = 0; s < n_; ++s) c += timely(dst, s) ? 1 : 0;
    return c;
  }

  /// Number of timely outgoing links of `src` (column count), incl. self.
  int timely_out_of(ProcessId src) const noexcept {
    int c = 0;
    for (ProcessId d = 0; d < n_; ++d) c += timely(d, src) ? 1 : 0;
    return c;
  }

  /// Fraction of timely entries over all n^2 entries. Counted and divided
  /// in std::size_t: n^2 overflows int already at n = 46341 (group-size
  /// sweeps run far past paper scale).
  double timely_fraction() const noexcept {
    if (n_ == 0) return 0.0;
    std::size_t c = 0;
    for (ProcessId d = 0; d < n_; ++d) {
      c += static_cast<std::size_t>(timely_into(d));
    }
    return static_cast<double>(c) /
           static_cast<double>(static_cast<std::size_t>(n_) * n_);
  }

 private:
  int n_ = 0;
  std::vector<Delay> cells_;
};

/// Bit-plane representation of the same matrix. Row `dst` is
/// `words_per_row()` uint64 words; bit `src % 64` of word `src / 64` is 1
/// iff the link (dst <- src) is timely this round. Unused tail bits of the
/// last word are always 0 (popcount invariant). The delay plane holds the
/// fate of every not-timely cell (a set bit wins over whatever its cell
/// holds) and is allocated on first use.
class PackedLinkMatrix {
 public:
  static constexpr int kWordBits = 64;

  PackedLinkMatrix() = default;
  explicit PackedLinkMatrix(int n, Delay fill_value = 0)
      : n_(n), words_((n + kWordBits - 1) / kWordBits),
        bits_(static_cast<std::size_t>(n) * words_, 0) {
    TM_CHECK(n >= 0, "negative matrix size");
    fill(fill_value);
  }

  int n() const noexcept { return n_; }
  int words_per_row() const noexcept { return words_; }

  /// Valid-bit mask of word `w` of any row (partial for the last word).
  std::uint64_t word_mask(int w) const noexcept {
    const int bits = n_ - w * kWordBits;
    return bits >= kWordBits ? ~0ULL : (1ULL << bits) - 1;
  }

  const std::uint64_t* row_words(ProcessId dst) const noexcept {
    return bits_.data() + static_cast<std::size_t>(dst) * words_;
  }
  /// Mutable row access for samplers that assemble rows word-by-word.
  /// Callers must keep tail bits zero and the delay plane consistent
  /// (store_untimely for every cleared bit they later read back).
  std::uint64_t* mutable_row_words(ProcessId dst) noexcept {
    return bits_.data() + static_cast<std::size_t>(dst) * words_;
  }

  bool timely(ProcessId dst, ProcessId src) const noexcept {
    return (row_words(dst)[src / kWordBits] >>
            (static_cast<unsigned>(src) % kWordBits)) &
           1u;
  }

  /// Exact fate, identical to the scalar LinkMatrix: the bit plane wins
  /// (a set bit means 0 regardless of stale delay-plane contents).
  Delay at(ProcessId dst, ProcessId src) const noexcept {
    if (timely(dst, src)) return 0;
    return delays_[static_cast<std::size_t>(dst) * n_ + src];
  }

  void set(ProcessId dst, ProcessId src, Delay d) {
    if (d == 0) {
      set_timely(dst, src);
    } else {
      set_untimely(dst, src, d);
    }
  }

  /// Fast path: mark the link timely (bit only, delay plane untouched).
  void set_timely(ProcessId dst, ProcessId src) noexcept {
    mutable_row_words(dst)[src / kWordBits] |=
        1ULL << (static_cast<unsigned>(src) % kWordBits);
  }

  /// Slow path: clear the bit and record the late/lost fate (d != 0).
  void set_untimely(ProcessId dst, ProcessId src, Delay d) {
    mutable_row_words(dst)[src / kWordBits] &=
        ~(1ULL << (static_cast<unsigned>(src) % kWordBits));
    store_untimely(dst, src, d);
  }

  /// Record the fate of a cell whose bit is already 0 (for samplers using
  /// mutable_row_words). Allocates the delay plane on first use.
  void store_untimely(ProcessId dst, ProcessId src, Delay d) {
    mutable_delays()[static_cast<std::size_t>(dst) * n_ + src] = d;
  }

  /// The whole delay plane (n * n, row-major by dst), for samplers that
  /// write every cell's fate and then set the bits of the timely ones (a
  /// set bit wins over its cell here). Allocates the plane on first use.
  Delay* mutable_delays() {
    if (delays_.empty()) {
      delays_.assign(static_cast<std::size_t>(n_) * n_, kLost);
    }
    return delays_.data();
  }

  void fill(Delay d) {
    if (d == 0) {
      for (ProcessId dst = 0; dst < n_; ++dst) {
        auto* row = mutable_row_words(dst);
        for (int w = 0; w < words_; ++w) row[w] = word_mask(w);
      }
    } else {
      std::fill(bits_.begin(), bits_.end(), 0);
      if (delays_.empty()) {
        delays_.assign(static_cast<std::size_t>(n_) * n_, d);
      } else {
        std::fill(delays_.begin(), delays_.end(), d);
      }
    }
  }

  /// Number of timely incoming links of `dst`, incl. self: row popcount.
  int timely_into(ProcessId dst) const noexcept {
    const auto* row = row_words(dst);
    int c = 0;
    for (int w = 0; w < words_; ++w) c += std::popcount(row[w]);
    return c;
  }

  /// Number of timely outgoing links of `src` (column count), incl. self.
  int timely_out_of(ProcessId src) const noexcept {
    const int w = src / kWordBits;
    const std::uint64_t bit = 1ULL << (static_cast<unsigned>(src) % kWordBits);
    int c = 0;
    for (ProcessId d = 0; d < n_; ++d) {
      c += (row_words(d)[w] & bit) ? 1 : 0;
    }
    return c;
  }

  /// Total timely entries over the whole matrix.
  std::size_t timely_count() const noexcept {
    std::size_t c = 0;
    for (const std::uint64_t w : bits_) {
      c += static_cast<std::size_t>(std::popcount(w));
    }
    return c;
  }

  /// Fraction of timely entries over all n^2 entries, in std::size_t
  /// arithmetic (n = 46341 already overflows int n*n).
  double timely_fraction() const noexcept {
    if (n_ == 0) return 0.0;
    return static_cast<double>(timely_count()) /
           static_cast<double>(static_cast<std::size_t>(n_) * n_);
  }

  /// Pack an existing scalar matrix (oracle interop; O(n^2)).
  void assign_from(const LinkMatrix& a) {
    if (n_ != a.n()) *this = PackedLinkMatrix(a.n());
    for (ProcessId dst = 0; dst < n_; ++dst) {
      auto* row = mutable_row_words(dst);
      for (int w = 0; w < words_; ++w) row[w] = 0;
      for (ProcessId src = 0; src < n_; ++src) {
        const Delay d = a.at(dst, src);
        if (d == 0) {
          row[src / kWordBits] |= 1ULL
                                  << (static_cast<unsigned>(src) % kWordBits);
        } else {
          store_untimely(dst, src, d);
        }
      }
    }
  }

  /// Unpack into the scalar layout (tests and diffing).
  void copy_to(LinkMatrix& a) const {
    if (a.n() != n_) a = LinkMatrix(n_);
    for (ProcessId dst = 0; dst < n_; ++dst) {
      for (ProcessId src = 0; src < n_; ++src) {
        a.set(dst, src, at(dst, src));
      }
    }
  }

 private:
  int n_ = 0;
  int words_ = 0;
  std::vector<std::uint64_t> bits_;
  std::vector<Delay> delays_;  ///< valid only where the bit is 0; lazy
};

}  // namespace timing
