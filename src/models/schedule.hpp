// GSR-based schedules: timeliness samplers that are arbitrary (chaotic)
// before a chosen Global Stabilization Round and conforming to a timing
// model from GSR onward.
//
// These drive the algorithm-correctness tests and the validation runs that
// check each algorithm's decision bound (e.g. Algorithm 2 deciding by
// GSR+4 / GSR+3, Theorem 10). Two post-GSR flavours:
//  * random-conforming: sample a random matrix, then repair it to satisfy
//    the model (exercises typical stable rounds);
//  * minimal-conforming: ONLY the links the model demands are timely - the
//    strongest adversary that still conforms (exercises worst cases; for
//    <>WLM this is what separates Algorithm 2 from Paxos).
//
// The packed sample_round is the one the engine and the chaos and SMR
// gates run. A FateWalk (sim/sampler.hpp) draws every cell's fate into
// the delay plane without branching on the draws and then sets the
// timely cells' bits, and the repair edits bits. It consumes the RNG in
// the scalar overload's per-cell (dst, src) order, draw for draw, so
// both overloads give the same fates for the same seed and the repair's
// shuffles see the same generator state; the scalar one stays as the
// reference tests hold the packed one to. The walks' thresholds are set
// once per sampler. A warm round allocates nothing: the fates live in
// the matrix's own delay plane, and the repair's process lists are
// member scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "models/link_model_matrix.hpp"
#include "models/timing_model.hpp"
#include "sim/sampler.hpp"

namespace timing {

struct ScheduleConfig {
  int n = 8;
  TimingModel model = TimingModel::kWlm;
  ProcessId leader = 0;     ///< stable leader (ignored for ES / <>AFM)
  Round gsr = 1;            ///< first round whose matrix conforms
  double pre_gsr_p = 0.3;   ///< pre-GSR per-link timeliness probability
  bool minimal = false;     ///< minimal-conforming post-GSR
  std::uint64_t seed = 1;
  /// Crash round per process (0 or negative = never crashes). The models
  /// demand timely links FROM CORRECT processes ("it has j timely
  /// incoming links from correct processes"), so the post-GSR repair must
  /// draw the forced majorities from processes still alive in that round.
  std::vector<Round> crash_rounds;
  /// Optional per-link timing assignment (empty = homogeneous). With a
  /// non-all-sync matrix the post-GSR repair only forces RELIABLE links
  /// timely and only counts reliable links towards the forced quorums:
  /// async links carry no obligation, so a granular-conforming schedule
  /// may never make them timely. An all-sync matrix takes the
  /// homogeneous code path and is therefore bit-identical to it.
  LinkModelMatrix link_models;
};

class ScheduleSampler final : public TimelinessSampler {
 public:
  explicit ScheduleSampler(const ScheduleConfig& cfg);

  int n() const noexcept override { return cfg_.n; }
  void sample_round(Round k, LinkMatrix& out) override;
  /// `out` must be n x n.
  void sample_round(Round k, PackedLinkMatrix& out) override;

  const ScheduleConfig& config() const noexcept { return cfg_; }

 private:
  template <class Matrix>
  void sample(Round k, Matrix& out);
  /// Draws every off-diagonal cell at the pre- or post-GSR timeliness.
  void fill_random(LinkMatrix& out, bool pre_gsr);
  void fill_random(PackedLinkMatrix& out, bool pre_gsr);
  template <class Matrix>
  void repair_to_model(Matrix& out, Round k);
  bool alive(ProcessId i, Round k) const noexcept;
  /// A late message is late by at most this many rounds.
  static constexpr int kMaxLate = 8;

  /// The scalar fill's late-or-lost fate draw.
  Delay untimely_fate();

  ScheduleConfig cfg_;
  Rng rng_;
  /// The packed fill's draws before and from GSR on.
  FateWalk<kMaxLate> pre_gsr_fates_;
  FateWalk<kMaxLate> post_gsr_fates_;
  /// True iff link_models names a non-all-sync matrix (the only case in
  /// which the repair deviates from the homogeneous path).
  bool granular_ = false;
  /// repair_to_model's scratch: the processes alive in the round, and a
  /// row's candidate sources.
  std::vector<ProcessId> alive_set_;
  std::vector<ProcessId> candidates_;
};

}  // namespace timing
