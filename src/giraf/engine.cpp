#include "giraf/engine.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace timing {

namespace {
constexpr Round kNever = std::numeric_limits<Round>::max();
}

RoundEngine::RoundEngine(std::vector<std::unique_ptr<Protocol>> processes,
                         std::shared_ptr<Oracle> oracle)
    : procs_(std::move(processes)), oracle_(std::move(oracle)) {
  TM_CHECK(procs_.size() > 1, "engine needs n > 1 processes");
  const auto n = procs_.size();
  sending_.resize(n);
  outbox_.resize(n);
  rows_.assign(n * n, nullptr);
  crash_round_.assign(n, kNever);
  decision_round_.assign(n, -1);
}

void RoundEngine::set_trace_sink(TraceSink* sink) noexcept {
  trace_ = sink;
  for (auto& p : procs_) p->set_trace_sink(sink);
}

void RoundEngine::crash_at(ProcessId i, Round at_round) {
  TM_CHECK(i >= 0 && i < n(), "crash target out of range");
  TM_CHECK(at_round > k_, "cannot crash in the past");
  crash_round_[i] = at_round;
}

bool RoundEngine::alive(ProcessId i) const noexcept {
  return k_ < crash_round_[i];
}

ProcessId RoundEngine::hint(ProcessId i, Round k) {
  return oracle_ ? oracle_->query(i, k) : kNoProcess;
}

void RoundEngine::lazy_initialize() {
  if (initialized_) return;
  initialized_ = true;
  for (ProcessId i = 0; i < n(); ++i) {
    outbox_[i] = procs_[i]->initialize(hint(i, 0));
  }
}

Round RoundEngine::step(const LinkMatrix& fates) { return step_impl(fates); }

Round RoundEngine::step(const PackedLinkMatrix& fates) {
  return step_impl(fates);
}

template <class Matrix>
Round RoundEngine::step_impl(const Matrix& fates) {
  TM_CHECK(fates.n() == n(), "matrix size mismatch");
  lazy_initialize();
  ++k_;
  TM_TRACE(trace_, TraceEvent::round_start(k_));
  const bool sp_on = spans_ != nullptr && spans_->enabled();
  const std::uint64_t rs_id =
      sp_on ? make_span_id(span_kind::kRound, static_cast<std::uint64_t>(k_),
                           span_ctx_)
            : 0;
  if (sp_on) spans_->begin(rs_id, span_parent_, span_kind::kRound, k_);
  if (trace_ != nullptr) {
    for (ProcessId i = 0; i < n(); ++i) {
      if (crash_round_[i] == k_) trace_->record(TraceEvent::crash(k_, i));
    }
  }

  // Start of round k_: the outbox becomes this round's sends and the
  // rows point into them; compute() below refills the other buffer, so
  // no message changes while a row points at it.
  std::swap(sending_, outbox_);
  std::fill(rows_.begin(), rows_.end(), nullptr);
  const auto nn = static_cast<std::size_t>(n());
  const auto row = [&](ProcessId i) {
    return rows_.data() + static_cast<std::size_t>(i) * nn;
  };
  msgs_last_round_ = 0;
  for (ProcessId i = 0; i < n(); ++i) {
    if (!alive(i)) continue;
    const Message* msg = &sending_[i].msg;
    row(i)[i] = msg;  // own message always received
    for (ProcessId d : sending_[i].dests) {
      if (d == i) continue;
      TM_CHECK(d >= 0 && d < n(), "destination out of range");
      ++stats_.messages_sent;
      ++msgs_last_round_;
      const Delay fate = fates.at(d, i);
      TM_TRACE(trace_, TraceEvent::msg(EventKind::kMsgSent, k_, i, d));
      if (fate == kLost) {
        ++stats_.lost_messages;
        TM_TRACE(trace_, TraceEvent::msg(EventKind::kMsgLost, k_, i, d));
      } else if (fate == 0) {
        ++stats_.timely_deliveries;
        if (k_ < crash_round_[d]) row(d)[i] = msg;
        TM_TRACE(trace_, TraceEvent::msg(EventKind::kMsgTimely, k_, i, d));
      } else {
        ++stats_.late_messages;
        in_flight_.push_back(InFlight{k_ + fate, d, i});
        // The message's fate is known at sampling time; record it in the
        // round it belongs to (by the time it arrives, that round's
        // computation is over and it can no longer matter).
        TM_TRACE(trace_,
                 TraceEvent::msg(EventKind::kMsgLate, k_, i, d, fate));
      }
    }
  }

  // Late messages due this round: they belong to an earlier round whose
  // computation already happened, so they only count as late arrivals.
  std::erase_if(in_flight_, [&](const InFlight& f) {
    if (f.due > k_) return false;
    ++stats_.late_arrivals;
    return true;
  });

  // End of round k_: oracle query + compute.
  for (ProcessId i = 0; i < n(); ++i) {
    if (!alive(i)) continue;
    const bool was_decided = procs_[i]->has_decided();
    const ProcessId ld = hint(i, k_);
    if (oracle_ != nullptr) {
      TM_TRACE(trace_, TraceEvent::oracle(k_, i, ld));
    }
    outbox_[i] = procs_[i]->compute(k_, RoundMsgs(row(i), nn), ld);
    if (!was_decided && procs_[i]->has_decided()) {
      decision_round_[i] = k_;
    }
  }
  if (sp_on) spans_->end(rs_id, span_kind::kRound, k_);
  TM_TRACE(trace_, TraceEvent::round_end(k_));
  return k_;
}

template Round RoundEngine::step_impl(const LinkMatrix&);
template Round RoundEngine::step_impl(const PackedLinkMatrix&);

Round RoundEngine::run(TimelinessSampler& sampler, int max_rounds) {
  TM_CHECK(sampler.n() == n(), "sampler size mismatch");
  PackedLinkMatrix fates(n());
  for (int r = 0; r < max_rounds; ++r) {
    sampler.sample_round(k_ + 1, fates);
    step(fates);
    if (all_alive_decided()) return global_decision_round();
  }
  return all_alive_decided() ? global_decision_round() : -1;
}

bool RoundEngine::all_alive_decided() const noexcept {
  for (ProcessId i = 0; i < n(); ++i) {
    if (alive(i) && !procs_[i]->has_decided()) return false;
  }
  return true;
}

Round RoundEngine::global_decision_round() const noexcept {
  Round g = -1;
  for (ProcessId i = 0; i < n(); ++i) g = std::max(g, decision_round_[i]);
  return g;
}

}  // namespace timing
