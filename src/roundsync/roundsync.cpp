#include "roundsync/roundsync.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "net/frame.hpp"

namespace timing {

RoundSyncRunner::RoundSyncRunner(Protocol& protocol, Oracle* oracle,
                                 Transport& transport, int n,
                                 RoundSyncConfig cfg)
    : protocol_(protocol), oracle_(oracle), transport_(transport), n_(n),
      cfg_(std::move(cfg)) {
  TM_CHECK(n > 1, "round sync needs n > 1");
  TM_CHECK(cfg_.first_round < cfg_.end_round, "empty wire-round range");
  if (cfg_.one_way_ms.empty()) {
    cfg_.one_way_ms.assign(static_cast<std::size_t>(n), 0.0);
  }
  TM_CHECK(static_cast<int>(cfg_.one_way_ms.size()) == n,
           "one_way_ms must have n entries");
}

void RoundSyncRunner::receiver_loop() {
  Bytes buf;
  while (!stop_.load(std::memory_order_relaxed)) {
    ProcessId from = kNoProcess;
    const auto slice = Clock::now() + std::chrono::milliseconds(20);
    if (!transport_.recv(buf, from, slice)) continue;
    auto frame = parse_frame(buf);
    if (!frame) continue;
    if (const auto* ping = std::get_if<PingFrame>(&*frame)) {
      // Keep answering stragglers still in their measurement phase.
      Bytes out;
      frame_pong(PongFrame{ping->nonce}, out);
      transport_.send(from, out);
      continue;
    }
    const auto* env = std::get_if<Envelope>(&*frame);
    if (!env) continue;
    if (env->sender != from || env->sender < 0 || env->sender >= n_) continue;
    std::lock_guard lk(mu_);
    if (env->round < current_round_) continue;  // stale round; drop
    if (env->round >= cfg_.end_round) continue;  // a later instance; drop
    if (cfg_.adaptive) {
      // Arrival offset within the local round. Messages for FUTURE rounds
      // arrived before we even started that round - maximally timely -
      // and count as offset 0 (in steady state, senders slightly ahead of
      // us deliver most messages this way, and missing them would starve
      // the controller of samples).
      const double offset =
          env->round == current_round_
              ? std::chrono::duration<double, std::milli>(Clock::now() -
                                                          round_start_)
                    .count()
              : 0.0;
      cfg_.adaptive->record_offset_ms(offset);
    }
    auto& slot = buffer_[env->round];
    if (slot.row.empty()) slot.row.assign(static_cast<std::size_t>(n_), std::nullopt);
    if (!slot.row[static_cast<std::size_t>(env->sender)]) {
      slot.row[static_cast<std::size_t>(env->sender)] = env->msg;
      ++slot.count;
      // Remember the sender's message-span id; the driver turns it into
      // a round <- msg causality edge when it consumes the row.
      if (env->span != 0) slot.causes.push_back(env->span);
    }
    if (env->round > current_round_ && env->round > future_round_) {
      future_round_ = env->round;
      future_sender_ = env->sender;
      cv_.notify_all();
    }
  }
}

RoundSyncRunner::Row RoundSyncRunner::take_row(
    Round k, std::vector<std::uint64_t>* causes) {
  Row row;
  auto it = buffer_.find(k);
  if (it != buffer_.end()) {
    row = std::move(it->second.row);
    if (causes != nullptr) *causes = std::move(it->second.causes);
  } else {
    row.assign(static_cast<std::size_t>(n_), std::nullopt);
  }
  // Garbage-collect past rounds.
  buffer_.erase(buffer_.begin(), buffer_.upper_bound(k));
  return row;
}

RoundSyncResult RoundSyncRunner::run() {
  RoundSyncResult result;
  const ProcessId self = transport_.self();
  const auto t0 = Clock::now();
  SpanTracer* spans = cfg_.spans;
  const bool sp_on = spans != nullptr && spans->enabled();

  std::thread receiver([this] { receiver_loop(); });

  const auto hint = [&](Round k) {
    return oracle_ ? oracle_->query(self, k) : kNoProcess;
  };
  SendSpec out = protocol_.initialize(hint(cfg_.first_round - 1));

  Round k = cfg_.first_round;
  {
    std::lock_guard lk(mu_);
    current_round_ = k;
  }
  auto base_timeout = [&] {
    return cfg_.adaptive ? cfg_.adaptive->timeout_ms() : cfg_.timeout_ms;
  };
  double duration_ms = base_timeout();
  int rounds_after_decide = 0;
  std::vector<const Message*> view(static_cast<std::size_t>(n_));

  while (result.rounds_executed < cfg_.max_rounds) {
    const double min_ms = base_timeout() * cfg_.min_duration_fraction;
    {
      std::lock_guard lk(mu_);
      current_round_ = k;
      round_start_ = Clock::now();
      if (future_round_ <= k) {
        future_round_ = 0;
        future_sender_ = kNoProcess;
      }
    }
    // Start of round k: send the pending message, record our own copy.
    const std::uint64_t rs_id =
        sp_on ? make_span_id(span_kind::kRound,
                             static_cast<std::uint64_t>(k),
                             static_cast<std::uint64_t>(self))
              : 0;
    if (sp_on) spans->begin(rs_id, cfg_.parent_span, span_kind::kRound, k);
    Bytes wire;
    if (!sp_on) frame_envelope(Envelope{k, self, out.msg}, wire);
    for (ProcessId d : out.dests) {
      if (d == self) continue;
      if (sp_on) {
        // Each destination gets its own message span whose id rides the
        // wire, so the receiver can attribute the arrival to this exact
        // send. Re-encoding per destination only happens with spans on.
        Envelope env{k, self, out.msg};
        env.span = make_span_id(span_kind::kMsg,
                                static_cast<std::uint64_t>(k),
                                static_cast<std::uint64_t>(self),
                                static_cast<std::uint64_t>(d));
        wire.clear();
        frame_envelope(env, wire);
        spans->begin(env.span, rs_id, span_kind::kMsg, k);
        transport_.send(d, wire);
        spans->end(env.span, span_kind::kMsg, k);
      } else {
        transport_.send(d, wire);
      }
      ++result.messages_sent;
    }
    {
      std::lock_guard lk(mu_);
      auto& slot = buffer_[k];
      if (slot.row.empty()) slot.row.assign(static_cast<std::size_t>(n_), std::nullopt);
      slot.row[static_cast<std::size_t>(self)] = out.msg;
    }

    // Wait out the round, or end it early on a future-round message.
    const auto deadline =
        Clock::now() + std::chrono::microseconds(static_cast<long long>(
                           std::max(duration_ms, min_ms) * 1000.0));
    Round jump_to = 0;
    ProcessId jump_from = kNoProcess;
    {
      std::unique_lock lk(mu_);
      cv_.wait_until(lk, deadline, [&] { return future_round_ > k; });
      if (future_round_ > k) {
        jump_to = future_round_;
        jump_from = future_sender_;
      }
    }

    // End of round k: compute over a view of the buffered row.
    Row row;
    std::vector<std::uint64_t> causes;
    {
      std::lock_guard lk(mu_);
      row = take_row(k, sp_on ? &causes : nullptr);
    }
    if (sp_on && !causes.empty()) {
      // Cause edges from the peer message spans this round consumed.
      // Sorted so trace bytes don't depend on arrival interleaving.
      std::sort(causes.begin(), causes.end());
      for (const std::uint64_t c : causes) {
        spans->cause(rs_id, c, span_kind::kRound, k);
      }
    }
    if (!row[static_cast<std::size_t>(self)]) {
      row[static_cast<std::size_t>(self)] = out.msg;
    }
    for (std::size_t j = 0; j < row.size(); ++j) {
      view[j] = row[j] ? &*row[j] : nullptr;
    }
    const bool was_decided = protocol_.has_decided();
    out = protocol_.compute(k, view, hint(k));
    if (sp_on) spans->end(rs_id, span_kind::kRound, k);
    ++result.rounds_executed;
    if (!was_decided && protocol_.has_decided()) {
      result.decided = true;
      result.decision = protocol_.decision();
      result.decision_round = k;
    }
    if (protocol_.has_decided() &&
        ++rounds_after_decide > cfg_.linger_rounds_after_decide) {
      result.final_round = k;
      break;
    }

    // Advance: jump to the future round (with the shortened duration from
    // the paper) or step to k+1. The adaptive controller, when present,
    // re-evaluates the base timeout at each boundary.
    const double next_base =
        cfg_.adaptive ? cfg_.adaptive->next_timeout_ms() : cfg_.timeout_ms;
    if (jump_to > k) {
      ++result.fast_forwards;
      duration_ms =
          next_base - cfg_.one_way_ms[static_cast<std::size_t>(jump_from)];
      k = jump_to;
    } else {
      if (k + 1 >= cfg_.end_round) break;  // out of this runner's range
      duration_ms = next_base;
      k = k + 1;
    }
    result.final_round = k;
  }

  stop_.store(true, std::memory_order_relaxed);
  receiver.join();
  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return result;
}

}  // namespace timing
