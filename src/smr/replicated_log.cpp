#include "smr/replicated_log.hpp"

#include <optional>

#include "common/check.hpp"

namespace timing {

/// The log runs every instance under the designated leader's oracle.
constexpr bool kLogElects = false;

Value slot_decree(int slot) noexcept {
  // Bit 61 keeps the decree positive, clear of the sign bit and of the
  // KV (bit 62 clear, bits 0..61 payload capped well below) and register
  // (bit 62 set) command encodings as a distinct tag. The decree is
  // never applied to a state machine, but keeping the spaces disjoint
  // makes a mixed-up value loudly wrong.
  return (Value{1} << 61) + slot;
}

/// One in-flight slot: its batch record, the current attempt's instance
/// + environment, and the span bookkeeping that survives across attempts.
struct ReplicatedLog::Flight {
  SlotRecord rec;
  int attempt = 0;  ///< 0-based attempt index
  std::unique_ptr<TimelinessSampler> sampler;
  std::optional<SmrInstance> inst;  ///< the current attempt
  int max_rounds = 0;
  bool decided = false;
  std::uint64_t slot_span = 0;
  PackedLinkMatrix fates;
};

ReplicatedLog::ReplicatedLog(
    ReplicatedLogConfig cfg,
    std::vector<std::unique_ptr<StateMachine>> machines,
    SlotEnvFactory env_of)
    : cfg_(cfg),
      core_(cfg.n, cfg.algorithm, cfg.leader, kLogElects, std::move(machines)),
      env_of_(std::move(env_of)) {
  TM_CHECK(cfg_.pipeline >= 1, "pipeline must be >= 1");
  TM_CHECK(cfg_.batch >= 1, "batch must be >= 1");
  TM_CHECK(cfg_.flush_ticks >= 1, "flush_ticks must be >= 1");
  TM_CHECK(cfg_.max_attempts_per_slot >= 1, "need at least one attempt");
  TM_CHECK(env_of_ != nullptr, "slot env factory required");
}

ReplicatedLog::~ReplicatedLog() = default;

void ReplicatedLog::submit(Command cmd, std::uint64_t op_span) {
  const bool sp_on = cfg_.spans != nullptr && cfg_.spans->enabled();
  if (open_.empty()) {
    // Batches seal in FIFO order, so the batch opened now IS the next
    // slot ordinal — which lets the batch span carry its slot id from
    // the very first submit.
    open_slot_ = next_slot_++;
    open_since_ = tick_;
    if (sp_on) {
      cfg_.spans->begin(make_span_id(span_kind::kBatch,
                                     static_cast<std::uint64_t>(open_slot_)),
                        0, span_kind::kBatch);
    }
  }
  if (sp_on && op_span != 0) {
    cfg_.spans->cause(make_span_id(span_kind::kBatch,
                                   static_cast<std::uint64_t>(open_slot_)),
                      op_span, span_kind::kBatch);
  }
  LogOp op;
  op.cmd = cmd;
  op.submit_tick = tick_;
  op.op_span = op_span;
  open_.push_back(op);
  if (static_cast<int>(open_.size()) >= cfg_.batch) seal_open_batch();
}

void ReplicatedLog::seal_open_batch() {
  TM_CHECK(!open_.empty(), "sealing an empty batch");
  const bool sp_on = cfg_.spans != nullptr && cfg_.spans->enabled();
  SlotRecord rec;
  rec.slot = open_slot_;
  rec.sealed_tick = tick_;
  rec.ops = std::move(open_);
  open_.clear();
  open_slot_ = -1;
  if (sp_on) {
    const std::uint64_t batch_span = make_span_id(
        span_kind::kBatch, static_cast<std::uint64_t>(rec.slot));
    cfg_.spans->end(batch_span, span_kind::kBatch);
    cfg_.spans->begin(make_span_id(span_kind::kSlot,
                                   static_cast<std::uint64_t>(rec.slot)),
                      batch_span, span_kind::kSlot);
  }
  sealed_.push_back(std::move(rec));
}

void ReplicatedLog::start_attempt(Flight& f) {
  InstanceEnv env = env_of_(f.rec.slot, f.attempt);
  TM_CHECK(env.sampler != nullptr, "slot env needs a sampler");
  TM_CHECK(env.sampler->n() == cfg_.n, "slot env sampler n mismatch");
  f.sampler = std::move(env.sampler);
  f.max_rounds =
      env.max_rounds < 0 ? cfg_.max_rounds_per_instance : env.max_rounds;
  // Pre-size the fate matrix: not every sampler's packed overload
  // auto-resizes (the latency testbeds write into the given shape).
  if (f.fates.n() != cfg_.n) f.fates = PackedLinkMatrix(cfg_.n);
  const Value decree = slot_decree(f.rec.slot);
  f.inst.emplace(core_.start_instance(std::span<const Command>(&decree, 1),
                                      env.crash_rounds, cfg_.spans,
                                      f.slot_span));
}

void ReplicatedLog::start_ready_slots() {
  const bool sp_on = cfg_.spans != nullptr && cfg_.spans->enabled();
  while (!sealed_.empty() &&
         static_cast<int>(flight_.size()) < cfg_.pipeline) {
    auto f = std::make_unique<Flight>();
    f->rec = std::move(sealed_.front());
    sealed_.pop_front();
    if (sp_on) {
      f->slot_span = make_span_id(span_kind::kSlot,
                                  static_cast<std::uint64_t>(f->rec.slot));
    }
    start_attempt(*f);
    flight_.push_back(std::move(f));
  }
}

void ReplicatedLog::step_flights() {
  const bool sp_on = cfg_.spans != nullptr && cfg_.spans->enabled();
  for (auto& fp : flight_) {
    Flight& f = *fp;
    if (f.decided) continue;  // waiting behind the commit index
    RoundEngine& engine = f.inst->engine;
    f.sampler->sample_round(engine.current_round() + 1, f.fates);
    engine.step(f.fates);
    if (engine.all_alive_decided()) {
      f.decided = true;
      f.rec.decided_tick = tick_;
      f.rec.rounds = engine.current_round();
      f.rec.attempts = f.attempt + 1;
      const Value agreed = smr_agreed_decision(engine);
      TM_CHECK(agreed == slot_decree(f.rec.slot),
               "slot decided a value nobody proposed");
      f.rec.applied.assign(static_cast<std::size_t>(cfg_.n), false);
      for (ProcessId i = 0; i < cfg_.n; ++i) {
        f.rec.applied[static_cast<std::size_t>(i)] = engine.alive(i);
      }
      if (sp_on) {
        cfg_.spans->cause(f.slot_span, f.inst->span, span_kind::kSlot);
        cfg_.spans->end(f.inst->span, span_kind::kInstance);
      }
    } else if (engine.current_round() >= f.max_rounds) {
      // Attempt exhausted: end its instance span and retry with a fresh
      // environment, or abandon the slot after the attempt budget.
      if (sp_on) {
        cfg_.spans->end(f.inst->span, span_kind::kInstance);
      }
      if (f.attempt + 1 >= cfg_.max_attempts_per_slot) {
        f.decided = true;  // resolves (unsuccessfully) at the commit scan
        f.rec.attempts = f.attempt + 1;
        f.rec.rounds = engine.current_round();
        f.rec.applied.clear();
      } else {
        ++f.attempt;
        start_attempt(f);
      }
    }
  }
}

void ReplicatedLog::commit_in_order() {
  const bool sp_on = cfg_.spans != nullptr && cfg_.spans->enabled();
  while (!flight_.empty() && flight_.front()->decided) {
    Flight& f = *flight_.front();
    SlotRecord rec = std::move(f.rec);
    TM_CHECK(rec.slot == commit_index_, "slots must commit in order");
    const bool committed = !rec.applied.empty();
    rec.committed = committed;
    rec.committed_tick = tick_;
    if (committed) {
      if (sp_on) {
        cfg_.spans->begin(make_span_id(span_kind::kApply,
                                       static_cast<std::uint64_t>(rec.slot)),
                          f.slot_span, span_kind::kApply);
      }
      for (const LogOp& op : rec.ops) core_.append(op.cmd);
      core_.apply_log(rec.applied);
      ++slots_committed_;
      if (sp_on) {
        cfg_.spans->end(make_span_id(span_kind::kApply,
                                     static_cast<std::uint64_t>(rec.slot)),
                        span_kind::kApply);
      }
    } else {
      ++slots_abandoned_;
    }
    if (sp_on) cfg_.spans->end(f.slot_span, span_kind::kSlot);
    committed_.push_back(std::move(rec));
    flight_.pop_front();
    ++commit_index_;
  }
}

void ReplicatedLog::tick() {
  ++tick_;
  // Flush deadline: a non-empty open batch that has waited flush_ticks
  // ticks seals now even though it never filled.
  if (!open_.empty() && tick_ - open_since_ >= cfg_.flush_ticks) {
    seal_open_batch();
  }
  start_ready_slots();
  step_flights();
  commit_in_order();
  // Commits freed pipeline room; let sealed batches start this tick so
  // pipeline=1 still makes one round of progress per tick.
  start_ready_slots();
}

std::vector<SlotRecord> ReplicatedLog::take_committed() {
  std::vector<SlotRecord> out = std::move(committed_);
  committed_.clear();
  return out;
}

}  // namespace timing
