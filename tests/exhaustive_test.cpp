// Exhaustive bounded model checking of the consensus protocols.
//
// For n = 3 processes there are 2^6 = 64 possible delivery patterns per
// round (each off-diagonal link delivers or not; self links always do).
// We enumerate EVERY schedule of D rounds - not samples, the full tree -
// and assert the paper's safety properties in every reachable state:
//
//   * uniform agreement: no two processes ever hold different decisions;
//   * validity: decisions are proposals;
//   * Lemma 1: a process's timestamp never exceeds the round number;
//   * Lemma 2: timestamps never decrease;
//   * decisions are stable (write-once).
//
// Depth 3 from the initial state covers 64 + 64^2 + 64^3 = 266,304
// schedules per (algorithm, oracle) pair. To reach deeper, interesting
// states, we additionally run random 6-round prefixes and exhaust every
// 2-round suffix from each.
//
// Adversarial oracles are included: all processes trusting a fixed
// leader, everyone trusting themselves (split brain), and a leader
// rotating every round.
//
// The search trees are embarrassingly parallel: the 64 first-level
// branches (and the randomized prefixes) fan out over the shared thread
// pool (common/parallel.hpp, TIMING_THREADS). Each branch keeps its own
// checker and the visited-state counts are integers summed in branch
// order, so the test's verdict and counts are thread-count-invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "consensus/factory.hpp"

namespace timing {
namespace {

constexpr int kN = 3;
constexpr unsigned kMaskCount = 64;  // 2^(3*2) off-diagonal links

using OracleFn = std::function<ProcessId(ProcessId self, Round k)>;

struct SysState {
  std::vector<std::unique_ptr<Protocol>> procs;
  std::vector<SendSpec> outbox;
  std::vector<Timestamp> prev_ts;
  std::vector<Value> decided;
  Round k = 0;

  SysState clone() const {
    SysState copy;
    copy.outbox = outbox;
    copy.prev_ts = prev_ts;
    copy.decided = decided;
    copy.k = k;
    for (const auto& p : procs) {
      auto c = p->clone();
      TM_CHECK(c != nullptr, "protocol does not support clone()");
      copy.procs.push_back(std::move(c));
    }
    return copy;
  }
};

struct Checker {
  const std::vector<Value>& proposals;
  bool check_lemma1;  // Paxos ballots are exempt
  long long states_checked = 0;

  void check(const SysState& s) {
    ++states_checked;
    std::set<Value> decisions;
    for (ProcessId i = 0; i < kN; ++i) {
      const Protocol& p = *s.procs[static_cast<std::size_t>(i)];
      if (check_lemma1) {
        ASSERT_LE(p.current_ts(), s.k) << "Lemma 1 violated at round " << s.k;
        ASSERT_GE(p.current_ts(), s.prev_ts[static_cast<std::size_t>(i)])
            << "Lemma 2 violated at round " << s.k;
      }
      if (s.decided[static_cast<std::size_t>(i)] != kNoValue) {
        ASSERT_TRUE(p.has_decided()) << "decision retracted";
        ASSERT_EQ(p.decision(), s.decided[static_cast<std::size_t>(i)])
            << "decision changed";
      }
      if (p.has_decided()) {
        decisions.insert(p.decision());
        ASSERT_NE(std::find(proposals.begin(), proposals.end(), p.decision()),
                  proposals.end())
            << "validity violated";
      }
    }
    ASSERT_LE(decisions.size(), 1u)
        << "AGREEMENT violated at round " << s.k;
  }
};

SysState initial_state(AlgorithmKind kind, const std::vector<Value>& props,
                       const OracleFn& oracle) {
  SysState s;
  s.procs = make_group(kind, props);
  for (ProcessId i = 0; i < kN; ++i) {
    s.outbox.push_back(s.procs[static_cast<std::size_t>(i)]->initialize(
        oracle(i, 0)));
  }
  s.prev_ts.assign(kN, 0);
  s.decided.assign(kN, kNoValue);
  return s;
}

// Executes one round with the 6-bit delivery mask. Bit b corresponds to
// the b-th off-diagonal (dst, src) pair in row-major order.
void step(SysState& s, unsigned mask, const OracleFn& oracle) {
  // As in the engine, the rows point into this round's sends and
  // compute() refills the outbox.
  std::vector<SendSpec> sending;
  sending.swap(s.outbox);
  s.outbox.resize(kN);
  const Message* rows[kN][kN] = {};
  for (ProcessId i = 0; i < kN; ++i) {
    rows[i][i] = &sending[static_cast<std::size_t>(i)].msg;
  }
  int bit = 0;
  for (ProcessId dst = 0; dst < kN; ++dst) {
    for (ProcessId src = 0; src < kN; ++src) {
      if (dst == src) continue;
      const bool delivered = (mask >> bit) & 1u;
      ++bit;
      if (!delivered) continue;
      const auto& spec = sending[static_cast<std::size_t>(src)];
      for (ProcessId d : spec.dests) {
        if (d == dst) {
          rows[dst][src] = &spec.msg;
          break;
        }
      }
    }
  }
  ++s.k;
  for (ProcessId i = 0; i < kN; ++i) {
    auto& p = *s.procs[static_cast<std::size_t>(i)];
    s.prev_ts[static_cast<std::size_t>(i)] = p.current_ts();
    if (p.has_decided() &&
        s.decided[static_cast<std::size_t>(i)] == kNoValue) {
      s.decided[static_cast<std::size_t>(i)] = p.decision();
    }
    s.outbox[static_cast<std::size_t>(i)] =
        p.compute(s.k, rows[i], oracle(i, s.k));
  }
}

void dfs(const SysState& s, int depth, const OracleFn& oracle,
         Checker& checker) {
  if (depth == 0) return;
  for (unsigned mask = 0; mask < kMaskCount; ++mask) {
    SysState child = s.clone();
    if (::testing::Test::HasFatalFailure()) return;
    step(child, mask, oracle);
    checker.check(child);
    if (::testing::Test::HasFatalFailure()) return;
    dfs(child, depth - 1, oracle, checker);
  }
}

/// dfs() with the 64 first-level branches spread over the thread pool.
/// Returns the number of states checked below (and including) level 1.
long long parallel_dfs(const SysState& root, int depth, const OracleFn& oracle,
                       const std::vector<Value>& proposals, bool lemma1) {
  const auto counts =
      run_trials<long long>(kMaskCount, [&](std::size_t mask) -> long long {
        Checker checker{proposals, lemma1};
        if (::testing::Test::HasFatalFailure()) return checker.states_checked;
        SysState child = root.clone();
        step(child, static_cast<unsigned>(mask), oracle);
        checker.check(child);
        if (!::testing::Test::HasFatalFailure()) {
          dfs(child, depth - 1, oracle, checker);
        }
        return checker.states_checked;
      });
  long long total = 0;
  for (long long c : counts) total += c;
  return total;
}

struct ExhaustiveCase {
  AlgorithmKind kind;
  int oracle_variant;  // 0 fixed, 1 split (self), 2 rotating
};

OracleFn make_oracle(int variant) {
  switch (variant) {
    case 0: return [](ProcessId, Round) { return 0; };
    case 1: return [](ProcessId self, Round) { return self; };
    default: return [](ProcessId, Round k) { return k % kN; };
  }
}

std::string oracle_name(int variant) {
  switch (variant) {
    case 0: return "Fixed";
    case 1: return "Split";
    default: return "Rotating";
  }
}

class Exhaustive : public ::testing::TestWithParam<ExhaustiveCase> {};

TEST_P(Exhaustive, DepthThreeFromInitialState) {
  const auto [kind, variant] = GetParam();
  const std::vector<Value> props{10, 20, 30};
  const bool lemma1 = kind != AlgorithmKind::kPaxos;
  const OracleFn oracle = make_oracle(variant);
  Checker checker{props, lemma1};
  SysState init = initial_state(kind, props, oracle);
  checker.check(init);
  const long long below =
      parallel_dfs(init, /*depth=*/3, oracle, props, lemma1);
  // 64 + 64^2 + 64^3 nodes, plus the root.
  EXPECT_EQ(checker.states_checked + below, 1 + 64 + 64 * 64 + 64 * 64 * 64);
}

TEST_P(Exhaustive, DepthTwoFromRandomizedDeepStates) {
  const auto [kind, variant] = GetParam();
  const std::vector<Value> props{10, 20, 30};
  const bool lemma1 = kind != AlgorithmKind::kPaxos;
  const OracleFn oracle = make_oracle(variant);
  const std::uint64_t root_seed = 0x5eed ^
                                  static_cast<std::uint64_t>(variant) << 8 ^
                                  static_cast<std::uint64_t>(kind);
  // One sub-stream per prefix: each parallel branch draws its own random
  // walk reproducibly, independent of scheduling.
  const auto counts =
      run_trials<long long>(12, [&](std::size_t prefix) -> long long {
        Checker checker{props, lemma1};
        Rng rng = substream(root_seed, prefix);
        SysState s = initial_state(kind, props, oracle);
        const int len = 3 + static_cast<int>(rng.uniform_int(6));
        for (int r = 0; r < len; ++r) {
          step(s, static_cast<unsigned>(rng.uniform_int(kMaskCount)), oracle);
          checker.check(s);
          if (::testing::Test::HasFatalFailure()) return checker.states_checked;
        }
        dfs(s, /*depth=*/2, oracle, checker);
        return checker.states_checked;
      });
  long long total = 0;
  for (long long c : counts) total += c;
  EXPECT_GT(total, 12 * (64 + 64 * 64));
}

std::vector<ExhaustiveCase> cases() {
  std::vector<ExhaustiveCase> cs;
  for (AlgorithmKind k :
       {AlgorithmKind::kWlm, AlgorithmKind::kEs3, AlgorithmKind::kLm3,
        AlgorithmKind::kLmOverWlm, AlgorithmKind::kPaxos}) {
    for (int variant = 0; variant < 3; ++variant) {
      cs.push_back({k, variant});
    }
  }
  return cs;
}

INSTANTIATE_TEST_SUITE_P(
    SmallSystems, Exhaustive, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<ExhaustiveCase>& info) {
      std::string name = to_string(info.param.kind);
      std::string out;
      for (char c : name) {
        if (isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out + "_" + oracle_name(info.param.oracle_variant);
    });

TEST(Clone, ClonedProtocolsBehaveIdentically) {
  // clone() fidelity: after cloning mid-run, original and copy produce
  // byte-identical message streams for the same inputs.
  for (AlgorithmKind kind :
       {AlgorithmKind::kWlm, AlgorithmKind::kEs3, AlgorithmKind::kLm3,
        AlgorithmKind::kLmOverWlm, AlgorithmKind::kPaxos}) {
    const std::vector<Value> props{10, 20, 30};
    const OracleFn oracle = make_oracle(0);
    SysState s = initial_state(kind, props, oracle);
    Rng rng(44);
    for (int r = 0; r < 5; ++r) {
      step(s, static_cast<unsigned>(rng.uniform_int(kMaskCount)), oracle);
    }
    SysState copy = s.clone();
    for (int r = 0; r < 5; ++r) {
      const unsigned mask = static_cast<unsigned>(rng.uniform_int(kMaskCount));
      step(s, mask, oracle);
      step(copy, mask, oracle);
      for (ProcessId i = 0; i < kN; ++i) {
        ASSERT_EQ(s.outbox[static_cast<std::size_t>(i)].msg,
                  copy.outbox[static_cast<std::size_t>(i)].msg)
            << to_string(kind) << " diverged at suffix round " << r;
      }
    }
  }
}

}  // namespace
}  // namespace timing
