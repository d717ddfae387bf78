// Micro-benchmarks (google-benchmark) for the hot paths: predicate
// evaluation, schedule sampling, the GIRAF engine, protocol compute
// functions, and the wire codec.
#include <benchmark/benchmark.h>

#include <memory>

#include "consensus/factory.hpp"
#include "consensus/wlm.hpp"
#include "giraf/engine.hpp"
#include "net/transport.hpp"
#include "models/predicates.hpp"
#include "models/schedule.hpp"
#include "net/codec.hpp"
#include "oracles/omega.hpp"
#include "sim/packed_eval.hpp"
#include "sim/sampler.hpp"

using namespace timing;

namespace {

void BM_PredicateEvaluation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  IidTimelinessSampler s(n, 0.9, 1);
  LinkMatrix a(n);
  s.sample_round(1, a);
  const TimingModel m = static_cast<TimingModel>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(satisfies(m, a, 0));
  }
}
BENCHMARK(BM_PredicateEvaluation)
    ->ArgsProduct({{8, 32, 128}, {0, 1, 2, 3}});

void BM_PackedPredicateEvaluation(benchmark::State& state) {
  // All four models in one kernel sweep over the bit plane and the
  // all-sync planes (vs one model per call in BM_PredicateEvaluation
  // above).
  const int n = static_cast<int>(state.range(0));
  IidTimelinessSampler s(n, 0.9, 1);
  PackedLinkMatrix a(n);
  s.sample_round(1, a);
  const GranularPlanes& planes = all_sync_planes(n);
  ColumnDeficits cols;
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed_evaluate_granular(a, 0, planes, cols));
  }
}
BENCHMARK(BM_PackedPredicateEvaluation)->Arg(8)->Arg(32)->Arg(128);

void BM_SampleAndEvaluate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  IidTimelinessSampler s(n, 0.95, 1);
  PackedLinkMatrix a(n);
  ColumnDeficits cols;
  Round k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.sample_round_and_evaluate(++k, 0, a, cols));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SampleAndEvaluate)->Arg(8)->Arg(32)->Arg(128);

void BM_IidSampleRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  IidTimelinessSampler s(n, 0.95, 1);
  LinkMatrix a(n);
  Round k = 0;
  for (auto _ : state) {
    s.sample_round(++k, a);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_IidSampleRound)->Arg(8)->Arg(32)->Arg(128);

void BM_WanSampleRound(benchmark::State& state) {
  WanLatencyModel model(WanProfile{}, 3);
  LatencyTimelinessSampler s(model, 170.0);
  LinkMatrix a(8);
  Round k = 0;
  for (auto _ : state) {
    s.sample_round(++k, a);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_WanSampleRound);

void BM_ScheduleSampleRound(benchmark::State& state) {
  ScheduleConfig cfg;
  cfg.n = static_cast<int>(state.range(0));
  cfg.model = TimingModel::kWlm;
  cfg.gsr = 1;
  ScheduleSampler s(cfg);
  LinkMatrix a(cfg.n);
  Round k = 0;
  for (auto _ : state) {
    s.sample_round(++k, a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScheduleSampleRound)->Arg(8)->Arg(64);

void BM_EngineRound(benchmark::State& state) {
  // One full lock-step round of Algorithm 2 for n processes.
  const int n = static_cast<int>(state.range(0));
  std::vector<Value> proposals;
  for (int i = 0; i < n; ++i) proposals.push_back(i + 1);
  auto oracle = std::make_shared<DesignatedOracle>(0);
  RoundEngine engine(make_group(AlgorithmKind::kWlm, proposals), oracle);
  LinkMatrix a(n, 0);
  for (auto _ : state) {
    engine.step(a);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineRound)->Arg(8)->Arg(32)->Arg(128);

void BM_WlmCompute(benchmark::State& state) {
  const int n = 8;
  WlmConsensus p(0, n, 42);
  SendSpec init = p.initialize(0);
  RoundMsgs row(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    Message m = init.msg;
    m.leader = 0;
    row[static_cast<std::size_t>(j)] = m;
  }
  Round k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.compute(++k, row, 0));
  }
}
BENCHMARK(BM_WlmCompute);

void BM_CodecEncodeDecode(benchmark::State& state) {
  Message m;
  m.type = MsgType::kCommit;
  m.est = 123456789;
  m.ts = 17;
  m.leader = 3;
  Envelope e{19, 2, m};
  Bytes buf;
  for (auto _ : state) {
    buf.clear();
    encode(e, buf);
    benchmark::DoNotOptimize(decode(buf));
  }
  state.SetBytesProcessed(state.iterations() * 41);
}
BENCHMARK(BM_CodecEncodeDecode);

void BM_CodecRelayPayload(benchmark::State& state) {
  // Algorithm 3's relay of a full 8-process round.
  Message relay;
  relay.type = MsgType::kRelay;
  for (ProcessId j = 0; j < 8; ++j) {
    Message m;
    m.est = j;
    m.ts = j;
    relay.relay_from.push_back(j);
    relay.relay_msgs.push_back(m);
  }
  Envelope e{4, 1, relay};
  Bytes buf;
  for (auto _ : state) {
    buf.clear();
    encode(e, buf);
    benchmark::DoNotOptimize(decode(buf));
  }
}
BENCHMARK(BM_CodecRelayPayload);

}  // namespace

BENCHMARK_MAIN();
