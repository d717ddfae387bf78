// The full Section 5 pipeline on the simulated PlanetLab testbed:
// 8 "sites" as threads over a latency-injecting datagram hub, running
//   1. ping-based pairwise latency estimation (Section 5.1),
//   2. offline election of a well-connected leader (Section 5.2's
//      method - expect the UK site),
//   3. round-synchronized consensus (Algorithm 2) without synchronized
//      clocks, several instances back to back.
//
// Every code path here is the same one the integration tests drive over
// real UDP sockets; the hub injects WAN latencies scaled down 20x so the
// example finishes quickly (a 170 ms WAN timeout becomes 8.5 ms).
#include <barrier>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "consensus/factory.hpp"
#include "net/ping.hpp"
#include "net/transport.hpp"
#include "oracles/omega.hpp"
#include "roundsync/roundsync.hpp"
#include "sim/latency_model.hpp"

using namespace timing;

namespace {

constexpr double kScale = 20.0;  // WAN ms -> example ms

/// Wraps the WAN model, dividing all latencies by kScale.
class ScaledWan final : public LatencyModel {
 public:
  ScaledWan(WanProfile profile, std::uint64_t seed) : wan_(profile, seed) {}
  int n() const noexcept override { return wan_.n(); }
  void begin_round(Round k) override { wan_.begin_round(k); }
  double sample_ms(ProcessId s, ProcessId d) override {
    return wan_.sample_ms(s, d) / kScale;
  }
  std::string node_name(ProcessId i) const override {
    return wan_.node_name(i);
  }
 private:
  WanLatencyModel wan_;
};

}  // namespace

int main() {
  constexpr int kN = 8;
  constexpr double kTimeoutMs = 170.0 / kScale;  // the Fig 1(i) optimum
  constexpr int kInstances = 3;

  WanProfile profile;
  profile.slow_run_prob = 0.0;  // keep the demo snappy
  auto hub = std::make_shared<InProcHub>(kN);
  hub->set_latency_model(std::make_unique<ScaledWan>(profile, 99),
                         kTimeoutMs);
  WanLatencyModel names(profile, 1);  // for site names only

  struct SiteResult {
    PingReport ping;
    ProcessId leader = kNoProcess;
    std::vector<Value> decisions;
    std::vector<double> times_ms;
  };
  std::vector<SiteResult> sites(kN);
  std::vector<std::thread> threads;
  // The paper measured all pairs "before starting the experiments" and
  // elected offline from the full matrix; the barrier stands in for that
  // out-of-band exchange of ping reports.
  std::barrier rendezvous(kN);

  for (ProcessId i = 0; i < kN; ++i) {
    threads.emplace_back([&, i] {
      auto& site = sites[static_cast<std::size_t>(i)];
      InProcTransport transport(hub, i);

      // Enough samples to average out the bursty CN outbound links -
      // with too few pings the election gets noisy, exactly why the
      // paper measured "the average latency ... using pings" plural.
      PingConfig pcfg;
      pcfg.pings_per_peer = 25;
      pcfg.probe_interval = std::chrono::milliseconds(2);
      pcfg.total_duration = std::chrono::milliseconds(8000);
      site.ping = measure_peer_rtts(transport, kN, pcfg);

      // Exchange reports, then every site elects from the same full
      // matrix; the answer is unanimous (the UK site), as in the paper.
      rendezvous.arrive_and_wait();
      std::vector<std::vector<double>> rtt(kN, std::vector<double>(kN, 0.0));
      for (ProcessId a = 0; a < kN; ++a) {
        for (ProcessId b = 0; b < kN; ++b) {
          rtt[a][b] = sites[static_cast<std::size_t>(a)].ping.avg_rtt_ms[b];
        }
      }
      site.leader = elect_well_connected(rtt);

      DesignatedOracle oracle(site.leader);
      for (int inst = 0; inst < kInstances; ++inst) {
        auto protocol =
            make_protocol(AlgorithmKind::kWlm, i, kN, 7000 + 10 * inst + i);
        RoundSyncConfig cfg;
        cfg.timeout_ms = kTimeoutMs;
        cfg.max_rounds = 600;
        cfg.first_round = 1 + inst * 100000;
        cfg.end_round = cfg.first_round + 100000;
        cfg.one_way_ms.clear();
        for (ProcessId j = 0; j < kN; ++j) {
          cfg.one_way_ms.push_back(site.ping.one_way_ms(j));
        }
        RoundSyncRunner runner(*protocol, &oracle, transport, kN, cfg);
        const auto r = runner.run();
        site.decisions.push_back(r.decided ? protocol->decision() : kNoValue);
        site.times_ms.push_back(r.elapsed_ms);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::printf("measured RTTs from CH (site 0), ms (scaled 1/%.0f):\n", kScale);
  for (ProcessId j = 0; j < kN; ++j) {
    std::printf("  %-6s %7.2f\n", names.node_name(j).c_str(),
                sites[0].ping.avg_rtt_ms[j]);
  }

  std::printf("\nelected leader per site: ");
  bool unanimous = true;
  for (ProcessId i = 0; i < kN; ++i) {
    std::printf("%s ", names.node_name(sites[i].leader).c_str());
    if (sites[i].leader != sites[0].leader) unanimous = false;
  }
  std::printf("%s\n", unanimous ? "(unanimous)" : "(split!)");

  int ok = 0;
  for (int inst = 0; inst < kInstances; ++inst) {
    const Value v = sites[0].decisions[static_cast<std::size_t>(inst)];
    bool agreed = v != kNoValue;
    for (ProcessId i = 1; i < kN; ++i) {
      agreed &= sites[i].decisions[static_cast<std::size_t>(inst)] == v;
    }
    std::printf("instance %d: decision %lld, agreement %s\n", inst,
                static_cast<long long>(v), agreed ? "yes" : "NO");
    if (agreed) ++ok;
  }
  std::printf("\n%d/%d instances decided consistently across all 8 sites.\n",
              ok, kInstances);
  return ok == kInstances ? 0 : 1;
}
