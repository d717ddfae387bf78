#include "bench.hpp"

#include <algorithm>
#include <ctime>
#include <sstream>
#include <stdexcept>

#include "common/parallel.hpp"
#include "scenario/overrides.hpp"

namespace perfbench {

namespace {

long long clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

long long now_ns() { return clock_ns(CLOCK_MONOTONIC); }

long long cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

Resolved resolve(const std::string& name,
                 const std::vector<std::string>& overrides) {
  Resolved r;
  r.scenario = timing::scenario::find_scenario(name);
  if (r.scenario == nullptr) {
    throw std::runtime_error("scenario '" + name + "' is not registered");
  }
  // TIMING_RUNS is refused at start-up, so honor_env_runs keeps defaults.
  r.spec = r.scenario->defaults();
  std::vector<std::string> args = overrides;
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const timing::scenario::CliArgs cli = timing::scenario::apply_cli_args(
      r.spec, static_cast<int>(argv.size()), argv.data(), 0);
  if (!cli.error.empty()) throw std::runtime_error(name + ": " + cli.error);
  const std::string invalid = timing::scenario::validate(r.spec);
  if (!invalid.empty()) throw std::runtime_error(name + ": " + invalid);
  return r;
}

int run_scenario(const Resolved& r, bool csv, std::string& out) {
  std::ostringstream os;
  timing::scenario::RunContext ctx;
  ctx.out = &os;
  ctx.csv = csv;
  const int rc = r.scenario->run(r.spec, ctx);
  out = os.str();
  return rc;
}

int Spans::open(const char* name, long long unit) {
  const int id = static_cast<int>(log_.size());
  log_.push_back(Span{name, 0, 0, open_.empty() ? -1 : open_.back(), unit});
  child_ns_.push_back(0);
  open_.push_back(id);
  log_.back().start = now_ns();
  return id;
}

void Spans::close(int id) {
  const long long t = now_ns();
  Span& s = log_[static_cast<std::size_t>(id)];
  s.end = t;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  if (s.parent >= 0) {
    child_ns_[static_cast<std::size_t>(s.parent)] += t - s.start;
  }
}

void Spans::leaf(const char* name, long long ns, long long calls) {
  Totals& t = leaves_[name];
  t.total += static_cast<double>(ns);
  t.self += static_cast<double>(ns);
  t.count += calls;
  if (!open_.empty()) child_ns_[static_cast<std::size_t>(open_.back())] += ns;
}

Spans::Totals Spans::totals(const std::string& name) const {
  Totals t;
  const auto leaf = leaves_.find(name);
  if (leaf != leaves_.end()) t = leaf->second;
  for (std::size_t i = 0; i < log_.size(); ++i) {
    if (name != log_[i].name) continue;
    const long long d = log_[i].end - log_[i].start;
    t.total += static_cast<double>(d);
    t.self += static_cast<double>(d - child_ns_[i]);
    ++t.count;
  }
  return t;
}

double Spans::total_ns(const std::string& name) const {
  return totals(name).total;
}

double Spans::self_ns(const std::string& name) const {
  return totals(name).self;
}

long long Spans::count(const std::string& name) const {
  return totals(name).count;
}

void thread_speedups(int reps, const std::function<void()>& slice,
                     Metrics& m) {
  std::vector<double> wall[3];
  const int threads[3] = {1, 2, 4};
  for (int r = 0; r < reps; ++r) {
    for (int k = 0; k < 3; ++k) {
      timing::ScopedThreads pin(threads[k]);
      const long long t0 = now_ns();
      slice();
      wall[k].push_back(static_cast<double>(now_ns() - t0));
    }
  }
  m["common.parallel.speedup_t2"] = median(wall[0]) / median(wall[1]);
  m["common.parallel.speedup_t4"] = median(wall[0]) / median(wall[2]);
}

}  // namespace perfbench
