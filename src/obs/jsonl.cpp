#include "obs/jsonl.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"

namespace timing {

const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kRoundStart: return "round_start";
    case EventKind::kRoundEnd: return "round_end";
    case EventKind::kMsgSent: return "sent";
    case EventKind::kMsgTimely: return "timely";
    case EventKind::kMsgLate: return "late";
    case EventKind::kMsgLost: return "lost";
    case EventKind::kOracleOutput: return "oracle";
    case EventKind::kPredicateEval: return "pred";
    case EventKind::kDecide: return "decide";
    case EventKind::kCrash: return "crash";
    case EventKind::kFaultInjected: return "fault";
    case EventKind::kClientOp: return "op";
    case EventKind::kSpan: return "span";
    case EventKind::kMetricsSnapshot: return "metrics";
  }
  return "unknown";
}

const char* span_kind_name(std::uint8_t kind) noexcept {
  switch (kind) {
    case span_kind::kOp: return "op";
    case span_kind::kQueue: return "queue";
    case span_kind::kCommit: return "commit";
    case span_kind::kApply: return "apply";
    case span_kind::kInstance: return "instance";
    case span_kind::kRound: return "round";
    case span_kind::kMsg: return "msg";
    case span_kind::kBatch: return "batch";
    case span_kind::kSlot: return "slot";
  }
  return nullptr;  // kNone and out-of-range: invalid on the wire
}

const char* span_phase_name(std::uint8_t phase) noexcept {
  switch (phase) {
    case span_phase::kBegin: return "begin";
    case span_phase::kEnd: return "end";
    case span_phase::kCause: return "cause";
  }
  return nullptr;
}

bool span_kind_from_string(const char* s, std::uint8_t& out) noexcept {
  for (std::uint8_t k = 1; k < span_kind::kCount; ++k) {
    if (std::string(span_kind_name(k)) == s) {
      out = k;
      return true;
    }
  }
  return false;
}

bool span_phase_from_string(const char* s, std::uint8_t& out) noexcept {
  for (std::uint8_t p = 0; p < span_phase::kCount; ++p) {
    if (std::string(span_phase_name(p)) == s) {
      out = p;
      return true;
    }
  }
  return false;
}

const char* op_phase_name(std::uint8_t phase) noexcept {
  switch (phase) {
    case op_phase::kInvoke: return "invoke";
    case op_phase::kOk: return "ok";
    case op_phase::kFail: return "fail";
    case op_phase::kInfo: return "info";
  }
  return nullptr;
}

const char* op_func_name(std::uint8_t func) noexcept {
  switch (func) {
    case op_func::kRead: return "read";
    case op_func::kWrite: return "write";
    case op_func::kCas: return "cas";
    case op_func::kAppend: return "append";
  }
  return nullptr;
}

bool op_phase_from_string(const char* s, std::uint8_t& out) noexcept {
  for (std::uint8_t p = 0; p < op_phase::kCount; ++p) {
    if (std::string(op_phase_name(p)) == s) {
      out = p;
      return true;
    }
  }
  return false;
}

bool op_func_from_string(const char* s, std::uint8_t& out) noexcept {
  for (std::uint8_t f = 0; f < op_func::kCount; ++f) {
    if (std::string(op_func_name(f)) == s) {
      out = f;
      return true;
    }
  }
  return false;
}

const char* decide_rule_name(std::uint8_t rule) noexcept {
  switch (rule) {
    case decide_rule::kForwarded: return "decide-forwarded";
    case decide_rule::kCommitQuorum: return "decide-commit-quorum";
    case decide_rule::kPaxosLearn: return "paxos-learn";
    case decide_rule::kPaxosChosen: return "paxos-chosen";
    case decide_rule::kSimulated: return "simulated-lm";
    default: return "none";
  }
}

namespace {

void append_field(std::string& s, const char* key, long long v) {
  s += ",\"";
  s += key;
  s += "\":";
  s += std::to_string(v);
}

void append_str_field(std::string& s, const char* key, const char* v) {
  s += ",\"";
  s += key;
  s += "\":\"";
  s += v;
  s += "\"";
}

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();

/// find_int, rejecting a value outside [lo, hi] (the range of the event
/// field it is stored in, so the narrowing cannot wrap).
std::optional<int> find_int_in(const JsonlLine& f, const std::string& key,
                               int lo, int hi) {
  const auto v = f.find_int(key);
  if (!v) return std::nullopt;
  if (*v < lo || *v > hi) {
    f.fail("'" + key + "' " + std::to_string(*v) + " out of range [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<int>(*v);
}

int require_int_in(const JsonlLine& f, const std::string& key, int lo,
                   int hi) {
  const auto v = find_int_in(f, key, lo, hi);
  if (!v) f.fail("missing field '" + key + "'");
  return *v;
}

std::optional<EventKind> kind_from_string(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(EventKind::kMetricsSnapshot); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (s == to_string(kind)) return kind;
  }
  return std::nullopt;
}

ProcessId check_pid(const JsonlLine& f, long long v, int n,
                    const char* what) {
  if (v < 0 || v >= n) f.fail(std::string(what) + " out of range");
  return static_cast<ProcessId>(v);
}

}  // namespace

std::string to_jsonl(const TraceEvent& e) {
  std::string s = "{\"e\":\"";
  s += to_string(e.kind);
  s += "\"";
  append_field(s, "k", e.round);
  switch (e.kind) {
    case EventKind::kRoundStart:
    case EventKind::kRoundEnd:
      break;
    case EventKind::kMsgSent:
    case EventKind::kMsgTimely:
    case EventKind::kMsgLost:
      append_field(s, "s", e.src);
      append_field(s, "d", e.dst);
      break;
    case EventKind::kMsgLate:
      append_field(s, "s", e.src);
      append_field(s, "d", e.dst);
      append_field(s, "delay", e.delay);
      break;
    case EventKind::kOracleOutput:
      append_field(s, "p", e.proc);
      append_field(s, "ld", e.leader);
      break;
    case EventKind::kPredicateEval:
      append_field(s, "sat", e.sat);
      // Granular evaluations carry the per-link-class conformance bits;
      // homogeneous ones keep the sentinel and omit the field.
      if (e.csat != kTraceNoClassSat) append_field(s, "csat", e.csat);
      break;
    case EventKind::kDecide:
      append_field(s, "p", e.proc);
      append_field(s, "v", e.value);
      append_field(s, "rule", e.rule);
      break;
    case EventKind::kCrash:
      append_field(s, "p", e.proc);
      break;
    case EventKind::kFaultInjected:
      // "fk" is the FaultKind of fault/plan.hpp; the subject fields are
      // per kind and omitted at their sentinel (kNoProcess / 0) so the
      // encoding stays injective under the sentinel-default round-trip.
      append_field(s, "fk", e.rule);
      if (e.proc != kNoProcess) append_field(s, "p", e.proc);
      if (e.src != kNoProcess) append_field(s, "s", e.src);
      if (e.dst != kNoProcess) append_field(s, "d", e.dst);
      if (e.delay != 0) append_field(s, "delay", e.delay);
      break;
    case EventKind::kClientOp:
      // "k" above is the logical timestamp; "p" is the CLIENT id (its
      // own id space, deliberately not bounded by the header's n).
      // ph/f are strings so hand-written fixture histories read well;
      // args and result are omitted at the kNoValue sentinel.
      append_field(s, "p", e.proc);
      append_str_field(s, "ph", op_phase_name(e.op_phase));
      append_str_field(s, "f", op_func_name(e.op_func));
      append_field(s, "key", e.op_key);
      append_field(s, "id", e.op_id);
      if (e.arg != kNoValue) append_field(s, "a", e.arg);
      if (e.arg2 != kNoValue) append_field(s, "b", e.arg2);
      if (e.value != kNoValue) append_field(s, "v", e.value);
      break;
    case EventKind::kSpan: {
      // "k" above is the round the span belongs to (0 = round-free).
      // "pa" is omitted at 0 (root) and "t" below 0 (ids mode), keeping
      // the sentinel-default round-trip injective.
      append_field(s, "sp", static_cast<long long>(e.span_id));
      const char* sk = span_kind_name(e.span_kind);
      append_str_field(s, "sk", sk != nullptr ? sk : "unknown");
      const char* sph = span_phase_name(e.span_phase);
      append_str_field(s, "sph", sph != nullptr ? sph : "unknown");
      if (e.span_parent != 0) {
        append_field(s, "pa", static_cast<long long>(e.span_parent));
      }
      if (e.t_ns >= 0) append_field(s, "t", e.t_ns);
      break;
    }
    case EventKind::kMetricsSnapshot: {
      // "k" above is the snapshot sequence number. Quantiles are the
      // LogHistogram's deterministic bucket representatives, always
      // written (0 is a legal value, not a sentinel).
      const char* m = (e.op_key >= 0 && e.op_key < kSpanMetricCount)
                          ? kSpanMetricNames[e.op_key]
                          : "unknown";
      append_str_field(s, "m", m);
      append_field(s, "c", e.op_id);
      append_field(s, "p50", e.value);
      append_field(s, "p90", e.arg);
      append_field(s, "p99", e.arg2);
      append_field(s, "p999", e.t_ns);
      append_field(s, "max", static_cast<long long>(e.span_id));
      break;
    }
  }
  s += "}";
  return s;
}

void write_trace_header(std::ostream& out, int n) {
  out << "{\"schema\":\"timing-trace\",\"v\":" << kTraceSchemaVersion
      << ",\"n\":" << n << "}\n";
}

void write_trial(std::ostream& out, int trial_id,
                 const std::vector<TraceEvent>& events, int n) {
  out << "{\"e\":\"trial\",\"id\":" << trial_id;
  if (n > 0) out << ",\"n\":" << n;
  out << "}\n";
  for (const TraceEvent& e : events) out << to_jsonl(e) << "\n";
}

void write_trace(std::ostream& out, const std::vector<TrialTrace>& trials) {
  int n = 0;
  for (const TrialTrace& t : trials) n = std::max(n, t.n);
  write_trace_header(out, n);
  for (const TrialTrace& t : trials) {
    write_trial(out, t.id, t.events, t.n == n ? 0 : t.n);
  }
}

namespace {
/// Per-trial span lifecycle state for the structural checks below.
enum class SpanState : std::uint8_t { kBegun = 1, kEnded = 2 };
}  // namespace

ParsedTrace parse_trace(std::istream& in) {
  ParsedTrace trace;
  bool have_header = false;
  std::string line;
  std::size_t line_no = 0;
  // Span lifecycle per trial: every span id may begin once and end once,
  // and may not end before it begins. Reset at each trial marker.
  std::map<std::uint64_t, SpanState> span_state;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const JsonlLine f(line, "trace", line_no);
    if (line.front() != '{' || line.back() != '}') f.fail("not a JSON object");

    if (const auto schema = f.find_str("schema")) {
      if (*schema != "timing-trace") f.fail("unknown schema");
      if (have_header) f.fail("duplicate header");
      const long long v = f.require_int("v");
      if (v != kTraceSchemaVersion) {
        f.fail("unsupported schema version " + std::to_string(v));
      }
      const long long n = f.require_int("n");
      if (n < 2 || n > 100000) f.fail("implausible n");
      trace.version = static_cast<int>(v);
      trace.n = static_cast<int>(n);
      have_header = true;
      continue;
    }
    if (!have_header) f.fail("event before header");

    const auto name = f.find_str("e");
    if (!name) f.fail("missing event name");
    if (*name == "trial") {
      TrialTrace t;
      t.id = require_int_in(f, "id", kIntMin, kIntMax);
      if (const auto tn = f.find_int("n")) {
        if (*tn < 2 || *tn > trace.n) {
          f.fail("per-trial n out of range");
        }
        t.n = static_cast<int>(*tn);
      }
      trace.trials.push_back(std::move(t));
      span_state.clear();
      continue;
    }
    const auto kind = kind_from_string(*name);
    if (!kind) f.fail("unknown event '" + *name + "'");
    if (trace.trials.empty()) f.fail("event before first trial marker");
    const int cur_n =
        trace.trials.back().n > 0 ? trace.trials.back().n : trace.n;

    TraceEvent e;
    e.kind = *kind;
    e.round = require_int_in(f, "k", 0, kIntMax);
    switch (*kind) {
      case EventKind::kRoundStart:
      case EventKind::kRoundEnd:
        break;
      case EventKind::kMsgSent:
      case EventKind::kMsgTimely:
      case EventKind::kMsgLost:
        e.src = check_pid(f, f.require_int("s"), cur_n, "src");
        e.dst = check_pid(f, f.require_int("d"), cur_n, "dst");
        break;
      case EventKind::kMsgLate:
        e.src = check_pid(f, f.require_int("s"), cur_n, "src");
        e.dst = check_pid(f, f.require_int("d"), cur_n, "dst");
        e.delay = require_int_in(f, "delay", 1, kIntMax);
        break;
      case EventKind::kOracleOutput:
        e.proc = check_pid(f, f.require_int("p"), cur_n, "proc");
        e.leader = check_pid(f, f.require_int("ld"), cur_n, "leader");
        break;
      case EventKind::kPredicateEval: {
        const long long sat = f.require_int("sat");
        if (sat < 0 || sat >= (1 << kTraceNumModels)) {
          f.fail("sat mask out of range");
        }
        e.sat = static_cast<std::uint8_t>(sat);
        if (const auto csat = f.find_int("csat")) {
          if (*csat < 0 || *csat >= (1 << kTraceNumLinkClasses)) {
            f.fail("csat mask out of range");
          }
          e.csat = static_cast<std::uint8_t>(*csat);
        }
        break;
      }
      case EventKind::kDecide: {
        e.proc = check_pid(f, f.require_int("p"), cur_n, "proc");
        e.value = f.require_int("v");
        const long long rule = f.require_int("rule");
        if (rule < 0 || rule > 255) f.fail("rule out of range");
        e.rule = static_cast<std::uint8_t>(rule);
        break;
      }
      case EventKind::kCrash:
        e.proc = check_pid(f, f.require_int("p"), cur_n, "proc");
        break;
      case EventKind::kFaultInjected: {
        const long long fk = f.require_int("fk");
        if (fk < 1 || fk > 255) f.fail("fault kind out of range");
        e.rule = static_cast<std::uint8_t>(fk);
        if (const auto p = f.find_int("p")) {
          e.proc = check_pid(f, *p, cur_n, "proc");
        }
        if (const auto s_ = f.find_int("s")) {
          e.src = check_pid(f, *s_, cur_n, "src");
        }
        if (const auto d = f.find_int("d")) {
          e.dst = check_pid(f, *d, cur_n, "dst");
        }
        if (const auto dl = find_int_in(f, "delay", 1, kIntMax)) {
          e.delay = *dl;
        }
        break;
      }
      case EventKind::kClientOp: {
        // Clients live in their own id space (>= 0, not bounded by n).
        e.proc = require_int_in(f, "p", 0, kIntMax);
        const auto ph = f.find_str("ph");
        if (!ph || !op_phase_from_string(ph->c_str(), e.op_phase)) {
          f.fail("bad or missing op phase 'ph'");
        }
        const auto fn = f.find_str("f");
        if (!fn || !op_func_from_string(fn->c_str(), e.op_func)) {
          f.fail("bad or missing op function 'f'");
        }
        e.op_key = require_int_in(f, "key", 0, kIntMax);
        e.op_id = f.require_int("id");
        if (e.op_id < 0) f.fail("negative op id");
        if (const auto a = f.find_int("a")) e.arg = *a;
        if (const auto b = f.find_int("b")) e.arg2 = *b;
        if (const auto v = f.find_int("v")) e.value = *v;
        break;
      }
      case EventKind::kSpan: {
        const long long sp = f.require_int("sp");
        if (sp <= 0) f.fail("span id must be positive");
        e.span_id = static_cast<std::uint64_t>(sp);
        const auto sk = f.find_str("sk");
        if (!sk || !span_kind_from_string(sk->c_str(), e.span_kind)) {
          f.fail("bad or missing span kind 'sk'");
        }
        const auto sph = f.find_str("sph");
        if (!sph || !span_phase_from_string(sph->c_str(), e.span_phase)) {
          f.fail("bad or missing span phase 'sph'");
        }
        if (const auto pa = f.find_int("pa")) {
          if (*pa <= 0) f.fail("span parent must be positive");
          e.span_parent = static_cast<std::uint64_t>(*pa);
        }
        if (const auto t = f.find_int("t")) {
          if (*t < 0) f.fail("negative span timestamp");
          e.t_ns = *t;
        }
        if (e.span_phase == span_phase::kCause && e.span_parent == 0) {
          f.fail("cause edge without 'pa'");
        }
        // Lifecycle checks, line-accurate: a span begins at most once,
        // ends at most once, and never ends before it begins.
        if (e.span_phase == span_phase::kBegin) {
          if (!span_state.try_emplace(e.span_id, SpanState::kBegun).second) {
            f.fail("duplicate span begin for id " + std::to_string(sp));
          }
        } else if (e.span_phase == span_phase::kEnd) {
          const auto it = span_state.find(e.span_id);
          if (it == span_state.end()) {
            f.fail("span end before begin for id " + std::to_string(sp));
          }
          if (it->second == SpanState::kEnded) {
            f.fail("duplicate span end for id " + std::to_string(sp));
          }
          it->second = SpanState::kEnded;
        }
        break;
      }
      case EventKind::kMetricsSnapshot: {
        const auto m = f.find_str("m");
        int metric = -1;
        if (m) {
          for (int i = 0; i < kSpanMetricCount; ++i) {
            if (*m == kSpanMetricNames[i]) metric = i;
          }
        }
        if (metric < 0) f.fail("bad or missing metric name 'm'");
        e.op_key = metric;
        e.op_id = f.require_int("c");
        if (e.op_id < 1) f.fail("metrics count must be >= 1");
        const long long p50 = f.require_int("p50");
        const long long p90 = f.require_int("p90");
        const long long p99 = f.require_int("p99");
        const long long p999 = f.require_int("p999");
        const long long mx = f.require_int("max");
        if (p50 < 0 || p90 < 0 || p99 < 0 || p999 < 0 || mx < 0) {
          f.fail("negative metrics quantile");
        }
        if (p50 > p90 || p90 > p99 || p99 > p999 || p999 > mx) {
          f.fail("metrics quantiles not monotone");
        }
        e.value = p50;
        e.arg = p90;
        e.arg2 = p99;
        e.t_ns = p999;
        e.span_id = static_cast<std::uint64_t>(mx);
        break;
      }
    }
    trace.trials.back().events.push_back(e);
  }
  if (!have_header) throw std::runtime_error("trace: missing header line");
  if (trace.trials.empty()) throw std::runtime_error("trace: no trials");
  return trace;
}

ParsedTrace parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return parse_trace(in);
}

}  // namespace timing
