#include "obs/jsonl.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

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

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("trace line " + std::to_string(line_no) + ": " +
                           why);
}

/// Extract an integer field `"key":<int>` from a flat one-line JSON
/// object. Returns nullopt when absent.
std::optional<long long> find_int(const std::string& line,
                                  const std::string& key, std::size_t line_no) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(start, &end, 10);
  if (end == start || errno != 0) fail(line_no, "bad integer for '" + key + "'");
  return v;
}

long long require_int(const std::string& line, const std::string& key,
                      std::size_t line_no) {
  const auto v = find_int(line, key, line_no);
  if (!v) fail(line_no, "missing field '" + key + "'");
  return *v;
}

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();

/// find_int, rejecting a value outside [lo, hi] (the range of the event
/// field it is stored in, so the narrowing cannot wrap).
std::optional<int> find_int_in(const std::string& line, const std::string& key,
                               int lo, int hi, std::size_t line_no) {
  const auto v = find_int(line, key, line_no);
  if (!v) return std::nullopt;
  if (*v < lo || *v > hi) {
    fail(line_no, "'" + key + "' " + std::to_string(*v) + " out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<int>(*v);
}

int require_int_in(const std::string& line, const std::string& key, int lo,
                   int hi, std::size_t line_no) {
  const auto v = find_int_in(line, key, lo, hi, line_no);
  if (!v) fail(line_no, "missing field '" + key + "'");
  return *v;
}

/// Extract a string field `"key":"<value>"`.
std::optional<std::string> find_str(const std::string& line,
                                    const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const auto start = pos + needle.size();
  const auto close = line.find('"', start);
  if (close == std::string::npos) return std::nullopt;
  return line.substr(start, close - start);
}

std::optional<EventKind> kind_from_string(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(EventKind::kMetricsSnapshot); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (s == to_string(kind)) return kind;
  }
  return std::nullopt;
}

ProcessId check_pid(long long v, int n, const char* what,
                    std::size_t line_no) {
  if (v < 0 || v >= n) fail(line_no, std::string(what) + " out of range");
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
    if (line.front() != '{' || line.back() != '}') {
      fail(line_no, "not a JSON object");
    }

    if (const auto schema = find_str(line, "schema")) {
      if (*schema != "timing-trace") fail(line_no, "unknown schema");
      if (have_header) fail(line_no, "duplicate header");
      const long long v = require_int(line, "v", line_no);
      if (v != kTraceSchemaVersion) {
        fail(line_no, "unsupported schema version " + std::to_string(v));
      }
      const long long n = require_int(line, "n", line_no);
      if (n < 2 || n > 100000) fail(line_no, "implausible n");
      trace.version = static_cast<int>(v);
      trace.n = static_cast<int>(n);
      have_header = true;
      continue;
    }
    if (!have_header) fail(line_no, "event before header");

    const auto name = find_str(line, "e");
    if (!name) fail(line_no, "missing event name");
    if (*name == "trial") {
      TrialTrace t;
      t.id = require_int_in(line, "id", kIntMin, kIntMax, line_no);
      if (const auto tn = find_int(line, "n", line_no)) {
        if (*tn < 2 || *tn > trace.n) {
          fail(line_no, "per-trial n out of range");
        }
        t.n = static_cast<int>(*tn);
      }
      trace.trials.push_back(std::move(t));
      span_state.clear();
      continue;
    }
    const auto kind = kind_from_string(*name);
    if (!kind) fail(line_no, "unknown event '" + *name + "'");
    if (trace.trials.empty()) fail(line_no, "event before first trial marker");
    const int cur_n =
        trace.trials.back().n > 0 ? trace.trials.back().n : trace.n;

    TraceEvent e;
    e.kind = *kind;
    e.round = require_int_in(line, "k", 0, kIntMax, line_no);
    switch (*kind) {
      case EventKind::kRoundStart:
      case EventKind::kRoundEnd:
        break;
      case EventKind::kMsgSent:
      case EventKind::kMsgTimely:
      case EventKind::kMsgLost:
        e.src = check_pid(require_int(line, "s", line_no), cur_n, "src",
                          line_no);
        e.dst = check_pid(require_int(line, "d", line_no), cur_n, "dst",
                          line_no);
        break;
      case EventKind::kMsgLate:
        e.src = check_pid(require_int(line, "s", line_no), cur_n, "src",
                          line_no);
        e.dst = check_pid(require_int(line, "d", line_no), cur_n, "dst",
                          line_no);
        e.delay = require_int_in(line, "delay", 1, kIntMax, line_no);
        break;
      case EventKind::kOracleOutput:
        e.proc = check_pid(require_int(line, "p", line_no), cur_n, "proc",
                           line_no);
        e.leader = check_pid(require_int(line, "ld", line_no), cur_n,
                             "leader", line_no);
        break;
      case EventKind::kPredicateEval: {
        const long long sat = require_int(line, "sat", line_no);
        if (sat < 0 || sat >= (1 << kTraceNumModels)) {
          fail(line_no, "sat mask out of range");
        }
        e.sat = static_cast<std::uint8_t>(sat);
        if (const auto csat = find_int(line, "csat", line_no)) {
          if (*csat < 0 || *csat >= (1 << kTraceNumLinkClasses)) {
            fail(line_no, "csat mask out of range");
          }
          e.csat = static_cast<std::uint8_t>(*csat);
        }
        break;
      }
      case EventKind::kDecide: {
        e.proc = check_pid(require_int(line, "p", line_no), cur_n, "proc",
                           line_no);
        e.value = require_int(line, "v", line_no);
        const long long rule = require_int(line, "rule", line_no);
        if (rule < 0 || rule > 255) fail(line_no, "rule out of range");
        e.rule = static_cast<std::uint8_t>(rule);
        break;
      }
      case EventKind::kCrash:
        e.proc = check_pid(require_int(line, "p", line_no), cur_n, "proc",
                           line_no);
        break;
      case EventKind::kFaultInjected: {
        const long long fk = require_int(line, "fk", line_no);
        if (fk < 1 || fk > 255) fail(line_no, "fault kind out of range");
        e.rule = static_cast<std::uint8_t>(fk);
        if (const auto p = find_int(line, "p", line_no)) {
          e.proc = check_pid(*p, cur_n, "proc", line_no);
        }
        if (const auto s_ = find_int(line, "s", line_no)) {
          e.src = check_pid(*s_, cur_n, "src", line_no);
        }
        if (const auto d = find_int(line, "d", line_no)) {
          e.dst = check_pid(*d, cur_n, "dst", line_no);
        }
        if (const auto dl = find_int_in(line, "delay", 1, kIntMax, line_no)) {
          e.delay = *dl;
        }
        break;
      }
      case EventKind::kClientOp: {
        // Clients live in their own id space (>= 0, not bounded by n).
        e.proc = require_int_in(line, "p", 0, kIntMax, line_no);
        const auto ph = find_str(line, "ph");
        if (!ph || !op_phase_from_string(ph->c_str(), e.op_phase)) {
          fail(line_no, "bad or missing op phase 'ph'");
        }
        const auto f = find_str(line, "f");
        if (!f || !op_func_from_string(f->c_str(), e.op_func)) {
          fail(line_no, "bad or missing op function 'f'");
        }
        e.op_key = require_int_in(line, "key", 0, kIntMax, line_no);
        e.op_id = require_int(line, "id", line_no);
        if (e.op_id < 0) fail(line_no, "negative op id");
        if (const auto a = find_int(line, "a", line_no)) e.arg = *a;
        if (const auto b = find_int(line, "b", line_no)) e.arg2 = *b;
        if (const auto v = find_int(line, "v", line_no)) e.value = *v;
        break;
      }
      case EventKind::kSpan: {
        const long long sp = require_int(line, "sp", line_no);
        if (sp <= 0) fail(line_no, "span id must be positive");
        e.span_id = static_cast<std::uint64_t>(sp);
        const auto sk = find_str(line, "sk");
        if (!sk || !span_kind_from_string(sk->c_str(), e.span_kind)) {
          fail(line_no, "bad or missing span kind 'sk'");
        }
        const auto sph = find_str(line, "sph");
        if (!sph || !span_phase_from_string(sph->c_str(), e.span_phase)) {
          fail(line_no, "bad or missing span phase 'sph'");
        }
        if (const auto pa = find_int(line, "pa", line_no)) {
          if (*pa <= 0) fail(line_no, "span parent must be positive");
          e.span_parent = static_cast<std::uint64_t>(*pa);
        }
        if (const auto t = find_int(line, "t", line_no)) {
          if (*t < 0) fail(line_no, "negative span timestamp");
          e.t_ns = *t;
        }
        if (e.span_phase == span_phase::kCause && e.span_parent == 0) {
          fail(line_no, "cause edge without 'pa'");
        }
        // Lifecycle checks, line-accurate: a span begins at most once,
        // ends at most once, and never ends before it begins.
        if (e.span_phase == span_phase::kBegin) {
          if (!span_state.try_emplace(e.span_id, SpanState::kBegun).second) {
            fail(line_no,
                 "duplicate span begin for id " + std::to_string(sp));
          }
        } else if (e.span_phase == span_phase::kEnd) {
          const auto it = span_state.find(e.span_id);
          if (it == span_state.end()) {
            fail(line_no,
                 "span end before begin for id " + std::to_string(sp));
          }
          if (it->second == SpanState::kEnded) {
            fail(line_no, "duplicate span end for id " + std::to_string(sp));
          }
          it->second = SpanState::kEnded;
        }
        break;
      }
      case EventKind::kMetricsSnapshot: {
        const auto m = find_str(line, "m");
        int metric = -1;
        if (m) {
          for (int i = 0; i < kSpanMetricCount; ++i) {
            if (*m == kSpanMetricNames[i]) metric = i;
          }
        }
        if (metric < 0) fail(line_no, "bad or missing metric name 'm'");
        e.op_key = metric;
        e.op_id = require_int(line, "c", line_no);
        if (e.op_id < 1) fail(line_no, "metrics count must be >= 1");
        const long long p50 = require_int(line, "p50", line_no);
        const long long p90 = require_int(line, "p90", line_no);
        const long long p99 = require_int(line, "p99", line_no);
        const long long p999 = require_int(line, "p999", line_no);
        const long long mx = require_int(line, "max", line_no);
        if (p50 < 0 || p90 < 0 || p99 < 0 || p999 < 0 || mx < 0) {
          fail(line_no, "negative metrics quantile");
        }
        if (p50 > p90 || p90 > p99 || p99 > p999 || p999 > mx) {
          fail(line_no, "metrics quantiles not monotone");
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
