#include "fault/plan.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>

#include "common/parse.hpp"

namespace timing::fault {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kSuppressLeader: return "suppress_leader";
    case FaultKind::kGsr: return "gsr";
  }
  return "?";
}

namespace {

std::string endpoint(ProcessId p) {
  return p == kNoProcess ? "*" : std::to_string(p);
}

}  // namespace

std::string FaultEvent::spec() const {
  std::ostringstream os;
  switch (kind) {
    case FaultKind::kCrash:
    case FaultKind::kRecover:
      os << to_string(kind) << " " << proc << " @" << from;
      break;
    case FaultKind::kPartition: {
      os << "partition ";
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (g) os << "|";
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
          if (i) os << ",";
          os << groups[g][i];
        }
      }
      os << " @" << from << ".." << to;
      break;
    }
    case FaultKind::kDrop:
      os << "drop " << endpoint(src) << "->" << endpoint(dst) << " @" << from
         << ".." << to;
      if (prob < 1.0) os << " p=" << format_double(prob);
      break;
    case FaultKind::kDelay:
      os << "delay " << endpoint(src) << "->" << endpoint(dst) << " +"
         << format_double(extra_ms) << "ms @" << from << ".." << to;
      break;
    case FaultKind::kSuppressLeader:
      os << "suppress_leader @" << from << ".." << to;
      break;
    case FaultKind::kGsr:
      os << "gsr @" << from;
      break;
  }
  return os.str();
}

std::string FaultPlan::spec() const {
  std::string out;
  for (const FaultEvent& e : events) {
    out += e.spec();
    out += "\n";
  }
  return out;
}

std::string inline_spec(const FaultPlan& plan) {
  std::string out;
  for (const FaultEvent& e : plan.events) {
    out += e.spec();
    out += "; ";
  }
  return out;
}

namespace {

bool windowed(FaultKind k) noexcept {
  return k == FaultKind::kPartition || k == FaultKind::kDrop ||
         k == FaultKind::kDelay || k == FaultKind::kSuppressLeader;
}

std::string event_err(std::size_t i, const FaultEvent& e,
                      const std::string& why) {
  return "event " + std::to_string(i + 1) + " (" + e.spec() + "): " + why;
}

}  // namespace

std::string validate(const FaultPlan& plan, int n, ProcessId leader) {
  if (n < 2) return "plan needs a group of n >= 2 processes";
  auto pid_ok = [&](ProcessId p) { return p >= 0 && p < n; };

  // Crash state machine per process: round of the open crash, or -1.
  std::vector<Round> open_crash(static_cast<std::size_t>(n), -1);
  std::vector<bool> dead(static_cast<std::size_t>(n), false);
  bool saw_gsr = false;

  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& e = plan.events[i];
    if (saw_gsr) return event_err(i, e, "events after the gsr marker");

    if (windowed(e.kind)) {
      if (e.from < 1) return event_err(i, e, "windows start at round 1");
      if (e.to <= e.from) {
        return event_err(i, e, "window [from, to) must be non-empty");
      }
    } else {
      if (e.from < 1) return event_err(i, e, "rounds start at 1");
    }

    switch (e.kind) {
      case FaultKind::kCrash: {
        if (!pid_ok(e.proc)) return event_err(i, e, "process out of range");
        auto& open = open_crash[static_cast<std::size_t>(e.proc)];
        if (open >= 0 || dead[static_cast<std::size_t>(e.proc)]) {
          return event_err(i, e, "process is already crashed");
        }
        open = e.from;
        dead[static_cast<std::size_t>(e.proc)] = true;
        break;
      }
      case FaultKind::kRecover: {
        if (!pid_ok(e.proc)) return event_err(i, e, "process out of range");
        auto& open = open_crash[static_cast<std::size_t>(e.proc)];
        if (open < 0) {
          return event_err(i, e, "recover without a preceding crash");
        }
        if (e.from <= open) {
          return event_err(i, e, "recover must come after its crash round");
        }
        open = -1;
        dead[static_cast<std::size_t>(e.proc)] = false;
        break;
      }
      case FaultKind::kPartition: {
        if (e.groups.size() < 2) {
          return event_err(i, e, "partition needs at least two groups");
        }
        std::set<ProcessId> seen;
        for (const auto& g : e.groups) {
          if (g.empty()) return event_err(i, e, "empty partition group");
          for (ProcessId p : g) {
            if (!pid_ok(p)) return event_err(i, e, "process out of range");
            if (!seen.insert(p).second) {
              return event_err(i, e, "process listed in two groups");
            }
          }
        }
        break;
      }
      case FaultKind::kDrop:
      case FaultKind::kDelay:
        if (e.src != kNoProcess && !pid_ok(e.src)) {
          return event_err(i, e, "src out of range");
        }
        if (e.dst != kNoProcess && !pid_ok(e.dst)) {
          return event_err(i, e, "dst out of range");
        }
        if (e.src != kNoProcess && e.src == e.dst) {
          return event_err(i, e, "src and dst must differ (self links are "
                                 "always timely)");
        }
        if (e.kind == FaultKind::kDrop && (e.prob < 0.0 || e.prob > 1.0)) {
          return event_err(i, e, "drop probability must be in [0, 1]");
        }
        if (e.kind == FaultKind::kDelay && e.extra_ms <= 0.0) {
          return event_err(i, e, "delay must be positive");
        }
        break;
      case FaultKind::kSuppressLeader:
        break;
      case FaultKind::kGsr:
        saw_gsr = true;
        break;
    }
  }

  if (saw_gsr != (plan.gsr >= 1)) {
    return "plan.gsr does not match the gsr marker event";
  }
  if (plan.gsr >= 1) {
    // Nothing the plan injects may outlive stabilization: from the gsr
    // round on, only processes that crashed for good (and thus are not
    // "correct") may still be unheard from.
    for (std::size_t i = 0; i + 1 < plan.events.size(); ++i) {
      const FaultEvent& e = plan.events[i];
      if (windowed(e.kind) && e.to > plan.gsr) {
        return event_err(i, e, "window extends past the gsr marker");
      }
      if (e.kind == FaultKind::kCrash && e.from >= plan.gsr) {
        return event_err(i, e, "crash at or after the gsr marker");
      }
      if (e.kind == FaultKind::kRecover && e.from > plan.gsr) {
        return event_err(i, e, "recovery after the gsr marker");
      }
    }
    // Post-gsr conformance needs a correct leader and a correct majority.
    int permanently_dead = 0;
    for (ProcessId p = 0; p < n; ++p) {
      if (open_crash[static_cast<std::size_t>(p)] < 0) continue;
      ++permanently_dead;
      if (p == leader) {
        return "the leader (" + std::to_string(leader) +
               ") crashes without recovering; post-gsr rounds cannot "
               "conform to a leader-based model";
      }
    }
    if (n - permanently_dead < majority_size(n)) {
      return "permanent crashes leave no correct majority (" +
             std::to_string(n - permanently_dead) + " of " +
             std::to_string(n) + " alive)";
    }
  }
  return "";
}

std::vector<Round> crash_rounds(const FaultPlan& plan, int n) {
  std::vector<Round> at(static_cast<std::size_t>(n), 0);
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::kCrash) {
      at[static_cast<std::size_t>(e.proc)] = e.from;
    } else if (e.kind == FaultKind::kRecover) {
      at[static_cast<std::size_t>(e.proc)] = 0;
    }
  }
  return at;
}

std::string timeline(const FaultPlan& plan) {
  std::vector<std::size_t> order(plan.events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plan.events[a].from < plan.events[b].from;
                   });
  std::string out;
  for (std::size_t i : order) {
    const FaultEvent& e = plan.events[i];
    std::string when =
        windowed(e.kind)
            ? "rounds " + std::to_string(e.from) + ".." +
                  std::to_string(e.to - 1)
            : "round  " + std::to_string(e.from);
    if (when.size() < 15) when.resize(15, ' ');
    out += "  " + when + " " + e.spec() + "\n";
  }
  return out;
}

bool structurally_equal(const FaultPlan& a, const FaultPlan& b) noexcept {
  return a.gsr == b.gsr && a.events == b.events;
}

namespace {

void hash_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  // FNV-1a over the value's 8 bytes, little-endian by construction.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

std::uint64_t double_bits(double d) noexcept {
  // +0.0 and -0.0 compare equal but differ in bits; canonicalize so
  // structurally_equal plans always hash identically.
  if (d == 0.0) d = 0.0;
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

std::uint64_t plan_hash(const FaultPlan& plan) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  hash_mix(h, static_cast<std::uint64_t>(plan.gsr) + 1);
  for (const FaultEvent& e : plan.events) {
    hash_mix(h, static_cast<std::uint64_t>(e.kind));
    hash_mix(h, static_cast<std::uint64_t>(e.proc) + 1);
    hash_mix(h, static_cast<std::uint64_t>(e.src) + 1);
    hash_mix(h, static_cast<std::uint64_t>(e.dst) + 1);
    hash_mix(h, static_cast<std::uint64_t>(e.from));
    hash_mix(h, static_cast<std::uint64_t>(e.to));
    hash_mix(h, double_bits(e.prob));
    hash_mix(h, double_bits(e.extra_ms));
    hash_mix(h, e.groups.size());
    for (const auto& g : e.groups) {
      hash_mix(h, g.size());
      for (ProcessId p : g) hash_mix(h, static_cast<std::uint64_t>(p) + 1);
    }
  }
  return h;
}

int min_processes(const FaultPlan& plan) noexcept {
  ProcessId max_pid = 1;  // n >= 2 always
  for (const FaultEvent& e : plan.events) {
    max_pid = std::max({max_pid, e.proc, e.src, e.dst});
    for (const auto& g : e.groups) {
      for (ProcessId p : g) max_pid = std::max(max_pid, p);
    }
  }
  return max_pid + 1;
}

}  // namespace timing::fault
