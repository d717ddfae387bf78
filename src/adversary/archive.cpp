#include "adversary/archive.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/parse.hpp"
#include "fault/parser.hpp"

namespace timing::adversary {

namespace {

constexpr const char* kMagic = "# adversary v1";

/// key=value tokens of one header comment line (after "# ").
void parse_pairs(const std::string& line,
                 std::vector<std::pair<std::string, std::string>>& out) {
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    out.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
}

}  // namespace

ArchiveEntry make_archive_entry(const Candidate& c, const Fitness& f,
                                const EvalConfig& eval) {
  ArchiveEntry e;
  e.eval = eval;
  e.candidate = c;
  e.verdict = verdict_string(f);
  e.delay = f.delay;
  e.decision_round = f.decision_round;
  e.score = f.score;
  return e;
}

std::string entry_stem(const ArchiveEntry& e) {
  std::ostringstream os;
  os << algorithm_key(e.eval.algorithm) << "-" << std::hex
     << candidate_hash(e.candidate);
  return os.str();
}

std::string format_archive_entry(const ArchiveEntry& e) {
  std::ostringstream os;
  os << kMagic << "\n";
  os << "# algorithm=" << algorithm_key(e.eval.algorithm) << " n=" << e.eval.n
     << " leader=" << e.eval.leader
     << " pre_gsr_p=" << format_double(e.eval.pre_gsr_p)
     << " eval_seed=" << e.eval.eval_seed << " samples=" << e.eval.samples
     << " min_rounds=" << e.eval.min_rounds << "\n";
  os << "# link_models=" << e.candidate.link_models.spec() << "\n";
  os << "# verdict=" << e.verdict << " delay=" << format_double(e.delay)
     << " decision_round=" << e.decision_round
     << " score=" << format_double(e.score) << "\n";
  os << e.candidate.plan.spec();
  return os.str();
}

bool is_archive_text(const std::string& text) {
  return text.rfind(kMagic, 0) == 0;
}

std::string parse_archive_entry(const std::string& text, ArchiveEntry& out) {
  if (!is_archive_text(text)) return "missing '# adversary v1' header";
  ArchiveEntry e;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::istringstream is(text);
  std::string line;
  std::string link_models_spec = "sync:all";
  while (std::getline(is, line)) {
    if (line.rfind("# link_models=", 0) == 0) {
      link_models_spec = line.substr(std::string("# link_models=").size());
    } else if (line.rfind("# ", 0) == 0) {
      parse_pairs(line.substr(2), pairs);
    }
  }
  bool have_algorithm = false;
  bool have_seed = false;
  for (const auto& [key, value] : pairs) {
    if (key == "algorithm") {
      if (!parse_algorithm_kind(value, e.eval.algorithm)) {
        return "unknown algorithm '" + value + "'";
      }
      have_algorithm = true;
    } else if (key == "n") {
      if (!parse_int(value, e.eval.n)) return "bad n '" + value + "'";
    } else if (key == "leader") {
      int v = 0;
      if (!parse_int(value, v)) return "bad leader '" + value + "'";
      e.eval.leader = static_cast<ProcessId>(v);
    } else if (key == "pre_gsr_p") {
      if (!parse_double(value, e.eval.pre_gsr_p)) {
        return "bad pre_gsr_p '" + value + "'";
      }
    } else if (key == "eval_seed") {
      try {
        e.eval.eval_seed = std::stoull(value);
      } catch (...) {
        return "bad eval_seed '" + value + "'";
      }
      have_seed = true;
    } else if (key == "samples") {
      if (!parse_int(value, e.eval.samples)) {
        return "bad samples '" + value + "'";
      }
    } else if (key == "min_rounds") {
      if (!parse_int(value, e.eval.min_rounds)) {
        return "bad min_rounds '" + value + "'";
      }
    } else if (key == "verdict") {
      e.verdict = value;
    } else if (key == "delay") {
      if (!parse_double(value, e.delay)) return "bad delay '" + value + "'";
    } else if (key == "decision_round") {
      int v = 0;
      if (!parse_int(value, v)) return "bad decision_round '" + value + "'";
      e.decision_round = v;
    } else if (key == "score") {
      if (!parse_double(value, e.score)) return "bad score '" + value + "'";
    }
  }
  if (!have_algorithm || !have_seed || e.verdict.empty()) {
    return "header must record algorithm, eval_seed and verdict";
  }
  if (e.eval.n < 3) return "n must be >= 3";

  const fault::ParseResult pr = fault::parse_fault_plan(text);
  if (!pr.ok()) return "bad plan: " + pr.error;
  e.candidate.plan = pr.plan;
  const std::string verr =
      fault::validate(e.candidate.plan, e.eval.n, e.eval.leader);
  if (!verr.empty()) return "invalid plan: " + verr;
  const std::string lerr =
      parse_link_models(link_models_spec, e.eval.n, e.candidate.link_models);
  if (!lerr.empty()) return lerr;
  out = std::move(e);
  return "";
}

std::string write_archive_entry(const std::string& dir, const ArchiveEntry& e,
                                std::string* path_out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "cannot create " + dir + ": " + ec.message();
  ArchiveEntry named = e;
  named.name = entry_stem(e);
  const std::filesystem::path path =
      std::filesystem::path(dir) / (named.name + ".plan");
  std::ofstream file(path);
  if (!file) return "cannot write " + path.string();
  file << format_archive_entry(named) << "\n";
  if (!file.good()) return "write failed: " + path.string();
  if (path_out != nullptr) *path_out = path.string();
  return "";
}

std::string load_archive(const std::string& dir,
                         std::vector<ArchiveEntry>& out) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return "cannot read " + dir + ": " + ec.message();
  std::vector<std::filesystem::path> files;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".plan") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<ArchiveEntry> entries;
  for (const auto& path : files) {
    std::ifstream file(path);
    if (!file) return "cannot open " + path.string();
    std::ostringstream text;
    text << file.rdbuf();
    ArchiveEntry e;
    const std::string err = parse_archive_entry(text.str(), e);
    if (!err.empty()) return path.filename().string() + ": " + err;
    e.name = path.stem().string();
    entries.push_back(std::move(e));
  }
  out = std::move(entries);
  return "";
}

}  // namespace timing::adversary
