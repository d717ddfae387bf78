#include "scenario/results.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "common/parse.hpp"

namespace timing::scenario {

namespace {

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_string_array(std::ostream& out,
                        const std::vector<std::string>& vals) {
  out << '[';
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i) out << ',';
    out << '"' << escape_json(vals[i]) << '"';
  }
  out << ']';
}

std::vector<std::string> require_string_array(const JsonlLine& f,
                                              const std::string& key) {
  const std::string& line = f.text();
  const std::string needle = "\"" + key + "\":[";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) f.fail("missing field '" + key + "'");
  std::size_t at = pos + needle.size();
  std::vector<std::string> out;
  if (at < line.size() && line[at] == ']') return out;
  while (true) {
    out.push_back(f.read_string(at));
    if (at >= line.size()) f.fail("unterminated array");
    if (line[at] == ']') break;
    if (line[at] != ',') f.fail("expected ',' or ']' in array");
    ++at;
  }
  return out;
}

}  // namespace

ResultWriter::ResultWriter(std::ostream& out, const std::string& scenario_name)
    : out_(out) {
  out_ << "{\"schema\":\"timing-lab-results\",\"v\":" << kResultsSchemaVersion
       << ",\"scenario\":\"" << escape_json(scenario_name) << "\"}\n";
}

void ResultWriter::add_table(const std::string& caption,
                             const std::vector<std::string>& cols,
                             const std::vector<std::vector<std::string>>& rows) {
  if (finished_) {
    throw std::logic_error("ResultWriter::add_table after finish");
  }
  const int id = tables_++;
  out_ << "{\"e\":\"table\",\"id\":" << id << ",\"caption\":\""
       << escape_json(caption) << "\",\"cols\":";
  write_string_array(out_, cols);
  out_ << "}\n";
  for (const auto& row : rows) {
    out_ << "{\"e\":\"row\",\"id\":" << id << ",\"v\":";
    write_string_array(out_, row);
    out_ << "}\n";
    ++rows_;
  }
}

void ResultWriter::finish() {
  if (finished_) return;
  finished_ = true;
  out_ << "{\"e\":\"end\",\"tables\":" << tables_ << ",\"rows\":" << rows_
       << "}\n";
  out_.flush();
}

long long ParsedResults::total_rows() const noexcept {
  long long n = 0;
  for (const ResultTable& t : tables) {
    n += static_cast<long long>(t.rows.size());
  }
  return n;
}

ParsedResults parse_results(std::istream& in) {
  ParsedResults res;
  bool have_header = false;
  bool have_end = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const JsonlLine f(line, "results", line_no);
    if (have_end) f.fail("content after end marker");
    if (line.front() != '{' || line.back() != '}') f.fail("not a JSON object");

    if (const auto schema = f.find_str("schema")) {
      if (*schema != "timing-lab-results") f.fail("unknown schema");
      if (have_header) f.fail("duplicate header");
      const long long v = f.require_int("v");
      if (v != kResultsSchemaVersion) {
        f.fail("unsupported schema version " + std::to_string(v));
      }
      const auto name = f.find_str("scenario");
      if (!name || name->empty()) f.fail("missing scenario name");
      res.version = static_cast<int>(v);
      res.scenario = *name;
      have_header = true;
      continue;
    }
    if (!have_header) f.fail("record before header");

    const auto kind = f.find_str("e");
    if (!kind) f.fail("missing record kind");
    if (*kind == "table") {
      const long long id = f.require_int("id");
      if (id != static_cast<long long>(res.tables.size())) {
        f.fail("table ids must be declared sequentially from 0");
      }
      ResultTable t;
      t.id = static_cast<int>(id);
      const auto caption = f.find_str("caption");
      if (!caption) f.fail("missing field 'caption'");
      t.caption = *caption;
      t.cols = require_string_array(f, "cols");
      if (t.cols.empty()) f.fail("table with no columns");
      res.tables.push_back(std::move(t));
    } else if (*kind == "row") {
      const long long id = f.require_int("id");
      if (id < 0 || id >= static_cast<long long>(res.tables.size())) {
        f.fail("row for undeclared table");
      }
      auto row = require_string_array(f, "v");
      ResultTable& t = res.tables[static_cast<std::size_t>(id)];
      if (row.size() != t.cols.size()) {
        f.fail("row arity != column count");
      }
      t.rows.push_back(std::move(row));
    } else if (*kind == "end") {
      const long long tables = f.require_int("tables");
      const long long rows = f.require_int("rows");
      if (tables != static_cast<long long>(res.tables.size())) {
        f.fail("end marker table count mismatch");
      }
      if (rows != res.total_rows()) {
        f.fail("end marker row count mismatch");
      }
      have_end = true;
    } else {
      f.fail("unknown record '" + *kind + "'");
    }
  }
  if (!have_header) throw std::runtime_error("results: missing header line");
  if (!have_end) throw std::runtime_error("results: missing end marker");
  return res;
}

ParsedResults parse_results_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open results file: " + path);
  return parse_results(in);
}

}  // namespace timing::scenario
