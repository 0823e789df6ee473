#include "util/perf_json.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/check.hpp"

namespace cpr::util {

namespace {

std::string json_escaped(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');  // control chars (incl. newlines): flatten
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Minimal strict scanner for the array-of-flat-objects subset the emitter
/// produces. Not a general JSON parser: values are strings or plain numbers,
/// which is the whole schema.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    CPR_CHECK_MSG(pos_ < text_.size(), "perf JSON truncated at offset " << pos_);
    return text_[pos_];
  }

  void expect(char c) {
    CPR_CHECK_MSG(peek() == c, "perf JSON: expected '" << c << "' at offset " << pos_
                                                       << ", got '" << text_[pos_] << "'");
    ++pos_;
  }

  bool consume_if(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (true) {
      CPR_CHECK_MSG(pos_ < text_.size(), "perf JSON: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        CPR_CHECK_MSG(pos_ < text_.size(), "perf JSON: dangling escape");
        out.push_back(text_[pos_++]);
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  double number_value() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    double value = 0.0;
    const auto result =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    CPR_CHECK_MSG(result.ec == std::errc{} && result.ptr == text_.data() + pos_ &&
                      pos_ > start,
                  "perf JSON: malformed number at offset " << start);
    return value;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

void write_perf_json(const std::string& path, const std::vector<PerfRecord>& records) {
  std::ofstream out(path);
  CPR_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    out << "  {\"suite\": \"" << json_escaped(record.suite) << "\", \"case\": \""
        << json_escaped(record.name) << "\", \"seconds\": ";
    out.precision(9);
    out << record.seconds << ", \"model_bytes\": " << record.model_bytes
        << ", \"quant_mode\": \"" << json_escaped(record.quant_mode) << "\"}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  CPR_CHECK_MSG(out.good(), "write to " << path << " failed");
}

std::vector<PerfRecord> parse_perf_json(const std::string& text) {
  Scanner scan(text);
  std::vector<PerfRecord> records;
  scan.expect('[');
  if (!scan.consume_if(']')) {
    while (true) {
      scan.expect('{');
      PerfRecord record;
      bool saw_suite = false, saw_case = false, saw_seconds = false, saw_bytes = false;
      if (!scan.consume_if('}')) {
        while (true) {
          const std::string key = scan.string_value();
          scan.expect(':');
          if (key == "suite") {
            record.suite = scan.string_value();
            saw_suite = true;
          } else if (key == "case") {
            record.name = scan.string_value();
            saw_case = true;
          } else if (key == "seconds") {
            record.seconds = scan.number_value();
            saw_seconds = true;
          } else if (key == "model_bytes") {
            const double bytes = scan.number_value();
            // Guard the double→size_t cast: out-of-range is UB, and the
            // parser's contract is a clean CheckError on any bad value.
            CPR_CHECK_MSG(bytes >= 0.0 && bytes < 9.2e18,
                          "perf JSON: model_bytes out of range");
            record.model_bytes = static_cast<std::size_t>(bytes);
            saw_bytes = true;
          } else if (key == "quant_mode") {
            // Optional (pre-quantization baselines lack it; the default is
            // "fp64"), but when present it must be a known mode.
            record.quant_mode = scan.string_value();
            CPR_CHECK_MSG(record.quant_mode == "fp64" || record.quant_mode == "fp32" ||
                              record.quant_mode == "fp16" || record.quant_mode == "int8",
                          "perf JSON: unknown quant_mode '" << record.quant_mode << "'");
          } else {
            CPR_CHECK_MSG(false, "perf JSON: unknown key '" << key << "'");
          }
          if (!scan.consume_if(',')) break;
        }
        scan.expect('}');
      }
      CPR_CHECK_MSG(saw_suite && saw_case && saw_seconds && saw_bytes,
                    "perf JSON: record missing a required field "
                    "(suite/case/seconds/model_bytes)");
      records.push_back(std::move(record));
      if (!scan.consume_if(',')) break;
    }
    scan.expect(']');
  }
  CPR_CHECK_MSG(scan.at_end(), "perf JSON: trailing content after the record array");
  return records;
}

std::vector<PerfRecord> parse_perf_json_file(const std::string& path) {
  std::ifstream in(path);
  CPR_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  CPR_CHECK_MSG(!in.bad(), "read from " << path << " failed");
  return parse_perf_json(buffer.str());
}

PerfDiff diff_perf(const std::vector<PerfRecord>& current,
                   const std::vector<PerfRecord>& baseline, double threshold) {
  std::map<std::pair<std::string, std::string>, const PerfRecord*> reference;
  for (const auto& record : baseline) {
    reference[{record.suite, record.name}] = &record;
  }
  PerfDiff diff;
  for (const auto& record : current) {
    PerfDelta delta;
    delta.suite = record.suite;
    delta.name = record.name;
    delta.seconds = record.seconds;
    const auto it = reference.find({record.suite, record.name});
    if (it != reference.end()) {
      delta.in_baseline = true;
      delta.baseline_seconds = it->second->seconds;
      delta.ratio = delta.baseline_seconds > 0.0
                        ? delta.seconds / delta.baseline_seconds
                        : 1.0;
      delta.regression = delta.ratio > 1.0 + threshold;
      if (delta.regression) ++diff.regressions;
      reference.erase(it);
    }
    diff.deltas.push_back(std::move(delta));
  }
  std::set<std::string> suites_run;
  for (const auto& record : current) suites_run.insert(record.suite);
  for (const auto& record : baseline) {
    if (!reference.count({record.suite, record.name})) continue;
    (suites_run.count(record.suite) ? diff.dropped : diff.missing).push_back(record);
  }
  return diff;
}

}  // namespace cpr::util
