#pragma once
// The original request parser, kept only as an oracle for
// serve::parse_request: istringstream tokenization, then
// common::split_fields + common::parse_number (std::stod) for the value
// lists. The production parser must accept and reject exactly the same
// lines, return bitwise-equal values, and word every error the same way.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/dataset_io.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"

namespace cpr::reference {

inline std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) tokens.push_back(std::move(token));
  return tokens;
}

inline void expect_arity(const std::vector<std::string>& tokens, std::size_t expected) {
  CPR_CHECK_MSG(tokens.size() == expected,
                "request '" << tokens.front() << "' takes " << expected - 1
                            << " argument(s), got " << tokens.size() - 1);
}

inline serve::Request parse_request(const std::string& line) {
  using serve::RequestKind;
  const auto tokens = tokenize(line);
  CPR_CHECK_MSG(!tokens.empty(), "empty request");
  const std::string& command = tokens.front();

  serve::Request request;
  if (command == "PREDICT" || command == "OBSERVE") {
    const bool observe = command == "OBSERVE";
    expect_arity(tokens, observe ? 4 : 3);
    request.kind = observe ? RequestKind::Observe : RequestKind::Predict;
    request.model = tokens[1];
    const std::string context = command + " value list";
    for (const auto& field : common::split_fields(tokens[2], ',', context)) {
      request.values.push_back(common::parse_number(field, context));
    }
    CPR_CHECK_MSG(!request.values.empty(), command << " needs at least one value");
    if (observe) {
      request.seconds = common::parse_number(tokens[3], "OBSERVE seconds");
      CPR_CHECK_MSG(request.seconds > 0.0, "OBSERVE seconds must be positive");
    }
  } else if (command == "REFIT" || command == "LOAD" || command == "UNLOAD") {
    expect_arity(tokens, 2);
    request.kind = command == "REFIT"  ? RequestKind::Refit
                   : command == "LOAD" ? RequestKind::Load
                                       : RequestKind::Unload;
    request.model = tokens[1];
  } else if (command == "STATS" || command == "METRICS" || command == "QUIT") {
    expect_arity(tokens, 1);
    request.kind = command == "STATS"     ? RequestKind::Stats
                   : command == "METRICS" ? RequestKind::Metrics
                                          : RequestKind::Quit;
  } else if (command == "FRAME") {
    CPR_CHECK_MSG(false, "FRAME BINARY is only available on the TCP transport");
  } else {
    CPR_CHECK_MSG(
        false, "unknown request '"
                   << command
                   << "' (PREDICT/OBSERVE/REFIT/LOAD/UNLOAD/STATS/METRICS/QUIT)");
  }
  return request;
}

inline bool is_frame_binary_request(const std::string& line) {
  const auto tokens = tokenize(line);
  return tokens.size() == 2 && tokens[0] == "FRAME" && tokens[1] == "BINARY";
}

/// One line describing what `parse` makes of `line`: the parsed fields
/// with every double as its bit pattern, or the ERR reply text it earns, or
/// the foreign exception it leaks. Two parsers agree on a line exactly when
/// their descriptions are equal.
template <typename Parse>
std::string describe_parse(Parse&& parse, const std::string& line) {
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(u));
    return std::string(buffer);
  };
  try {
    const serve::Request request = parse(line);
    std::string out = "kind=" + std::to_string(static_cast<int>(request.kind)) +
                      " model=" + request.model + " values=";
    for (const double v : request.values) out += bits(v) + ",";
    if (request.kind == serve::RequestKind::Observe) out += " seconds=" + bits(request.seconds);
    return out;
  } catch (const CheckError& e) {
    return serve::format_error(e.what());
  } catch (const std::exception& e) {
    return std::string("foreign exception: ") + e.what();
  }
}

}  // namespace cpr::reference
