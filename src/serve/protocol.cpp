#include "serve/protocol.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/dataset_io.hpp"
#include "util/check.hpp"

namespace cpr::serve {

namespace {

/// The whitespace-separated tokens of a request line, as
/// `std::istream >> std::string` splits them (C-locale blanks). Only the
/// first kMaxTokens are kept; `count` is the full number, for arity errors.
struct Tokens {
  static constexpr std::size_t kMaxTokens = 4;  ///< OBSERVE's arity
  std::array<std::string_view, kMaxTokens> token;
  std::size_t count = 0;
};

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

Tokens tokenize(std::string_view line) {
  Tokens tokens;
  std::size_t i = 0;
  for (;;) {
    while (i < line.size() && is_blank(line[i])) ++i;
    if (i == line.size()) return tokens;
    const std::size_t begin = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    if (tokens.count < Tokens::kMaxTokens) {
      tokens.token[tokens.count] = line.substr(begin, i - begin);
    }
    ++tokens.count;
  }
}

void expect_arity(const Tokens& tokens, std::size_t expected) {
  CPR_CHECK_MSG(tokens.count == expected,
                "request '" << tokens.token[0] << "' takes " << expected - 1
                            << " argument(s), got " << tokens.count - 1);
}

/// The common case of common::parse_number: a field std::from_chars
/// consumes exactly into a normal double. strtod agrees bitwise there (both
/// round correctly). Zero, subnormal, non-finite, out-of-range, signed-plus,
/// hex and malformed fields return false and take the common:: path, which
/// decides acceptance and words any error.
bool parse_normal(std::string_view field, double& value) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  return ec == std::errc() && ptr == end && std::isnormal(value);
}

double parse_field(std::string_view field, const char* context) {
  double value = 0.0;
  if (parse_normal(field, value)) return value;
  return common::parse_number(std::string(field), context);
}

/// Parses a comma-separated value list into `values`, accepting exactly
/// what common::split_fields + common::parse_number accept.
void parse_values(std::string_view list, const char* context, grid::Config& values) {
  values.clear();
  for (std::size_t begin = 0;;) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string_view::npos ? list.size() : comma;
    double value = 0.0;
    if (!parse_normal(list.substr(begin, end - begin), value)) {
      // Re-parse the whole list the reference way: empty-entry errors take
      // precedence over per-field ones, as in split-then-parse.
      values.clear();
      for (const auto& field : common::split_fields(std::string(list), ',', context)) {
        values.push_back(common::parse_number(field, context));
      }
      return;
    }
    values.push_back(value);
    if (comma == std::string_view::npos) return;
    begin = comma + 1;
  }
}

}  // namespace

Request parse_request(std::string_view line) {
  const Tokens tokens = tokenize(line);
  CPR_CHECK_MSG(tokens.count > 0, "empty request");
  const std::string_view command = tokens.token[0];

  Request request;
  if (command == "PREDICT") {
    expect_arity(tokens, 3);
    request.kind = RequestKind::Predict;
    request.model = tokens.token[1];
    parse_values(tokens.token[2], "PREDICT value list", request.values);
    CPR_CHECK_MSG(!request.values.empty(), "PREDICT needs at least one value");
  } else if (command == "OBSERVE") {
    expect_arity(tokens, 4);
    request.kind = RequestKind::Observe;
    request.model = tokens.token[1];
    parse_values(tokens.token[2], "OBSERVE value list", request.values);
    CPR_CHECK_MSG(!request.values.empty(), "OBSERVE needs at least one value");
    request.seconds = parse_field(tokens.token[3], "OBSERVE seconds");
    CPR_CHECK_MSG(request.seconds > 0.0, "OBSERVE seconds must be positive");
  } else if (command == "REFIT") {
    expect_arity(tokens, 2);
    request.kind = RequestKind::Refit;
    request.model = tokens.token[1];
  } else if (command == "LOAD") {
    expect_arity(tokens, 2);
    request.kind = RequestKind::Load;
    request.model = tokens.token[1];
  } else if (command == "UNLOAD") {
    expect_arity(tokens, 2);
    request.kind = RequestKind::Unload;
    request.model = tokens.token[1];
  } else if (command == "STATS") {
    expect_arity(tokens, 1);
    request.kind = RequestKind::Stats;
  } else if (command == "METRICS") {
    expect_arity(tokens, 1);
    request.kind = RequestKind::Metrics;
  } else if (command == "QUIT") {
    expect_arity(tokens, 1);
    request.kind = RequestKind::Quit;
  } else if (command == "FRAME") {
    // The TCP transport intercepts a well-formed `FRAME BINARY` before
    // dispatch; reaching the parser means the transport does not support
    // framing (stdio/Unix socket) or the argument is wrong.
    CPR_CHECK_MSG(false,
                  "FRAME BINARY is only available on the TCP transport");
  } else {
    CPR_CHECK_MSG(
        false, "unknown request '"
                   << command
                   << "' (PREDICT/OBSERVE/REFIT/LOAD/UNLOAD/STATS/METRICS/QUIT)");
  }
  return request;
}

std::string format_prediction(double seconds) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "OK %.17g", seconds);
  return buffer;
}

bool is_frame_binary_request(std::string_view line) {
  const Tokens tokens = tokenize(line);
  return tokens.count == 2 && tokens.token[0] == "FRAME" && tokens.token[1] == "BINARY";
}

std::string encode_frame(std::string_view payload) {
  CPR_CHECK_MSG(payload.size() <= kMaxFrameBytes,
                "frame payload of " << payload.size() << " bytes exceeds the "
                                    << kMaxFrameBytes << "-byte frame limit");
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::string frame(4, '\0');
  frame[0] = static_cast<char>(length & 0xff);
  frame[1] = static_cast<char>((length >> 8) & 0xff);
  frame[2] = static_cast<char>((length >> 16) & 0xff);
  frame[3] = static_cast<char>((length >> 24) & 0xff);
  frame.append(payload);
  return frame;
}

FrameDecoder::FrameDecoder(std::uint32_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  CPR_CHECK_MSG(max_frame_bytes_ > 0, "frame size limit must be positive");
}

void FrameDecoder::feed(std::string_view bytes) { buffer_.append(bytes); }

bool FrameDecoder::next(std::string& payload) {
  CPR_CHECK_MSG(!poisoned_, "binary frame stream already failed — close the connection");
  if (buffer_.size() < 4) return false;
  const std::uint32_t length =
      static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[0])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[2])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[3])) << 24);
  if (length == 0 || length > max_frame_bytes_) {
    poisoned_ = true;
    CPR_CHECK_MSG(false, "invalid binary frame length " << length << " (limit "
                                                        << max_frame_bytes_ << ")");
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) return false;
  payload.assign(buffer_, 4, length);
  buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  return true;
}

std::string format_error(const std::string& what) {
  // CheckError messages read "CPR_CHECK failed: (...) at file:line — cause";
  // everything before the em-dash is for developers, not protocol clients.
  const auto dash = what.rfind(" — ");
  return "ERR " +
         (dash == std::string::npos ? what : what.substr(dash + std::string(" — ").size()));
}

}  // namespace cpr::serve
