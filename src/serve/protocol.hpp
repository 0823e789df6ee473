#pragma once
// The newline-delimited serving protocol spoken by cpr_serve.
//
// Request grammar (one request per line, tokens separated by spaces):
//   PREDICT <model> <v1,v2,...>   predict one configuration
//   OBSERVE <model> <v1,v2,...> <seconds>
//                                 stream one measured data point (buffered
//                                 per model until the next refit)
//   REFIT <model>                 refit from the buffered observations on
//                                 the background trainer; replies when the
//                                 new generation is published
//   LOAD <model>                  force-(re)load <model>.cprm from the dir
//   UNLOAD <model>                drop the resident instance
//   STATS                         telemetry table
//   METRICS                       Prometheus text exposition
//   QUIT                          end the session
//   FRAME BINARY                  switch to binary framing (TCP only; the
//                                 transport intercepts it before dispatch)
//
// Responses: `OK ...` on success (`OK <seconds>` for PREDICT, with full
// round-trip precision; `OK observed ...`/`OK refit ...` for the online
// verbs), `ERR <reason>` on failure; STATS emits its table
// lines before the final `OK`; METRICS emits the Prometheus exposition
// lines before the final `OK`; the TCP front end may answer `BUSY` when
// admission limits shed a request (see kBusyReply). Parsing is strict and
// total: wrong arity, empty/NaN/non-numeric values, and unknown commands
// throw CheckError with a protocol-level message — the server turns those
// into ERR replies, so a malformed line can never take the process down.
//
// Binary framing (docs/SERVE_PROTOCOL.md "Binary framing"): after a
// `FRAME BINARY` negotiation each direction carries length-prefixed frames —
// a 4-byte little-endian unsigned payload length followed by that many
// payload bytes. Request payloads are one request in the exact line grammar
// above (no trailing newline); reply payloads are one complete reply text
// (STATS ships its whole table in a single frame). encode_frame/FrameDecoder
// below are the one codec both the server and the bench/test clients use.

#include <cstdint>
#include <string>
#include <string_view>

#include "grid/parameter.hpp"

namespace cpr::serve {

enum class RequestKind { Predict, Observe, Refit, Load, Unload, Stats, Metrics, Quit };

/// Reply sent by the TCP front end when admission control sheds a request
/// (global in-flight cap or per-connection write backlog exceeded). The
/// request was NOT executed; a client may retry after backing off.
inline constexpr const char* kBusyReply = "BUSY";

/// Frames larger than this are a fatal framing violation: a handful of KB
/// covers every legal request line, so a bigger length prefix means the
/// stream is corrupt (or hostile) and resynchronisation is impossible.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// True when `line` is exactly the binary-framing negotiation request
/// (`FRAME BINARY`, any run of blanks between tokens). Transports that
/// support framing intercept this before Server::handle_line; elsewhere the
/// verb falls through to parse_request's FRAME diagnostic.
bool is_frame_binary_request(std::string_view line);

/// Wraps `payload` in a binary frame: 4-byte little-endian length + bytes.
/// Throws CheckError when payload exceeds kMaxFrameBytes.
std::string encode_frame(std::string_view payload);

/// Incremental decoder for a stream of binary frames. feed() bytes as they
/// arrive, then call next() until it returns false. A violation (zero or
/// oversized length prefix) throws CheckError and poisons the decoder — the
/// stream cannot be resynchronised, the connection must be closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kMaxFrameBytes);

  /// Appends raw bytes from the transport.
  void feed(std::string_view bytes);

  /// Extracts the next complete frame payload into `payload`; returns false
  /// when no complete frame is buffered yet. Throws CheckError on a framing
  /// violation (and on any call after one).
  bool next(std::string& payload);

  /// Bytes buffered but not yet returned (incomplete frame tail).
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::uint32_t max_frame_bytes_;
  bool poisoned_ = false;
  std::string buffer_;
};

struct Request {
  RequestKind kind;
  std::string model;     ///< PREDICT/OBSERVE/REFIT/LOAD/UNLOAD only
  grid::Config values;   ///< PREDICT/OBSERVE only
  double seconds = 0.0;  ///< OBSERVE only: the measured execution time
};

/// Parses one request line; throws CheckError on any grammar violation.
/// Tokens are views into `line` and values are read with std::from_chars,
/// so a PREDICT allocates only the Request's model name and value list.
Request parse_request(std::string_view line);

/// `OK <seconds>` with enough digits that the double round-trips exactly —
/// a client parsing the reply recovers the bitwise prediction.
std::string format_prediction(double seconds);

/// `ERR <reason>`; strips the CPR_CHECK expression/location prefix from
/// `what` so clients see only the human-readable cause.
std::string format_error(const std::string& what);

}  // namespace cpr::serve
