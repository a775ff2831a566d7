// serve/protocol.hpp — the wire protocol of the resident sweep service.
//
// Transport framing is deliberately primitive: every message (request or
// response) is one frame, `<decimal byte count>\n<payload>`. The ASCII length
// prefix keeps the protocol debuggable with nc/socat while still letting
// payloads carry arbitrary bytes (spec blocks are multi-line text). The
// decoder is incremental — feed it whatever bytes have arrived and it answers
// "complete frame", "need more", or "protocol error" — and total: no input,
// however truncated, oversized, or junk-filled, may crash or hang it
// (tests/serve/test_protocol.cpp hammers exactly that contract).
//
// Request payloads are line-oriented, first line = verb:
//   submit <mode> <priority> <oversplit>   mode: sweep|simulate|combined|optimize
//     [csv <path>] [json <path>] [metrics <path>] [progress]
//     spec                                  then a dist::serialize_spec block,
//                                           verbatim, to end of payload
//   status
//   cancel <id>
//   stats
//   shutdown
// Responses start with `ok` or `err <message>`; see Server for the per-verb
// shapes. The spec block rides the same canonical serialization `profisched
// shard`/`merge` byte-compare, which is what lets a served job inherit the
// batch pipeline's byte-identity guarantee end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dist/job.hpp"

namespace profisched::serve {

/// Frames above this are a protocol error, not an allocation: a hostile or
/// corrupt length prefix must not let one connection OOM the daemon.
constexpr std::size_t kMaxFrameBytes = 16 * 1024 * 1024;

/// Longest admissible length prefix, digits only ("16777216" is 8; leave
/// headroom so the limit trips on kMaxFrameBytes, not prefix length).
constexpr std::size_t kMaxLengthDigits = 10;

/// Wrap a payload in a wire frame. Throws std::invalid_argument above
/// kMaxFrameBytes (the encoder refuses to produce what the decoder rejects).
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// One step of incremental decoding over the bytes received so far.
struct FrameDecode {
  enum class Status {
    Ok,        ///< `payload` holds one complete frame; `consumed` bytes used
    NeedMore,  ///< prefix of a valid frame — read more bytes and retry
    Error,     ///< unrecoverable framing violation; `error` says why
  };
  Status status = Status::NeedMore;
  std::string payload;
  std::size_t consumed = 0;
  std::string error;
};

/// Decode the first frame of `buffer`. Never throws; garbage in, Error out.
[[nodiscard]] FrameDecode decode_frame(std::string_view buffer);

/// A parsed request payload (frame already stripped). A submit carries one
/// dist::Job (spec plus server-side output destinations).
struct Request : dist::Job {
  enum class Kind { Submit, Status, Cancel, Stats, Shutdown };
  Kind kind = Kind::Status;

  std::uint64_t priority = 0;   ///< Submit: higher drains first
  std::uint64_t oversplit = 1;  ///< Submit: K contiguous ranges; cancel granularity
  std::uint64_t cancel_id = 0;  ///< Cancel only
};

/// Parse a request payload. Throws std::invalid_argument (with a message fit
/// for an `err` response) on any malformed input.
[[nodiscard]] Request parse_request(const std::string& payload);

/// Client-side builders — the exact inverse of parse_request.
[[nodiscard]] std::string format_submit(const Request& req);
[[nodiscard]] std::string format_status();
[[nodiscard]] std::string format_cancel(std::uint64_t id);
[[nodiscard]] std::string format_stats();
[[nodiscard]] std::string format_shutdown();

}  // namespace profisched::serve
