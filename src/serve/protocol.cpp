#include "serve/protocol.hpp"

#include <stdexcept>
#include <vector>

#include "engine/detail/cli_parse.hpp"
#include "engine/detail/serialize.hpp"

namespace profisched::serve {

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::invalid_argument("serve frame: payload exceeds " +
                                std::to_string(kMaxFrameBytes) + " bytes");
  }
  std::string out = std::to_string(payload.size());
  out += '\n';
  out += payload;
  return out;
}

FrameDecode decode_frame(std::string_view buffer) {
  FrameDecode r;
  const auto error = [&](std::string msg) {
    r.status = FrameDecode::Status::Error;
    r.error = std::move(msg);
    return r;
  };

  const std::size_t nl = buffer.find('\n');
  if (nl == std::string_view::npos) {
    // No terminator yet: only a plausible prefix-in-progress may wait for
    // more bytes — junk or an over-long run of digits errors immediately so
    // a stream of garbage can never stall a reader forever.
    if (buffer.size() > kMaxLengthDigits) return error("length prefix too long");
    for (const char c : buffer) {
      if (c < '0' || c > '9') return error("length prefix is not a decimal number");
    }
    r.status = FrameDecode::Status::NeedMore;
    return r;
  }

  if (nl == 0) return error("empty length prefix");
  if (nl > kMaxLengthDigits) return error("length prefix too long");
  std::size_t len = 0;
  for (const char c : buffer.substr(0, nl)) {
    if (c < '0' || c > '9') return error("length prefix is not a decimal number");
    len = len * 10 + static_cast<std::size_t>(c - '0');
  }
  if (len > kMaxFrameBytes) {
    return error("frame of " + std::to_string(len) + " bytes exceeds the " +
                 std::to_string(kMaxFrameBytes) + "-byte cap");
  }
  if (buffer.size() - nl - 1 < len) {
    r.status = FrameDecode::Status::NeedMore;
    return r;
  }
  r.status = FrameDecode::Status::Ok;
  r.payload = std::string(buffer.substr(nl + 1, len));
  r.consumed = nl + 1 + len;
  return r;
}

namespace {

/// Pop [start, next '\n') and advance start past the newline (or to npos-end).
[[nodiscard]] std::string next_line(const std::string& s, std::size_t& start) {
  const std::size_t nl = s.find('\n', start);
  const std::string line = s.substr(start, nl == std::string::npos ? nl : nl - start);
  start = nl == std::string::npos ? s.size() : nl + 1;
  return line;
}

[[nodiscard]] std::uint64_t parse_u64_field(const std::string& s, const char* what,
                                            std::uint64_t min, std::uint64_t max) {
  std::size_t v = 0;
  if (!engine::parse_cli_count(s, v, max) || v < min) {
    throw std::invalid_argument(std::string("submit: ") + what + " '" + s +
                                "' is not an integer in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  }
  return v;
}

Request parse_submit(const std::string& payload, std::size_t pos,
                     const std::vector<std::string>& head) {
  if (head.size() != 4) {
    throw std::invalid_argument("submit: header needs 'submit <mode> <priority> <oversplit>'");
  }
  Request req;
  req.kind = Request::Kind::Submit;
  const dist::ModeTrait* mode = dist::find_mode(head[1]);
  if (mode == nullptr) {
    throw std::invalid_argument("submit: unknown mode '" + head[1] + "'");
  }
  req.priority = parse_u64_field(head[2], "priority", 0, 1'000'000);
  req.oversplit = parse_u64_field(head[3], "oversplit", 1, 1'000'000);

  // Optional output lines until the `spec` sentinel; the rest of the payload
  // is the canonical spec block, verbatim.
  for (;;) {
    if (pos >= payload.size()) throw std::invalid_argument("submit: missing 'spec' block");
    const std::string line = next_line(payload, pos);
    if (line == "spec") break;
    const std::size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string value = space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "csv" && !value.empty()) req.csv_path = value;
    else if (key == "json" && !value.empty()) req.json_path = value;
    else if (key == "metrics" && !value.empty()) req.metrics_path = value;
    else if (key == "progress" && value.empty()) req.progress = true;
    else throw std::invalid_argument("submit: unknown job option line '" + line + "'");
  }
  req.spec = dist::parse_spec(payload.substr(pos));
  if (req.spec.mode != mode->mode) {
    throw std::invalid_argument("submit: header mode disagrees with the spec block");
  }
  return req;
}

}  // namespace

Request parse_request(const std::string& payload) {
  std::size_t pos = 0;
  const std::string first = next_line(payload, pos);
  const std::vector<std::string> head = engine::detail::split(first, ' ');
  if (head.empty() || head[0].empty()) throw std::invalid_argument("empty request");
  const std::string& verb = head[0];

  const auto bare = [&](Request::Kind kind) {
    if (head.size() != 1 || pos < payload.size()) {
      throw std::invalid_argument(verb + ": takes no arguments");
    }
    Request req;
    req.kind = kind;
    return req;
  };

  if (verb == "submit") return parse_submit(payload, pos, head);
  if (verb == "status") return bare(Request::Kind::Status);
  if (verb == "stats") return bare(Request::Kind::Stats);
  if (verb == "shutdown") return bare(Request::Kind::Shutdown);
  if (verb == "cancel") {
    if (head.size() != 2 || pos < payload.size()) {
      throw std::invalid_argument("cancel: needs exactly one job id");
    }
    Request req;
    req.kind = Request::Kind::Cancel;
    req.cancel_id = parse_u64_field(head[1], "job id", 0, UINT64_MAX / 2);
    return req;
  }
  throw std::invalid_argument("unknown verb '" + verb + "'");
}

std::string format_submit(const Request& req) {
  std::string out = "submit ";
  out += dist::trait(req.spec.mode).word;
  out += ' ' + std::to_string(req.priority) + ' ' + std::to_string(req.oversplit) + '\n';
  if (!req.csv_path.empty()) out += "csv " + req.csv_path + '\n';
  if (!req.json_path.empty()) out += "json " + req.json_path + '\n';
  if (!req.metrics_path.empty()) out += "metrics " + req.metrics_path + '\n';
  if (req.progress) out += "progress\n";
  out += "spec\n";
  out += dist::serialize_spec(req.spec);
  return out;
}

std::string format_status() { return "status"; }

std::string format_cancel(std::uint64_t id) { return "cancel " + std::to_string(id); }

std::string format_stats() { return "stats"; }

std::string format_shutdown() { return "shutdown"; }

}  // namespace profisched::serve
