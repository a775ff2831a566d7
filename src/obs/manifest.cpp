#include "obs/manifest.hpp"

#include <cstdio>

#include "engine/detail/serialize.hpp"

namespace profisched::obs {

namespace {

using engine::detail::fmt_double;
using engine::detail::JsonCursor;

/// The engine's JSON grammar has no string escapes; keep emitted strings
/// inside it rather than teaching every reader escape handling.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = '?';
  }
  return out;
}

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }

}  // namespace

std::string to_json(const Manifest& m) {
  std::string out;
  out.reserve(1024);
  out += "{\n";
  out += "  \"schema\": \"";
  out += kManifestSchema;
  out += "\",\n";
  out += "  \"tool\": \"" + sanitize(m.run.tool) + "\",\n";
  out += "  \"subcommand\": \"" + sanitize(m.run.subcommand) + "\",\n";
  out += "  \"argv\": [";
  for (std::size_t i = 0; i < m.run.argv.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + sanitize(m.run.argv[i]) + "\"";
  }
  out += "],\n";
  out += "  \"config_digest\": ";
  append_u64(out, m.run.config_digest);
  out += ",\n  \"scenarios\": ";
  append_u64(out, m.run.scenarios);
  out += ",\n  \"points\": ";
  append_u64(out, m.run.points);
  out += ",\n  \"policies\": ";
  append_u64(out, m.run.policies);
  out += ",\n  \"replications\": ";
  append_u64(out, m.run.replications);
  out += ",\n  \"threads\": ";
  append_u64(out, m.run.threads);
  out += ",\n  \"elapsed_s\": " + fmt_double(m.run.elapsed_s);
  out += ",\n  \"counters\": [";
  for (std::size_t i = 0; i < m.metrics.counters.size(); ++i) {
    const auto& c = m.metrics.counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + sanitize(c.name) + "\", \"value\": ";
    append_u64(out, c.value);
    out += "}";
  }
  out += m.metrics.counters.empty() ? "]" : "\n  ]";
  out += ",\n  \"gauges\": [";
  for (std::size_t i = 0; i < m.metrics.gauges.size(); ++i) {
    const auto& g = m.metrics.gauges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + sanitize(g.name) + "\", \"value\": ";
    append_u64(out, g.value);
    out += "}";
  }
  out += m.metrics.gauges.empty() ? "]" : "\n  ]";
  out += ",\n  \"timers\": [";
  for (std::size_t i = 0; i < m.metrics.timers.size(); ++i) {
    const auto& t = m.metrics.timers[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + sanitize(t.name) + "\", \"count\": ";
    append_u64(out, t.count);
    out += ", \"total_ns\": ";
    append_u64(out, t.total_ns);
    out += "}";
  }
  out += m.metrics.timers.empty() ? "]" : "\n  ]";
  out += ",\n  \"histograms\": [";
  for (std::size_t i = 0; i < m.metrics.histograms.size(); ++i) {
    const auto& h = m.metrics.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + sanitize(h.name) + "\", \"count\": ";
    append_u64(out, h.count);
    out += ", \"sum\": ";
    append_u64(out, h.sum);
    out += ", \"bins\": [";
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      if (b != 0) out += ", ";
      append_u64(out, h.bins[b]);
    }
    out += "]}";
  }
  out += m.metrics.histograms.empty() ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

Manifest parse_manifest(const std::string& json) {
  Manifest m;
  JsonCursor c(json);
  c.expect('{');
  c.key("schema");
  const std::string schema = c.string();
  if (schema != kManifestSchema) {
    throw std::invalid_argument("obs manifest: unsupported schema '" + schema + "'");
  }
  c.expect(',');
  c.key("tool");
  m.run.tool = c.string();
  c.expect(',');
  c.key("subcommand");
  m.run.subcommand = c.string();
  c.expect(',');
  c.key("argv");
  c.expect('[');
  if (!c.peek(']')) {
    do {
      m.run.argv.push_back(c.string());
    } while (c.peek(',') && (c.expect(','), true));
  }
  c.expect(']');
  c.expect(',');
  c.key("config_digest");
  m.run.config_digest = c.uinteger();
  c.expect(',');
  c.key("scenarios");
  m.run.scenarios = c.uinteger();
  c.expect(',');
  c.key("points");
  m.run.points = c.uinteger();
  c.expect(',');
  c.key("policies");
  m.run.policies = c.uinteger();
  c.expect(',');
  c.key("replications");
  m.run.replications = c.uinteger();
  c.expect(',');
  c.key("threads");
  m.run.threads = c.uinteger();
  c.expect(',');
  c.key("elapsed_s");
  m.run.elapsed_s = c.number();
  c.expect(',');

  const auto parse_named = [&](const char* section, auto&& body) {
    c.key(section);
    c.expect('[');
    if (!c.peek(']')) {
      do {
        c.expect('{');
        c.key("name");
        body(c.string());
        c.expect('}');
      } while (c.peek(',') && (c.expect(','), true));
    }
    c.expect(']');
  };

  parse_named("counters", [&](std::string name) {
    c.expect(',');
    c.key("value");
    m.metrics.counters.push_back({std::move(name), c.uinteger()});
  });
  c.expect(',');
  parse_named("gauges", [&](std::string name) {
    c.expect(',');
    c.key("value");
    m.metrics.gauges.push_back({std::move(name), c.uinteger()});
  });
  c.expect(',');
  parse_named("timers", [&](std::string name) {
    c.expect(',');
    c.key("count");
    const std::uint64_t count = c.uinteger();
    c.expect(',');
    c.key("total_ns");
    m.metrics.timers.push_back({std::move(name), count, c.uinteger()});
  });
  c.expect(',');
  parse_named("histograms", [&](std::string name) {
    HistogramSample h;
    h.name = std::move(name);
    c.expect(',');
    c.key("count");
    h.count = c.uinteger();
    c.expect(',');
    c.key("sum");
    h.sum = c.uinteger();
    c.expect(',');
    c.key("bins");
    c.expect('[');
    if (!c.peek(']')) {
      do {
        h.bins.push_back(c.uinteger());
      } while (c.peek(',') && (c.expect(','), true));
    }
    c.expect(']');
    m.metrics.histograms.push_back(std::move(h));
  });
  c.expect('}');
  // Accept only the bytes to_json writes for what was parsed: any other
  // whitespace, spelling of a number, string byte or trailing byte would be
  // a second document for the same manifest.
  if (to_json(m) != json) {
    throw std::invalid_argument("obs manifest: document is not in the form to_json writes");
  }
  return m;
}

bool write_manifest_file(const std::string& path, const Manifest& m) {
  const std::string text = to_json(m);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace profisched::obs
