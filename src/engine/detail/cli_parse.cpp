#include "engine/detail/cli_parse.hpp"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <system_error>

namespace profisched::engine {

namespace fs = std::filesystem;

bool parse_cli_count(const std::string& s, std::size_t& out, std::size_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || s.find('-') != std::string::npos || errno == ERANGE ||
      v > max) {
    return false;
  }
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_cli_nonneg_double(const std::string& s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // !(v >= 0) rather than v < 0: strtod accepts "nan", which compares false
  // against everything and would sail through a < check into grid math,
  // cache digests, and shard spec blocks.
  if (end == s.c_str() || *end != '\0' || !(v >= 0)) return false;
  out = v;
  return true;
}

bool parse_cli_policies(const std::string& list, std::vector<Policy>& out) {
  out.clear();
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string name = list.substr(start, comma - start);
    if (name == "fcfs") out.push_back(Policy::Fcfs);
    else if (name == "dm") out.push_back(Policy::Dm);
    else if (name == "edf") out.push_back(Policy::Edf);
    else if (name == "opa") out.push_back(Policy::Opa);
    else if (name == "token") out.push_back(Policy::TokenRing);
    else if (name == "holistic") out.push_back(Policy::Holistic);
    else return false;
    // Duplicates would emit repeated policy columns the CSV/JSON formats
    // cannot represent (their parse-back keys on the policy name).
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      if (out[i] == out.back()) return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out.empty();
}

bool parse_cli_u_grid(const std::string& s, double& u_lo, double& u_hi, std::size_t& u_steps) {
  const std::size_t c1 = s.find(':');
  const std::size_t c2 = c1 == std::string::npos ? std::string::npos : s.find(':', c1 + 1);
  return c2 != std::string::npos && parse_cli_nonneg_double(s.substr(0, c1), u_lo) &&
         parse_cli_nonneg_double(s.substr(c1 + 1, c2 - c1 - 1), u_hi) &&
         parse_cli_count(s.substr(c2 + 1), u_steps, 1'000'000);
}

bool validate_cli_output_file(const std::string& path, const char* flag, std::string& error) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    error = std::string(flag) + " destination '" + path + "' is a directory, not a file";
    return false;
  }
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  if (!fs::is_directory(parent, ec)) {
    error = std::string(flag) + " destination '" + path + "': parent directory '" +
            parent.string() + "' does not exist";
    return false;
  }
  return true;
}

bool validate_cli_output_dir(const std::string& path, const char* flag, std::string& error) {
  // Walk up to the first component that exists; create_directories will build
  // everything below it, so that ancestor being a non-directory is the only
  // statically-detectable failure.
  std::error_code ec;
  fs::path probe = fs::path(path);
  while (!probe.empty() && !fs::exists(probe, ec)) {
    const fs::path up = probe.parent_path();
    if (up == probe) break;
    probe = up;
  }
  if (!probe.empty() && fs::exists(probe, ec) && !fs::is_directory(probe, ec)) {
    error = std::string(flag) + " destination '" + path + "': '" + probe.string() +
            "' exists and is not a directory";
    return false;
  }
  return true;
}

namespace {

/// The s-th of `steps` evenly spaced values in [lo, hi] (steps == 1 -> lo).
double grid_value(double lo, double hi, std::size_t steps, std::size_t s) {
  return steps == 1 ? lo
                    : lo + (hi - lo) * static_cast<double>(s) / static_cast<double>(steps - 1);
}

/// Strict comma tokenizer: every element is returned, including empty ones
/// from doubled or trailing commas (the per-element parsers then reject them
/// — "2,3," must not silently read as "2,3").
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    out.push_back(s.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Shared LO:HI:STEPS validation with per-flag diagnostics. LO > 0 is
/// demanded on both axes: u = 0 silently flips generation period-driven,
/// beta = 0 collapses every deadline to the clamp floor.
bool check_axis(const char* flag, double lo, double hi, std::size_t steps, std::string& error) {
  if (hi < lo) {
    error = std::string(flag) + " grid is inverted (LO > HI)";
    return false;
  }
  if (steps == 0) {
    error = std::string(flag) + " grid has a zero-length axis (STEPS must be >= 1)";
    return false;
  }
  if (lo <= 0) {
    error = std::string(flag) + " grid needs LO > 0";
    return false;
  }
  return true;
}

}  // namespace

bool expand_cli_grid(const GridCliArgs& args, workload::NetworkParams& base,
                     std::vector<SweepPoint>& points, std::string& error) {
  const auto fail = [&](const std::string& msg) {
    error = msg;
    return false;
  };

  // --u axis (defaulted: the classic 0.1:0.9:9 acceptance grid).
  double u_lo = 0.1, u_hi = 0.9;
  std::size_t u_steps = 9;
  if (!args.u.empty() && !parse_cli_u_grid(args.u, u_lo, u_hi, u_steps)) {
    return fail("--u needs LO:HI:STEPS with numeric LO/HI and integer STEPS");
  }
  if (!check_axis("--u", u_lo, u_hi, u_steps, error)) return false;

  // Deadline-ratio handling: either a constant [beta_lo, beta_hi] spread
  // shared by every point, or a --beta axis where each grid value b pins the
  // ratio to D = b*T exactly (beta_lo = beta_hi = b).
  if (!args.beta.empty() && (!args.beta_lo.empty() || !args.beta_hi.empty())) {
    return fail("--beta is a grid axis; it cannot combine with the constant "
                "--beta-lo/--beta-hi spread");
  }
  double beta_lo = 0.5, beta_hi = 1.0;
  if (!args.beta_lo.empty() && !parse_cli_nonneg_double(args.beta_lo, beta_lo)) {
    return fail("--beta-lo needs a number >= 0");
  }
  if (!args.beta_hi.empty() && !parse_cli_nonneg_double(args.beta_hi, beta_hi)) {
    return fail("--beta-hi needs a number >= 0");
  }
  if (beta_hi < beta_lo) return fail("inverted deadline spread (--beta-lo > --beta-hi)");
  if (beta_lo <= 0) return fail("--beta-lo must be > 0 (D = beta*T needs a positive ratio)");
  double b_ax_lo = 0.0, b_ax_hi = 0.0;
  std::size_t b_steps = 1;
  const bool has_beta_axis = !args.beta.empty();
  if (has_beta_axis) {
    if (!parse_cli_u_grid(args.beta, b_ax_lo, b_ax_hi, b_steps)) {
      return fail("--beta needs LO:HI:STEPS with numeric LO/HI and integer STEPS");
    }
    if (!check_axis("--beta", b_ax_lo, b_ax_hi, b_steps, error)) return false;
  }

  // --masters: one value keeps the classic single-structure sweep (points
  // leave n_masters at 0 so historical grids stay byte-identical); a comma
  // list opens the ring-size axis with explicit per-point overrides.
  std::vector<std::size_t> masters_axis;
  if (!args.masters.empty()) {
    for (const std::string& tok : split_list(args.masters)) {
      std::size_t m = 0;
      if (!parse_cli_count(tok, m, 4'096) || m == 0) {
        return fail("--masters needs a comma list of integers in [1, 4096]");
      }
      masters_axis.push_back(m);
    }
    base.n_masters = masters_axis[0];
  }
  const bool has_masters_axis = masters_axis.size() > 1;

  // --split / --skew: asymmetric per-master load.
  if (!args.split.empty() && !args.skew.empty()) {
    return fail("--split and --skew are mutually exclusive");
  }
  if (!args.split.empty()) {
    if (has_masters_axis) {
      return fail("--split cannot combine with a multi-valued --masters axis "
                  "(one weight list cannot fit every ring size)");
    }
    std::vector<double> weights;
    for (const std::string& tok : split_list(args.split)) {
      double w = 0.0;
      if (!parse_cli_nonneg_double(tok, w) || w <= 0) {
        return fail("--split weights must be positive numbers");
      }
      weights.push_back(w);
    }
    if (weights.size() != base.n_masters) {
      return fail("--split needs exactly one weight per master (got " +
                  std::to_string(weights.size()) + " weights for " +
                  std::to_string(base.n_masters) + " masters)");
    }
    base.master_split = std::move(weights);
  }
  if (!args.skew.empty()) {
    double skew = 0.0;
    if (!parse_cli_nonneg_double(args.skew, skew)) {
      return fail("--skew needs a number >= 0");
    }
    // skew == 0 is the workload layer's "off" sentinel (symmetric mode: every
    // master independently loaded to u), NOT the even network-wide split the
    // S -> 0 limit of the documented weights suggests — accepting it would
    // make a skew sweep through 0 silently jump by a factor of K. Force the
    // caller to say what they mean.
    if (skew == 0) {
      return fail("--skew 0 is ambiguous: omit --skew for the symmetric per-master mode, "
                  "or use --split 1,1,... for an even network-wide division");
    }
    base.master_skew = skew;
  }

  // Bound the point count BEFORE materializing the cross product: each axis
  // independently admits up to 1e6 steps, so a per-axis-valid spec could
  // demand 1e12+ points — that must be this error, not an OOM kill mid-
  // expansion. Every point carries >= 1 scenario, so the sweep-size cap the
  // callers enforce on total_scenarios() is also a valid cap here.
  points.clear();
  const std::size_t m_count = has_masters_axis ? masters_axis.size() : 1;
  constexpr std::uint64_t kMaxPoints = 100'000'000;
  // u_steps, b_steps <= 1e6 and m_count <= 4096: the product fits uint64.
  if (static_cast<std::uint64_t>(u_steps) * b_steps * m_count > kMaxPoints) {
    return fail("grid too large (" + std::to_string(u_steps) + " u x " +
                std::to_string(b_steps) + " beta x " + std::to_string(m_count) +
                " masters points); shrink the axis STEPS");
  }

  // Cross product, masters outermost / u innermost: with both extra axes
  // absent this enumerates exactly the historical u-grid point order (and so
  // the same scenario ids).
  for (std::size_t m = 0; m < m_count; ++m) {
    for (std::size_t b = 0; b < b_steps; ++b) {
      for (std::size_t s = 0; s < u_steps; ++s) {
        SweepPoint pt;
        pt.total_u = grid_value(u_lo, u_hi, u_steps, s);
        if (has_beta_axis) {
          pt.beta_lo = pt.beta_hi = grid_value(b_ax_lo, b_ax_hi, b_steps, b);
        } else {
          pt.beta_lo = beta_lo;
          pt.beta_hi = beta_hi;
        }
        if (has_masters_axis) pt.n_masters = masters_axis[m];
        points.push_back(pt);
      }
    }
  }
  error.clear();
  return true;
}

}  // namespace profisched::engine
