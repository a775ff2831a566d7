// Spec blocks, cache records and artifact rows accept exactly what their
// writers emit. Every truncation, bit flip, insertion and deletion of a
// serialized sweep, faulted combined and optimize spec block is either
// rejected with an error or parses to a spec that re-serializes to the
// mutated bytes exactly — as a SUBMIT spec block (parse_spec) and inside a
// shard artifact (ShardArtifact::from_text). The same holds for one cache
// record of every cell codec (decode_record) and for everything below an
// artifact's spec block in every mode. The mutations are xorshift-seeded, so
// a failure reproduces.
#include "dist/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/detail/record.hpp"
#include "opt/optimizer.hpp"

namespace profisched::dist {
namespace {

ShardSpec base_spec(SweepMode mode) {
  ShardSpec sh;
  sh.mode = mode;
  sh.spec.sweep.base.n_masters = 2;
  sh.spec.sweep.base.streams_per_master = 3;
  sh.spec.sweep.base.ttr = 3'000;
  sh.spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.75, 0.5, 1.0}};
  sh.spec.sweep.scenarios_per_point = 2;
  sh.spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  sh.spec.sweep.seed = 99;
  sh.spec.replications = 1;
  return sh;
}

/// The three spec shapes a job can send: a sweep, a faulted combined run
/// (optional `faults` line) and an optimize run (optional `optimize` line).
std::vector<ShardSpec> specs() {
  ShardSpec combined = base_spec(SweepMode::Combined);
  combined.spec.sim.faults.token_loss_prob = 0.03;
  combined.spec.sim.faults.token_recovery = 600;
  combined.spec.sim.faults.corruption_prob = 0.04;
  combined.spec.sim.faults.max_retransmissions = 1;
  combined.spec.sim.horizon = 20'000;
  ShardSpec optimize = base_spec(SweepMode::Optimize);
  optimize.spec.sweep.policies.push_back(engine::Policy::Opa);
  return {base_spec(SweepMode::Analysis), combined, optimize};
}

struct Xorshift {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// One mutation of `text` at a random position. Insertions draw mostly from
/// the spec alphabet so that a fair share of mutants still parses.
std::string mutate(const std::string& text, Xorshift& rng) {
  static constexpr char kAlphabet[] = "0123456789.e-+ \nxd";
  std::string m = text;
  const std::size_t pos = rng.next() % m.size();
  switch (rng.next() % 4) {
    case 0: m.resize(pos); break;
    case 1: m[pos] = static_cast<char>(m[pos] ^ (1 << (rng.next() % 8))); break;
    case 2: {
      const std::uint64_t r = rng.next();
      const char c = r % 4 == 0 ? static_cast<char>(r >> 8)
                                : kAlphabet[(r >> 8) % (sizeof kAlphabet - 1)];
      m.insert(pos, 1, c);
      break;
    }
    default: m.erase(pos, 1 + rng.next() % 3); break;
  }
  return m;
}

TEST(SpecMutation, SubmitSpecBlocksRoundTripOrAreRejected) {
  constexpr int kMutantsPerSpec = 60'000;
  Xorshift rng{0x9e3779b97f4a7c15ULL};
  for (const ShardSpec& spec : specs()) {
    const std::string text = serialize_spec(spec);
    ASSERT_EQ(serialize_spec(parse_spec(text)), text);
    std::size_t accepted = 0, diverged = 0;
    for (int i = 0; i < kMutantsPerSpec; ++i) {
      const std::string m = mutate(text, rng);
      ShardSpec parsed;
      try {
        parsed = parse_spec(m);
      } catch (const std::invalid_argument&) {
        continue;
      }
      ++accepted;
      if (serialize_spec(parsed) != m && ++diverged <= 3) {
        ADD_FAILURE() << "accepted a spec block that re-serializes differently:\n" << m;
      }
    }
    EXPECT_EQ(diverged, 0u) << to_string(spec.mode);
    EXPECT_GT(accepted, 0u) << to_string(spec.mode);  // the sweep reached past the parser
  }
}

TEST(SpecMutation, ArtifactSpecBlocksRoundTripOrAreRejected) {
  constexpr int kMutantsPerSpec = 8'000;
  Xorshift rng{0xd1b54a32d192ed03ULL};
  ShardRunner runner(1);
  for (const ShardSpec& spec : specs()) {
    const std::string text = runner.run(spec, 0, 1).to_text();
    const std::size_t begin = text.find('\n') + 1;  // after the magic line
    const std::size_t end = text.find("\nshard ") + 1;
    const std::string head = text.substr(0, begin), block = text.substr(begin, end - begin),
                      tail = text.substr(end);
    ASSERT_EQ(block, serialize_spec(spec));
    std::size_t accepted = 0, diverged = 0;
    for (int i = 0; i < kMutantsPerSpec; ++i) {
      const std::string m = head + mutate(block, rng) + tail;
      std::string again;
      try {
        again = ShardArtifact::from_text(m).to_text();
      } catch (const std::invalid_argument&) {
        continue;
      }
      ++accepted;
      if (again != m && ++diverged <= 3) {
        ADD_FAILURE() << "accepted an artifact that re-serializes differently:\n" << m;
      }
    }
    EXPECT_EQ(diverged, 0u) << to_string(spec.mode);
    EXPECT_GT(accepted, 0u) << to_string(spec.mode);
  }
}

using engine::detail::AnalysisCells;
using engine::detail::CombinedCells;
using engine::detail::SimCells;

/// Mutants of `cell`'s record that decode_record accepts must re-encode to
/// their own bytes; returns how many it accepted.
template <class Codec>
std::size_t mutate_record(const Codec& codec, const typename Codec::Cell& cell, Xorshift& rng) {
  constexpr int kMutants = 20'000;
  const std::string record = engine::detail::encode_record(codec, cell);
  typename Codec::Cell back;
  EXPECT_TRUE(engine::detail::decode_record(codec, record, back)) << record;
  std::size_t accepted = 0, diverged = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = mutate(record, rng);
    typename Codec::Cell c;
    if (!engine::detail::decode_record(codec, m, c)) continue;
    ++accepted;
    if (engine::detail::encode_record(codec, c) != m && ++diverged <= 3) {
      ADD_FAILURE() << "accepted a record that re-encodes differently: '" << m << "'";
    }
  }
  EXPECT_EQ(diverged, 0u) << record;
  return accepted;
}

TEST(SpecMutation, CacheRecordsRoundTripOrAreRejected) {
  Xorshift rng{0xbf58476d1ce4e5b9ULL};
  const SimCells::Cell sim{{4'850, 4'095, 49, 48, 2, 1}, 120'000};
  const CombinedCells::Cell clean{sim, true, 20'935, 0};
  const CombinedCells::Cell faulted{sim, false, kNoBound, 3, true, 41'870};
  opt::PolicyOptimum optimum;
  optimum.schedulable = true;
  optimum.breakdown_q = 1'337;
  optimum.breakdown_u = 0.6180339887498949;
  optimum.max_ttr = 90'210;
  optimum.ttr_cap_hit = true;
  optimum.min_dratio_q = 604;
  std::size_t accepted = 0;
  accepted += mutate_record(AnalysisCells{}, AnalysisCells::Cell{4'187, true}, rng);
  accepted += mutate_record(SimCells{}, sim, rng);
  accepted += mutate_record(CombinedCells{false}, clean, rng);
  accepted += mutate_record(CombinedCells{true}, faulted, rng);
  accepted += mutate_record(opt::OptimizeCells{}, optimum, rng);
  EXPECT_GT(accepted, 0u);  // the sweep reached past the decoder
}

TEST(SpecMutation, ArtifactRowsRoundTripOrAreRejected) {
  constexpr int kMutantsPerMode = 8'000;
  Xorshift rng{0x94d049bb133111ebULL};
  ShardRunner runner(1);
  std::vector<ShardSpec> modes = specs();
  modes.push_back(base_spec(SweepMode::Sim));
  for (const ShardSpec& spec : modes) {
    // Shard 2 of 2: row ids > 0 in a range that does not start at 0.
    const std::string text = runner.run(spec, 1, 2).to_text();
    const std::size_t cut = text.find("\nshard ") + 1;  // everything below the spec block
    const std::string head = text.substr(0, cut), tail = text.substr(cut);
    ASSERT_EQ(ShardArtifact::from_text(text).to_text(), text);
    std::size_t accepted = 0, diverged = 0;
    for (int i = 0; i < kMutantsPerMode; ++i) {
      const std::string m = head + mutate(tail, rng);
      std::string again;
      try {
        again = ShardArtifact::from_text(m).to_text();
      } catch (const std::invalid_argument&) {
        continue;
      }
      ++accepted;
      if (again != m && ++diverged <= 3) {
        ADD_FAILURE() << "accepted an artifact that re-serializes differently:\n" << m;
      }
    }
    EXPECT_EQ(diverged, 0u) << to_string(spec.mode);
    EXPECT_GT(accepted, 0u) << to_string(spec.mode);
  }
}

TEST(SpecMutation, RecordsAndRowsRefuseOtherSpellings) {
  AnalysisCells::Cell c;
  ASSERT_TRUE(engine::detail::decode_record(AnalysisCells{}, "a2 5 1", c));
  for (const char* other : {"a2 05 1", "a2 -0 1", "a2 5 01", "a2 5 1 ", "a2  5 1", "a2 +5 1"}) {
    EXPECT_FALSE(engine::detail::decode_record(AnalysisCells{}, other, c)) << other;
  }
  // The cell keeps T_cycle in 63 bits: 2^62 - 1 reads whole, 2^62 and
  // kNoBound are refused rather than truncated.
  ASSERT_TRUE(engine::detail::decode_record(AnalysisCells{}, "a2 4611686018427387903 1", c));
  EXPECT_EQ(c.tcycle, (Ticks{1} << 62) - 1);
  for (const char* other : {"a2 4611686018427387904 1", "a2 9223372036854775807 1"}) {
    EXPECT_FALSE(engine::detail::decode_record(AnalysisCells{}, other, c)) << other;
  }

  ShardRunner runner(1);
  const std::string text = runner.run(base_spec(SweepMode::Analysis), 0, 1).to_text();
  const std::size_t row = text.find("\no 0 ") + 1;
  const std::size_t range = text.find("\nrange ") + 1;
  std::vector<std::string> others;
  others.push_back(std::string(text).insert(row + 2, "0"));               // o 00 ...
  others.push_back(std::string(text).insert(text.find('\n', row), " "));  // trailing space
  others.push_back(std::string(text).insert(range + 6, "0"));             // range 00 ...
  others.push_back(text + "\n");                                          // bytes after `end`
  others.push_back(text.substr(0, text.size() - 1));                      // `end` unterminated
  for (const std::string& m : others) {
    EXPECT_THROW((void)ShardArtifact::from_text(m), std::invalid_argument) << m;
  }

  // A row's cells agree on the scenario's facts: a second cell carrying
  // another T_cycle (sweep) or another horizon (simulate, combined) is
  // refused. `second` is that field's token in the first row (0 = "o").
  const auto bump = [](std::string art, std::size_t index) {
    std::size_t begin = art.find("\no ") + 1;
    for (std::size_t i = 0; i < index; ++i) begin = art.find(' ', begin) + 1;
    const std::size_t end = std::min(art.find(' ', begin), art.find('\n', begin));
    const long long v = std::stoll(art.substr(begin, end - begin));
    return art.replace(begin, end - begin, std::to_string(v + 1));
  };
  const std::pair<ShardSpec, std::size_t> rows[] = {
      {base_spec(SweepMode::Analysis), 4 + 2},   // a2: tcycle, verdict
      {base_spec(SweepMode::Sim), 4 + 7},        // s1: horizon, the summary's six
      {base_spec(SweepMode::Combined), 4 + 10},  // c3: s1, three analysis fields
      {specs()[1], 4 + 12},                      // faulted c3: two degraded ones more
  };
  for (const auto& [spec, second] : rows) {
    const std::string art = runner.run(spec, 0, 1).to_text();
    const std::string off = bump(art, second);
    ASSERT_NE(off, art);
    EXPECT_THROW((void)ShardArtifact::from_text(off), std::invalid_argument) << off;
  }
}

/// Replace the first line starting with `key ` by `line`.
std::string with_line(std::string text, const std::string& key, const std::string& line) {
  const std::size_t at = text.find('\n' + key + ' ') + 1;
  return text.replace(at, text.find('\n', at) - at, line);
}

TEST(SpecMutation, NumbersAndIntegersAreReadWhole) {
  const std::string text = serialize_spec(base_spec(SweepMode::Analysis));
  // Trailing bytes after a number used to parse as the number's prefix.
  EXPECT_THROW((void)parse_spec(with_line(text, "point", "point 0.3dddd 0.5 1")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_spec(with_line(text, "point", "point 0g.3 0.5 1")),
               std::invalid_argument);
  // A zero-fault `faults` line describes the fault-free run in other bytes.
  ShardSpec combined = base_spec(SweepMode::Combined);
  const std::string plain = serialize_spec(combined);
  const std::string zero = plain + "faults 0 0 0 0 0 0 0\n";
  EXPECT_THROW((void)parse_spec(zero), std::invalid_argument);
  EXPECT_THROW((void)parse_spec(plain + "\n"), std::invalid_argument);
  // A retransmission count that does not fit an int is refused, not
  // narrowed; one outside the flag's [0, 1000] is refused by name.
  for (const char* retrans : {"6544444536", "4294967297", "1001", "-3"}) {
    try {
      (void)parse_spec(plain + "faults 0.1 0 0 " + retrans + " 0 0 0\n");
      ADD_FAILURE() << "retransmissions " << retrans << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("retrans"), std::string::npos) << e.what();
    }
  }
}

/// Replace token `index` (0 = the keyword) of the first line starting with
/// `key `.
std::string with_token(const std::string& text, const std::string& key, std::size_t index,
                       const std::string& token) {
  const std::size_t at = text.find('\n' + key + ' ') + 1;
  std::size_t begin = at;
  for (std::size_t i = 0; i < index; ++i) begin = text.find(' ', begin) + 1;
  const std::size_t end = std::min(text.find(' ', begin), text.find('\n', begin));
  return std::string(text).replace(begin, end - begin, token);
}

TEST(SpecMutation, SpecBlocksObeyTheFlagRanges) {
  // Every block here parses as bytes but asks for a value no job flag can
  // set; each must be refused by name. The `sim` line carries min_fraction
  // and slave_fail_prob, which have no flag, in [0, 1]; the `base` line's
  // generator fields and every deadline ratio have the documented ranges of
  // engine/detail/cli_parse.hpp.
  struct Hostile {
    const char* key;
    std::size_t token;
    const char* value;
    const char* field;
    std::size_t token2 = 0;  ///< a second token of the same line, when set
    const char* value2 = nullptr;
  };
  const Hostile cases[] = {
      {"base", 1, "100000000", "masters"},
      {"base", 2, "100000000", "streams"},
      {"sim", 8, "1000000000000", "replications"},
      {"sim", 7, "5", "quantile"},
      {"sim", 4, "1000000000000000000", "horizon"},
      {"point", 1, "0", "point u"},
      {"point", 1, "1e+300", "point u"},
      {"point", 2, "1.5", "point beta_lo"},  // beta_lo > beta_hi = 1
      {"sim", 2, "nan", "min_fraction"},
      {"sim", 2, "1e+300", "min_fraction"},
      {"sim", 2, "2", "min_fraction"},
      {"sim", 3, "7", "slave_fail_prob"},
      // Request chars that overflowed sim::Rng::uniform(lo, hi).
      {"base", 7, "-9223372036854775807", "request_chars", 8, "9223372036854775807"},
      {"base", 10, "256", "response_chars_max"},
      {"base", 9, "0", "response_chars_min"},
      {"base", 3, "0", "t_min"},
      {"base", 3, "500000", "t_min"},  // t_min > t_max = 400000
      {"base", 4, "1000000000000000000", "t_max"},
      {"base", 6, "1e+300", "deadline_hi"},
      {"base", 5, "0", "deadline_lo"},
      {"base", 13, "nan", "total_u"},
      {"base", 13, "-1", "total_u"},
      // Every point has u > 0, and utilization-driven generation needs a T_TR.
      {"base", 12, "0", "ttr"},
      // A deadline ratio whose D = beta*T no longer fits in Ticks.
      {"point", 2, "1e+300", "point beta_hi", 3, "1e+300"},
  };
  const std::string text = serialize_spec(base_spec(SweepMode::Combined));
  for (const Hostile& h : cases) {
    std::string block = with_token(text, h.key, h.token, h.value);
    if (h.value2 != nullptr) block = with_token(block, h.key, h.token2, h.value2);
    ASSERT_NE(block, text) << h.key << ' ' << h.token;
    try {
      (void)parse_spec(block);
      ADD_FAILURE() << h.field << ' ' << h.value << " accepted:\n" << block;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(h.field), std::string::npos)
          << h.field << ' ' << h.value << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace profisched::dist
