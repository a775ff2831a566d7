// Spec blocks accept exactly what serialize_spec writes. Every truncation,
// bit flip, insertion and deletion of a serialized sweep, faulted combined
// and optimize spec block is either rejected with an error or parses to a
// spec that re-serializes to the mutated bytes exactly — as a SUBMIT spec
// block (parse_spec) and inside a shard artifact (ShardArtifact::from_text).
// The mutations are xorshift-seeded, so a failure reproduces.
#include "dist/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

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
  // A fuel that does not fit an int is refused, not narrowed; one outside
  // [1, INT_MAX] is refused by name.
  for (const char* fuel : {"6544444536", "4294967297", "0", "-3"}) {
    try {
      (void)parse_spec(with_line(text, "engine", std::string("engine paper literal ") + fuel));
      ADD_FAILURE() << "fuel " << fuel << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fuel"), std::string::npos) << e.what();
    }
  }
  // A zero-fault `faults` line describes the fault-free run in other bytes.
  ShardSpec combined = base_spec(SweepMode::Combined);
  const std::string plain = serialize_spec(combined);
  const std::string zero = plain + "faults 0 0 0 0 0 0 0\n";
  EXPECT_THROW((void)parse_spec(zero), std::invalid_argument);
  EXPECT_THROW((void)parse_spec(plain + "\n"), std::invalid_argument);
}

}  // namespace
}  // namespace profisched::dist
