// Unit tests for the network loader (INI → profibus::Network), plus a
// mutation suite over the shipped configs: every mutant loads or throws a
// typed error.
#include "config/network_loader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "profibus/dispatching.hpp"
#include "profibus/ttr_setting.hpp"

namespace profisched::config {
namespace {

constexpr const char* kMinimal = R"(
[network]
ttr = 5000

[master]
name = plc

[stream]
name = sensor
request_chars = 10
response_chars = 14
period_ms = 50
deadline_ms = 25
)";

TEST(NetworkLoader, MinimalNetwork) {
  const LoadedNetwork ln = load_network(parse_ini(kMinimal));
  EXPECT_EQ(ln.net.n_masters(), 1u);
  EXPECT_EQ(ln.net.masters[0].name, "plc");
  ASSERT_EQ(ln.net.masters[0].nh(), 1u);
  const auto& s = ln.net.masters[0].high_streams[0];
  EXPECT_EQ(s.name, "sensor");
  EXPECT_EQ(s.T, 25'000);  // 50 ms at the default 500 ticks/ms
  EXPECT_EQ(s.D, 12'500);
  EXPECT_EQ(s.Ch, profibus::worst_case_cycle_time(ln.net.bus,
                                                  profibus::MessageCycleSpec{10, 14}));
  EXPECT_EQ(ln.net.ttr, 5'000);
  EXPECT_FALSE(ln.ttr_auto);
  ASSERT_EQ(ln.specs.size(), 1u);
  ASSERT_EQ(ln.specs[0].size(), 1u);
}

TEST(NetworkLoader, TicksAndMsAreExclusive) {
  const std::string both = std::string(kMinimal) + "\n[stream]\nname=x\nrequest_chars=8\n"
                                                   "response_chars=8\nperiod=100\nperiod_ms=5\n"
                                                   "deadline_ms=5\n";
  EXPECT_THROW((void)load_network(parse_ini(both)), IniError);

  const std::string neither = std::string(kMinimal) + "\n[stream]\nname=x\nrequest_chars=8\n"
                                                      "response_chars=8\ndeadline_ms=5\n";
  EXPECT_THROW((void)load_network(parse_ini(neither)), IniError);
}

TEST(NetworkLoader, AutoTtrUsesEq15) {
  const std::string auto_ttr = R"(
[network]
ttr = auto

[master]
name = plc

[stream]
name = s
request_chars = 10
response_chars = 14
period_ms = 100
deadline_ms = 60
)";
  const LoadedNetwork ln = load_network(parse_ini(auto_ttr));
  EXPECT_TRUE(ln.ttr_auto);
  const auto best = profibus::max_schedulable_ttr(ln.net);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(ln.net.ttr, *best);
  EXPECT_TRUE(analyze_network(ln.net, profibus::ApPolicy::Fcfs).schedulable);
}

TEST(NetworkLoader, BusOverridesApply) {
  const std::string with_bus = std::string("[bus]\nmax_retry = 3\nt_sl = 200\n") + kMinimal;
  const LoadedNetwork ln = load_network(parse_ini(with_bus));
  EXPECT_EQ(ln.net.bus.max_retry, 3);
  EXPECT_EQ(ln.net.bus.t_sl, 200);
  // Ch reflects the retry count: 3 extra (request + t_sl) attempts.
  EXPECT_GT(ln.net.masters[0].high_streams[0].Ch,
            profibus::worst_case_cycle_time(profibus::BusParameters{},
                                            profibus::MessageCycleSpec{10, 14}));
}

TEST(NetworkLoader, LowPriorityCycleDerivedFromChars) {
  const std::string with_lp = R"(
[network]
ttr = 5000

[master]
name = plc
low_request_chars = 30
low_response_chars = 30

[stream]
name = s
request_chars = 8
response_chars = 8
period_ms = 50
deadline_ms = 40
)";
  const LoadedNetwork ln = load_network(parse_ini(with_lp));
  EXPECT_EQ(ln.net.masters[0].longest_low_cycle,
            profibus::worst_case_cycle_time(ln.net.bus, profibus::MessageCycleSpec{30, 30}));
}

TEST(NetworkLoader, LpCharsMustComeInPairs) {
  const std::string bad = R"(
[network]
ttr = 5000
[master]
low_request_chars = 30
[stream]
name = s
request_chars = 8
response_chars = 8
period_ms = 50
deadline_ms = 40
)";
  EXPECT_THROW((void)load_network(parse_ini(bad)), IniError);
}

TEST(NetworkLoader, MillisecondDurationsOutOfRangeRejected) {
  // period_ms × ticks_per_ms must be a finite tick count that fits in Ticks:
  // casting anything else to Ticks is undefined behaviour. The error names
  // the key and its line (the `period_ms` entry is line 9).
  constexpr const char* kHead =
      "[network]\nttr = 5000\n[master]\nname = plc\n[stream]\nname = s\n"
      "request_chars = 8\nresponse_chars = 8\n";
  for (const std::string value : {"1e300", "1e18", "nan"}) {
    const std::string entry = "period_ms = " + value;
    try {
      (void)load_network(parse_ini(kHead + entry + "\ndeadline_ms = 5\n"));
      ADD_FAILURE() << entry << " was accepted";
    } catch (const IniError& e) {
      EXPECT_EQ(e.line(), 9u) << entry;
      EXPECT_NE(std::string(e.what()).find("'" + entry + "'"), std::string::npos) << e.what();
    }
  }
}

TEST(NetworkLoader, StreamBeforeMasterRejected) {
  EXPECT_THROW((void)load_network(parse_ini("[network]\nttr=1\n[stream]\nname=s\n"
                                            "request_chars=8\nresponse_chars=8\n"
                                            "period=10\ndeadline=10\n")),
               IniError);
}

TEST(NetworkLoader, MissingNetworkSectionRejected) {
  EXPECT_THROW((void)load_network(parse_ini("[master]\nname=m\n")), std::invalid_argument);
}

TEST(NetworkLoader, ShippedConfigsLoadAndMatchScenarios) {
  // The repo's example configs must stay loadable and semantically intact.
  const LoadedNetwork cell = load_network_file("configs/factory_cell.ini");
  EXPECT_EQ(cell.net.n_masters(), 3u);
  EXPECT_EQ(cell.net.total_high_streams(), 9u);
  EXPECT_TRUE(analyze_network(cell.net, profibus::ApPolicy::Dm).schedulable);

  const LoadedNetwork mix = load_network_file("configs/tight_deadline_mix.ini");
  EXPECT_FALSE(analyze_network(mix.net, profibus::ApPolicy::Fcfs).schedulable);
  EXPECT_TRUE(analyze_network(mix.net, profibus::ApPolicy::Dm).schedulable);
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

/// One mutation of `text` at a random position: a truncation, a bit flip, a
/// byte replaced by or inserted from the INI alphabet, or a splice of another
/// stretch of the file.
std::string mutate(const std::string& text, Xorshift& rng) {
  static constexpr char kAlphabet[] = "0123456789.e-+_ =[]#;\nabcdefghijklmnoprstuvwxyz";
  std::string m = text;
  const std::size_t pos = rng.next() % m.size();
  const char c = kAlphabet[rng.next() % (sizeof kAlphabet - 1)];
  switch (rng.next() % 5) {
    case 0:
      m.resize(pos);
      break;
    case 1:
      m[pos] = static_cast<char>(m[pos] ^ (1 << (rng.next() % 8)));
      break;
    case 2:
      m[pos] = c;
      break;
    case 3:
      m.insert(pos, 1, c);
      break;
    default: {
      const std::size_t from = rng.next() % text.size();
      m.insert(pos, text.substr(from, 1 + rng.next() % 40));
      break;
    }
  }
  return m;
}

// ROADMAP's fuzz contract for the INI loader: a mutant of a shipped config
// either loads a network or is rejected with IniError (syntax, a bad value,
// a misplaced section) or std::invalid_argument (a network the model
// refuses). No other exception, and no crash or sanitizer report under the
// ASan+UBSan job, which runs this suite through ctest.
TEST(NetworkLoader, MutantsLoadOrThrowTyped) {
  constexpr int kMutantsPerConfig = 20'000;
  Xorshift rng{0xbf58476d1ce4e5b9ULL};
  for (const char* path : {"configs/factory_cell.ini", "configs/tight_deadline_mix.ini"}) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::size_t loaded = 0, ini_errors = 0, invalid = 0, other = 0;
    for (int i = 0; i < kMutantsPerConfig; ++i) {
      const std::string m = mutate(text, rng);
      try {
        (void)load_network(parse_ini(m));
        ++loaded;
      } catch (const IniError&) {
        ++ini_errors;
      } catch (const std::invalid_argument&) {
        ++invalid;
      } catch (const std::exception& e) {
        if (++other <= 3) ADD_FAILURE() << "untyped error: " << e.what() << "\n" << m;
      }
    }
    EXPECT_EQ(other, 0u) << path;
    // Each outcome occurs, so the mutants reach past the parser into the
    // loader and the model's validation.
    EXPECT_GT(loaded, 0u) << path;
    EXPECT_GT(ini_errors, 0u) << path;
    EXPECT_GT(invalid, 0u) << path;
  }
}

}  // namespace
}  // namespace profisched::config
