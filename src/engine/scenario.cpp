#include "engine/scenario.hpp"

#include <cctype>
#include <string>

#include "engine/detail/hash.hpp"

namespace profisched::engine {

std::optional<Policy> find_policy(std::string_view name, bool lowercase) {
  for (const Policy p : kAllPolicies) {
    std::string own(to_string(p));
    if (lowercase) {
      for (char& c : own) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (name == own) return p;
  }
  return std::nullopt;
}

std::uint64_t canonical_hash(const Scenario& sc) {
  detail::Fnv1a64 h;
  // Every vector is length-prefixed so adjacent fields cannot alias across
  // element boundaries (e.g. one master with two streams vs two masters with
  // one stream each must digest differently).
  const profibus::BusParameters& bus = sc.net.bus;
  h.i64(bus.bits_per_char)
      .i64(bus.t_id1)
      .i64(bus.t_sl)
      .i64(bus.max_tsdr)
      .i64(bus.min_tsdr)
      .i64(bus.max_retry)
      .i64(bus.token_frame_chars)
      .i64(sc.net.ttr);

  h.u64(sc.net.masters.size());
  for (const profibus::Master& m : sc.net.masters) {
    h.i64(m.longest_low_cycle).u64(m.high_streams.size());
    for (const profibus::MessageStream& s : m.high_streams) {
      h.i64(s.Ch).i64(s.D).i64(s.T).i64(s.J);
    }
  }

  h.u64(sc.transactions.size());
  for (const profibus::Transaction& t : sc.transactions) {
    h.i64(t.period).i64(t.deadline).u64(t.stages.size());
    for (const profibus::TransactionStage& st : t.stages) {
      h.u64(st.master).u64(st.stream).i64(st.task_c);
    }
  }

  h.u64(sc.frame_specs.size());
  for (const auto& master_specs : sc.frame_specs) {
    h.u64(master_specs.size());
    for (const profibus::MessageCycleSpec& spec : master_specs) {
      h.i64(spec.request_chars).i64(spec.response_chars);
    }
  }
  return h.digest();
}

}  // namespace profisched::engine
