// formulation.hpp — selects between the paper's printed equations and the
// standard/refined literature forms where the two differ (see DESIGN.md §1,
// "Paper-literal vs refined formulations").
#pragma once

namespace profisched {

enum class Formulation {
  /// Exactly the equations as printed in Tovar & Vasques (1999):
  ///  * non-preemptive FP interference uses ⌈w/T⌉ and B = max C_lp (eqs. 1–2)
  ///  * the EDF demand function uses ⌈(t−D)/T⌉⁺ (eq. 3 / eq. 4)
  PaperLiteral,

  /// The refined forms from George, Rivierre & Spuri (1996) that later
  /// literature settled on:
  ///  * non-preemptive FP start-time interference uses ⌊w/T⌋ + 1 and
  ///    B = max (C_lp − 1)
  ///  * the demand-bound function uses (⌊(t−D)/T⌋ + 1)⁺
  Refined,
};

/// Library-wide default: Refined (the correct forms). Benches that reproduce
/// the paper's own numbers pass PaperLiteral explicitly.
inline constexpr Formulation kDefaultFormulation = Formulation::Refined;

/// The two choices that separate a message from a task in the
/// non-preemptive kernels: the paper's message analyses (§4.3) are the task
/// analyses with every C_i = T_cycle, blocking T*_cycle and responses
/// measured from AP-queue insertion.
enum class Blocking {
  Started,  ///< tasks: FP per the Formulation (C or C − 1), NP-EDF C − 1
  Full,     ///< messages: a pending request blocks for its full C (eqs. 16, 18)
};

enum class Origin {
  Arrival,  ///< tasks: R from the triggering event's arrival (J_i added)
  Queue,    ///< messages: R from AP-queue insertion (J_i is part of §4.2's E)
};

struct ItemModel {
  Blocking blocking = Blocking::Started;
  Origin origin = Origin::Arrival;
};

inline constexpr ItemModel kTaskModel{};
inline constexpr ItemModel kMessageModel{Blocking::Full, Origin::Queue};

}  // namespace profisched
