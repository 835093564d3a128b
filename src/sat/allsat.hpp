// All-solutions SAT enumeration: the one solve -> block loop.
//
// BasicSATDiagnose (Fig. 3 of the paper) and SCDiagnose (Fig. 4) share one
// loop: solve under the cardinality bound, project the model onto the select
// lines, "add a blocking clause for each solution", repeat until UNSAT.
// enumerate() is that loop, and every all-solutions job in the tree drives
// it: every BSAT shard (one shard at one thread), COV, and the SAT ATPG
// fallback of test generation. The caller's on_model callback records its
// solution and returns the blocking clause (the negated asserted selects
// for subset blocking, the full cube for exact model enumeration); the loop
// owns the budget checks, the solve and the in-search blocking. Bounds stay
// with the callers: BSAT merges and cross-blocks its shards between them.
#pragma once

#include <functional>
#include <span>

#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace satdiag::sat {

/// Why enumerate() returned.
enum class EnumStop {
  kExhausted,   // UNSAT under the assumptions: no further solution
  kRootUnsat,   // a blocking clause made the formula UNSAT at the root
  kEmptyModel,  // on_model returned an empty clause: nothing left to block
  kCap,         // the cap predicate held
  kDeadline,    // the deadline (or another solver budget) ran out
};

/// True when the stop left solutions unseen (cap or deadline).
inline bool truncated(EnumStop stop) {
  return stop == EnumStop::kCap || stop == EnumStop::kDeadline;
}

/// Enumerate models under `assumptions`: before each solve check the
/// deadline and `cap_reached`, then hand each model to `on_model` and block
/// the clause it returns. Blocking is in-search (Solver::block_model), so
/// every literal of a returned clause must be over a decision variable. The
/// solver keeps the blocking clauses afterwards (that is what Fig. 3
/// prescribes: smaller corrections stay blocked as k increases).
EnumStop enumerate(Solver& solver, std::span<const Lit> assumptions,
                   Deadline deadline,
                   const std::function<bool()>& cap_reached,
                   const std::function<Clause(const Solver&)>& on_model);

}  // namespace satdiag::sat
