#include "sat/allsat.hpp"

namespace satdiag::sat {

EnumStop enumerate(Solver& solver, std::span<const Lit> assumptions,
                   Deadline deadline,
                   const std::function<bool()>& cap_reached,
                   const std::function<Clause(const Solver&)>& on_model) {
  for (;;) {
    if (deadline.expired()) return EnumStop::kDeadline;
    if (cap_reached()) return EnumStop::kCap;
    solver.set_deadline(deadline);
    const LBool status = solver.solve(assumptions);
    if (status == LBool::kUndef) return EnumStop::kDeadline;
    if (status == LBool::kFalse) return EnumStop::kExhausted;
    Clause blocking = on_model(solver);
    if (blocking.empty()) return EnumStop::kEmptyModel;
    // In-search blocking: keeps the trail so the next solve() continues
    // where this model was found instead of replaying the search.
    if (!solver.block_model(std::move(blocking))) return EnumStop::kRootUnsat;
  }
}

}  // namespace satdiag::sat
