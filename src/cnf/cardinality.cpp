#include "cnf/cardinality.hpp"

#include <algorithm>
#include <functional>

namespace satdiag {

using sat::Lit;
using sat::Solver;

std::vector<Lit> CardinalityTracker::assume_at_most(unsigned bound) const {
  // "at most bound" == NOT "at least bound+1"; monotonicity of the counter
  // makes the single strongest assumption sufficient.
  if (bound >= geq.size()) return {};
  return {~geq[bound]};
}

CardinalityTracker encode_cardinality_tracker(Solver& solver,
                                              std::vector<Lit> lits,
                                              unsigned max_bound) {
  CardinalityTracker tracker;
  tracker.inputs = std::move(lits);
  const std::size_t n = tracker.inputs.size();
  if (n == 0) return tracker;
  const std::size_t cap = std::min<std::size_t>(n, max_bound + 1);

  // Recursive balanced merge; outputs are capped unary counts.
  std::function<std::vector<Lit>(std::size_t, std::size_t)> build =
      [&](std::size_t begin, std::size_t end) -> std::vector<Lit> {
    if (end - begin == 1) return {tracker.inputs[begin]};
    const std::size_t mid = begin + (end - begin) / 2;
    const std::vector<Lit> left = build(begin, mid);
    const std::vector<Lit> right = build(mid, end);
    const std::size_t out_size =
        std::min<std::size_t>(left.size() + right.size(), cap);
    std::vector<Lit> out;
    out.reserve(out_size);
    for (std::size_t j = 0; j < out_size; ++j) {
      out.push_back(sat::pos(solver.new_var(/*decidable=*/false)));
    }
    // (>=i on the left) and (>=j on the right) imply >= min(i+j, cap).
    for (std::size_t i = 0; i <= left.size(); ++i) {
      for (std::size_t j = 0; j <= right.size(); ++j) {
        if (i + j == 0) continue;
        const std::size_t t = std::min(i + j, cap);
        sat::Clause clause;
        if (i > 0) clause.push_back(~left[i - 1]);
        if (j > 0) clause.push_back(~right[j - 1]);
        clause.push_back(out[t - 1]);
        solver.add_clause(std::move(clause));
        if (i + j > cap) break;  // higher j only repeats the capped clause
      }
    }
    return out;
  };
  tracker.geq = build(0, n);
  // Freeze the counter outputs: assume_at_most mentions them in future
  // assumptions, which variable elimination must never invalidate.
  for (Lit g : tracker.geq) solver.freeze(g.var());
  return tracker;
}

}  // namespace satdiag
