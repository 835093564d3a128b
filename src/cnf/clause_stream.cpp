#include "cnf/clause_stream.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace satdiag {

namespace {

using sat::Lit;
using sat::Var;

/// Clause sink with the sat::Solver surface encode_copy needs,
/// writing normalized clauses over relative indices into a ClauseStream.
class TemplateSink {
 public:
  explicit TemplateSink(ClauseStream& out) : out_(&out) {}

  Var new_var(bool decidable = true, bool default_phase = false) {
    (void)default_phase;  // instance building never sets a phase hint
    out_->local_flags.push_back(decidable ? sat::Solver::kVarDecidable : 0);
    return static_cast<Var>(out_->num_locals++);
  }

  void freeze(Var v) {
    assert(v >= 0 && static_cast<std::uint32_t>(v) < out_->num_locals);
    out_->local_flags[static_cast<std::size_t>(v)] |= sat::Solver::kVarFrozen;
  }

  bool add_clause(sat::Clause lits) {
    // Same normalization add_clause applies (sort, dedup, tautology drop),
    // minus root-value filtering — templates have no assignments. Gate
    // fanins may repeat (e.g. AND(a, a)), so this is required, not cosmetic.
    std::sort(lits.begin(), lits.end());
    std::size_t out_n = 0;
    Lit prev = Lit::undef();
    for (const Lit l : lits) {
      if (l == ~prev) return true;  // tautology: drop clause
      if (l == prev) continue;
      lits[out_n++] = prev = l;
    }
    if (out_n < 2) ++out_->num_units;
    out_->sizes.push_back(static_cast<std::uint32_t>(out_n));
    for (std::size_t i = 0; i < out_n; ++i) {
      out_->lits.push_back(static_cast<std::uint32_t>(lits[i].index()));
    }
    return true;
  }

 private:
  ClauseStream* out_;
};

}  // namespace

std::size_t ClauseStream::bytes() const {
  return sizeof(ClauseStream) + local_flags.capacity() +
         vars.gate_var.capacity() * sizeof(Var) +
         vars.mux_gates.capacity() * sizeof(GateId) +
         vars.input_vars.capacity() * sizeof(vars.input_vars[0]) +
         lits.capacity() * sizeof(std::uint32_t) +
         sizes.capacity() * sizeof(std::uint32_t);
}

ClauseStream build_copy_template(const Netlist& nl,
                                 const std::vector<bool>* cone,
                                 const std::vector<bool>& instrumented,
                                 bool internal_decisions) {
  obs::Span span("cnf.template_build", "gates",
                 static_cast<std::int64_t>(nl.size()));
  assert(instrumented.size() == nl.size());

  ClauseStream ts;
  TemplateSink sink(ts);
  Var next_slot = 0;
  ts.vars = encode_copy(
      sink, nl, cone,
      [&](GateId g) {
        return instrumented[g]
                   ? sat::pos(ClauseStream::kExternVarBase + next_slot++)
                   : Lit::undef();
      },
      internal_decisions);

  static obs::Counter& templates_built =
      obs::MetricsRegistry::global().counter("cnf.templates_built");
  templates_built.add(1);
  return ts;
}

sat::Var stamp_clause_stream(sat::Solver& solver, const ClauseStream& ts,
                             std::span<const sat::Var> extern_vars) {
  obs::Span span("cnf.stamp_copy", "clauses",
                 static_cast<std::int64_t>(ts.sizes.size()));
  assert(extern_vars.size() == ts.vars.mux_gates.size());
  assert(ts.local_flags.size() == ts.num_locals);
  const Var base = solver.new_vars(ts.local_flags);

  // Every local is fresh (unassigned); with no template units and no extern
  // assigned at the root, no relocated literal has a value, and each clause
  // is attached as it stands, in template literal order. Otherwise (template
  // units, or selects already assigned at the root) each clause goes
  // through the simplifying add_clause, which drops satisfied clauses,
  // strips false literals and propagates units in order.
  const bool pristine = ts.num_units == 0 && !solver.any_assigned(extern_vars);
  sat::Clause clause;
  std::size_t pos = 0;
  for (const std::uint32_t size : ts.sizes) {
    clause.clear();
    for (std::uint32_t k = 0; k < size; ++k) {
      const auto as_lit = Lit::from_index(static_cast<int>(ts.lits[pos + k]));
      const Var v = as_lit.var();
      const Var resolved =
          v >= ClauseStream::kExternVarBase
              ? extern_vars[static_cast<std::size_t>(
                    v - ClauseStream::kExternVarBase)]
              : base + v;
      clause.push_back(Lit(resolved, as_lit.sign()));
    }
    pos += size;
    if (!(pristine ? solver.add_stamped_clause(clause)
                   : solver.add_clause(clause))) {
      break;
    }
  }
  static obs::Counter& copies_stamped =
      obs::MetricsRegistry::global().counter("cnf.copies_stamped");
  static obs::Counter& clauses_stamped =
      obs::MetricsRegistry::global().counter("cnf.clauses_stamped");
  copies_stamped.add(1);
  clauses_stamped.add(ts.sizes.size());
  return base;
}

}  // namespace satdiag
