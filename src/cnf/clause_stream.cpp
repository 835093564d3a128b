#include "cnf/clause_stream.hpp"

#include <algorithm>
#include <cassert>

#include "cnf/tseitin.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace satdiag {

namespace {

using sat::Lit;
using sat::Var;

/// Clause sink with the sat::Solver surface encode_gate_function_into needs,
/// writing normalized clauses over relative indices into a ClauseStream.
class TemplateSink {
 public:
  explicit TemplateSink(ClauseStream& out) : out_(&out) {}

  Var new_var(bool decidable = true, bool default_phase = false) {
    (void)default_phase;  // instance building never sets a phase hint
    out_->local_flags.push_back(decidable ? ClauseStream::kDecidable : 0);
    return static_cast<Var>(out_->num_locals++);
  }

  void freeze(Var v) {
    assert(v >= 0 && static_cast<std::uint32_t>(v) < out_->num_locals);
    out_->local_flags[static_cast<std::size_t>(v)] |= ClauseStream::kFrozen;
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
    out_->sizes.push_back(static_cast<std::uint32_t>(out_n));
    for (std::size_t i = 0; i < out_n; ++i) {
      out_->lits.push_back(static_cast<std::uint32_t>(lits[i].index()));
    }
    return true;
  }
  bool add_clause(Lit a) { return add_clause(sat::Clause{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(sat::Clause{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) {
    return add_clause(sat::Clause{a, b, c});
  }

 private:
  ClauseStream* out_;
};

}  // namespace

std::size_t ClauseStream::bytes() const {
  return sizeof(ClauseStream) + local_flags.capacity() +
         extern_gates.capacity() * sizeof(GateId) +
         correction_local.capacity() * sizeof(std::uint32_t) +
         gate_local.capacity() * sizeof(std::int32_t) +
         input_locals.capacity() * sizeof(input_locals[0]) +
         lits.capacity() * sizeof(std::uint32_t) +
         sizes.capacity() * sizeof(std::uint32_t) +
         watch_plan_long.capacity() * sizeof(sat::StreamWatchOp) +
         watch_plan_bin.capacity() * sizeof(sat::StreamWatchOp);
}

ClauseStream build_copy_template(const Netlist& nl,
                                 const std::vector<bool>* cone,
                                 const std::vector<bool>& instrumented,
                                 bool gating_clauses,
                                 bool internal_decisions) {
  obs::Span span("cnf.template_build", "gates",
                 static_cast<std::int64_t>(nl.size()));
  assert(nl.finalized());
  assert(instrumented.size() == nl.size());
  assert(cone == nullptr || cone->size() == nl.size());

  ClauseStream ts;
  ts.gate_local.assign(nl.size(), -1);
  TemplateSink sink(ts);
  const auto in_copy = [&](GateId g) { return cone == nullptr || (*cone)[g]; };

  // The two passes replicate build_diagnosis_instance's per-copy walk in
  // lockstep: identical new_var order, identical clause emission order. Any
  // edit here must keep the walk encoder (template_stamped=false) in sync —
  // the clause_stream differential tests pin the two paths together.

  // Pass 1: one post-mux value variable per in-cone gate, topo order.
  for (const GateId g : nl.topo_order()) {
    if (!in_copy(g)) continue;
    ts.gate_local[g] = sink.new_var(internal_decisions);
  }

  // Pass 2: mux instrumentation + gate functions, topo order.
  std::vector<Lit> ins;
  for (const GateId g : nl.topo_order()) {
    if (!in_copy(g)) continue;
    const Lit out = Lit(static_cast<Var>(ts.gate_local[g]), false);
    Lit function_out = out;
    if (instrumented[g]) {
      const auto slot = static_cast<std::uint32_t>(ts.extern_gates.size());
      ts.extern_gates.push_back(g);
      const Lit s = sat::pos(ClauseStream::kExternVarBase +
                             static_cast<Var>(slot));
      const Var correction = sink.new_var(/*decidable=*/true);
      sink.freeze(correction);
      ts.correction_local.push_back(static_cast<std::uint32_t>(correction));
      // s -> (out != orig) via correction: c <-> (s & (out xor orig)).
      sink.add_clause(~s, ~out, sat::pos(correction));
      sink.add_clause(~s, out, sat::neg(correction));
      if (gating_clauses) sink.add_clause(s, sat::neg(correction));
      const Var orig = sink.new_var(/*decidable=*/false);
      sink.add_clause(s, ~out, sat::pos(orig));
      sink.add_clause(s, out, sat::neg(orig));
      function_out = sat::pos(orig);
    }
    switch (nl.type(g)) {
      case GateType::kInput:
      case GateType::kDff:
        break;  // free variable
      case GateType::kConst0:
        sink.add_clause(~function_out);
        break;
      case GateType::kConst1:
        sink.add_clause(function_out);
        break;
      default: {
        ins.clear();
        for (const GateId f : nl.fanins(g)) {
          assert(ts.gate_local[f] >= 0 && "cone must be fanin-closed");
          ins.push_back(Lit(static_cast<Var>(ts.gate_local[f]), false));
        }
        encode_gate_function_into(sink, nl.type(g), function_out, ins);
        break;
      }
    }
  }

  const auto& inputs = nl.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!in_copy(inputs[i])) continue;
    ts.input_locals.emplace_back(
        static_cast<std::uint32_t>(i),
        static_cast<std::uint32_t>(ts.gate_local[inputs[i]]));
  }

  // Watch plan: the two watched literals of every clause of size >= 2 are
  // its first two (the stream is normalized, and no template literal is
  // assigned), grouped by watch list so stamping fills each list in one run.
  {
    std::size_t pos = 0;
    std::uint32_t arena_off = 0;  // stream-relative arena word of the clause
    for (const std::uint32_t size : ts.sizes) {
      if (size < 2) {
        ++ts.num_units;
      } else {
        const std::uint32_t c0 = ts.lits[pos];
        const std::uint32_t c1 = ts.lits[pos + 1];
        auto& plan = size == 2 ? ts.watch_plan_bin : ts.watch_plan_long;
        const std::uint32_t off = size == 2 ? 0 : arena_off;
        plan.push_back({c0 ^ 1u, c1, off});  // watch list of ~lit: code^1
        plan.push_back({c1 ^ 1u, c0, off});
        if (size >= 3) arena_off += size + sat::kStampClauseOverhead;
      }
      pos += size;
    }
    const auto by_list = [](const sat::StreamWatchOp& a,
                            const sat::StreamWatchOp& b) {
      return a.watch_index < b.watch_index;
    };
    std::stable_sort(ts.watch_plan_long.begin(), ts.watch_plan_long.end(),
                     by_list);
    std::stable_sort(ts.watch_plan_bin.begin(), ts.watch_plan_bin.end(),
                     by_list);
  }

  static obs::Counter& templates_built =
      obs::MetricsRegistry::global().counter("cnf.templates_built");
  templates_built.add(1);
  return ts;
}

sat::Var stamp_clause_stream(sat::Solver& solver, const ClauseStream& ts,
                             std::span<const sat::Var> extern_vars) {
  obs::Span span("cnf.stamp_copy", "clauses",
                 static_cast<std::int64_t>(ts.sizes.size()));
  assert(extern_vars.size() == ts.extern_gates.size());
  static_assert(ClauseStream::kDecidable == sat::Solver::kVarDecidable &&
                ClauseStream::kFrozen == sat::Solver::kVarFrozen);
  assert(ts.local_flags.size() == ts.num_locals);
  const Var base = solver.new_vars(ts.local_flags);

  // Every local is fresh (unassigned); with no template units and no extern
  // assigned at the root, no stream literal has a value and the solver's
  // fused stamped load applies: it relocates template codes and the watch
  // plan inline, with no intermediate buffers.
  if (ts.num_units == 0 && !solver.any_assigned(extern_vars)) {
    solver.add_stamped_stream(ts.lits, ts.sizes, ts.watch_plan_long,
                              ts.watch_plan_bin, base,
                              ClauseStream::kExternVarBase, extern_vars);
  } else {
    // General case (template units, or selects already assigned at the
    // root): relocate clause by clause into the simplifying add_clause,
    // which drops satisfied clauses, strips false literals and propagates
    // units in order.
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
      if (!solver.add_clause(clause)) break;
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
