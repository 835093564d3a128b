#include "cnf/mux_instrument.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "cache/artifact_cache.hpp"
#include "netlist/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace satdiag {

using sat::Lit;
using sat::Solver;
using sat::Var;

std::vector<GateId> DiagnosisInstance::selected_gates_from_model() const {
  std::vector<GateId> out;
  for (std::size_t i = 0; i < select_var.size(); ++i) {
    if (solver.model_value(select_var[i]) == sat::LBool::kTrue) {
      out.push_back(instrumented[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}


namespace {

/// Cone-of-influence reduction: the fanin cone of each copy's constrained
/// output, indexed by test. Empty when the reduction is off (every gate is
/// encoded in every copy).
using CopyCones = std::vector<std::shared_ptr<const std::vector<bool>>>;

/// fanin_cone(nl, {root}) from the process-wide artifact cache. The cone is
/// a pure function of (netlist, root), so the netlist fingerprint and the
/// root address it exactly.
std::shared_ptr<const std::vector<bool>> cached_cone(
    const Netlist& nl, const cache::ArtifactKey& nl_fp, GateId root) {
  cache::KeyBuilder kb(cache::ArtifactKind::kCone);
  kb.mix(nl_fp).mix(root);
  return cache::ArtifactCache::global().get_or_build<std::vector<bool>>(
      kb.key(),
      [&]() -> std::pair<std::shared_ptr<const std::vector<bool>>,
                         std::size_t> {
        auto cone =
            std::make_shared<std::vector<bool>>(fanin_cone(nl, {root}));
        const std::size_t bytes = sizeof(*cone) + cone->size() / 8;
        return {std::move(cone), bytes};
      });
}

CopyCones copy_cones(const Netlist& nl, const TestSet& tests,
                     const DiagnosisInstanceOptions& options) {
  CopyCones cones;
  if (!options.cone_of_influence) return cones;
  const cache::ArtifactKey nl_fp = cache::netlist_fingerprint(nl);
  cones.reserve(tests.size());
  for (const Test& test : tests) {
    cones.push_back(cached_cone(nl, nl_fp, test_output_gate(nl, test)));
  }
  return cones;
}

/// The universe rule shared by the shell and diagnosis_universe(): sorted,
/// deduplicated, validated instrumented set (empty request = every
/// combinational gate), restricted to the union of the copy cones.
std::vector<GateId> resolve_universe(const Netlist& nl,
                                     const DiagnosisInstanceOptions& options,
                                     const CopyCones& cones) {
  std::vector<GateId> universe;
  if (options.instrumented.empty()) {
    for (GateId g = 0; g < nl.size(); ++g) {
      if (nl.is_combinational(g)) universe.push_back(g);
    }
  } else {
    universe = options.instrumented;
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());
    for (GateId g : universe) {
      if (!nl.is_combinational(g)) {
        throw NetlistError("only combinational gates can be instrumented");
      }
    }
  }
  if (cones.empty()) return universe;
  std::vector<bool> union_cone(nl.size(), false);
  for (const auto& cone : cones) {
    for (GateId g = 0; g < nl.size(); ++g) {
      if ((*cone)[g]) union_cone[g] = true;
    }
  }
  std::erase_if(universe, [&](GateId g) { return !union_cone[g]; });
  return universe;
}

/// A copy is pristine when none of its clauses can meet a root value: no
/// const gate puts a unit clause into it, and none of its select lines is
/// assigned at the root. Its clauses are then attached as they stand.
bool pristine_copy(const DiagnosisInstance& inst, const Netlist& nl,
                   const std::vector<bool>* cone) {
  std::vector<Var> selects;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (cone != nullptr && !(*cone)[g]) continue;
    const GateType type = nl.type(g);
    if (type == GateType::kConst0 || type == GateType::kConst1) return false;
    const std::uint32_t sel = inst.select_index[g];
    if (sel != DiagnosisInstance::kNoSelect) {
      selects.push_back(inst.select_var[sel]);
    }
  }
  return !inst.solver.any_assigned(selects);
}

/// The clause sink encode_copy writes one copy through. Each clause is
/// normalized first: the copy's own literals (variables allocated since the
/// copy began) sorted by index, then the select guard; duplicates removed,
/// tautologies dropped. A pristine copy attaches the clause as it stands
/// (sat::Solver::add_stamped_clause), so a guarded clause watches two copy
/// literals, not its select line, whose value every copy shares. Any other
/// copy sends it through add_clause, which drops satisfied clauses, strips
/// false literals and propagates units in order. The attach rule decides
/// the watch lists, and with them the search.
class CopySink {
 public:
  CopySink(Solver& solver, bool pristine)
      : solver_(&solver), first_own_(solver.num_vars()), pristine_(pristine) {}

  Var new_var(bool decidable = true, bool default_phase = false) {
    return solver_->new_var(decidable, default_phase);
  }
  void freeze(Var v) { solver_->freeze(v); }

  bool add_clause(sat::Clause lits) {
    // Gate fanins may repeat (e.g. AND(a, a)), so the dedup is required.
    std::sort(lits.begin(), lits.end(), [&](Lit a, Lit b) {
      const bool a_shared = a.var() < first_own_;
      const bool b_shared = b.var() < first_own_;
      return a_shared != b_shared ? b_shared : a < b;
    });
    std::size_t out_n = 0;
    Lit prev = Lit::undef();
    for (const Lit l : lits) {
      if (l == ~prev) return true;  // tautology: drop clause
      if (l == prev) continue;
      lits[out_n++] = prev = l;
    }
    lits.resize(out_n);
    ++num_clauses_;
    return pristine_ ? solver_->add_stamped_clause(lits)
                     : solver_->add_clause(std::move(lits));
  }

  /// Normalized clauses received, units included.
  std::uint64_t num_clauses() const { return num_clauses_; }

 private:
  Solver* solver_;
  Var first_own_;
  bool pristine_;
  std::uint64_t num_clauses_ = 0;
};

}  // namespace

struct DiagnosisInstance::CopyMaker {
  const Netlist* nl = nullptr;
  const TestSet* tests = nullptr;
  bool internal_decisions = false;
  CopyCones cones;
};

DiagnosisInstance::DiagnosisInstance() = default;
DiagnosisInstance::DiagnosisInstance(DiagnosisInstance&&) noexcept = default;
DiagnosisInstance& DiagnosisInstance::operator=(DiagnosisInstance&&) noexcept =
    default;
DiagnosisInstance::~DiagnosisInstance() = default;

std::size_t DiagnosisInstance::num_copies() const {
  return static_cast<std::size_t>(
      std::count_if(copies.begin(), copies.end(),
                    [](const CircuitEncoding& c) { return !c.gate_var.empty(); }));
}

std::vector<GateId> diagnosis_universe(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options) {
  return resolve_universe(nl, options, copy_cones(nl, tests, options));
}

DiagnosisInstance build_diagnosis_shell(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options) {
  obs::Span span("cnf.build_instance", "tests",
                 static_cast<std::int64_t>(tests.size()));
  assert(nl.finalized());
  assert(!tests.empty());
  DiagnosisInstance inst;
  inst.maker = std::make_unique<DiagnosisInstance::CopyMaker>();
  DiagnosisInstance::CopyMaker& maker = *inst.maker;
  maker.nl = &nl;
  maker.tests = &tests;
  maker.internal_decisions = options.internal_decisions;
  maker.cones = copy_cones(nl, tests, options);
  inst.instrumented = resolve_universe(nl, options, maker.cones);
  inst.copies.resize(tests.size());

  // Shared select lines (free/decision variables). Frozen: the diagnosis
  // layers mention them in assumptions, blocking clauses, partition clauses
  // and late test copies long after inprocessing has started.
  Solver& solver = inst.solver;
  const std::size_t n = inst.instrumented.size();
  // Totalizer aux variables: at most n - 1 merge nodes over the n selects,
  // each with at most min(n, max_k + 1) outputs, so rows * n bounds them.
  // One reservation for both keeps the per-variable tables from growing
  // geometrically under them.
  const std::size_t rows = std::min<std::size_t>(n, options.max_k + 1);
  solver.reserve_vars(n + rows * n);
  inst.select_index.assign(nl.size(), DiagnosisInstance::kNoSelect);
  for (std::size_t i = 0; i < n; ++i) {
    inst.select_var.push_back(solver.new_var(/*decidable=*/true));
    solver.freeze(inst.select_var.back());
    inst.select_index[inst.instrumented[i]] = static_cast<std::uint32_t>(i);
  }

  // Cardinality over the select lines.
  std::vector<Lit> select_lits;
  select_lits.reserve(n);
  for (Var s : inst.select_var) select_lits.push_back(sat::pos(s));
  inst.cardinality = encode_cardinality_tracker(
      solver, std::move(select_lits), options.max_k);
  return inst;
}

void add_test_copy(DiagnosisInstance& inst, std::size_t t) {
  assert(inst.maker != nullptr && !inst.has_copy(t));
  obs::Span span("cnf.stamp_copy", "test", static_cast<std::int64_t>(t));
  const DiagnosisInstance::CopyMaker& maker = *inst.maker;
  const Netlist& nl = *maker.nl;
  const Test& test = (*maker.tests)[t];
  assert(test.input_values.size() == nl.inputs().size());
  const std::vector<bool>* cone =
      maker.cones.empty() ? nullptr : maker.cones[t].get();
  Solver& solver = inst.solver;
  CopySink sink(solver, pristine_copy(inst, nl, cone));
  CopyVars vars = encode_copy(
      sink, nl, cone,
      [&](GateId g) {
        const std::uint32_t sel = inst.select_index[g];
        return sel == DiagnosisInstance::kNoSelect
                   ? Lit::undef()
                   : sat::pos(inst.select_var[sel]);
      },
      maker.internal_decisions);
  static obs::Counter& copies_stamped =
      obs::MetricsRegistry::global().counter("cnf.copies_stamped");
  static obs::Counter& clauses_stamped =
      obs::MetricsRegistry::global().counter("cnf.clauses_stamped");
  copies_stamped.add(1);
  clauses_stamped.add(sink.num_clauses());

  CircuitEncoding& enc = inst.copies[t];
  enc.gate_var = std::move(vars.gate_var);
  for (const auto& [input_pos, var] : vars.input_vars) {
    solver.add_clause(Lit(var, /*negated=*/!test.input_values[input_pos]));
  }
  const GateId out_gate = test_output_gate(nl, test);
  solver.add_clause(enc.lit(out_gate, /*negated=*/!test.correct_value));
}

DiagnosisInstance build_diagnosis_instance(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options) {
  DiagnosisInstance inst = build_diagnosis_shell(nl, tests, options);
  for (std::size_t t = 0; t < tests.size(); ++t) add_test_copy(inst, t);
  return inst;
}

}  // namespace satdiag
