#include "cnf/mux_instrument.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_map>
#include <utility>

#include "cache/artifact_cache.hpp"
#include "cnf/clause_stream.hpp"
#include "netlist/analysis.hpp"
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

// Cone cache tags. fanin_cone is a pure function of (netlist, roots), so
// (fingerprint, root tag) addresses a cone exactly; per-test cones use the
// erroneous output gate as tag.
constexpr std::uint64_t kNoConeTag = ~0ull;

std::shared_ptr<const std::vector<bool>> cached_cone(
    const Netlist& nl, const cache::ArtifactKey& nl_fp, std::uint64_t tag,
    const std::vector<GateId>& roots) {
  cache::KeyBuilder kb(cache::ArtifactKind::kCone);
  kb.mix(nl_fp).mix(tag);
  return cache::ArtifactCache::global().get_or_build<std::vector<bool>>(
      kb.key(),
      [&]() -> std::pair<std::shared_ptr<const std::vector<bool>>,
                         std::size_t> {
        auto cone =
            std::make_shared<std::vector<bool>>(fanin_cone(nl, roots));
        const std::size_t bytes = sizeof(*cone) + cone->size() / 8;
        return {std::move(cone), bytes};
      });
}

/// Cone-of-influence reduction: the fanin cone of each copy's constrained
/// output, indexed by test. Empty when the reduction is off (every gate is
/// encoded in every copy).
struct CopyCones {
  std::vector<std::shared_ptr<const std::vector<bool>>> cones;
  std::vector<std::uint64_t> tags;  // cache tag of each cone
};

/// Which gates are rooted where is decided here; `cone_of(tag, roots)`
/// supplies each cone. The stamped shell reads cones from the artifact
/// cache (templates need the union-restricted universe before they can
/// even be keyed); the walk shell computes them with fanin_cone directly,
/// so it stays an independent check of the cached cones.
template <class ConeOf>
CopyCones copy_cones(const Netlist& nl, const TestSet& tests,
                     const DiagnosisInstanceOptions& options,
                     ConeOf cone_of) {
  CopyCones out;
  if (!options.cone_of_influence) return out;
  out.cones.reserve(tests.size());
  out.tags.reserve(tests.size());
  for (const Test& test : tests) {
    const GateId out_gate = test_output_gate(nl, test);
    out.cones.push_back(cone_of(out_gate, {out_gate}));
    out.tags.push_back(out_gate);
  }
  return out;
}

CopyCones cached_copy_cones(const Netlist& nl, const cache::ArtifactKey& nl_fp,
                            const TestSet& tests,
                            const DiagnosisInstanceOptions& options) {
  return copy_cones(nl, tests, options,
                    [&](std::uint64_t tag, const std::vector<GateId>& roots) {
                      return cached_cone(nl, nl_fp, tag, roots);
                    });
}

/// The universe rule shared by both shells and diagnosis_universe():
/// sorted, deduplicated, validated instrumented set (empty request = every
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
  if (cones.cones.empty()) return universe;
  std::vector<bool> union_cone(nl.size(), false);
  for (const auto& cone : cones.cones) {
    for (GateId g = 0; g < nl.size(); ++g) {
      if ((*cone)[g]) union_cone[g] = true;
    }
  }
  std::erase_if(universe, [&](GateId g) { return !union_cone[g]; });
  return universe;
}

std::shared_ptr<const ClauseStream> cached_copy_template(
    const Netlist& nl, const cache::ArtifactKey& nl_fp,
    const std::vector<bool>* cone, std::uint64_t cone_tag,
    const std::vector<bool>& instrumented_flags,
    const std::vector<GateId>& instrumented, bool internal_decisions) {
  cache::KeyBuilder kb(cache::ArtifactKind::kCopyTemplate);
  kb.mix(nl_fp).mix(cone_tag);
  // The (cone-restricted) universe, not the requested one: two requests
  // that restrict to the same final set share the template.
  kb.mix(instrumented.size());
  for (const GateId g : instrumented) kb.mix(g);
  kb.mix(internal_decisions ? 1 : 0);
  return cache::ArtifactCache::global().get_or_build<ClauseStream>(
      kb.key(),
      [&]() -> std::pair<std::shared_ptr<const ClauseStream>, std::size_t> {
        auto ts = std::make_shared<ClauseStream>(
            build_copy_template(nl, cone, instrumented_flags,
                                internal_decisions));
        const std::size_t bytes = ts->bytes();
        return {std::move(ts), bytes};
      });
}

/// How one test's copy reaches the solver: stamped from a cached template
/// (`ts` set, its extern slots resolved to `extern_vars`), or, with no
/// template, encoded by walking the netlist over `cone` (nullptr = every
/// gate).
struct CopySource {
  std::shared_ptr<const ClauseStream> ts;
  std::vector<Var> extern_vars;
  const std::vector<bool>* cone = nullptr;
};

}  // namespace

struct DiagnosisInstance::CopyMaker {
  const Netlist* nl = nullptr;
  const TestSet* tests = nullptr;
  bool stamped = true;
  bool internal_decisions = false;
  cache::ArtifactKey nl_fp;
  CopyCones cones;
  std::vector<bool> instrumented_flags;
  /// One copy source per distinct cone tag, made on first use: tests sharing
  /// an erroneous output share one, and without COI every test shares the
  /// whole-circuit source.
  std::unordered_map<std::uint64_t, CopySource> sources;
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

namespace {

const CopySource& copy_source(DiagnosisInstance& inst, std::size_t t) {
  DiagnosisInstance::CopyMaker& maker = *inst.maker;
  const bool coi = !maker.cones.cones.empty();
  const std::uint64_t tag = coi ? maker.cones.tags[t] : kNoConeTag;
  auto [it, inserted] = maker.sources.try_emplace(tag);
  CopySource& source = it->second;
  if (!inserted) return source;
  source.cone = coi ? maker.cones.cones[t].get() : nullptr;
  if (maker.stamped) {
    source.ts = cached_copy_template(*maker.nl, maker.nl_fp, source.cone, tag,
                                     maker.instrumented_flags,
                                     inst.instrumented,
                                     maker.internal_decisions);
    source.extern_vars.reserve(source.ts->vars.mux_gates.size());
    for (const GateId g : source.ts->vars.mux_gates) {
      source.extern_vars.push_back(inst.select_var[inst.select_index[g]]);
    }
  }
  return source;
}

}  // namespace

std::vector<GateId> diagnosis_universe(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options) {
  return resolve_universe(
      nl, options,
      cached_copy_cones(nl, cache::netlist_fingerprint(nl), tests, options));
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
  maker.stamped = options.template_stamped;
  maker.internal_decisions = options.internal_decisions;
  if (maker.stamped) {
    maker.nl_fp = cache::netlist_fingerprint(nl);
    maker.cones = cached_copy_cones(nl, maker.nl_fp, tests, options);
  } else {
    maker.cones = copy_cones(
        nl, tests, options,
        [&](std::uint64_t, const std::vector<GateId>& roots) {
          return std::make_shared<const std::vector<bool>>(
              fanin_cone(nl, roots));
        });
  }
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
  maker.instrumented_flags.assign(nl.size(), false);
  for (std::size_t i = 0; i < n; ++i) {
    inst.select_var.push_back(solver.new_var(/*decidable=*/true));
    solver.freeze(inst.select_var.back());
    inst.select_index[inst.instrumented[i]] = static_cast<std::uint32_t>(i);
    maker.instrumented_flags[inst.instrumented[i]] = true;
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
  const Netlist& nl = *inst.maker->nl;
  const Test& test = (*inst.maker->tests)[t];
  assert(test.input_values.size() == nl.inputs().size());
  const CopySource& source = copy_source(inst, t);
  Solver& solver = inst.solver;
  CopyVars walked;
  const CopyVars* vars = &walked;
  Var base = 0;  // a stamped copy's variables are template-relative
  if (source.ts != nullptr) {
    base = stamp_clause_stream(solver, *source.ts, source.extern_vars);
    vars = &source.ts->vars;
  } else {
    walked = encode_copy(
        solver, nl, source.cone,
        [&](GateId g) {
          const std::uint32_t sel = inst.select_index[g];
          return sel == DiagnosisInstance::kNoSelect
                     ? Lit::undef()
                     : sat::pos(inst.select_var[sel]);
        },
        inst.maker->internal_decisions);
  }

  CircuitEncoding& enc = inst.copies[t];
  enc.gate_var.assign(nl.size(), -1);
  for (GateId g = 0; g < nl.size(); ++g) {
    if (vars->gate_var[g] >= 0) enc.gate_var[g] = base + vars->gate_var[g];
  }
  for (const auto& [input_pos, var] : vars->input_vars) {
    solver.add_clause(
        Lit(base + var, /*negated=*/!test.input_values[input_pos]));
  }
  const GateId out_gate = test_output_gate(nl, test);
  solver.add_clause(enc.lit(out_gate, /*negated=*/!test.correct_value));
}

DiagnosisInstance build_diagnosis_instance(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options) {
  DiagnosisInstance inst = build_diagnosis_shell(nl, tests, options);
  if (options.template_stamped) {
    // One exact variable reservation covering every copy: each variable
    // owns four watch-list objects, and letting those tables grow
    // geometrically across m stamps re-moves millions of vector headers —
    // measurably the most expensive part of batch variable allocation.
    std::size_t upcoming = 0;
    for (std::size_t t = 0; t < tests.size(); ++t) {
      upcoming += copy_source(inst, t).ts->num_locals;
    }
    inst.solver.reserve_vars(upcoming);
  }
  for (std::size_t t = 0; t < tests.size(); ++t) add_test_copy(inst, t);
  return inst;
}

}  // namespace satdiag
