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
/// supplies each cone. The stamped builder reads cones from the artifact
/// cache (templates need the union-restricted universe before they can
/// even be keyed); the walk builder computes them with fanin_cone directly,
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

/// The universe rule shared by both builders and diagnosis_universe():
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
    const std::vector<GateId>& instrumented,
    const DiagnosisInstanceOptions& options) {
  cache::KeyBuilder kb(cache::ArtifactKind::kCopyTemplate);
  kb.mix(nl_fp).mix(cone_tag);
  // The (cone-restricted) universe, not the requested one: two requests
  // that restrict to the same final set share the template.
  kb.mix(instrumented.size());
  for (const GateId g : instrumented) kb.mix(g);
  kb.mix(options.gating_clauses ? 1 : 0);
  kb.mix(options.internal_decisions ? 1 : 0);
  return cache::ArtifactCache::global().get_or_build<ClauseStream>(
      kb.key(),
      [&]() -> std::pair<std::shared_ptr<const ClauseStream>, std::size_t> {
        auto ts = std::make_shared<ClauseStream>(
            build_copy_template(nl, cone, instrumented_flags,
                                options.gating_clauses,
                                options.internal_decisions));
        const std::size_t bytes = ts->bytes();
        return {std::move(ts), bytes};
      });
}

/// Template-stamped construction: identical variable numbering and clause
/// database as the walk below, but the per-copy encoder runs once per
/// distinct cone (process-wide, via the artifact cache) instead of once per
/// test.
DiagnosisInstance build_stamped_instance(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options) {
  DiagnosisInstance inst;
  Solver& solver = inst.solver;
  const cache::ArtifactKey nl_fp = cache::netlist_fingerprint(nl);
  const CopyCones cones = cached_copy_cones(nl, nl_fp, tests, options);
  inst.instrumented = resolve_universe(nl, options, cones);

  // Shared select lines first — identical allocation order to the walk.
  inst.select_index.assign(nl.size(), DiagnosisInstance::kNoSelect);
  for (std::size_t i = 0; i < inst.instrumented.size(); ++i) {
    inst.select_var.push_back(solver.new_var(/*decidable=*/true));
    solver.freeze(inst.select_var.back());
    inst.select_index[inst.instrumented[i]] = static_cast<std::uint32_t>(i);
  }

  std::vector<bool> instrumented_flags(nl.size(), false);
  for (const GateId g : inst.instrumented) instrumented_flags[g] = true;

  // One template (+ its extern-slot → select-var map) per distinct cone tag.
  // Tests sharing an erroneous output share a plan; without COI every test
  // shares the single full-circuit plan.
  struct CopyPlan {
    std::shared_ptr<const ClauseStream> ts;
    std::vector<Var> extern_vars;
  };
  std::unordered_map<std::uint64_t, CopyPlan> plans;
  const auto plan_for = [&](std::size_t t) -> const CopyPlan& {
    const bool coi = !cones.cones.empty();
    const std::uint64_t tag = coi ? cones.tags[t] : kNoConeTag;
    auto [it, inserted] = plans.try_emplace(tag);
    if (inserted) {
      const std::vector<bool>* cone = coi ? cones.cones[t].get() : nullptr;
      it->second.ts = cached_copy_template(nl, nl_fp, cone, tag,
                                           instrumented_flags,
                                           inst.instrumented, options);
      it->second.extern_vars.reserve(it->second.ts->extern_gates.size());
      for (const GateId g : it->second.ts->extern_gates) {
        it->second.extern_vars.push_back(
            inst.select_var[inst.select_index[g]]);
      }
    }
    return it->second;
  };

  // One exact variable reservation covering every upcoming copy: each
  // variable owns four watch-list objects, and letting those tables grow
  // geometrically across m stamps re-moves millions of vector headers —
  // measurably the most expensive part of batch variable allocation.
  {
    std::size_t upcoming = 0;
    for (std::size_t t = 0; t < tests.size(); ++t) {
      upcoming += plan_for(t).ts->num_locals;
    }
    // Cardinality counter aux variables (<= (max_k + 1) rows per select for
    // both counter encodings): left out, the counter's first new_var would
    // re-move every just-reserved table.
    const std::size_t rows = std::min<std::size_t>(inst.select_var.size(),
                                                   options.max_k + 1);
    upcoming += rows * inst.select_var.size();
    solver.reserve_vars(upcoming);
  }

  for (std::size_t t = 0; t < tests.size(); ++t) {
    const Test& test = tests[t];
    assert(test.input_values.size() == nl.inputs().size());

    const CopyPlan& plan = plan_for(t);
    const ClauseStream& ts = *plan.ts;
    const Var base = stamp_clause_stream(solver, ts, plan.extern_vars);

    CircuitEncoding enc;
    enc.gate_var.assign(nl.size(), -1);
    for (GateId g = 0; g < nl.size(); ++g) {
      if (ts.gate_local[g] >= 0) {
        enc.gate_var[g] = base + static_cast<Var>(ts.gate_local[g]);
      }
    }
    std::vector<Var>& corrections = inst.correction_var.emplace_back();
    corrections.resize(inst.instrumented.size(), -1);
    for (std::size_t j = 0; j < ts.extern_gates.size(); ++j) {
      corrections[inst.select_index[ts.extern_gates[j]]] =
          base + static_cast<Var>(ts.correction_local[j]);
    }

    // Per-test unit constraints, in the walk's order: inputs, then the
    // erroneous output.
    for (const auto& [input_pos, local] : ts.input_locals) {
      solver.add_clause(Lit(base + static_cast<Var>(local),
                            /*negated=*/!test.input_values[input_pos]));
    }
    const GateId out_gate = test_output_gate(nl, test);
    solver.add_clause(enc.lit(out_gate, /*negated=*/!test.correct_value));

    inst.copies.push_back(std::move(enc));
  }

  std::vector<Lit> select_lits;
  select_lits.reserve(inst.select_var.size());
  for (Var s : inst.select_var) select_lits.push_back(sat::pos(s));
  inst.cardinality = encode_cardinality_tracker(
      solver, std::move(select_lits), options.max_k, options.card_encoding);

  return inst;
}

}  // namespace

std::vector<GateId> diagnosis_universe(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options) {
  return resolve_universe(
      nl, options,
      cached_copy_cones(nl, cache::netlist_fingerprint(nl), tests, options));
}

DiagnosisInstance build_diagnosis_instance(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options) {
  obs::Span span("cnf.build_instance", "tests",
                 static_cast<std::int64_t>(tests.size()));
  assert(nl.finalized());
  assert(!tests.empty());
  if (options.template_stamped) {
    return build_stamped_instance(nl, tests, options);
  }

  // Reference walk encoder: one netlist traversal per test copy. Kept (under
  // template_stamped=false) as the anchor the stamped path is differentially
  // tested against — every change here must be mirrored in
  // build_copy_template and vice versa.
  DiagnosisInstance inst;
  Solver& solver = inst.solver;

  const CopyCones cones = copy_cones(
      nl, tests, options,
      [&](std::uint64_t, const std::vector<GateId>& roots) {
        return std::make_shared<const std::vector<bool>>(
            fanin_cone(nl, roots));
      });
  inst.instrumented = resolve_universe(nl, options, cones);
  const auto in_copy = [&](std::size_t t, GateId g) -> bool {
    return cones.cones.empty() || (*cones.cones[t])[g];
  };

  // Shared select lines (free/decision variables). Frozen: the diagnosis
  // layers mention them in assumptions, blocking clauses, and partition
  // clauses long after inprocessing has started.
  inst.select_index.assign(nl.size(), DiagnosisInstance::kNoSelect);
  for (std::size_t i = 0; i < inst.instrumented.size(); ++i) {
    inst.select_var.push_back(solver.new_var(/*decidable=*/true));
    solver.freeze(inst.select_var.back());
    inst.select_index[inst.instrumented[i]] =
        static_cast<std::uint32_t>(i);
  }

  std::vector<Lit> ins;
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const Test& test = tests[t];
    assert(test.input_values.size() == nl.inputs().size());

    CircuitEncoding enc;
    enc.gate_var.assign(nl.size(), -1);
    std::vector<Var>& corrections = inst.correction_var.emplace_back();
    corrections.resize(inst.instrumented.size(), -1);

    for (GateId g : nl.topo_order()) {
      if (!in_copy(t, g)) continue;  // cannot influence this copy's outputs
      // Variable carrying the value seen by fanouts (post-mux).
      enc.gate_var[g] = solver.new_var(options.internal_decisions);
    }
    for (GateId g : nl.topo_order()) {
      if (!in_copy(t, g)) continue;
      const std::uint32_t sel = inst.select_index[g];
      Lit function_out = enc.lit(g);
      if (sel != DiagnosisInstance::kNoSelect) {
        // Correction value c_g^t: a genuinely free variable. Frozen: the
        // effect/repair layers assume it and read its model value.
        const Var c = solver.new_var(/*decidable=*/true);
        solver.freeze(c);
        corrections[sel] = c;
        const Lit s = sat::pos(inst.select_var[sel]);
        const Lit out = enc.lit(g);
        // s -> (out == c);  !s -> (out == original function value).
        solver.add_clause(~s, ~out, sat::pos(c));
        solver.add_clause(~s, out, sat::neg(c));
        if (options.gating_clauses) {
          solver.add_clause(s, sat::neg(c));  // c == 0 while s == 0
        }
        // The original function drives a fresh internal node.
        const Var orig = solver.new_var(/*decidable=*/false);
        solver.add_clause(s, ~out, sat::pos(orig));
        solver.add_clause(s, out, sat::neg(orig));
        function_out = sat::pos(orig);
      }
      switch (nl.type(g)) {
        case GateType::kInput:
        case GateType::kDff:
          break;  // constrained below / free
        case GateType::kConst0:
          solver.add_clause(~function_out);
          break;
        case GateType::kConst1:
          solver.add_clause(function_out);
          break;
        default: {
          ins.clear();
          for (GateId f : nl.fanins(g)) ins.push_back(enc.lit(f));
          encode_gate_function(solver, nl.type(g), function_out, ins);
          break;
        }
      }
    }

    // Constrain primary inputs to the test vector.
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const GateId in = nl.inputs()[i];
      if (!in_copy(t, in)) continue;  // outside the cone: unencoded
      solver.add_clause(enc.lit(in, /*negated=*/!test.input_values[i]));
    }
    // Constrain the erroneous output to its correct value.
    const GateId out_gate = test_output_gate(nl, test);
    solver.add_clause(enc.lit(out_gate, /*negated=*/!test.correct_value));

    inst.copies.push_back(std::move(enc));
  }

  // Cardinality over the select lines.
  std::vector<Lit> select_lits;
  select_lits.reserve(inst.select_var.size());
  for (Var s : inst.select_var) select_lits.push_back(sat::pos(s));
  inst.cardinality = encode_cardinality_tracker(
      solver, std::move(select_lits), options.max_k, options.card_encoding);

  return inst;
}

}  // namespace satdiag
