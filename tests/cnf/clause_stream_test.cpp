// Differential lockdown of template-stamped instance construction.
//
// The stamped builder (template_stamped=true, the default) must produce a
// clause database that is variable-for-variable and clause-for-clause
// identical to the reference walk encoder, for every instance shape: test
// counts, cone-of-influence on/off, gating clauses on/off, restricted
// instrumented universes, and templates that contain unit clauses (const
// gates — the non-pristine stamp path). On top of DB identity, the BSAT
// solution sets are pinned across builders and thread counts.
#include "cnf/clause_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "cnf/mux_instrument.hpp"
#include "common/diff_harness.hpp"
#include "diag/bsat.hpp"
#include "obs/metrics.hpp"

namespace satdiag {
namespace {

using sat::Clause;

std::vector<Clause> sorted_db(const DiagnosisInstance& inst) {
  std::vector<Clause> db = inst.solver.snapshot_clauses();
  std::sort(db.begin(), db.end());
  return db;
}

/// Build the instance with both builders and require an identical database.
/// `select_assigned`, when given, is set if the stamped instance ends with a
/// select line assigned at the root.
void expect_identical(const Netlist& nl, const TestSet& tests,
                      DiagnosisInstanceOptions options,
                      bool* select_assigned = nullptr) {
  options.template_stamped = false;
  const DiagnosisInstance walk = build_diagnosis_instance(nl, tests, options);
  options.template_stamped = true;
  const DiagnosisInstance stamped =
      build_diagnosis_instance(nl, tests, options);

  ASSERT_EQ(walk.solver.num_vars(), stamped.solver.num_vars());
  ASSERT_EQ(walk.solver.num_clauses(), stamped.solver.num_clauses());
  EXPECT_EQ(walk.select_var, stamped.select_var);
  EXPECT_EQ(walk.instrumented, stamped.instrumented);
  EXPECT_EQ(walk.correction_var, stamped.correction_var);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    EXPECT_EQ(walk.copies[t].gate_var, stamped.copies[t].gate_var)
        << "copy " << t;
  }
  EXPECT_EQ(sorted_db(walk), sorted_db(stamped));
  if (select_assigned != nullptr) {
    *select_assigned = stamped.solver.any_assigned(stamped.select_var);
  }
}

TEST(ClauseStreamTest, DbIdentityAcrossShapes) {
  std::size_t select_assigned_instances = 0;
  for (const std::uint64_t seed : {1ull, 7ull}) {
    for (const std::size_t num_tests : {std::size_t{1}, std::size_t{12}}) {
      difftest::DiffConfig config;
      config.seed = seed;
      config.gates = 180;
      config.tests = num_tests;
      const difftest::DiffInstance di = difftest::make_instance(config);

      for (const bool coi : {false, true}) {
        for (const bool gating : {false, true}) {
          DiagnosisInstanceOptions options;
          options.max_k = 2;
          options.cone_of_influence = coi;
          options.gating_clauses = gating;
          SCOPED_TRACE(config.describe() + (coi ? " coi" : " full") +
                       (gating ? " gating" : " ungated"));
          bool select_assigned = false;
          expect_identical(di.nl, di.tests, options, &select_assigned);
          select_assigned_instances += select_assigned ? 1 : 0;
        }
      }
    }
  }
  // Root-assigned selects send later copies down the non-pristine stamp
  // path (one add_clause per clause); the fixtures must keep reaching it.
  EXPECT_GT(select_assigned_instances, 0u);
}

TEST(ClauseStreamTest, DbIdentityRestrictedUniverse) {
  difftest::DiffConfig config;
  config.seed = 3;
  config.gates = 200;
  config.tests = 6;
  const difftest::DiffInstance di = difftest::make_instance(config);

  // Every other candidate gate: per-test cones then restrict further.
  DiagnosisInstanceOptions options;
  options.max_k = 2;
  for (std::size_t i = 0; i < di.pool.size(); i += 2) {
    options.instrumented.push_back(di.pool[i]);
  }
  expect_identical(di.nl, di.tests, options);
  options.cone_of_influence = true;
  expect_identical(di.nl, di.tests, options);
}

// Const gates put unit clauses into the copy template, which forces the
// non-pristine stamp path (one add_clause per clause) — root propagation
// from the units must leave the reachable database equal to the walk's.
TEST(ClauseStreamTest, DbIdentityWithUnitTemplates) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c0 = nl.add_const(false, "c0");
  const GateId c1 = nl.add_const(true, "c1");
  const GateId g1 = nl.add_gate(GateType::kAnd, "g1", {a, c1});
  const GateId g2 = nl.add_gate(GateType::kOr, "g2", {b, c0});
  const GateId g3 = nl.add_gate(GateType::kXor, "g3", {g1, g2});
  const GateId o = nl.add_gate(GateType::kNand, "o", {g3, c1});
  nl.add_output(o);
  nl.finalize();

  // The fixture must keep a const gate, or it stops reaching that path.
  bool has_const = false;
  for (GateId g = 0; g < nl.size(); ++g) {
    has_const = has_const || nl.type(g) == GateType::kConst0 ||
                nl.type(g) == GateType::kConst1;
  }
  ASSERT_TRUE(has_const);

  const TestSet tests{
      satdiag::Test{{true, true}, 0, true},
      satdiag::Test{{false, true}, 0, false},
      satdiag::Test{{true, false}, 0, true},
  };
  DiagnosisInstanceOptions options;
  options.max_k = 2;
  expect_identical(nl, tests, options);
}

// Templates are cached process-wide: a second build of the same shape must
// not rebuild them, and the stamped instance must still match the walk.
TEST(ClauseStreamTest, TemplatesComeFromCacheOnRepeat) {
  difftest::DiffConfig config;
  config.seed = 11;
  config.gates = 150;
  config.tests = 4;
  const difftest::DiffInstance di = difftest::make_instance(config);

  DiagnosisInstanceOptions options;
  options.max_k = 2;
  options.template_stamped = true;
  const obs::Counter& templates_built =
      obs::MetricsRegistry::global().counter("cnf.templates_built");
  cache::ArtifactCache::global().clear();
  const std::uint64_t before = templates_built.value();
  { const auto first = build_diagnosis_instance(di.nl, di.tests, options); }
  const std::uint64_t after_first = templates_built.value();
  EXPECT_GE(after_first - before, 1u);
  { const auto second = build_diagnosis_instance(di.nl, di.tests, options); }
  EXPECT_EQ(templates_built.value(), after_first);
  expect_identical(di.nl, di.tests, options);
}

// The end-to-end pin: BSAT solution sets are invariant under the builder
// choice and the enumeration thread count.
TEST(ClauseStreamTest, SolutionSetsAcrossBuildersAndThreads) {
  difftest::DiffConfig config;
  config.seed = 2;
  config.gates = 140;
  config.tests = 6;
  const difftest::DiffInstance di = difftest::make_instance(config);

  BsatOptions base;
  base.k = 2;
  base.instance.max_k = 2;

  BsatOptions walk = base;
  walk.instance.template_stamped = false;
  const BsatResult reference = basic_sat_diagnose(di.nl, di.tests, walk);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    BsatOptions stamped = base;
    stamped.instance.template_stamped = true;
    stamped.num_threads = threads;
    const BsatResult result = basic_sat_diagnose(di.nl, di.tests, stamped);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.solutions, reference.solutions)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace satdiag
