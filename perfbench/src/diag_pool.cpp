// diag_pool: Table 2 per instance — BSIM, then COV over BSIM's candidate
// sets, then BSAT with k = p — over a seed-derived pool of prepared
// reduced-scale instances. One thread, closed loop, no deadline; the
// solution cap is only a guard and hitting it fails the run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "common.hpp"
#include "counters.hpp"
#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
#include "diag/cover.hpp"
#include "prepare.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace satdiag;

constexpr const char* kCircuit = "s6669_like";
constexpr double kScale = 0.07;
constexpr std::size_t kErrors = 2;
constexpr unsigned kK = kErrors;
constexpr std::size_t kTestCounts[] = {4, 8};
constexpr std::int64_t kSolutionCap = 5000;
// Calibration: instances per requested second on a 4-core x86 box.
constexpr double kInstancesPerSecond = 70.0;
// Enough operations for a p90 with ten samples beyond it.
constexpr std::size_t kMinInstances = 120;

struct Outcome {
  double bsim_s = 0.0;
  double cov_s = 0.0;
  double bsat_s = 0.0;
  bool coverable = false;
  BsimResult bsim;
  CovResult cov;
  BsatResult bsat;
};

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;
  Samples ops;
  std::vector<Outcome> outcomes;
  Counters before;
  Counters after;
};

std::vector<PreparedInstance> make_pool(std::uint64_t seed, std::size_t n,
                                Samples& prepare_ms) {
  std::vector<PreparedInstance> pool;
  for (std::uint64_t item = 0; pool.size() < n; ++item) {
    const std::size_t tests = kTestCounts[pool.size() % std::size(kTestCounts)];
    const double t0 = now_seconds();
    auto prepared =
        prepare_instance(kCircuit, kScale, kErrors, tests, mix_seed(seed, item));
    prepare_ms.add((now_seconds() - t0) * 1e3);
    // A seed without a detectable error set or enough failing tests is
    // skipped, the same way on every run of that seed.
    if (!prepared) continue;
    pool.push_back(std::move(*prepared));
  }
  return pool;
}

Pass run_pass(const std::vector<PreparedInstance>& pool, Tracer& tracer) {
  // Every pass starts from an empty artifact cache, so templates are built
  // on the cache's insert path and traced and untraced passes match.
  cache::ArtifactCache::global().clear();
  Pass pass;
  pass.outcomes.resize(pool.size());
  pass.before = Counters::read_process();
  const double cpu0 = self_usage().cpu_seconds;
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const PreparedInstance& inst = pool[i];
    Outcome& out = pass.outcomes[i];
    ScopedSpan op(tracer, "op", i);
    const double s0 = now_seconds();
    {
      ScopedSpan span(tracer, "sim.bsim", i);
      out.bsim = basic_sim_diagnose(inst.faulty, inst.tests);
    }
    const double s1 = now_seconds();
    out.coverable = std::none_of(out.bsim.candidate_sets.begin(),
                                 out.bsim.candidate_sets.end(),
                                 [](const auto& set) { return set.empty(); });
    if (out.coverable) {
      ScopedSpan span(tracer, "cov.solve", i);
      CovOptions cov;
      cov.k = kK;
      cov.max_solutions = kSolutionCap;
      out.cov = solve_covering_sat(out.bsim.candidate_sets, cov);
    }
    const double s2 = now_seconds();
    {
      ScopedSpan span(tracer, "bsat.diagnose", i);
      BsatOptions bsat;
      bsat.k = kK;
      bsat.max_solutions = kSolutionCap;
      bsat.instance.gating_clauses = true;
      bsat.instance.internal_decisions = false;
      out.bsat = basic_sat_diagnose(inst.faulty, inst.tests,
                                    bsat);
    }
    const double s3 = now_seconds();
    out.bsim_s = s1 - s0;
    out.cov_s = s2 - s1;
    out.bsat_s = s3 - s2;
    pass.ops.add(s3 - s0);
  }
  pass.wall = now_seconds() - t0;
  pass.cpu = self_usage().cpu_seconds - cpu0;
  pass.after = Counters::read_process();
  return pass;
}

bool canonical(const std::vector<std::vector<GateId>>& solutions) {
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    const auto& s = solutions[i];
    if (std::adjacent_find(s.begin(), s.end(), std::greater_equal<>()) !=
        s.end()) {
      return false;
    }
    if (i == 0) continue;
    const auto& prev = solutions[i - 1];
    if (prev.size() > s.size() || (prev.size() == s.size() && !(prev < s))) {
      return false;
    }
  }
  return true;
}

/// Oracles, outside every timed span. Returns the failed instance count.
std::uint64_t check(const std::vector<PreparedInstance>& pool, const Pass& pass,
                    Checks& checks) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const PreparedInstance& inst = pool[i];
    const Outcome& out = pass.outcomes[i];
    const std::uint64_t before = checks.failures();
    const std::string tag = "instance " + std::to_string(i);
    if (!out.coverable) {
      checks.fail(tag + ": a BSIM candidate set is empty");
    } else {
      // COV against the independent branch-and-bound enumerator.
      if (!out.cov.complete) checks.fail(tag + ": COV hit the solution cap");
      std::vector<std::vector<GateId>> got = out.cov.solutions;
      std::vector<std::vector<GateId>> want =
          solve_covering_bnb(out.bsim.candidate_sets, kK);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) checks.fail(tag + ": COV covers differ from B&B");
      for (const auto& cover : out.cov.solutions) {
        if (!is_irredundant_cover(out.bsim.candidate_sets, cover)) {
          checks.fail(tag + ": COV returned a redundant cover");
          break;
        }
      }
    }
    // BSAT: complete, canonical, and (Lemma 3) some correction lies inside
    // the injected error sites.
    if (!out.bsat.complete) checks.fail(tag + ": BSAT hit the solution cap");
    if (!canonical(out.bsat.solutions)) {
      checks.fail(tag + ": BSAT solutions not in canonical order");
    }
    std::vector<GateId> sites = inst.error_sites;
    std::sort(sites.begin(), sites.end());
    const bool explained = std::any_of(
        out.bsat.solutions.begin(), out.bsat.solutions.end(),
        [&](const std::vector<GateId>& s) {
          return std::includes(sites.begin(), sites.end(), s.begin(), s.end());
        });
    if (!explained) checks.fail(tag + ": no BSAT correction within the error sites");
    if (checks.failures() != before) ++failed;
  }
  return failed;
}

struct Totals {
  std::uint64_t propagations = 0, conflicts = 0, decisions = 0, clauses = 0;
  std::uint64_t bsat_solutions = 0, cov_solutions = 0, marks = 0;
};

Totals totals(const Pass& pass) {
  Totals t;
  for (const Outcome& out : pass.outcomes) {
    t.propagations += out.bsat.solver_stats.propagations;
    t.conflicts += out.bsat.solver_stats.conflicts;
    t.decisions += out.bsat.solver_stats.decisions;
    t.clauses += out.bsat.num_clauses;
    t.bsat_solutions += out.bsat.solutions.size();
    t.cov_solutions += out.cov.solutions.size();
    for (const auto& set : out.bsim.candidate_sets) t.marks += set.size();
  }
  return t;
}

void set_per_layer(MetricTable& table, const std::vector<PreparedInstance>& pool,
                   const Pass& pass, const Samples& prepare_ms) {
  const Totals t = totals(pass);
  Samples bsim_ms, build_ms, solve_ms, first_ms, cov_ms;
  double gate_evals = 0.0, bsim_s = 0.0, build_s = 0.0, solve_s = 0.0;
  double cov_s = 0.0, bsat_s = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Outcome& out = pass.outcomes[i];
    bsim_ms.add(out.bsim_s * 1e3);
    build_ms.add(out.bsat.build_seconds * 1e3);
    solve_ms.add(out.bsat.all_seconds * 1e3);
    first_ms.add((out.bsat.build_seconds + out.bsat.first_seconds) * 1e3);
    if (out.coverable) cov_ms.add(out.cov_s * 1e3);
    const std::size_t words = (pool[i].tests.size() + 63) / 64;
    gate_evals += static_cast<double>(pool[i].faulty.size() * words);
    bsim_s += out.bsim_s;
    build_s += out.bsat.build_seconds;
    solve_s += out.bsat.all_seconds;
    cov_s += out.cov_s;
    bsat_s += out.bsat_s;
  }
  table.set_percentile("fault.prepare_ms", prepare_ms, 0.5, 1.0);
  table.set_percentile("sim.bsim_ms", bsim_ms, 0.5, 1.0);
  table.set("sim.gate_evals_per_s", gate_evals / bsim_s, bsim_ms.size());
  table.set_percentile("cnf.build_ms", build_ms, 0.5, 1.0);
  table.set("cnf.clauses_per_s", static_cast<double>(t.clauses) / build_s,
            build_ms.size());
  table.set("cnf.clauses", static_cast<double>(t.clauses));
  table.set_percentile("sat.solve_ms", solve_ms, 0.5, 1.0);
  table.set("sat.props_per_s", static_cast<double>(t.propagations) / solve_s,
            solve_ms.size());
  table.set("sat.props_per_solution",
            static_cast<double>(t.propagations) /
                static_cast<double>(std::max<std::uint64_t>(1, t.bsat_solutions)));
  table.set("sat.propagations", static_cast<double>(t.propagations));
  table.set("sat.conflicts", static_cast<double>(t.conflicts));
  table.set("sat.decisions", static_cast<double>(t.decisions));
  table.set_percentile("bsat.first_ms", first_ms, 0.5, 1.0);
  table.set("bsat.solutions", static_cast<double>(t.bsat_solutions));
  table.set_percentile("cov.solve_ms", cov_ms, 0.5, 1.0);
  table.set("cov.ms_per_solution",
            cov_s * 1e3 /
                static_cast<double>(std::max<std::uint64_t>(1, t.cov_solutions)));
  table.set("cov.share", cov_s / (cov_s + bsat_s));
  table.set("cov.solutions", static_cast<double>(t.cov_solutions));
  set_counter_deltas(table, pass.before, pass.after);
}

}  // namespace

int run_diag_pool(const RunOptions& options) {
  const std::size_t n = std::max(
      kMinInstances,
      static_cast<std::size_t>(std::llround(options.seconds * kInstancesPerSecond)));

  std::vector<double> setups;
  std::vector<PreparedInstance> pool;
  Samples prepare_ms;
  for (int run = 0; run < kSetupRuns; ++run) {
    cache::ArtifactCache::global().clear();
    prepare_ms = Samples();
    pool = {};  // the previous pool must not count toward peak memory
    const double t0 = now_seconds();
    pool = make_pool(options.seed, n, prepare_ms);
    setups.push_back(now_seconds() - t0);
  }

  Tracer untraced(false);
  const Pass base = run_pass(pool, untraced);
  MetricTable table(options.trace);
  Checks checks;
  const Pass* measured = &base;
  Pass traced;
  if (options.trace) {
    Tracer tracer(true);
    traced = run_pass(pool, tracer);
    measured = &traced;
    set_per_layer(table, pool, traced, prepare_ms);
    set_trace_summary(table, tracer, traced.wall, base.wall);
    tracer.write_chrome_json(options.work_dir + "/trace_diag_pool.json");
    if (totals(traced).propagations != totals(base).propagations) {
      checks.fail("traced pass did different solver work");
    }
  } else {
    set_end_to_end(table, setups, base.wall, base.cpu, self_usage().peak_rss_mb,
                   base.ops.size(), base.ops);
  }

  const std::uint64_t failed = check(pool, *measured, checks);
  const Totals t = totals(*measured);
  std::printf("workload diag_pool: %s scale %.2f p=%zu, %zu instances\n",
              kCircuit, kScale, kErrors, pool.size());
  Fingerprint fp;
  fp.add("instances", pool.size());
  fp.add("sat.propagations", t.propagations);
  fp.add("sat.conflicts", t.conflicts);
  fp.add("sat.decisions", t.decisions);
  fp.add("cnf.clauses", t.clauses);
  fp.add("solutions.bsat", t.bsat_solutions);
  fp.add("solutions.cov", t.cov_solutions);
  fp.add("bsim.marks", t.marks);
  fp.print();
  std::printf("error_rate %.6f (%llu of %zu)\n",
              static_cast<double>(failed) / static_cast<double>(pool.size()),
              static_cast<unsigned long long>(failed), pool.size());
  table.print_text();
  table.print_result(checks.ok(), pool.size(), failed);
  return checks.ok() ? 0 : 1;
}

}  // namespace perfbench
