#include "diag/bsat.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <optional>

#include "diag/validity.hpp"
#include "exec/parallel.hpp"
#include "obs/trace.hpp"
#include "sat/allsat.hpp"

namespace satdiag {
namespace {

void seed_select_activity(sat::Solver& solver,
                          const DiagnosisInstance& inst,
                          const std::vector<std::uint32_t>& marks,
                          std::size_t netlist_size) {
  assert(marks.size() == netlist_size);
  (void)netlist_size;
  std::uint32_t max_marks = 1;
  for (GateId g : inst.instrumented) {
    max_marks = std::max(max_marks, marks[g]);
  }
  for (std::size_t i = 0; i < inst.instrumented.size(); ++i) {
    const std::uint32_t m = marks[inst.instrumented[i]];
    if (m == 0) continue;
    solver.boost_activity(inst.select_var[i],
                          static_cast<double>(m) /
                              static_cast<double>(max_marks));
    solver.set_polarity_hint(inst.select_var[i], true);
  }
}

/// Subset blocking: forbids `correction` and every superset of it.
sat::Clause blocking_clause(const DiagnosisInstance& inst,
                            const std::vector<GateId>& correction) {
  sat::Clause blocking;
  for (GateId g : correction) {
    blocking.push_back(sat::neg(inst.select_var[inst.select_index[g]]));
  }
  return blocking;
}

/// One enumeration shard. With several shards the instrumented universe is
/// partitioned by the minimum selected gate: every shard builds the same
/// full-universe shell and restricts itself to corrections whose minimum
/// gate falls in its partition by assuming a per-partition activation
/// variable (the partition clauses of *all* partitions are present in
/// *every* shard, guarded by their act vars). The other partitions' clauses
/// pay for themselves in search: on four s38417_like 4-thread cells, giving
/// each shard only its own partition as root units plus one at-least-one
/// clause raised the summed propagations by 16.5%. The partitions stay
/// disjoint and exhaustive over the solution space, so the merged per-bound
/// sets do not depend on the shard count. A lone shard owns the whole
/// universe: no activation variable or partition clause. Each shard
/// refines on its own: a model that simulation refutes on a test without a
/// copy gets that test's copy in that shard, at most once per test.
struct BsatShard {
  std::unique_ptr<DiagnosisInstance> inst;
  sat::Lit activate = sat::Lit::undef();  // partition act var, if partitioned
  /// Tests without a copy, and their indices in the full test set.
  TestSet pending;
  std::vector<std::size_t> pending_index;
  std::vector<std::vector<GateId>> bound_solutions;
  bool retired = false;  // instance became UNSAT at the root
};

/// Partition restriction of shard `shard`, act-var guarded so every shard
/// carries all partitions' clauses: act_p -> (no select before partition p)
/// and act_p -> (some select inside partition p). Returns act_shard. Frozen
/// non-decision vars: they appear in future assumptions.
sat::Lit add_partition_clauses(DiagnosisInstance& inst, std::size_t shard,
                               std::size_t num_shards, std::size_t partition) {
  sat::Lit activate = sat::Lit::undef();
  const std::size_t universe = inst.instrumented.size();
  for (std::size_t p = 0; p < num_shards; ++p) {
    const sat::Var act = inst.solver.new_var(/*decidable=*/false);
    inst.solver.freeze(act);
    if (p == shard) activate = sat::pos(act);
    const std::size_t begin = p * partition;
    const std::size_t end = std::min(begin + partition, universe);
    for (std::size_t i = 0; i < begin; ++i) {
      inst.solver.add_clause(sat::neg(act), sat::neg(inst.select_var[i]));
    }
    sat::Clause any_in_partition;
    any_in_partition.push_back(sat::neg(act));
    for (std::size_t i = begin; i < end; ++i) {
      any_in_partition.push_back(sat::pos(inst.select_var[i]));
    }
    inst.solver.add_clause(std::move(any_in_partition));
  }
  return activate;
}

}  // namespace

BsatResult basic_sat_diagnose(const Netlist& nl, const TestSet& tests,
                              const BsatOptions& options) {
  assert(nl.dffs().empty() && "use the full-scan view for diagnosis");
  assert(!tests.empty());
  // When the empty correction is valid no test fails, and the enumeration
  // would report the empty set with one shard and every singleton with
  // several (the partition clauses forbid the empty model). The check runs
  // the reference sweep, not a ParallelSimulator, so it adds no traced
  // sim.compile step to the BSAT run report.
  if (!first_failing_test(nl, tests, {})) return {};
  BsatResult result;
  // Declared before the shards so their teardown and the pool join at
  // function exit are still inside the enumerate phase (the report's phase
  // split is expected to account for (nearly) the whole run).
  obs::Span enumerate_span(obs::Span::kDeferred);

  // One shard unless several lanes meet a universe of several gates. The
  // partition boundaries index the universe the shards build (the partition
  // clauses index select_var directly). Ceil division twice: first the
  // partition width for the requested lane count, then the number of shards
  // that width actually fills — e.g. 9 gates on 8 lanes give width 2 and
  // only 5 shards, never a shard whose begin lies past the universe end.
  std::size_t num_shards = 1;
  std::size_t partition = 0;
  if (options.num_threads > 1) {
    const std::size_t universe =
        diagnosis_universe(nl, tests, options.instance).size();
    if (universe > 1) {
      const std::size_t width = std::min(options.num_threads, universe);
      partition = (universe + width - 1) / width;
      num_shards = (universe + partition - 1) / partition;
    }
  }
  exec::ThreadPool pool(num_shards);
  std::vector<BsatShard> shards(num_shards);
  // A lone shard runs on the caller: no exec.shard span or counter.
  const auto for_each_shard = [&](const auto& body) {
    if (num_shards == 1) return body(0);
    exec::parallel_for(
        pool, num_shards, [&](std::size_t s, std::size_t) { body(s); },
        /*grain=*/1);
  };

  Timer build_timer;
  obs::Span build_span("phase.build");
  // Every shard builds a shell; its copies come during the enumeration,
  // each encoded straight into that shard's solver. The shells read their
  // cones from the artifact cache: the first shard to miss it computes a
  // cone, the others block on its in-flight future and reuse it.
  for_each_shard([&](std::size_t s) {
    DiagnosisInstanceOptions inst_options = options.instance;
    inst_options.max_k = options.k;
    shards[s].inst = std::make_unique<DiagnosisInstance>(
        build_diagnosis_shell(nl, tests, inst_options));
    shards[s].pending = tests;
    for (std::size_t t = 0; t < tests.size(); ++t) {
      shards[s].pending_index.push_back(t);
    }
    DiagnosisInstance& inst = *shards[s].inst;
    if (num_shards > 1) {
      shards[s].activate =
          add_partition_clauses(inst, s, num_shards, partition);
    }
    if (!options.select_activity_seed.empty()) {
      seed_select_activity(inst.solver, inst, options.select_activity_seed,
                           nl.size());
    }
  });
  build_span.close();
  result.build_seconds = build_timer.seconds();

  enumerate_span.open("phase.enumerate");
  Timer solve_timer;
  // Time of the first correction any shard emits: written once by the
  // shard that wins the flag, read after the join.
  std::atomic<bool> first_found{false};
  std::atomic<bool> truncated{false};
  for (unsigned bound = 1; bound <= options.k; ++bound) {
    obs::Span bound_span("bsat.bound", "bound", bound);
    for_each_shard([&](std::size_t s) {
      BsatShard& shard = shards[s];
      if (shard.retired) return;
      DiagnosisInstance& inst = *shard.inst;
      auto assumptions = inst.assume_at_most(bound);
      if (num_shards > 1) assumptions.push_back(shard.activate);
      // Per-shard cap: result.solutions only changes at the barrier, so
      // what a shard keeps depends on its own search alone, and the trim
      // below picks the same solutions on every rerun.
      const sat::EnumStop stop = sat::enumerate(
          inst.solver, assumptions, options.deadline,
          [&] {
            return options.max_solutions >= 0 &&
                   static_cast<std::int64_t>(result.solutions.size() +
                                             shard.bound_solutions.size()) >=
                       options.max_solutions;
          },
          [&](const sat::Solver&) -> std::optional<sat::Clause> {
            std::vector<GateId> correction = inst.selected_gates_from_model();
            // Definition 3 on the tests without a copy (the copies hold C
            // valid on theirs). A refuting test gets its copy, and the
            // solver searches again with nothing blocked.
            if (const auto failing =
                    first_failing_test(nl, shard.pending, correction)) {
              add_test_copy(inst, shard.pending_index[*failing]);
              const auto at = static_cast<std::ptrdiff_t>(*failing);
              shard.pending.erase(shard.pending.begin() + at);
              shard.pending_index.erase(shard.pending_index.begin() + at);
              return std::nullopt;
            }
            if (!first_found.exchange(true, std::memory_order_relaxed)) {
              result.first_seconds = solve_timer.seconds();
            }
            sat::Clause blocking = blocking_clause(inst, correction);
            shard.bound_solutions.push_back(std::move(correction));
            return blocking;
          });
      // The empty model is never emitted: some test fails (the early-out
      // above), so it fails on a pending test or on that test's copy. A
      // stop other than exhaustion or a budget means root-UNSAT.
      if (sat::truncated(stop)) {
        truncated.store(true, std::memory_order_relaxed);
      } else if (stop != sat::EnumStop::kExhausted) {
        shard.retired = true;
      }
    });

    // Barrier: merge this bound in partition order, canonicalize, and block
    // each shard's solutions in the EARLIER shards only. A superset of a
    // solution of shard s has its minimum gate in partition s or before, so
    // only a shard t < s can rediscover it; a later shard's activation
    // assumption already excludes it.
    const std::size_t bound_start = result.solutions.size();
    for (std::size_t s = 0; s < num_shards; ++s) {
      for (std::size_t t = 0; t < s; ++t) {
        if (shards[t].retired) continue;
        DiagnosisInstance& inst = *shards[t].inst;
        for (const auto& solution : shards[s].bound_solutions) {
          if (!inst.solver.add_clause(blocking_clause(inst, solution))) {
            shards[t].retired = true;
            break;
          }
        }
      }
      for (auto& solution : shards[s].bound_solutions) {
        result.solutions.push_back(std::move(solution));
      }
      shards[s].bound_solutions.clear();
    }
    std::sort(result.solutions.begin() +
                  static_cast<std::ptrdiff_t>(bound_start),
              result.solutions.end());
    if (options.max_solutions >= 0 &&
        static_cast<std::int64_t>(result.solutions.size()) >
            options.max_solutions) {
      result.solutions.resize(
          static_cast<std::size_t>(options.max_solutions));
      truncated.store(true, std::memory_order_relaxed);
    }
    if (truncated.load(std::memory_order_relaxed)) {
      result.complete = false;
      break;
    }
    if (std::all_of(shards.begin(), shards.end(),
                    [](const BsatShard& shard) { return shard.retired; })) {
      break;
    }
  }
  result.all_seconds = solve_timer.seconds();
  if (!first_found.load(std::memory_order_relaxed)) {
    result.first_seconds = result.all_seconds;
  }
  result.num_vars =
      static_cast<std::size_t>(shards[0].inst->solver.num_vars());
  result.num_clauses = shards[0].inst->solver.num_clauses();
  for (const BsatShard& shard : shards) {
    result.solver_stats.merge(shard.inst->solver.stats());
    result.num_copies += shard.inst->num_copies();
  }
  return result;
}

}  // namespace satdiag
