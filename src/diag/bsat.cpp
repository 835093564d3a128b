#include "diag/bsat.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>

#include "exec/parallel.hpp"
#include "obs/trace.hpp"
#include "sat/allsat.hpp"
#include "sim/simulator.hpp"

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

/// True when some test fails on the unmodified circuit, i.e. the empty
/// correction violates the instance. Otherwise the enumeration would report
/// the empty set with one shard and every singleton with several (the
/// partition clauses forbid the empty model). One 64-lane sweep per 64
/// tests through the simulator's reference loop rather than a
/// ParallelSimulator, so the check adds no traced sim.compile step to the
/// BSAT run report.
bool some_test_fails(const Netlist& nl, const TestSet& tests) {
  std::vector<std::uint64_t> value(nl.size(), 0);
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t batch = std::min<std::size_t>(64, tests.size() - base);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < batch; ++b) {
        if (tests[base + b].input_values[i]) word |= 1ULL << b;
      }
      value[nl.inputs()[i]] = word;
    }
    sweep_words(nl, value);
    for (std::size_t b = 0; b < batch; ++b) {
      const Test& test = tests[base + b];
      const bool out = ((value[test_output_gate(nl, test)] >> b) & 1ULL) != 0;
      if (out != test.correct_value) return true;
    }
  }
  return false;
}

/// One enumeration shard. With several shards the instrumented universe is
/// partitioned by the minimum selected gate: every shard builds the same
/// full-universe instance and restricts itself to corrections whose minimum
/// gate falls in its partition by assuming a per-partition activation
/// variable (the partition clauses of *all* partitions are present in
/// *every* shard, guarded by their act vars). The other partitions' clauses
/// pay for themselves in search: on four s38417_like 4-thread cells, giving
/// each shard only its own partition as root units plus one at-least-one
/// clause raised the summed propagations by 16.5%. The partitions stay
/// disjoint and exhaustive over the solution space, so the merged per-bound
/// sets do not depend on the shard count. A lone shard owns the whole
/// universe: no activation variable or partition clause.
struct BsatShard {
  std::unique_ptr<DiagnosisInstance> inst;
  sat::Lit activate = sat::Lit::undef();  // partition act var, if partitioned
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
  if (!some_test_fails(nl, tests)) return {};
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
  // Every shard stamps its copies from the SAME cached ClauseStream
  // template: the first shard to miss the artifact cache runs the encoder
  // walk once, the others block on its in-flight future and relocate the
  // finished template (no redundant re-encoding per shard).
  for_each_shard([&](std::size_t s) {
    DiagnosisInstanceOptions inst_options = options.instance;
    inst_options.max_k = options.k;
    shards[s].inst = std::make_unique<DiagnosisInstance>(
        build_diagnosis_instance(nl, tests, inst_options));
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
  result.num_vars =
      static_cast<std::size_t>(shards[0].inst->solver.num_vars());
  result.num_clauses = shards[0].inst->solver.num_clauses();

  enumerate_span.open("phase.enumerate");
  Timer solve_timer;
  // Time of the first model any shard finds: written once by the shard
  // that wins the flag, read after the join.
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
          [&](const sat::Solver&) {
            if (!first_found.exchange(true, std::memory_order_relaxed)) {
              result.first_seconds = solve_timer.seconds();
            }
            std::vector<GateId> correction = inst.selected_gates_from_model();
            sat::Clause blocking = blocking_clause(inst, correction);
            shard.bound_solutions.push_back(std::move(correction));
            return blocking;
          });
      // some_test_fails rules out the empty model (and with several shards
      // the partition clause does too), so a stop other than exhaustion or
      // a budget means root-UNSAT.
      if (sat::truncated(stop)) {
        truncated.store(true, std::memory_order_relaxed);
      } else if (stop != sat::EnumStop::kExhausted) {
        shard.retired = true;
      }
    });

    // Barrier: merge this bound in partition order, canonicalize, and
    // cross-block SYMMETRICALLY — every shard receives every other shard's
    // solutions. Earlier shards need the clauses to not rediscover supersets
    // (a superset's minimum gate can move to an earlier partition). Later
    // shards' activation assumptions already exclude those supersets, so
    // the clauses they receive are redundant there.
    const std::size_t bound_start = result.solutions.size();
    for (std::size_t s = 0; s < num_shards; ++s) {
      for (std::size_t t = 0; t < num_shards; ++t) {
        if (t == s || shards[t].retired) continue;
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
  for (const BsatShard& shard : shards) {
    result.solver_stats.merge(shard.inst->solver.stats());
  }
  return result;
}

}  // namespace satdiag
