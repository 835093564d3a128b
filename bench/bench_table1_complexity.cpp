// Empirical check of Table 1's complexity rows.
//
//  * BSIM time is O(|I| * m): doubling gates or tests roughly doubles time.
//  * BSIM space is O(|I| + m); COV/BSAT instances are Theta(|I| * m):
//    measured as CNF variables/clauses of the diagnosis instance.
//  * COV's covering search is O(|I|^k): the number of irredundant covers
//    and the enumeration time grow with k on one fixed candidate-set
//    instance.
//
// Run:  ./bench_table1_complexity [--seed 1]
#include <cstdio>

#include "cnf/mux_instrument.hpp"
#include "diag/bsim.hpp"
#include "diag/cover.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/generator.hpp"
#include "netlist/scan.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace satdiag;

namespace {

struct Scenario {
  Netlist faulty;
  TestSet tests;
};

Scenario make(std::size_t gates, std::size_t m, std::uint64_t seed) {
  GeneratorParams params;
  params.num_inputs = 16;
  params.num_outputs = 8;
  params.num_dffs = gates / 12;
  params.num_gates = gates;
  params.seed = seed;
  const Netlist golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(seed + 17);
  InjectorOptions inject;
  inject.num_errors = 1;
  const auto errors = inject_errors(golden, rng, inject);
  Scenario s{golden.clone(), {}};
  if (!errors) return s;
  s.faulty = apply_errors(golden, *errors);
  TestGenOptions tg;
  tg.max_random_words = 2048;
  s.tests = generate_failing_tests(golden, *errors, m, rng, tg);
  return s;
}

double time_bsim(const Scenario& s, int repeats) {
  Timer t;
  for (int i = 0; i < repeats; ++i) {
    basic_sim_diagnose(s.faulty, s.tests);
  }
  return t.seconds() / repeats;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  std::uint64_t seed = 0;
  if (!read_driver_flags(argc, argv, args, [&] {
        seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      })) {
    return 2;
  }

  std::printf("# Table 1 empirical check\n\n");

  // ---- BSIM ~ O(|I| * m) ---------------------------------------------------
  TablePrinter bsim_table({"|I|", "m", "BSIM ms", "ms / (|I|*m) * 1e6"});
  for (std::size_t gates : {500, 1000, 2000, 4000}) {
    for (std::size_t m : {8, 32}) {
      const Scenario s = make(gates, m, seed);
      if (s.tests.size() < m) continue;
      const double secs = time_bsim(s, 5);
      bsim_table.add_row(
          {std::to_string(s.faulty.size()), std::to_string(m),
           strprintf("%.3f", secs * 1e3),
           strprintf("%.3f", secs * 1e9 /
                                 (double(s.faulty.size()) * double(m)))});
    }
  }
  std::printf("## BSIM runtime, linear in |I|*m "
              "(last column should stay ~constant)\n%s\n",
              bsim_table.to_string().c_str());

  // ---- BSAT instance ~ Theta(|I| * m) ---------------------------------------
  TablePrinter size_table(
      {"|I|", "m", "vars", "clauses", "vars / (|I|*m)"});
  for (std::size_t gates : {500, 1000, 2000}) {
    for (std::size_t m : {4, 8, 16}) {
      const Scenario s = make(gates, m, seed + 7);
      if (s.tests.size() < m) continue;
      DiagnosisInstanceOptions options;
      options.max_k = 2;
      const DiagnosisInstance inst =
          build_diagnosis_instance(s.faulty, s.tests, options);
      const double vars = double(inst.solver.num_vars());
      size_table.add_row(
          {std::to_string(s.faulty.size()), std::to_string(m),
           strprintf("%.0f", vars),
           std::to_string(inst.solver.num_clauses()),
           strprintf("%.2f", vars / (double(s.faulty.size()) * double(m)))});
    }
  }
  std::printf("## BSAT instance size, Theta(|I|*m) "
              "(last column should stay ~constant)\n%s\n",
              size_table.to_string().c_str());

  // ---- COV search ~ O(|I|^k) -------------------------------------------------
  TablePrinter cov_table({"k", "#sol", "all s"});
  {
    constexpr double kLimit = 60.0;
    ExperimentConfig config;
    config.circuit = "s641_like";
    config.scale = 0.5;
    config.num_errors = 3;
    config.num_tests = 8;
    config.seed = seed + 10;
    config.time_limit_seconds = kLimit;
    const auto prepared = prepare_experiment(config);
    if (prepared) {
      const BsimResult bsim =
          basic_sim_diagnose(prepared->faulty, prepared->tests);
      for (unsigned k = 1; k <= 4; ++k) {
        CovOptions options;
        options.k = k;
        options.deadline = Deadline::after_seconds(kLimit);
        options.max_solutions = 200000;
        const CovResult r = solve_covering_sat(bsim.candidate_sets, options);
        cov_table.add_row({std::to_string(k),
                           std::to_string(r.solutions.size()),
                           strprintf("%.3f%s", r.all_seconds,
                                     r.complete ? "" : "*")});
      }
    }
  }
  std::printf("## COV solution-space growth in k, O(|I|^k) "
              "(s641_like, 8 tests, 3 errors)\n%s\n",
              cov_table.to_string().c_str());

  std::printf("# Table 1 asymptotics covered elsewhere:\n"
              "#  BSAT exponential search -> bench_table2_runtime\n");
  return 0;
}
