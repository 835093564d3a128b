#include "common/diff_harness.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <span>
#include <sstream>

#include "diag/bsim.hpp"
#include "diag/effect.hpp"
#include "diag/xlist.hpp"
#include "exec/thread_pool.hpp"
#include "gen/generator.hpp"
#include "sim/sim3.hpp"
#include "util/rng.hpp"

namespace satdiag::difftest {
namespace {

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (!value || !*value) return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::string format_mask_mismatch(const char* what, std::size_t index,
                                 std::uint64_t got, std::uint64_t want) {
  std::ostringstream out;
  out << what << " mismatch at candidate " << index << ": batched=0x"
      << std::hex << got << " scalar=0x" << want;
  return out.str();
}

}  // namespace

std::string DiffConfig::describe() const {
  std::ostringstream out;
  out << "(seed=" << seed << ", gates=" << gates
      << ", candidates=" << candidates << ", tests=" << tests << ")";
  return out.str();
}

std::string DiffConfig::repro_env() const {
  std::ostringstream out;
  out << "SATDIAG_DIFF_SEED=" << seed << " SATDIAG_DIFF_GATES=" << gates
      << " SATDIAG_DIFF_CANDS=" << candidates
      << " SATDIAG_DIFF_TESTS=" << tests;
  return out.str();
}

DiffInstance make_instance(const DiffConfig& config) {
  GeneratorParams params;
  params.name = "diff";
  params.num_gates = std::max<std::size_t>(config.gates, 8);
  params.num_inputs = std::max<std::size_t>(6, params.num_gates / 24);
  params.num_outputs = std::max<std::size_t>(3, params.num_gates / 48);
  params.seed = config.seed;

  DiffInstance inst;
  inst.nl = generate_circuit(params);
  Rng rng(config.seed * 0x2545f4914f6cdd1dULL + 17);

  const std::size_t num_tests = std::clamp<std::size_t>(config.tests, 1, 64);
  for (std::size_t t = 0; t < num_tests; ++t) {
    Test test;
    test.input_values.reserve(inst.nl.inputs().size());
    for (std::size_t i = 0; i < inst.nl.inputs().size(); ++i) {
      test.input_values.push_back(rng.next_bool());
    }
    test.output_index = rng.next_below(inst.nl.outputs().size());
    test.correct_value = rng.next_bool();
    inst.tests.push_back(std::move(test));
  }

  for (GateId g = 0; g < inst.nl.size(); ++g) {
    if (inst.nl.is_combinational(g)) inst.pool.push_back(g);
  }
  const std::size_t count =
      std::min(std::max<std::size_t>(config.candidates, 1), inst.pool.size());
  std::vector<GateId> shuffled = inst.pool;
  rng.shuffle(shuffled);
  inst.singles.assign(shuffled.begin(),
                      shuffled.begin() + static_cast<std::ptrdiff_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<GateId> tuple;
    const std::size_t size = 1 + rng.next_below(3);
    for (std::size_t j = 0; j < size; ++j) {
      tuple.push_back(rng.pick(inst.pool));
    }
    inst.tuples.push_back(std::move(tuple));
  }
  return inst;
}

std::vector<std::uint64_t> scalar_reach_masks(
    const Netlist& nl, const TestSet& tests,
    const std::vector<std::vector<GateId>>& candidates, bool use_run_full) {
  std::vector<std::uint64_t> masks(candidates.size(), 0);
  if (use_run_full) {
    // Fresh simulator and reference full-resweep per candidate.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      ThreeValuedSimulator sim(nl);
      for (std::size_t b = 0; b < tests.size(); ++b) {
        sim.set_input_vector(b, tests[b].input_values);
      }
      for (GateId g : candidates[i]) sim.inject_x(g);
      sim.run_full();
      for (std::size_t b = 0; b < tests.size(); ++b) {
        if (sim.value(test_output_gate(nl, tests[b])).is_x(b)) {
          masks[i] |= 1ULL << b;
        }
      }
    }
    return masks;
  }
  // The exact per-candidate incremental loop the batched mode replaces:
  // one primed simulator, tests in lanes 0..|tests|, clear/inject/run.
  ThreeValuedSimulator sim(nl);
  for (std::size_t b = 0; b < tests.size(); ++b) {
    sim.set_input_vector(b, tests[b].input_values);
  }
  sim.run();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    sim.clear_overrides();
    for (GateId g : candidates[i]) sim.inject_x(g);
    sim.run();
    for (std::size_t b = 0; b < tests.size(); ++b) {
      if (sim.value(test_output_gate(nl, tests[b])).is_x(b)) {
        masks[i] |= 1ULL << b;
      }
    }
  }
  return masks;
}

namespace {

std::vector<std::vector<GateId>> as_tuples(const std::vector<GateId>& singles) {
  std::vector<std::vector<GateId>> tuples;
  tuples.reserve(singles.size());
  for (GateId g : singles) tuples.push_back({g});
  return tuples;
}

std::vector<std::uint64_t> batched_masks_singles(const Netlist& nl,
                                                 const TestSet& tests,
                                                 const std::vector<GateId>&
                                                     singles) {
  Sim3XBatch batch(nl, tests);
  std::vector<std::uint64_t> masks(singles.size(), ~0ULL);
  const std::span<const GateId> all(singles);
  for (std::size_t begin = 0; begin < singles.size();
       begin += batch.capacity()) {
    const std::size_t n = std::min(batch.capacity(), singles.size() - begin);
    batch.run_singles(all.subspan(begin, n), &masks[begin]);
  }
  return masks;
}

std::vector<std::uint64_t> batched_masks_tuples(
    const Netlist& nl, const TestSet& tests,
    const std::vector<std::vector<GateId>>& tuples) {
  Sim3XBatch batch(nl, tests);
  std::vector<std::uint64_t> masks(tuples.size(), ~0ULL);
  const std::span<const std::vector<GateId>> all(tuples);
  for (std::size_t begin = 0; begin < tuples.size();
       begin += batch.capacity()) {
    const std::size_t n = std::min(batch.capacity(), tuples.size() - begin);
    batch.run_tuples(all.subspan(begin, n), &masks[begin]);
  }
  return masks;
}

}  // namespace

std::string check_batch_singles_vs_scalar(const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  const auto batched = batched_masks_singles(inst.nl, inst.tests, inst.singles);
  const auto scalar = scalar_reach_masks(inst.nl, inst.tests,
                                         as_tuples(inst.singles),
                                         /*use_run_full=*/false);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    if (batched[i] != scalar[i]) {
      return format_mask_mismatch("singles", i, batched[i], scalar[i]);
    }
  }
  return "";
}

std::string check_batch_tuples_vs_scalar(const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  const auto batched = batched_masks_tuples(inst.nl, inst.tests, inst.tuples);
  const auto scalar = scalar_reach_masks(inst.nl, inst.tests, inst.tuples,
                                         /*use_run_full=*/false);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    if (batched[i] != scalar[i]) {
      return format_mask_mismatch("tuples", i, batched[i], scalar[i]);
    }
  }
  return "";
}

std::string check_batch_vs_run_full(const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  const auto batched = batched_masks_singles(inst.nl, inst.tests, inst.singles);
  const auto reference = scalar_reach_masks(inst.nl, inst.tests,
                                            as_tuples(inst.singles),
                                            /*use_run_full=*/true);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    if (batched[i] != reference[i]) {
      return format_mask_mismatch("run_full", i, batched[i], reference[i]);
    }
  }
  return "";
}

std::string check_batch_input_candidates_vs_run_full(
    const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  // Primary inputs interleaved with the combinational singles, so every
  // batch (and the batch after it) injects X at a source in some group.
  const auto& inputs = inst.nl.inputs();
  std::vector<GateId> singles;
  for (std::size_t i = 0; i < std::max(inputs.size(), inst.singles.size());
       ++i) {
    if (i < inputs.size()) singles.push_back(inputs[i]);
    if (i < inst.singles.size()) singles.push_back(inst.singles[i]);
  }
  const auto batched = batched_masks_singles(inst.nl, inst.tests, singles);
  const auto reference = scalar_reach_masks(inst.nl, inst.tests,
                                            as_tuples(singles),
                                            /*use_run_full=*/true);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    if (batched[i] != reference[i]) {
      return format_mask_mismatch("input singles", i, batched[i],
                                  reference[i]);
    }
  }
  // Tuples joining a primary input to a random combinational tuple.
  std::vector<std::vector<GateId>> tuples = inst.tuples;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].push_back(inputs[i % inputs.size()]);
  }
  const auto batched_tuples = batched_masks_tuples(inst.nl, inst.tests,
                                                   tuples);
  const auto tuple_reference = scalar_reach_masks(inst.nl, inst.tests, tuples,
                                                  /*use_run_full=*/true);
  for (std::size_t i = 0; i < batched_tuples.size(); ++i) {
    if (batched_tuples[i] != tuple_reference[i]) {
      return format_mask_mismatch("input tuples", i, batched_tuples[i],
                                  tuple_reference[i]);
    }
  }
  return "";
}

std::string check_lane_permutation_invariance(const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  const auto original = batched_masks_singles(inst.nl, inst.tests,
                                              inst.singles);
  // A seed-derived permutation of the candidate order re-packs every batch
  // into different lane groups; the per-candidate masks must follow the
  // candidates, not the lanes.
  std::vector<std::size_t> order(inst.singles.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(config.seed ^ 0xabcdef12345ULL);
  rng.shuffle(order);
  std::vector<GateId> permuted;
  permuted.reserve(order.size());
  for (std::size_t i : order) permuted.push_back(inst.singles[i]);
  const auto shuffled = batched_masks_singles(inst.nl, inst.tests, permuted);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (shuffled[i] != original[order[i]]) {
      return format_mask_mismatch("lane permutation", order[i], shuffled[i],
                                  original[order[i]]);
    }
  }
  return "";
}

std::string check_threaded_reach_masks(const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  const auto scalar = scalar_reach_masks(inst.nl, inst.tests,
                                         as_tuples(inst.singles),
                                         /*use_run_full=*/false);
  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    const auto masks =
        x_reach_masks(pool, inst.nl, inst.tests, inst.singles);
    for (std::size_t i = 0; i < masks.size(); ++i) {
      if (masks[i] != scalar[i]) {
        return format_mask_mismatch(
            ("x_reach_masks threads=" + std::to_string(threads)).c_str(), i,
            masks[i], scalar[i]);
      }
    }
  }
  return "";
}

std::string check_x_check_batch_vs_serial(const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  const EffectAnalyzer effect(inst.nl, inst.tests);
  std::vector<std::uint8_t> serial;
  serial.reserve(inst.tuples.size());
  for (const auto& tuple : inst.tuples) {
    serial.push_back(effect.x_check(tuple) ? 1 : 0);
  }
  for (const std::size_t threads : kThreadCounts) {
    const auto batched = effect.x_check_batch(inst.tuples, threads);
    if (batched != serial) {
      for (std::size_t i = 0; i < serial.size(); ++i) {
        if (batched[i] != serial[i]) {
          std::ostringstream out;
          out << "x_check_batch threads=" << threads << " candidate " << i
              << ": batched=" << int(batched[i])
              << " serial=" << int(serial[i]);
          return out.str();
        }
      }
    }
  }
  return "";
}

std::string check_bsim_x_refine(const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  BsimOptions options;
  options.x_refine = true;
  std::optional<BsimResult> reference;
  for (const std::size_t threads : kThreadCounts) {
    options.num_threads = threads;
    const BsimResult result =
        basic_sim_diagnose(inst.nl, inst.tests, options, nullptr);
    if (result.refined_sets.size() != inst.tests.size()) {
      return "refined_sets has wrong cardinality";
    }
    // Reference: scalar reach masks over the marked union.
    const auto masks = scalar_reach_masks(
        inst.nl, inst.tests, as_tuples(result.marked_union),
        /*use_run_full=*/true);
    for (std::size_t t = 0; t < inst.tests.size(); ++t) {
      std::vector<GateId> expected;
      for (GateId g : result.candidate_sets[t]) {
        const auto it = std::find(result.marked_union.begin(),
                                  result.marked_union.end(), g);
        const std::size_t idx = static_cast<std::size_t>(
            it - result.marked_union.begin());
        if ((masks[idx] >> t) & 1ULL) expected.push_back(g);
      }
      if (result.refined_sets[t] != expected) {
        std::ostringstream out;
        out << "x_refine threads=" << threads << " test " << t
            << ": refined set does not match the scalar recomputation";
        return out.str();
      }
    }
    if (reference) {
      if (result.refined_sets != reference->refined_sets) {
        return "x_refine is not thread-count invariant";
      }
    } else {
      reference = result;
    }
  }
  return "";
}

std::string check_xlist_singles_vs_reference(const DiffConfig& config) {
  const DiffInstance inst = make_instance(config);
  // Unrestricted reference: the criterion evaluated per combinational gate
  // with a fresh run_full() simulation.
  const auto masks = scalar_reach_masks(inst.nl, inst.tests,
                                        as_tuples(inst.pool),
                                        /*use_run_full=*/true);
  const std::uint64_t full = inst.tests.size() >= 64
                                 ? ~0ULL
                                 : (1ULL << inst.tests.size()) - 1;
  std::vector<GateId> expected;
  for (std::size_t i = 0; i < inst.pool.size(); ++i) {
    if (masks[i] == full) expected.push_back(inst.pool[i]);
  }
  for (const bool restrict_cones : {false, true}) {
    for (const std::size_t threads : kThreadCounts) {
      XListOptions options;
      options.restrict_to_fanin_cones = restrict_cones;
      options.num_threads = threads;
      const auto got =
          xlist_single_candidates(inst.nl, inst.tests, options);
      if (got != expected) {
        std::ostringstream out;
        out << "xlist_single_candidates restrict=" << restrict_cones
            << " threads=" << threads << ": got " << got.size()
            << " candidates, reference has " << expected.size();
        return out.str();
      }
    }
  }
  return "";
}

std::size_t iterations(std::size_t default_iters) {
  return env_size_t("SATDIAG_DIFF_ITERS", default_iters);
}

namespace {

DiffConfig apply_env_overrides(DiffConfig config) {
  config.seed = env_size_t("SATDIAG_DIFF_SEED", config.seed);
  config.gates = env_size_t("SATDIAG_DIFF_GATES", config.gates);
  config.candidates = env_size_t("SATDIAG_DIFF_CANDS", config.candidates);
  config.tests = env_size_t("SATDIAG_DIFF_TESTS", config.tests);
  return config;
}

/// Bisect one dimension toward its minimum, keeping the seed fixed. The
/// invariant `hi` always names a failing value, so the shrink lands on a
/// failing configuration even when failure is not monotone in the field —
/// for monotone failures it finds the exact boundary.
void shrink_dimension(const DiffCheck& check, DiffConfig& config,
                      std::size_t DiffConfig::* field, std::size_t min) {
  std::size_t lo = min;
  std::size_t hi = config.*field;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    DiffConfig probe = config;
    probe.*field = mid;
    if (!check(probe).empty()) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  config.*field = hi;
}

DiffConfig shrink(const DiffCheck& check, DiffConfig config) {
  shrink_dimension(check, config, &DiffConfig::gates, 16);
  shrink_dimension(check, config, &DiffConfig::candidates, 1);
  shrink_dimension(check, config, &DiffConfig::tests, 1);
  return config;
}

std::string current_test_filter() {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  if (!info) return "<test>";
  return std::string(info->test_suite_name()) + "." + info->name();
}

}  // namespace

::testing::AssertionResult run_diff(const char* name, const DiffCheck& check,
                                    const DiffConfig& shape,
                                    std::size_t default_iters) {
  if (std::getenv("SATDIAG_DIFF_SEED")) {
    // Repro mode: run exactly the env-specified configuration.
    const DiffConfig config = apply_env_overrides(shape);
    const std::string error = check(config);
    if (error.empty()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << name << " failed for " << config.describe() << ": " << error;
  }
  const std::size_t iters = iterations(default_iters);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    DiffConfig config = shape;
    config.seed = shape.seed + iter;
    const std::string error = check(config);
    if (error.empty()) continue;
    const DiffConfig minimal = shrink(check, config);
    const std::string minimal_error = check(minimal);
    return ::testing::AssertionFailure()
           << name << " failed for " << config.describe()
           << "; minimal failing config " << minimal.describe() << ": "
           << (minimal_error.empty() ? error : minimal_error)
           << "\n  repro: " << minimal.repro_env()
           << " <test binary> --gtest_filter=" << current_test_filter();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace satdiag::difftest
