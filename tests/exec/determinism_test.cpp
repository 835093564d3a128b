// Thread-count invariance of the parallel consumers: diagnosis solution
// lists, fault-sim detection counts, X-lists, and experiment tables must be
// bit-identical for threads in {1, 2, 8}.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
#include "diag/xlist.hpp"
#include "fault/fault_sim.hpp"
#include "report/experiment.hpp"
#include "sim/simulator.hpp"

namespace satdiag {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

PreparedExperiment prepare(const char* circuit, std::size_t errors,
                           std::size_t tests, double scale = 0.5,
                           std::uint64_t seed = 3) {
  ExperimentConfig config;
  config.circuit = circuit;
  config.scale = scale;
  config.num_errors = errors;
  config.num_tests = tests;
  config.seed = seed;
  auto prepared = prepare_experiment(config);
  EXPECT_TRUE(prepared.has_value());
  return std::move(*prepared);
}

TEST(ParallelDeterminismTest, BsatSolutionListsAreThreadCountInvariant) {
  const PreparedExperiment prepared = prepare("s526_like", 2, 6);
  std::optional<BsatResult> reference;
  for (std::size_t threads : kThreadCounts) {
    BsatOptions options;
    options.k = 2;
    options.num_threads = threads;
    const BsatResult result =
        basic_sat_diagnose(prepared.faulty, prepared.tests, options);
    EXPECT_TRUE(result.complete);
    if (!reference) {
      reference = result;
      EXPECT_FALSE(result.solutions.empty());
      continue;
    }
    // Bit-identical: same solutions in the same (canonical) order.
    EXPECT_EQ(result.solutions, reference->solutions)
        << "threads=" << threads;
    EXPECT_EQ(result.complete, reference->complete);
  }
}

TEST(ParallelDeterminismTest, BsatRestrictedInstrumentationStaysInvariant) {
  // Exercise the universe partition on a caller-restricted instrumented
  // set.
  const PreparedExperiment prepared = prepare("s298_like", 1, 4);
  std::vector<GateId> instrumented;
  for (GateId g = 0; g < prepared.faulty.size(); ++g) {
    if (prepared.faulty.is_combinational(g) && g % 2 == 0) {
      instrumented.push_back(g);
    }
  }
  ASSERT_GT(instrumented.size(), 2u);
  std::optional<BsatResult> reference;
  for (std::size_t threads : kThreadCounts) {
    BsatOptions options;
    options.k = 2;
    options.num_threads = threads;
    options.instance.instrumented = instrumented;
    const BsatResult result =
        basic_sat_diagnose(prepared.faulty, prepared.tests, options);
    EXPECT_TRUE(result.complete);
    if (!reference) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.solutions, reference->solutions)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, TinyUniverseWithMoreThreadsThanGates) {
  // Regression: ceil-partitioning used to place a shard's begin past the
  // universe end (9 gates on 8 lanes -> shard 5 begin == 10), crashing in
  // the reversed-range instrumented.assign. Any restricted universe smaller
  // than the thread count reaches this shape.
  const PreparedExperiment prepared = prepare("s298_like", 1, 4);
  std::vector<GateId> instrumented;
  for (GateId g = 0; g < prepared.faulty.size() && instrumented.size() < 9;
       ++g) {
    if (prepared.faulty.is_combinational(g)) instrumented.push_back(g);
  }
  ASSERT_EQ(instrumented.size(), 9u);
  std::optional<BsatResult> reference;
  for (std::size_t threads : {1u, 8u, 16u}) {
    BsatOptions options;
    options.k = 2;
    options.num_threads = threads;
    options.instance.instrumented = instrumented;
    const BsatResult result =
        basic_sat_diagnose(prepared.faulty, prepared.tests, options);
    if (!reference) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.solutions, reference->solutions)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, BsatOnPassingTestsFindsNothingAtAnyThreadCount) {
  // The injected errors' tests all pass on the golden circuit: the empty
  // correction satisfies the instance, so there is nothing to diagnose.
  // The serial enumeration used to report the empty set and the partition
  // shards (whose clauses forbid the empty model) every singleton.
  const PreparedExperiment prepared = prepare("s298_like", 1, 4);
  for (std::size_t threads : {1u, 4u}) {
    BsatOptions options;
    options.k = 2;
    options.num_threads = threads;
    const BsatResult result =
        basic_sat_diagnose(prepared.golden, prepared.tests, options);
    EXPECT_TRUE(result.solutions.empty()) << "threads=" << threads;
    EXPECT_TRUE(result.complete) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, BsatMergedStatsCountAllWorkers) {
  const PreparedExperiment prepared = prepare("s526_like", 2, 6);
  BsatOptions options;
  options.k = 2;
  options.num_threads = 4;
  const BsatResult result =
      basic_sat_diagnose(prepared.faulty, prepared.tests, options);
  // Every worker instance at least propagates its test-vector units; a
  // zeroed merge (e.g. only worker 0 counted) cannot reach the serial
  // propagation volume.
  BsatOptions serial = options;
  serial.num_threads = 1;
  const BsatResult serial_result =
      basic_sat_diagnose(prepared.faulty, prepared.tests, serial);
  EXPECT_GE(result.solver_stats.propagations,
            serial_result.solver_stats.propagations);
  EXPECT_GT(result.solver_stats.propagations, 0u);
}

TEST(ParallelDeterminismTest, HybridSolutionsAreThreadCountInvariant) {
  // The hybrid is BSAT seeded with BSIM's mark counts.
  const PreparedExperiment prepared = prepare("s526_like", 2, 6);
  const std::vector<std::uint32_t> marks =
      basic_sim_diagnose(prepared.faulty, prepared.tests).mark_count;
  std::optional<BsatResult> reference;
  for (std::size_t threads : kThreadCounts) {
    BsatOptions options;
    options.k = 2;
    options.num_threads = threads;
    options.select_activity_seed = marks;
    const BsatResult result =
        basic_sat_diagnose(prepared.faulty, prepared.tests, options);
    if (!reference) {
      reference = result;
      EXPECT_FALSE(result.solutions.empty());
      continue;
    }
    EXPECT_EQ(result.solutions, reference->solutions)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, FaultSimCountsAreThreadCountInvariant) {
  const PreparedExperiment prepared = prepare("s1423_like", 1, 4);
  const std::vector<GateId> sites = stuck_at_sites(prepared.golden);
  std::optional<StuckAtFaultSimResult> reference;
  for (std::size_t threads : kThreadCounts) {
    Rng rng(99);
    StuckAtFaultSimOptions options;
    options.rounds = 2;
    options.num_threads = threads;
    const StuckAtFaultSimResult result =
        simulate_stuck_at_faults(prepared.golden, sites, rng, options);
    if (!reference) {
      reference = result;
      EXPECT_GT(result.detected, 0u);
      continue;
    }
    EXPECT_EQ(result.faults, reference->faults) << "threads=" << threads;
    EXPECT_EQ(result.detected, reference->detected) << "threads=" << threads;
    EXPECT_EQ(result.site_detected, reference->site_detected)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, FaultSimMatchesTheSerialReferenceLoop) {
  // Independent reference: one full sweep_words pass per (site, polarity)
  // with the stuck value forced by the `finish` hook — no incremental
  // simulator, so it shares no override or restore code with the grade.
  const PreparedExperiment prepared = prepare("s298_like", 1, 4);
  const Netlist& nl = prepared.golden;
  const std::vector<GateId> sites = stuck_at_sites(nl);

  Rng rng(7);
  StuckAtFaultSimOptions options;
  options.rounds = 2;
  options.num_threads = 8;
  const StuckAtFaultSimResult result =
      simulate_stuck_at_faults(nl, sites, rng, options);

  Rng ref_rng(7);
  std::vector<std::uint64_t> input_words(nl.inputs().size());
  std::vector<std::uint64_t> values(nl.size());
  std::vector<std::uint64_t> fanin_buf;
  const auto outputs_with = [&](GateId site, std::uint64_t stuck) {
    std::fill(values.begin(), values.end(), 0);
    for (std::size_t i = 0; i < input_words.size(); ++i) {
      values[nl.inputs()[i]] = input_words[i];
    }
    sweep_words(
        nl, values, fanin_buf, [&nl](GateId g) { return nl.type(g); },
        [&](GateId g, std::uint64_t& word) {
          if (g == site) word = stuck;
        });
    std::vector<std::uint64_t> out;
    for (GateId o : nl.outputs()) out.push_back(values[o]);
    return out;
  };
  std::size_t ref_faults = 0;
  std::size_t ref_detected = 0;
  std::vector<std::uint8_t> ref_site_detected(sites.size(), 0);
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::uint64_t& word : input_words) word = ref_rng.next_u64();
    const std::vector<std::uint64_t> golden = outputs_with(kNoGate, 0);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      for (const std::uint64_t stuck : {0ULL, ~0ULL}) {
        ++ref_faults;
        if (outputs_with(sites[i], stuck) != golden) {
          ++ref_detected;
          ref_site_detected[i] = 1;
        }
      }
    }
  }
  EXPECT_EQ(result.faults, ref_faults);
  EXPECT_EQ(result.detected, ref_detected);
  EXPECT_EQ(result.site_detected, ref_site_detected);
}

TEST(ParallelDeterminismTest, XListCandidatesAreThreadCountInvariant) {
  const PreparedExperiment prepared = prepare("s1423_like", 2, 8);
  std::optional<std::vector<GateId>> reference;
  for (std::size_t threads : kThreadCounts) {
    XListOptions options;
    options.num_threads = threads;
    const std::vector<GateId> candidates =
        xlist_single_candidates(prepared.faulty, prepared.tests, options);
    if (!reference) {
      reference = candidates;
      continue;
    }
    EXPECT_EQ(candidates, *reference) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, ExperimentTablesAreThreadCountInvariant) {
  std::vector<ExperimentConfig> configs;
  for (const char* circuit : {"s298_like", "s526_like"}) {
    for (std::size_t m : {4, 6}) {
      ExperimentConfig config;
      config.circuit = circuit;
      config.scale = 0.5;
      config.num_errors = 1;
      config.num_tests = m;
      config.seed = 3;
      configs.push_back(std::move(config));
    }
  }
  std::optional<std::vector<ExperimentCell>> reference;
  for (std::size_t threads : kThreadCounts) {
    ExperimentGridOptions options;
    options.num_threads = threads;
    const std::vector<ExperimentCell> cells =
        run_experiment_grid(configs, options);
    ASSERT_EQ(cells.size(), configs.size());
    if (!reference) {
      reference = cells;
      continue;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const ExperimentCell& a = cells[i];
      const ExperimentCell& b = (*reference)[i];
      EXPECT_EQ(a.prepared, b.prepared) << "cell " << i;
      if (!a.prepared) continue;
      // Everything except the wall-clock columns must match bit for bit.
      EXPECT_EQ(a.row.circuit_size, b.row.circuit_size) << "cell " << i;
      EXPECT_EQ(a.row.cov.solutions, b.row.cov.solutions) << "cell " << i;
      EXPECT_EQ(a.row.bsat.solutions, b.row.bsat.solutions) << "cell " << i;
      EXPECT_EQ(a.row.cov.complete, b.row.cov.complete) << "cell " << i;
      EXPECT_EQ(a.row.bsat.complete, b.row.bsat.complete) << "cell " << i;
      EXPECT_EQ(a.row.bsim_quality.union_size, b.row.bsim_quality.union_size);
      EXPECT_EQ(a.row.bsim_quality.gmax_size, b.row.bsim_quality.gmax_size);
      EXPECT_EQ(a.row.bsat.quality.num_solutions,
                b.row.bsat.quality.num_solutions);
      EXPECT_EQ(a.row.bsat.quality.hit_rate, b.row.bsat.quality.hit_rate);
    }
  }
}

}  // namespace
}  // namespace satdiag
