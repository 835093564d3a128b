// sim_sweep: full-scale s38417_like instances with one injected error and
// 32 failing tests. Each instance runs plain BSIM, BSIM with X-refinement,
// X-list single candidates, and a stuck-at fault grade of every site under
// one 64-pattern word, dealt into equal site chunks. One thread; no SAT,
// CNF or COV work at all.
//
// The latency percentiles are over the fault-grade chunks only, the one
// operation with enough calls per run for a p90; BSIM, X-refinement and
// X-list move wall_s and their own per-layer timings.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "common.hpp"
#include "counters.hpp"
#include "diag/bsim.hpp"
#include "diag/xlist.hpp"
#include "fault/fault_sim.hpp"
#include "prepare.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace satdiag;

constexpr const char* kCircuit = "s38417_like";
constexpr std::size_t kTests = 32;
constexpr std::size_t kFaultChunks = 12;
// Calibration: instances per requested second on a 4-core x86 box.
constexpr double kInstancesPerSecond = 0.75;
// 12 chunks per instance: at least 100 for a p90 over the chunks.
constexpr std::size_t kMinInstances = 10;

struct Instance {
  PreparedInstance prepared;
  std::size_t sites = 0;
  /// The stuck-at sites dealt round-robin into kFaultChunks chunks, so each
  /// chunk mixes cheap and expensive sites from the whole circuit alike.
  std::vector<std::vector<GateId>> chunks;
  std::uint64_t pattern_seed = 0;
};

struct Outcome {
  BsimResult bsim;
  BsimResult refined;
  std::vector<GateId> xlist;
  std::uint64_t faults = 0;
  std::uint64_t detected = 0;
  double bsim_s = 0.0, xrefine_s = 0.0, xlist_s = 0.0;
  std::vector<double> chunk_s;
};

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;
  std::size_t calls = 0;
  Samples chunks;  // fault-grade chunk latencies
  std::vector<Outcome> outcomes;
  Counters before;
  Counters after;
};

std::vector<Instance> make_instances(std::uint64_t seed, std::size_t n,
                                     Samples& prepare_ms) {
  std::vector<Instance> instances;
  for (std::uint64_t item = 0; instances.size() < n; ++item) {
    const std::uint64_t item_seed = mix_seed(seed, item);
    const double t0 = now_seconds();
    auto prepared = prepare_instance(kCircuit, 1.0, 1, kTests, item_seed);
    if (!prepared) continue;
    Instance inst;
    const std::vector<GateId> sites = stuck_at_sites(prepared->faulty);
    inst.sites = sites.size();
    inst.chunks.resize(kFaultChunks);
    for (std::size_t s = 0; s < sites.size(); ++s) {
      inst.chunks[s % kFaultChunks].push_back(sites[s]);
    }
    inst.prepared = std::move(*prepared);
    inst.pattern_seed = mix_seed(item_seed, 1);
    prepare_ms.add((now_seconds() - t0) * 1e3);
    instances.push_back(std::move(inst));
  }
  return instances;
}

template <typename F>
double timed(Tracer& tracer, const char* name, std::uint64_t op,
             std::size_t& calls, F&& f) {
  ScopedSpan span(tracer, name, op);
  const double t0 = now_seconds();
  f();
  ++calls;
  return now_seconds() - t0;
}

Pass run_pass(const std::vector<Instance>& instances, Tracer& tracer) {
  cache::ArtifactCache::global().clear();
  Pass pass;
  pass.outcomes.resize(instances.size());
  pass.before = Counters::read_process();
  const double cpu0 = self_usage().cpu_seconds;
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const Netlist& nl = inst.prepared.faulty;
    const TestSet& tests = inst.prepared.tests;
    Outcome& out = pass.outcomes[i];
    ScopedSpan op(tracer, "op", i);
    out.bsim_s = timed(tracer, "sim.bsim", i, pass.calls,
                       [&] { out.bsim = basic_sim_diagnose(nl, tests); });
    out.xrefine_s = timed(tracer, "sim.xrefine", i, pass.calls, [&] {
      BsimOptions options;
      options.x_refine = true;
      out.refined = basic_sim_diagnose(nl, tests, options, nullptr);
    });
    out.xlist_s = timed(tracer, "sim.xlist", i, pass.calls,
                        [&] { out.xlist = xlist_single_candidates(nl, tests); });
    // Every chunk sees the same 64 patterns, so the chunks together grade
    // every site exactly as one call over all sites would.
    for (const std::vector<GateId>& chunk : inst.chunks) {
      const double dt = timed(tracer, "sim.faultsim", i, pass.calls, [&] {
        Rng rng(inst.pattern_seed);
        const StuckAtFaultSimResult r =
            simulate_stuck_at_faults(nl, chunk, rng, StuckAtFaultSimOptions{});
        out.faults += r.faults;
        out.detected += r.detected;
      });
      out.chunk_s.push_back(dt);
      pass.chunks.add(dt);
    }
  }
  pass.wall = now_seconds() - t0;
  pass.cpu = self_usage().cpu_seconds - cpu0;
  pass.after = Counters::read_process();
  return pass;
}

/// With p = 1 the error site must be an X-list candidate and must survive
/// X-refinement in every candidate set that path tracing marked it in.
std::uint64_t check(const std::vector<Instance>& instances, const Pass& pass,
                    Checks& checks) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Outcome& out = pass.outcomes[i];
    const GateId site = instances[i].prepared.error_sites.front();
    const std::uint64_t before = checks.failures();
    const std::string tag = "instance " + std::to_string(i);
    if (std::find(out.xlist.begin(), out.xlist.end(), site) == out.xlist.end()) {
      checks.fail(tag + ": error site missing from the X-list candidates");
    }
    if (out.refined.candidate_sets != out.bsim.candidate_sets) {
      checks.fail(tag + ": X-refined BSIM changed the path-trace sets");
    }
    for (std::size_t t = 0; t < out.refined.candidate_sets.size(); ++t) {
      const auto& marked = out.refined.candidate_sets[t];
      const auto& refined = out.refined.refined_sets[t];
      if (std::binary_search(marked.begin(), marked.end(), site) &&
          !std::binary_search(refined.begin(), refined.end(), site)) {
        checks.fail(tag + ": X-refinement dropped the error site");
        break;
      }
    }
    if (out.faults != 2 * instances[i].sites || out.detected > out.faults) {
      checks.fail(tag + ": fault grade covered the wrong fault count");
    }
    if (checks.failures() != before) ++failed;
  }
  return failed;
}

struct Totals {
  std::uint64_t faults = 0, detected = 0, marks = 0, refined = 0, xlist = 0;
};

Totals totals(const Pass& pass) {
  Totals t;
  for (const Outcome& out : pass.outcomes) {
    t.faults += out.faults;
    t.detected += out.detected;
    t.xlist += out.xlist.size();
    for (const auto& set : out.bsim.candidate_sets) t.marks += set.size();
    for (const auto& set : out.refined.refined_sets) t.refined += set.size();
  }
  return t;
}

void set_per_layer(MetricTable& table, const std::vector<Instance>& instances,
                   const Pass& pass, const Samples& prepare_ms) {
  Samples bsim_ms, xrefine_ms, xlist_ms, chunk_ms;
  double gate_evals = 0.0, bsim_s = 0.0, fault_s = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Outcome& out = pass.outcomes[i];
    bsim_ms.add(out.bsim_s * 1e3);
    xrefine_ms.add(out.xrefine_s * 1e3);
    xlist_ms.add(out.xlist_s * 1e3);
    for (double s : out.chunk_s) {
      chunk_ms.add(s * 1e3);
      fault_s += s;
    }
    const std::size_t words = (instances[i].prepared.tests.size() + 63) / 64;
    gate_evals += static_cast<double>(instances[i].prepared.faulty.size() * words);
    bsim_s += out.bsim_s;
  }
  // Per-instance call timings have few samples: report their mean, with
  // the count, rather than an unsupported percentile.
  const auto mean = [](const Samples& s) {
    return s.size() == 0 ? 0.0 : s.sum() / static_cast<double>(s.size());
  };
  table.set("fault.prepare_ms", mean(prepare_ms), prepare_ms.size());
  table.set("sim.bsim_ms", mean(bsim_ms), bsim_ms.size());
  table.set("sim.gate_evals_per_s", gate_evals / bsim_s, bsim_ms.size());
  table.set("sim.xrefine_ms", mean(xrefine_ms), xrefine_ms.size());
  table.set("sim.xlist_ms", mean(xlist_ms), xlist_ms.size());
  table.set_percentile("sim.faultsim_ms", chunk_ms, 0.5, 1.0);
  table.set("sim.faults_per_s", static_cast<double>(totals(pass).faults) / fault_s,
            chunk_ms.size());
  set_counter_deltas(table, pass.before, pass.after);
}

}  // namespace

int run_sim_sweep(const RunOptions& options) {
  const std::size_t n = std::max(
      kMinInstances,
      static_cast<std::size_t>(std::llround(options.seconds * kInstancesPerSecond)));

  std::vector<double> setups;
  std::vector<Instance> instances;
  Samples prepare_ms;
  for (int run = 0; run < kSetupRuns; ++run) {
    cache::ArtifactCache::global().clear();
    prepare_ms = Samples();
    instances = {};  // the previous set must not count toward peak memory
    const double t0 = now_seconds();
    instances = make_instances(options.seed, n, prepare_ms);
    setups.push_back(now_seconds() - t0);
  }

  Tracer untraced(false);
  const Pass base = run_pass(instances, untraced);
  MetricTable table(options.trace);
  Checks checks;
  const Pass* measured = &base;
  Pass traced;
  if (options.trace) {
    Tracer tracer(true);
    traced = run_pass(instances, tracer);
    measured = &traced;
    set_per_layer(table, instances, traced, prepare_ms);
    set_trace_summary(table, tracer, traced.wall, base.wall);
    tracer.write_chrome_json(options.work_dir + "/trace_sim_sweep.json");
    if (totals(traced).detected != totals(base).detected) {
      checks.fail("traced pass detected a different fault count");
    }
  } else {
    set_end_to_end(table, setups, base.wall, base.cpu, self_usage().peak_rss_mb,
                   base.calls, base.chunks);
  }

  const std::uint64_t failed = check(instances, *measured, checks);
  const Totals t = totals(*measured);
  std::printf("workload sim_sweep: %s scale 1.0 p=1 m=%zu, %zu instances, "
              "%zu operations\n",
              kCircuit, kTests, instances.size(), measured->calls);
  Fingerprint fp;
  fp.add("instances", instances.size());
  fp.add("operations", measured->calls);
  fp.add("faults", t.faults);
  fp.add("faults.detected", t.detected);
  fp.add("bsim.marks", t.marks);
  fp.add("bsim.refined_marks", t.refined);
  fp.add("xlist.candidates", t.xlist);
  fp.print();
  std::printf("error_rate %.6f (%llu of %zu)\n",
              static_cast<double>(failed) / static_cast<double>(instances.size()),
              static_cast<unsigned long long>(failed), instances.size());
  table.print_text();
  table.print_result(checks.ok(), instances.size(), failed);
  return checks.ok() ? 0 : 1;
}

}  // namespace perfbench
