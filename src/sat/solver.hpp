// Conflict-driven clause-learning SAT solver with an inprocessing core.
//
// A from-scratch reimplementation of the Chaff/MiniSat architecture the paper
// relies on ("conflict-based learning [14] and efficient Boolean constraint
// propagation [15]"): two-watched-literal BCP with a dedicated out-of-arena
// binary-clause layer (implication lists drained before long-clause watches,
// as in CryptoMiniSat/Glucose), first-UIP learning with recursive clause
// minimization, EVSIDS decision heuristic with phase saving, Luby restarts,
// incremental solving under assumptions (the paper's BSAT procedure reuses
// learnt clauses across the k=1..K iterations this way), and in-search model
// blocking (block_model) so all-solutions enumeration continues from the
// live trail instead of restarting per solution.
//
// Long-lived incremental health comes from two subsystems (see the README's
// "SAT core" subsection for the full contract):
//
//  * A glue-tiered learnt database (Glucose/CryptoMiniSat style): learnts
//    live in core (LBD <= 3, kept), mid (LBD <= 6, demoted when unused for
//    two reduce rounds), or local (everything else, activity-sorted halving)
//    tiers. LBD is recomputed whenever a learnt serves as a reason, and
//    improvements promote the clause.
//  * inprocess(): a budgeted simplification run between restarts at the
//    root level — clause cleaning, then bounded variable elimination
//    (elim.hpp, SatELite-style) with a model-reconstruction stack
//    (extend.hpp) so model_value stays exact on eliminated variables.
//
// Frozen-variable contract: elimination only ever touches variables that are
// neither decision variables nor frozen. Callers that will mention a
// variable in *future* clauses or assumptions (select lines, correction
// values, cardinality geq indicators, shard activation vars) must freeze it;
// reading a variable out of model_value needs no freezing — reconstruction
// is exact.
//
// Each solver keeps its learnts to itself: the BSAT partition shards run
// independent solvers and trade no clauses. A learnt clause is implied by
// the clause database alone (assumptions never taint it), which is what
// lets one solver keep its learnts across the whole k = 1..K bound loop.
//
// Extra hooks used by the diagnosis layer:
//  * decision markers — BSAT restricts decisions to select/correction vars,
//  * external activity bumps and polarity hints — the hybrid approach seeds
//    the heuristic from simulation results (Sec. 6 of the paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sat/extend.hpp"
#include "sat/types.hpp"
#include "util/timer.hpp"

namespace satdiag::sat {

/// Conflicts before the first inprocessing run and between runs.
inline constexpr std::uint64_t kInprocessInterval = 2000;

/// Propagations after which the first inprocessing run is due even when the
/// search has made fewer than first_conflicts conflicts. Every solver of the
/// perfbench diag_pool and serve_mix workloads ends below it (seed 1: at
/// most 1.8k conflicts and 1.7M propagations), so it never pays for
/// elimination and its models need no reconstruction. The value is
/// measured, not derived: moving it moves the first run of every long solve.
inline constexpr std::uint64_t kFirstRunPropagations = 3'300'000;

/// Budgets and thresholds of the inprocessing pipeline. The defaults suit
/// the diagnosis workloads; tests shrink the intervals to force the pipeline
/// onto tiny formulas.
struct InprocessConfig {
  bool enabled = true;
  /// Conflict count before the first run (0 = preprocess on first solve).
  /// The schedule runs on the search's clock: the first run is due after
  /// first_conflicts conflicts or once the search has made
  /// kFirstRunPropagations propagations, whichever comes first.
  /// Enumerations that are long in propagations but short in conflicts
  /// (BSAT.All on the larger Table 2 circuits) still get the run early.
  /// Instances whose formula stops simplifying are protected by the
  /// no-progress back-off (a run that eliminates nothing multiplies the
  /// interval by 8, see Solver::inprocess).
  std::uint64_t first_conflicts = kInprocessInterval;
  /// Conflicts between runs; doubles after every productive run
  /// (geometric back-off).
  std::uint64_t interval_conflicts = kInprocessInterval;
  /// Resolvent-construction budget of the elimination pass per run.
  std::uint64_t elim_budget = 1000000;
  /// Skip elimination candidates with more occurrences on one polarity.
  unsigned elim_occ_limit = 40;
  /// Allowed clause-count growth per eliminated variable (0 = MiniSat rule).
  unsigned elim_grow = 0;
  /// Skip eliminations that would create a resolvent longer than this.
  unsigned elim_resolvent_limit = 32;
  /// Glue thresholds of the learnt-DB tiers.
  unsigned core_lbd = 3;
  unsigned mid_lbd = 6;
};

class Solver {
 public:
  Solver();

  // ---- problem construction ----------------------------------------------
  Var new_var(bool decidable = true, bool default_phase = false);
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Pre-extend every per-variable array for `extra` upcoming new_var calls
  /// (one reallocation instead of ~13 amortized growths per variable). Used
  /// by the template-stamping path, which knows each copy's variable count
  /// up front.
  void reserve_vars(std::size_t extra);

  /// Batch variable allocation: equivalent to flags.size() new_var calls but
  /// with one resize of every per-variable array instead of ~17 push_backs
  /// per variable. Bit 0 of a flag marks the variable decidable (entering
  /// the order heap with zero activity, an O(1) max-heap append), bit 1
  /// frozen; phases start false. Returns the first new variable.
  static constexpr std::uint8_t kVarDecidable = 1;
  static constexpr std::uint8_t kVarFrozen = 2;
  Var new_vars(std::span<const std::uint8_t> flags);

  /// Add a clause; returns false when the formula is already UNSAT at the
  /// root level. Literals may be unsorted and contain duplicates. When
  /// called with a search trail left over from a satisfiable solve() the
  /// trail is reset first (root-level addition).
  bool add_clause(Clause lits);
  bool add_clause(Lit a) { return add_clause(Clause{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(Clause{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(Clause{a, b, c}); }

  /// Pristine template stamping: add a relocated template clause as it
  /// stands, watching lits[0] and lits[1]. The caller guarantees at least
  /// two distinct, non-complementary literals, none assigned at the root
  /// (fresh copy variables plus unassigned extern variables — see
  /// any_assigned), so nothing sorts, simplifies or propagates. This is the
  /// standard instance-construction case; streams with units or assigned
  /// externs go through add_clause instead.
  bool add_stamped_clause(std::span<const Lit> lits);

  /// True when any of `vars` is assigned at the root level — the template
  /// stamping path probes its extern (select) variables with this to decide
  /// whether add_stamped_clause applies.
  bool any_assigned(std::span<const Var> vars) const;

  /// Snapshot of the irredundant clause database — the binary layer plus
  /// non-learnt arena clauses, with root-level trail literals included as
  /// unit clauses. Every clause comes out sorted. For differential tests
  /// (walk-vs-stamp instance equality) and external tooling; not a hot path.
  std::vector<Clause> snapshot_clauses() const;

  /// Enumeration fast path: add a clause whose literals are all false under
  /// the current model (a blocking clause) *without* resetting the search.
  /// The solver backjumps just far enough to make the clause attachable and
  /// the next solve() with the same assumptions continues in place instead
  /// of re-deciding and re-propagating the whole trail. Falls back to
  /// add_clause() semantics when no search state is active; returns false
  /// when the formula became UNSAT at the root.
  ///
  /// Precondition: every literal's variable must be a decision variable
  /// (the default). Completeness of the in-place continuation relies on the
  /// search re-deciding a blocking literal that a later backjump unassigns;
  /// a non-decidable variable could leave the clause silently unsatisfied
  /// in a "model". In the library only sat::enumerate (allsat.hpp) calls
  /// it, and every enumeration blocks over decision variables (selects /
  /// selectors / inputs).
  bool block_model(Clause lits);

  bool ok() const { return ok_; }

  // ---- frozen-variable contract ------------------------------------------
  /// Exempt v from variable elimination. Mandatory for any variable that
  /// future add_clause/solve calls will mention (decision variables are
  /// exempt automatically — sat::enumerate blocks over them).
  /// Freezing is permanent and cheap; model reads need no freezing.
  void freeze(Var v) { frozen_[static_cast<std::size_t>(v)] = true; }
  bool is_frozen(Var v) const { return frozen_[static_cast<std::size_t>(v)]; }
  /// True once elimination removed v; model_value(v) remains exact (the
  /// reconstruction stack replays the clauses that defined it).
  bool is_eliminated(Var v) const {
    return eliminated_[static_cast<std::size_t>(v)];
  }

  // ---- inprocessing -------------------------------------------------------
  void set_inprocess(const InprocessConfig& config);
  const InprocessConfig& inprocess_config() const { return inprocess_cfg_; }

  // ---- solving --------------------------------------------------------------
  /// kTrue: model available; kFalse: UNSAT under assumptions; kUndef: budget
  /// or deadline exhausted.
  LBool solve(std::span<const Lit> assumptions = {});

  LBool model_value(Var v) const { return model_[static_cast<std::size_t>(v)]; }
  LBool model_value(Lit l) const { return model_value(l.var()) ^ l.sign(); }

  /// After kFalse under assumptions: the subset of assumptions proven
  /// contradictory (in negated form, as in MiniSat's conflict vector).
  const std::vector<Lit>& conflict() const { return conflict_; }

  // ---- budget ---------------------------------------------------------------
  /// solve() returns kUndef once the deadline expires.
  void set_deadline(Deadline d) { deadline_ = d; }

  // ---- heuristic hooks ------------------------------------------------------
  void set_polarity_hint(Var v, bool phase) {
    saved_phase_[static_cast<std::size_t>(v)] = phase;
  }
  /// Multiplies into the EVSIDS activity; larger = decided earlier.
  void boost_activity(Var v, double factor);

  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t binary_propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
    std::uint64_t removed = 0;
    std::uint64_t gc_runs = 0;
    // Inprocessing counters.
    std::uint64_t inprocess_runs = 0;
    std::uint64_t vars_eliminated = 0;
    // Learnt-DB tier sizes (snapshot; summed across workers by merge()).
    std::uint64_t tier_core = 0;
    std::uint64_t tier_mid = 0;
    std::uint64_t tier_local = 0;

    /// Aggregate another solver's counters (per-worker stats of the
    /// parallel diagnosis paths merge into one report).
    void merge(const Stats& other) {
      conflicts += other.conflicts;
      decisions += other.decisions;
      propagations += other.propagations;
      binary_propagations += other.binary_propagations;
      restarts += other.restarts;
      learned += other.learned;
      removed += other.removed;
      gc_runs += other.gc_runs;
      inprocess_runs += other.inprocess_runs;
      vars_eliminated += other.vars_eliminated;
      tier_core += other.tier_core;
      tier_mid += other.tier_mid;
      tier_local += other.tier_local;
    }
  };
  const Stats& stats() const { return stats_; }

  std::size_t num_clauses() const;
  std::size_t num_learnts() const;

 private:
  friend class Eliminator;

  using CRef = std::uint32_t;
  static constexpr CRef kCRefUndef = 0xffffffffu;

  // Binary clauses live outside the arena in dedicated watch lists (see
  // bin_watches_). Their reasons are encoded as the other literal of the
  // clause with the top bit set, so they fit the CRef-typed reason slots
  // without allocating; the arena asserts it never grows into the tag range.
  static constexpr CRef kBinReasonFlag = 0x80000000u;
  static constexpr bool is_bin_reason(CRef r) {
    return r != kCRefUndef && (r & kBinReasonFlag) != 0;
  }
  static constexpr Lit bin_reason_lit(CRef r) {
    return Lit::from_index(static_cast<int>(r & ~kBinReasonFlag));
  }
  static constexpr CRef bin_reason(Lit other) {
    return kBinReasonFlag | static_cast<CRef>(other.index());
  }

  // Learnt-DB tiers (meta word, bits 12..13).
  enum Tier : std::uint32_t { kTierCore = 0, kTierMid = 1, kTierLocal = 2 };

  // Arena clause layout: [header][activity bits][meta][lits...]
  // header = (size << 2) | (learnt << 1) | deleted.
  // meta   = lbd (bits 0..11) | tier (12..13) | unused reduce rounds
  //          (16..23); meaningful for learnts only. Bit 14 is free.
  struct Arena {
    static constexpr std::uint32_t kLbdMask = 0xfffu;
    static constexpr std::uint32_t kTierShift = 12;
    static constexpr std::uint32_t kUnusedShift = 16;
    static constexpr std::uint32_t kUnusedMask = 0xffu;

    std::vector<std::uint32_t> data;

    CRef alloc(std::span<const Lit> lits, bool learnt);
    std::uint32_t size(CRef c) const { return data[c] >> 2; }
    bool learnt(CRef c) const { return (data[c] >> 1) & 1; }
    bool deleted(CRef c) const { return data[c] & 1; }
    void mark_deleted(CRef c) { data[c] |= 1; }
    Lit lit(CRef c, std::uint32_t i) const {
      return Lit::from_index(static_cast<int>(data[c + 3 + i]));
    }
    void set_lit(CRef c, std::uint32_t i, Lit l) {
      data[c + 3 + i] = static_cast<std::uint32_t>(l.index());
    }
    void shrink(CRef c, std::uint32_t new_size) {
      data[c] = (new_size << 2) | (data[c] & 3);
    }
    float activity(CRef c) const;
    void set_activity(CRef c, float a);

    std::uint32_t lbd(CRef c) const { return data[c + 2] & kLbdMask; }
    void set_lbd(CRef c, std::uint32_t lbd) {
      data[c + 2] = (data[c + 2] & ~kLbdMask) | std::min(lbd, kLbdMask);
    }
    Tier tier(CRef c) const {
      return static_cast<Tier>((data[c + 2] >> kTierShift) & 3u);
    }
    void set_tier(CRef c, Tier t) {
      data[c + 2] = (data[c + 2] & ~(3u << kTierShift)) |
                    (static_cast<std::uint32_t>(t) << kTierShift);
    }
    std::uint32_t unused_rounds(CRef c) const {
      return (data[c + 2] >> kUnusedShift) & kUnusedMask;
    }
    void set_unused_rounds(CRef c, std::uint32_t n) {
      data[c + 2] = (data[c + 2] & ~(kUnusedMask << kUnusedShift)) |
                    ((n & kUnusedMask) << kUnusedShift);
    }
    std::uint32_t meta(CRef c) const { return data[c + 2]; }
    void set_meta(CRef c, std::uint32_t m) { data[c + 2] = m; }
  };
  /// Words per arena clause beyond its literals (header, activity, meta).
  static constexpr std::uint32_t kClauseOverhead = 3;

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  // Watcher for a size-2 clause: when the watching literal becomes false,
  // `implied` is the only other literal — no arena load, no watch movement,
  // no replacement-watch scan. `learnt` tags redundant binaries (elimination
  // drops them instead of resolving on them; the counts track both kinds).
  struct BinWatcher {
    Lit implied;
    std::uint32_t learnt;
  };

  struct VarData {
    CRef reason = kCRefUndef;
    int level = 0;
  };

  // internal engine
  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  LBool value(Lit l) const { return value(l.var()) ^ l.sign(); }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
  /// Trail prefix assigned at the root (stable across backjumps; root units
  /// only ever append).
  std::size_t root_trail_size() const {
    return trail_lim_.empty() ? trail_.size()
                              : static_cast<std::size_t>(trail_lim_[0]);
  }

  /// Attach an irredundant clause of size >= 2, watching lits[0] and
  /// lits[1]: a binary goes to the binary layer (returns kCRefUndef),
  /// anything longer into the arena (returns its reference).
  CRef attach_irredundant(std::span<const Lit> lits);
  void attach_clause(CRef c);
  void attach_binary(Lit a, Lit b, bool learnt);
  void detach_clause(CRef c);
  void remove_clause(CRef c);
  void unchecked_enqueue(Lit p, CRef reason);
  CRef propagate();
  void cancel_until(int level);
  Lit pick_branch_lit();
  void analyze(CRef conflict, Clause& out_learnt, int& out_btlevel,
               unsigned& out_lbd);
  bool lit_redundant(Lit p, std::uint32_t abstract_levels);
  void analyze_final(Lit p);
  void var_bump_activity(Var v);
  void var_decay_activity() { var_inc_ *= (1.0 / 0.95); }
  void cla_bump_activity(CRef c);
  void cla_decay_activity() { cla_inc_ *= (1.0f / 0.999f); }
  /// Recompute the glue of a learnt serving as a reason; promote on
  /// improvement and reset its unused-round counter.
  void update_learnt_on_use(CRef c);
  std::vector<CRef>& tier_list(Tier t);
  void push_learnt(CRef c, unsigned lbd);
  void reduce_db();
  void garbage_collect();
  LBool search();
  static double luby(double y, int i);

  // ---- inprocessing internals (solver.cpp + elim.cpp) --------------------
  bool inprocess();
  bool inprocess_due() const {
    if (!inprocess_cfg_.enabled) return false;
    return stats_.conflicts >= next_inprocess_ ||
           (stats_.inprocess_runs == 0 &&
            stats_.propagations >= first_inprocess_props_);
  }
  /// Forget root-level reasons (analyze/analyze_final skip level-0 vars, so
  /// they are never read): afterwards no arena clause is locked and
  /// cleaning and elimination may remove or rewrite any clause.
  void clear_root_reasons();
  /// Remove root-satisfied clauses and strip root-false literals, in the
  /// arena and the binary layer.
  void clean_clauses();
  /// Erase deleted CRefs from clauses_ and the learnt tiers (cleaning and
  /// elimination delete lazily; GC requires compacted lists).
  void compact_clause_lists();
  /// Rewrite the (detached) clause c to `lits` — a subset of its literals,
  /// none assigned at the root, size >= 1. Migrates to the binary layer or
  /// the trail when it shrinks past the arena threshold.
  void shrink_clause_detached(CRef c, std::span<const Lit> lits);
  /// Enqueue a root-level unit and propagate; updates ok_.
  bool enqueue_root(Lit p);
  void update_tier_stats();

  /// Totalizing fallback once elimination has run: BVE resolvents can lose
  /// the propagation-completeness of the original encodings, so after every
  /// decision variable is assigned, remaining non-eliminated variables are
  /// decided too — a total BCP fixpoint satisfies every clause, which the
  /// reconstruction stack requires. Scans from totalize_head_ (reset on
  /// every backjump).
  Lit pick_totalize_lit();

  // order heap (max-heap on activity)
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_in(Var v) const { return heap_pos_[static_cast<std::size_t>(v)] >= 0; }
  void heap_percolate_up(int i);
  void heap_percolate_down(int i);
  bool heap_lt(Var a, Var b) const {
    return activity_[static_cast<std::size_t>(a)] >
           activity_[static_cast<std::size_t>(b)];
  }

  bool ok_ = true;
  Arena arena_;
  std::vector<CRef> clauses_;  // arena clauses (size >= 3) only
  // Learnt tiers (arena learnts, size >= 3): core is kept, mid demotes to
  // local when unused, local is halved by activity in reduce_db(). analyze
  // promotes by glue; reduce_db() re-buckets by the tier tag.
  std::vector<CRef> learnts_core_;
  std::vector<CRef> learnts_mid_;
  std::vector<CRef> learnts_local_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()
  // Dedicated binary-clause layer: bin_watches_[l.index()] holds the implied
  // literals of all binary clauses containing ~l. Binary clauses are only
  // removed by inprocessing (root-satisfied) and never garbage collected.
  std::vector<std::vector<BinWatcher>> bin_watches_;
  std::size_t num_bin_clauses_ = 0;
  std::size_t num_bin_learnts_ = 0;
  Lit bin_conflict_other_ = Lit::undef();  // second literal of a binary conflict

  std::vector<LBool> assigns_;
  std::vector<VarData> vardata_;
  std::vector<bool> saved_phase_;
  std::vector<bool> decision_;
  std::vector<bool> frozen_;
  std::vector<bool> eliminated_;
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  float cla_inc_ = 1.0f;

  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  int qhead_ = 0;

  std::vector<Var> heap_;
  std::vector<int> heap_pos_;

  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_;
  std::vector<LBool> model_;
  ExtendStack extend_;

  // analyze() scratch
  std::vector<bool> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  std::vector<Var> redundant_clear_;
  // LBD stamp array: lbd_stamp_[level] == lbd_epoch_ marks a decision level
  // already counted for the current learnt clause — O(1) per literal instead
  // of a linear scan over the levels seen so far. Seeded with the level-0
  // slot; new_var appends one slot, covering levels 0..num_vars.
  std::vector<std::uint64_t> lbd_stamp_{0};
  std::uint64_t lbd_epoch_ = 0;

  // Mirror the InprocessConfig defaults so a solver that never calls
  // set_inprocess() schedules its first pipeline run like one configured
  // explicitly.
  InprocessConfig inprocess_cfg_;
  std::uint64_t next_inprocess_ = InprocessConfig{}.first_conflicts;
  std::uint64_t first_inprocess_props_ = kFirstRunPropagations;
  std::uint64_t inprocess_interval_ = InprocessConfig{}.interval_conflicts;
  int totalize_head_ = 0;  // pick_totalize_lit() scan cursor

  double max_learnts_ = 0;
  Deadline deadline_;
  std::uint64_t wasted_ = 0;  // arena words lost to deleted clauses

  Stats stats_;
};

}  // namespace satdiag::sat
