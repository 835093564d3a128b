#include "sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sat/elim.hpp"

namespace satdiag::sat {

// ---------------------------------------------------------------------------
// Arena

Solver::CRef Solver::Arena::alloc(std::span<const Lit> lits, bool learnt) {
  const CRef cref = static_cast<CRef>(data.size());
  // Crefs must stay below the binary-reason tag bit (see kBinReasonFlag);
  // past it, is_bin_reason() would misread arena references as literal
  // tags, so fail loudly rather than corrupt reasons in release builds.
  if (cref >= kBinReasonFlag) {
    throw std::length_error("sat arena exceeds 2^31 words");
  }
  data.push_back((static_cast<std::uint32_t>(lits.size()) << 2) |
                 (learnt ? 2u : 0u));
  data.push_back(std::bit_cast<std::uint32_t>(0.0f));
  data.push_back(0);  // meta word (lbd / tier / unused rounds)
  for (Lit l : lits) data.push_back(static_cast<std::uint32_t>(l.index()));
  return cref;
}

float Solver::Arena::activity(CRef c) const {
  return std::bit_cast<float>(data[c + 1]);
}

void Solver::Arena::set_activity(CRef c, float a) {
  data[c + 1] = std::bit_cast<std::uint32_t>(a);
}

// ---------------------------------------------------------------------------
// Construction

Solver::Solver() = default;

Var Solver::new_var(bool decidable, bool default_phase) {
  const Var v = num_vars();
  assigns_.push_back(LBool::kUndef);
  vardata_.push_back(VarData{});
  saved_phase_.push_back(default_phase);
  decision_.push_back(decidable);
  frozen_.push_back(false);
  eliminated_.push_back(false);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(false);
  model_.push_back(LBool::kUndef);
  lbd_stamp_.push_back(0);  // decision levels are bounded by #vars
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  if (decidable) heap_insert(v);
  return v;
}

namespace {
// Reserving to the exact needed size on every batch allocation would defeat
// the vectors' amortized doubling — each of m stamped copies would
// reallocate and copy the whole array, turning construction quadratic. Grow
// geometrically, and only when actually short.
template <typename Vec>
void reserve_amortized(Vec& v, std::size_t needed) {
  if (needed > v.capacity()) v.reserve(std::max(needed, v.capacity() * 2));
}
}  // namespace

Var Solver::new_vars(std::span<const std::uint8_t> flags) {
  const Var base = num_vars();
  const std::size_t n = assigns_.size() + flags.size();
  reserve_vars(flags.size());
  assigns_.resize(n, LBool::kUndef);
  vardata_.resize(n);
  saved_phase_.resize(n, false);
  decision_.resize(n, false);
  frozen_.resize(n, false);
  eliminated_.resize(n, false);
  activity_.resize(n, 0.0);
  heap_pos_.resize(n, -1);
  seen_.resize(n, false);
  model_.resize(n, LBool::kUndef);
  lbd_stamp_.resize(n + 1, 0);
  watches_.resize(2 * n);
  bin_watches_.resize(2 * n);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    const Var v = base + static_cast<Var>(i);
    if ((flags[i] & kVarFrozen) != 0) frozen_[static_cast<std::size_t>(v)] = true;
    if ((flags[i] & kVarDecidable) != 0) {
      decision_[static_cast<std::size_t>(v)] = true;
      // Zero activity never beats a parent in the max-heap, so each insert
      // is a constant-time append.
      heap_insert(v);
    }
  }
  return base;
}

void Solver::reserve_vars(std::size_t extra) {
  const std::size_t n = assigns_.size() + extra;
  reserve_amortized(assigns_, n);
  reserve_amortized(vardata_, n);
  reserve_amortized(saved_phase_, n);
  reserve_amortized(decision_, n);
  reserve_amortized(frozen_, n);
  reserve_amortized(eliminated_, n);
  reserve_amortized(activity_, n);
  reserve_amortized(heap_pos_, n);
  reserve_amortized(seen_, n);
  reserve_amortized(model_, n);
  reserve_amortized(lbd_stamp_, n + 1);
  reserve_amortized(heap_, n);
  reserve_amortized(watches_, 2 * n);
  reserve_amortized(bin_watches_, 2 * n);
}

void Solver::set_inprocess(const InprocessConfig& config) {
  inprocess_cfg_ = config;
  next_inprocess_ = stats_.conflicts + config.first_conflicts;
  first_inprocess_props_ = stats_.propagations + kFirstRunPropagations;
  inprocess_interval_ = std::max<std::uint64_t>(1, config.interval_conflicts);
}

bool Solver::add_clause(Clause lits) {
  if (decision_level() != 0) cancel_until(0);  // leftover solve() trail
  if (!ok_) return false;
#ifndef NDEBUG
  // The freeze contract: clauses must never mention eliminated variables
  // (the caller should have frozen them before the elimination ran).
  for (Lit l : lits) assert(!is_eliminated(l.var()));
#endif
  std::sort(lits.begin(), lits.end());
  Lit prev = Lit::undef();
  std::size_t out = 0;
  for (Lit l : lits) {
    if (value(l) == LBool::kTrue || l == ~prev) return true;  // satisfied/taut
    if (value(l) != LBool::kFalse && l != prev) {
      lits[out++] = prev = l;
    }
  }
  lits.resize(out);
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  if (lits.size() == 1) {
    unchecked_enqueue(lits[0], kCRefUndef);
    ok_ = (propagate() == kCRefUndef);
    return ok_;
  }
  attach_irredundant(lits);
  return true;
}

bool Solver::add_stamped_clause(std::span<const Lit> lits) {
  if (decision_level() != 0) cancel_until(0);  // leftover solve() trail
  if (!ok_) return false;
#ifndef NDEBUG
  for (const Lit l : lits) {
    assert(!is_eliminated(l.var()));
    assert(value(l) == LBool::kUndef);
  }
#endif
  attach_irredundant(lits);
  return true;
}

Solver::CRef Solver::attach_irredundant(std::span<const Lit> lits) {
  assert(lits.size() >= 2);
  if (lits.size() == 2) {
    attach_binary(lits[0], lits[1], /*learnt=*/false);
    ++num_bin_clauses_;
    return kCRefUndef;
  }
  const CRef cref = arena_.alloc(lits, /*learnt=*/false);
  clauses_.push_back(cref);
  attach_clause(cref);
  return cref;
}

bool Solver::any_assigned(std::span<const Var> vars) const {
  for (const Var v : vars) {
    const auto i = static_cast<std::size_t>(v);
    if (assigns_[i] != LBool::kUndef && vardata_[i].level == 0) return true;
  }
  return false;
}

std::vector<Clause> Solver::snapshot_clauses() const {
  std::vector<Clause> out;
  for (std::size_t i = 0; i < root_trail_size(); ++i) {
    out.push_back(Clause{trail_[i]});
  }
  for (std::size_t idx = 0; idx < bin_watches_.size(); ++idx) {
    const Lit a = ~Lit::from_index(static_cast<int>(idx));
    for (const BinWatcher& w : bin_watches_[idx]) {
      if (w.learnt) continue;
      if (a < w.implied) out.push_back(Clause{a, w.implied});
    }
  }
  for (const CRef c : clauses_) {
    if (arena_.deleted(c)) continue;
    Clause lits;
    lits.reserve(arena_.size(c));
    for (std::uint32_t i = 0; i < arena_.size(c); ++i) {
      lits.push_back(arena_.lit(c, i));
    }
    std::sort(lits.begin(), lits.end());
    out.push_back(std::move(lits));
  }
  return out;
}

bool Solver::block_model(Clause lits) {
  if (!ok_) return false;
  if (decision_level() == 0) return add_clause(std::move(lits));

  // Root-level simplification only: literals decided at level 0 are
  // permanent, everything else must stay in the clause.
  std::sort(lits.begin(), lits.end());
  Lit prev = Lit::undef();
  std::size_t out = 0;
  for (Lit l : lits) {
    const auto v = static_cast<std::size_t>(l.var());
    if (value(l.var()) != LBool::kUndef && vardata_[v].level == 0) {
      if (value(l) == LBool::kTrue) return true;  // satisfied forever
      continue;                                   // false forever
    }
    if (l == ~prev) return true;  // tautology
    if (l != prev) lits[out++] = prev = l;
  }
  lits.resize(out);
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  // The fast path handles the blocking-clause shape: every remaining
  // literal false (or unassigned after an earlier backjump). Anything else
  // goes through the root-level path.
  for (Lit l : lits) {
    if (value(l) == LBool::kTrue) return add_clause(std::move(lits));
    // See the header: in-search blocking is only complete over decision
    // variables (the search must be able to re-decide a literal that a
    // later backjump unassigns).
    assert(decision_[static_cast<std::size_t>(l.var())]);
  }

  // Order by decreasing assignment level, unassigned literals first, so
  // lits[0]/lits[1] are the correct watches after the backjump.
  constexpr int kUnassigned = 0x7fffffff;
  const auto lit_level = [&](Lit l) {
    const auto v = static_cast<std::size_t>(l.var());
    return value(l.var()) == LBool::kUndef ? kUnassigned : vardata_[v].level;
  };
  std::sort(lits.begin(), lits.end(), [&](Lit a, Lit b) {
    return lit_level(a) > lit_level(b);
  });

  if (lits.size() == 1) {
    cancel_until(0);
    if (value(lits[0]) == LBool::kUndef) {
      unchecked_enqueue(lits[0], kCRefUndef);
      ok_ = (propagate() == kCRefUndef);
    }
    return ok_;
  }

  // Chronological backtracking: undo only the levels at and above the
  // highest literal, keeping the rest of the trail alive. The clause then
  // has >= 1 free literal; if it is unit it is enqueued below, and the
  // next solve() resumes from here instead of replaying the search.
  const int top = lit_level(lits[0]);
  if (top != kUnassigned) cancel_until(top - 1);
  assert(value(lits[0]) == LBool::kUndef);

  const CRef cref = attach_irredundant(lits);
  if (value(lits[1]) == LBool::kFalse) {
    unchecked_enqueue(lits[0],
                      lits.size() == 2 ? bin_reason(lits[1]) : cref);
  }
  return true;
}

std::size_t Solver::num_clauses() const {
  return clauses_.size() + num_bin_clauses_;
}

std::size_t Solver::num_learnts() const {
  return learnts_core_.size() + learnts_mid_.size() + learnts_local_.size() +
         num_bin_learnts_;
}

void Solver::attach_binary(Lit a, Lit b, bool learnt) {
  const std::uint32_t flag = learnt ? 1u : 0u;
  bin_watches_[static_cast<std::size_t>((~a).index())].push_back({b, flag});
  bin_watches_[static_cast<std::size_t>((~b).index())].push_back({a, flag});
}

void Solver::attach_clause(CRef c) {
  assert(arena_.size(c) >= 3);
  const Lit l0 = arena_.lit(c, 0);
  const Lit l1 = arena_.lit(c, 1);
  watches_[static_cast<std::size_t>((~l0).index())].push_back({c, l1});
  watches_[static_cast<std::size_t>((~l1).index())].push_back({c, l0});
}

void Solver::detach_clause(CRef c) {
  for (int i = 0; i < 2; ++i) {
    const Lit w = ~arena_.lit(c, static_cast<std::uint32_t>(i));
    auto& list = watches_[static_cast<std::size_t>(w.index())];
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (list[j].cref == c) {
        list[j] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

void Solver::remove_clause(CRef c) {
  detach_clause(c);
  // A clause locked as a reason must not be deleted; callers filter those.
  arena_.mark_deleted(c);
  wasted_ += arena_.size(c) + kClauseOverhead;
}

// ---------------------------------------------------------------------------
// Propagation

void Solver::unchecked_enqueue(Lit p, CRef reason) {
  assert(value(p) == LBool::kUndef);
  assigns_[static_cast<std::size_t>(p.var())] = lbool_from(!p.sign());
  vardata_[static_cast<std::size_t>(p.var())] = {reason, decision_level()};
  trail_.push_back(p);
}

Solver::CRef Solver::propagate() {
  CRef conflict = kCRefUndef;
  // Branchless truth lookup for the hot loop: LBool's underlying value XOR
  // the literal sign gives 0 = true, 1 = false, >= 2 = unassigned.
  static_assert(static_cast<int>(LBool::kTrue) == 0 &&
                static_cast<int>(LBool::kFalse) == 1 &&
                static_cast<int>(LBool::kUndef) == 2);
  const LBool* const assigns = assigns_.data();
  const auto val = [assigns](Lit l) -> unsigned {
    return static_cast<unsigned>(static_cast<std::uint8_t>(
               assigns[static_cast<std::size_t>(l.var())])) ^
           static_cast<unsigned>(l.sign());
  };
  while (qhead_ < static_cast<int>(trail_.size())) {
    const Lit p = trail_[static_cast<std::size_t>(qhead_++)];
    ++stats_.propagations;
    // Binary implications first: one cache line per watcher, no arena access,
    // no watch movement, and any conflict is found before touching the
    // heavier long-clause lists.
    for (const BinWatcher& w :
         bin_watches_[static_cast<std::size_t>(p.index())]) {
      const unsigned v = val(w.implied);
      if (v == 1u) {
        conflict = bin_reason(w.implied);
        bin_conflict_other_ = ~p;
        qhead_ = static_cast<int>(trail_.size());
        break;
      }
      if (v >= 2u) {
        ++stats_.binary_propagations;
        unchecked_enqueue(w.implied, bin_reason(~p));
      }
    }
    if (conflict != kCRefUndef) break;
    auto& list = watches_[static_cast<std::size_t>(p.index())];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < list.size()) {
      const Watcher w = list[i];
      if (val(w.blocker) == 0u) {
        list[j++] = list[i++];
        continue;
      }
      const CRef c = w.cref;
      // Ensure the false literal (~p) is at slot 1.
      if (arena_.lit(c, 0) == ~p) {
        arena_.set_lit(c, 0, arena_.lit(c, 1));
        arena_.set_lit(c, 1, ~p);
      }
      ++i;
      const Lit first = arena_.lit(c, 0);
      if (first != w.blocker && val(first) == 0u) {
        list[j++] = {c, first};
        continue;
      }
      // Look for a new watch.
      const std::uint32_t size = arena_.size(c);
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        const Lit lk = arena_.lit(c, k);
        if (val(lk) != 1u) {
          arena_.set_lit(c, 1, lk);
          arena_.set_lit(c, k, ~p);
          watches_[static_cast<std::size_t>((~lk).index())].push_back(
              {c, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      list[j++] = {c, first};
      if (val(first) == 1u) {
        conflict = c;
        qhead_ = static_cast<int>(trail_.size());
        while (i < list.size()) list[j++] = list[i++];
      } else {
        unchecked_enqueue(first, c);
      }
    }
    list.resize(j);
    if (conflict != kCRefUndef) break;
  }
  return conflict;
}

void Solver::cancel_until(int level) {
  if (decision_level() <= level) return;
  const int bound = trail_lim_[static_cast<std::size_t>(level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    const Lit p = trail_[static_cast<std::size_t>(i)];
    const Var v = p.var();
    assigns_[static_cast<std::size_t>(v)] = LBool::kUndef;
    saved_phase_[static_cast<std::size_t>(v)] = !p.sign();  // phase saving
    if (decision_[static_cast<std::size_t>(v)] && !heap_in(v)) heap_insert(v);
  }
  trail_.resize(static_cast<std::size_t>(bound));
  trail_lim_.resize(static_cast<std::size_t>(level));
  qhead_ = bound;
  totalize_head_ = 0;  // unassigned vars may now precede the scan cursor
}

// ---------------------------------------------------------------------------
// Decision heuristic

void Solver::var_bump_activity(Var v) {
  auto& act = activity_[static_cast<std::size_t>(v)];
  act += var_inc_;
  if (act > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_in(v)) heap_update(v);
}

void Solver::boost_activity(Var v, double factor) {
  auto& act = activity_[static_cast<std::size_t>(v)];
  act = act * factor + var_inc_ * factor;
  if (heap_in(v)) heap_update(v);
}

void Solver::heap_insert(Var v) {
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_percolate_up(static_cast<int>(heap_.size()) - 1);
}

void Solver::heap_update(Var v) {
  heap_percolate_up(heap_pos_[static_cast<std::size_t>(v)]);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_percolate_down(0);
  }
  return top;
}

void Solver::heap_percolate_up(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    const Var pv = heap_[static_cast<std::size_t>(parent)];
    if (!heap_lt(v, pv)) break;
    heap_[static_cast<std::size_t>(i)] = pv;
    heap_pos_[static_cast<std::size_t>(pv)] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

void Solver::heap_percolate_down(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_lt(heap_[static_cast<std::size_t>(child + 1)],
                                 heap_[static_cast<std::size_t>(child)])) {
      ++child;
    }
    const Var cv = heap_[static_cast<std::size_t>(child)];
    if (!heap_lt(cv, v)) break;
    heap_[static_cast<std::size_t>(i)] = cv;
    heap_pos_[static_cast<std::size_t>(cv)] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

Lit Solver::pick_branch_lit() {
  while (!heap_.empty()) {
    const Var v = heap_[0];
    if (value(v) == LBool::kUndef && decision_[static_cast<std::size_t>(v)]) {
      heap_pop();
      return Lit(v, !saved_phase_[static_cast<std::size_t>(v)]);
    }
    heap_pop();
  }
  return Lit::undef();
}

Lit Solver::pick_totalize_lit() {
  for (; totalize_head_ < num_vars(); ++totalize_head_) {
    const Var v = totalize_head_;
    if (value(v) == LBool::kUndef &&
        !eliminated_[static_cast<std::size_t>(v)]) {
      return Lit(v, !saved_phase_[static_cast<std::size_t>(v)]);
    }
  }
  return Lit::undef();
}

// ---------------------------------------------------------------------------
// Conflict analysis (first UIP + recursive minimization)

void Solver::cla_bump_activity(CRef c) {
  float act = arena_.activity(c) + cla_inc_;
  if (act > 1e20f) {
    for (const std::vector<CRef>* list :
         {&learnts_core_, &learnts_mid_, &learnts_local_}) {
      for (CRef l : *list) {
        arena_.set_activity(l, arena_.activity(l) * 1e-20f);
      }
    }
    cla_inc_ *= 1e-20f;
    act = arena_.activity(c) + cla_inc_;
  }
  arena_.set_activity(c, act);
}

void Solver::update_learnt_on_use(CRef c) {
  arena_.set_unused_rounds(c, 0);
  const std::uint32_t size = arena_.size(c);
  ++lbd_epoch_;
  std::uint32_t lbd = 0;
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto lev = static_cast<std::size_t>(
        vardata_[static_cast<std::size_t>(arena_.lit(c, i).var())].level);
    if (lbd_stamp_[lev] != lbd_epoch_) {
      lbd_stamp_[lev] = lbd_epoch_;
      ++lbd;
    }
  }
  if (lbd < arena_.lbd(c)) {
    arena_.set_lbd(c, lbd);
    // Promote on improved glue; the tier tag moves the clause at the next
    // reduce_db() re-bucketing.
    if (lbd <= inprocess_cfg_.core_lbd) {
      arena_.set_tier(c, kTierCore);
    } else if (lbd <= inprocess_cfg_.mid_lbd &&
               arena_.tier(c) == kTierLocal) {
      arena_.set_tier(c, kTierMid);
    }
  }
}

void Solver::analyze(CRef conflict, Clause& out_learnt, int& out_btlevel,
                     unsigned& out_lbd) {
  int path_count = 0;
  Lit p = Lit::undef();
  out_learnt.clear();
  out_learnt.push_back(Lit::undef());  // slot for the asserting literal
  int index = static_cast<int>(trail_.size()) - 1;

  CRef reason = conflict;
  do {
    assert(reason != kCRefUndef);
    const bool bin = is_bin_reason(reason);
    if (!bin && arena_.learnt(reason)) {
      cla_bump_activity(reason);
      update_learnt_on_use(reason);
    }
    const std::uint32_t size = bin ? 2 : arena_.size(reason);
    for (std::uint32_t i = (p == Lit::undef() ? 0 : 1); i < size; ++i) {
      // Binary reasons store only the "other" literal; a binary conflict
      // additionally carries its second literal in bin_conflict_other_.
      const Lit q = !bin              ? arena_.lit(reason, i)
                    : (i == 0)        ? bin_reason_lit(reason)
                    : p == Lit::undef() ? bin_conflict_other_
                                        : bin_reason_lit(reason);
      const Var v = q.var();
      if (seen_[static_cast<std::size_t>(v)] ||
          vardata_[static_cast<std::size_t>(v)].level == 0) {
        continue;
      }
      seen_[static_cast<std::size_t>(v)] = true;
      var_bump_activity(v);
      if (vardata_[static_cast<std::size_t>(v)].level >= decision_level()) {
        ++path_count;
      } else {
        out_learnt.push_back(q);
      }
    }
    // Next literal on the trail that participates in the conflict.
    while (!seen_[static_cast<std::size_t>(
        trail_[static_cast<std::size_t>(index)].var())]) {
      --index;
    }
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    reason = vardata_[static_cast<std::size_t>(p.var())].reason;
    seen_[static_cast<std::size_t>(p.var())] = false;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Recursive minimization: drop literals implied by the rest of the clause.
  analyze_clear_.assign(out_learnt.begin() + 1, out_learnt.end());
  for (Lit l : analyze_clear_) seen_[static_cast<std::size_t>(l.var())] = true;
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= 1u << (vardata_[static_cast<std::size_t>(
                                  out_learnt[i].var())].level & 31);
  }
  std::size_t out = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const Lit l = out_learnt[i];
    if (vardata_[static_cast<std::size_t>(l.var())].reason == kCRefUndef ||
        !lit_redundant(l, abstract_levels)) {
      out_learnt[out++] = l;
    }
  }
  out_learnt.resize(out);

  // Backtrack level: the second-highest level in the clause.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (vardata_[static_cast<std::size_t>(out_learnt[i].var())].level >
          vardata_[static_cast<std::size_t>(out_learnt[max_i].var())].level) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = vardata_[static_cast<std::size_t>(out_learnt[1].var())].level;
  }

  // Literal-block distance (the tier placement of the new learnt).
  out_lbd = 0;
  ++lbd_epoch_;
  for (Lit l : out_learnt) {
    const auto lev = static_cast<std::size_t>(
        vardata_[static_cast<std::size_t>(l.var())].level);
    if (lbd_stamp_[lev] != lbd_epoch_) {
      lbd_stamp_[lev] = lbd_epoch_;
      ++out_lbd;
    }
  }

  for (Lit l : analyze_clear_) seen_[static_cast<std::size_t>(l.var())] = false;
  seen_[static_cast<std::size_t>(out_learnt[0].var())] = false;
}

bool Solver::lit_redundant(Lit p, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  auto& to_clear = redundant_clear_;
  to_clear.clear();
  bool redundant = true;
  while (!analyze_stack_.empty() && redundant) {
    const Lit l = analyze_stack_.back();
    analyze_stack_.pop_back();
    const CRef reason = vardata_[static_cast<std::size_t>(l.var())].reason;
    assert(reason != kCRefUndef);
    const bool bin = is_bin_reason(reason);
    const std::uint32_t size = bin ? 2 : arena_.size(reason);
    for (std::uint32_t i = 1; i < size; ++i) {
      const Lit q = bin ? bin_reason_lit(reason) : arena_.lit(reason, i);
      const Var v = q.var();
      const int level = vardata_[static_cast<std::size_t>(v)].level;
      if (seen_[static_cast<std::size_t>(v)] || level == 0) continue;
      if (vardata_[static_cast<std::size_t>(v)].reason == kCRefUndef ||
          ((1u << (level & 31)) & abstract_levels) == 0) {
        redundant = false;
        break;
      }
      seen_[static_cast<std::size_t>(v)] = true;
      to_clear.push_back(v);
      analyze_stack_.push_back(q);
    }
  }
  if (redundant) {
    // Keep the marks: they are part of the learnt-clause closure and are
    // cleared wholesale at the end of analyze().
    for (Var v : to_clear) analyze_clear_.push_back(Lit(v, false));
  } else {
    for (Var v : to_clear) seen_[static_cast<std::size_t>(v)] = false;
  }
  return redundant;
}

void Solver::analyze_final(Lit p) {
  conflict_.clear();
  conflict_.push_back(p);
  if (decision_level() == 0) return;
  seen_[static_cast<std::size_t>(p.var())] = true;
  for (int i = static_cast<int>(trail_.size()) - 1;
       i >= trail_lim_[0]; --i) {
    const Var v = trail_[static_cast<std::size_t>(i)].var();
    if (!seen_[static_cast<std::size_t>(v)]) continue;
    const CRef reason = vardata_[static_cast<std::size_t>(v)].reason;
    if (reason == kCRefUndef) {
      if (vardata_[static_cast<std::size_t>(v)].level > 0) {
        conflict_.push_back(~trail_[static_cast<std::size_t>(i)]);
      }
    } else {
      const bool bin = is_bin_reason(reason);
      const std::uint32_t size = bin ? 2 : arena_.size(reason);
      for (std::uint32_t j = 1; j < size; ++j) {
        const Var u =
            (bin ? bin_reason_lit(reason) : arena_.lit(reason, j)).var();
        if (vardata_[static_cast<std::size_t>(u)].level > 0) {
          seen_[static_cast<std::size_t>(u)] = true;
        }
      }
    }
    seen_[static_cast<std::size_t>(v)] = false;
  }
  seen_[static_cast<std::size_t>(p.var())] = false;
}

// ---------------------------------------------------------------------------
// Learnt DB management (glue tiers)

std::vector<Solver::CRef>& Solver::tier_list(Tier t) {
  switch (t) {
    case kTierCore: return learnts_core_;
    case kTierMid: return learnts_mid_;
    default: return learnts_local_;
  }
}

void Solver::push_learnt(CRef c, unsigned lbd) {
  arena_.set_lbd(c, lbd);
  const Tier t = lbd <= inprocess_cfg_.core_lbd  ? kTierCore
                 : lbd <= inprocess_cfg_.mid_lbd ? kTierMid
                                                 : kTierLocal;
  arena_.set_tier(c, t);
  tier_list(t).push_back(c);
}

void Solver::reduce_db() {
  obs::Span span("sat.reduce_db");
  // Re-bucket by tier tag (analyze promotes by lowering the tag), demote
  // mid-tier clauses unused for two consecutive reduce rounds, then halve
  // the local tier by activity. Core clauses are kept outright — they carry
  // the enumeration across the k = 1..K bound loop.
  std::vector<CRef> core;
  std::vector<CRef> mid;
  std::vector<CRef> local;
  const auto bucket = [&](std::vector<CRef>& list) {
    for (CRef c : list) {
      Tier t = arena_.tier(c);
      if (t == kTierMid) {
        const std::uint32_t unused = arena_.unused_rounds(c) + 1;
        arena_.set_unused_rounds(c, unused);
        if (unused > 2) {
          arena_.set_tier(c, kTierLocal);
          t = kTierLocal;
        }
      }
      (t == kTierCore ? core : t == kTierMid ? mid : local).push_back(c);
    }
  };
  bucket(learnts_core_);
  bucket(learnts_mid_);
  bucket(learnts_local_);

  std::sort(local.begin(), local.end(), [&](CRef a, CRef b) {
    return arena_.activity(a) < arena_.activity(b);
  });
  const auto is_locked = [&](CRef c) {
    const Lit l0 = arena_.lit(c, 0);
    return value(l0) == LBool::kTrue &&
           vardata_[static_cast<std::size_t>(l0.var())].reason == c;
  };
  std::size_t out = 0;
  for (std::size_t i = 0; i < local.size(); ++i) {
    const CRef c = local[i];
    if (!is_locked(c) && (i < local.size() / 2)) {
      remove_clause(c);
      ++stats_.removed;
    } else {
      local[out++] = c;
    }
  }
  local.resize(out);

  learnts_core_ = std::move(core);
  learnts_mid_ = std::move(mid);
  learnts_local_ = std::move(local);
  update_tier_stats();
  if (wasted_ * 2 > arena_.data.size()) garbage_collect();
}

void Solver::update_tier_stats() {
  stats_.tier_core = learnts_core_.size();
  stats_.tier_mid = learnts_mid_.size();
  stats_.tier_local = learnts_local_.size();
}

void Solver::garbage_collect() {
  ++stats_.gc_runs;
  Arena fresh;
  fresh.data.reserve(arena_.data.size() - wasted_);
  std::vector<Lit> scratch;
  auto reloc = [&](CRef& c) {
    if (c == kCRefUndef || arena_.deleted(c)) return;
    // Move the clause and leave a forwarding pointer in the activity slot.
    if (arena_.data[c] & 1u) return;  // deleted
    // Forwarding: reuse header bit pattern 0xffffffff impossible for live
    // clause headers (size would be huge); store new cref in data[c+1] and
    // set a dedicated tag in data[c].
    scratch.clear();
    const std::uint32_t size = arena_.size(c);
    for (std::uint32_t i = 0; i < size; ++i) scratch.push_back(arena_.lit(c, i));
    const CRef moved = fresh.alloc(scratch, arena_.learnt(c));
    fresh.set_activity(moved, arena_.activity(c));
    fresh.set_meta(moved, arena_.meta(c));
    arena_.mark_deleted(c);
    arena_.data[c + 1] = moved;  // forwarding pointer
    c = moved;
  };
  auto follow = [&](CRef& c) {
    if (c == kCRefUndef) return;
    if (arena_.data[c] & 1u) {
      c = arena_.data[c + 1];
    } else {
      reloc(c);
    }
  };
  for (CRef& c : clauses_) reloc(c);
  for (CRef& c : learnts_core_) reloc(c);
  for (CRef& c : learnts_mid_) reloc(c);
  for (CRef& c : learnts_local_) reloc(c);
  for (Var v = 0; v < num_vars(); ++v) {
    auto& vd = vardata_[static_cast<std::size_t>(v)];
    if (value(v) == LBool::kUndef || vd.level == 0) {
      // Stale reasons — of unassigned variables (their clause may be gone)
      // and of root assignments (never read; the clause may have been
      // deleted by inprocessing) — are dropped rather than followed.
      vd.reason = kCRefUndef;
    } else if (vd.reason != kCRefUndef && !is_bin_reason(vd.reason)) {
      // Binary reasons are literal-encoded, not arena references; they
      // survive garbage collection untouched.
      follow(vd.reason);
    }
  }
  // Rebuild watches from scratch.
  for (auto& list : watches_) list.clear();
  arena_ = std::move(fresh);
  for (CRef c : clauses_) attach_clause(c);
  for (CRef c : learnts_core_) attach_clause(c);
  for (CRef c : learnts_mid_) attach_clause(c);
  for (CRef c : learnts_local_) attach_clause(c);
  wasted_ = 0;
}

// ---------------------------------------------------------------------------
// Inprocessing

void Solver::clear_root_reasons() {
  assert(decision_level() == 0);
  // Level-0 reasons are never read by analyze/analyze_final (they skip
  // level-0 variables); forgetting them unlocks every arena clause so
  // cleaning and elimination may remove or rewrite anything.
  for (Lit p : trail_) {
    vardata_[static_cast<std::size_t>(p.var())].reason = kCRefUndef;
  }
}

bool Solver::enqueue_root(Lit p) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  if (value(p) == LBool::kTrue) return true;
  if (value(p) == LBool::kFalse) {
    ok_ = false;
    return false;
  }
  const std::size_t before = trail_.size();
  unchecked_enqueue(p, kCRefUndef);
  ok_ = (propagate() == kCRefUndef);
  // Cleaning and elimination delete clauses freely, and a root reason must
  // not outlive the clause it points to; root reasons are never read (see
  // clear_root_reasons), so drop them as they appear.
  for (std::size_t i = before; i < trail_.size(); ++i) {
    vardata_[static_cast<std::size_t>(trail_[i].var())].reason = kCRefUndef;
  }
  return ok_;
}

void Solver::shrink_clause_detached(CRef c, std::span<const Lit> lits) {
  assert(!lits.empty());
  const std::uint32_t old_size = arena_.size(c);
  const bool learnt = arena_.learnt(c);
  if (lits.size() == 1) {
    arena_.mark_deleted(c);
    wasted_ += old_size + kClauseOverhead;
    enqueue_root(lits[0]);
    return;
  }
  if (lits.size() == 2) {
    arena_.mark_deleted(c);
    wasted_ += old_size + kClauseOverhead;
    attach_binary(lits[0], lits[1], learnt);
    if (learnt) {
      ++num_bin_learnts_;
    } else {
      ++num_bin_clauses_;
    }
    return;
  }
  for (std::size_t i = 0; i < lits.size(); ++i) {
    arena_.set_lit(c, static_cast<std::uint32_t>(i), lits[i]);
  }
  arena_.shrink(c, static_cast<std::uint32_t>(lits.size()));
  wasted_ += old_size - static_cast<std::uint32_t>(lits.size());
  attach_clause(c);
}

void Solver::clean_clauses() {
  assert(decision_level() == 0);
  std::vector<Lit> kept;
  const auto clean_list = [&](std::vector<CRef>& list) {
    for (CRef c : list) {
      if (arena_.deleted(c) || !ok_) continue;
      const std::uint32_t size = arena_.size(c);
      bool satisfied = false;
      bool changed = false;
      kept.clear();
      for (std::uint32_t i = 0; i < size && !satisfied; ++i) {
        const Lit l = arena_.lit(c, i);
        if (value(l) == LBool::kTrue) {
          satisfied = true;
        } else if (value(l) == LBool::kFalse) {
          changed = true;
        } else {
          kept.push_back(l);
        }
      }
      if (satisfied) {
        remove_clause(c);
        continue;
      }
      if (!changed) continue;
      // Root BCP forces the last literal of an almost-false clause, so at
      // least two unassigned literals remain here.
      detach_clause(c);
      shrink_clause_detached(c, kept);
    }
  };
  clean_list(clauses_);
  clean_list(learnts_core_);
  clean_list(learnts_mid_);
  clean_list(learnts_local_);

  // Binary layer: a binary with a root-assigned variable is satisfied
  // (when one literal went false, BCP made the other true), so drop every
  // watcher entry touching an assigned variable.
  for (std::size_t idx = 0; idx < bin_watches_.size(); ++idx) {
    auto& list = bin_watches_[idx];
    if (list.empty()) continue;
    const Lit a = ~Lit::from_index(static_cast<int>(idx));
    std::size_t out = 0;
    for (const BinWatcher& w : list) {
      if (value(a) == LBool::kUndef && value(w.implied) == LBool::kUndef) {
        list[out++] = w;
        continue;
      }
      if (a.index() < w.implied.index()) {  // count each clause once
        if (w.learnt) {
          --num_bin_learnts_;
        } else {
          --num_bin_clauses_;
        }
      }
    }
    list.resize(out);
  }
}

void Solver::compact_clause_lists() {
  const auto compact = [&](std::vector<CRef>& list) {
    std::erase_if(list, [&](CRef c) { return arena_.deleted(c); });
  };
  compact(clauses_);
  compact(learnts_core_);
  compact(learnts_mid_);
  compact(learnts_local_);
}

bool Solver::inprocess() {
  obs::Span span("sat.inprocess");
  assert(decision_level() == 0);
  if (!ok_) return false;
  ++stats_.inprocess_runs;
  const std::uint64_t eliminated_before = stats_.vars_eliminated;
  clear_root_reasons();
  clean_clauses();
  if (ok_) {
    Eliminator eliminator(*this);
    eliminator.run();
  }
  compact_clause_lists();
  if (ok_ && wasted_ * 4 > arena_.data.size()) garbage_collect();
  update_tier_stats();
  // Geometric back-off keeps the total inprocessing effort logarithmic in
  // the conflict count. A run that eliminated nothing backs off 4x harder:
  // the occurrence-index setup is paid per run even when no variable goes,
  // which dominates on enumeration-style instances whose formula stops
  // simplifying after the first run.
  const std::uint64_t factor =
      stats_.vars_eliminated == eliminated_before ? 8 : 2;
  inprocess_interval_ = std::min<std::uint64_t>(inprocess_interval_ * factor,
                                                std::uint64_t{1} << 20);
  next_inprocess_ = stats_.conflicts + inprocess_interval_;
  return ok_;
}

// ---------------------------------------------------------------------------
// Search

double Solver::luby(double y, int i) {
  int size = 1;
  int seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return std::pow(y, seq);
}

LBool Solver::search() {
  const int restart_base = 100;
  int conflicts_this_restart = 0;
  const double restart_factor =
      luby(2.0, static_cast<int>(stats_.restarts));
  const int restart_limit =
      static_cast<int>(restart_factor * restart_base);
  Clause learnt;

  for (;;) {
    const CRef conflict = propagate();
    if (conflict != kCRefUndef) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (decision_level() == 0) {
        // Root-level conflict: UNSAT independent of assumptions, forever.
        ok_ = false;
        return LBool::kFalse;
      }
      int backtrack_level = 0;
      unsigned lbd = 0;
      analyze(conflict, learnt, backtrack_level, lbd);
      cancel_until(backtrack_level);
      if (learnt.size() == 1) {
        unchecked_enqueue(learnt[0], kCRefUndef);
      } else if (learnt.size() == 2) {
        // Learnt binaries go straight to the binary layer and are kept
        // forever: they are the strongest clauses the search produces.
        attach_binary(learnt[0], learnt[1], /*learnt=*/true);
        ++num_bin_learnts_;
        unchecked_enqueue(learnt[0], bin_reason(learnt[1]));
        ++stats_.learned;
      } else {
        const CRef cref = arena_.alloc(learnt, /*learnt=*/true);
        push_learnt(cref, lbd);
        attach_clause(cref);
        cla_bump_activity(cref);
        unchecked_enqueue(learnt[0], cref);
        ++stats_.learned;
      }
      var_decay_activity();
      cla_decay_activity();
      continue;
    }

    // No conflict.
    if ((stats_.conflicts & 1023) == 0 && deadline_.expired()) {
      cancel_until(0);
      return LBool::kUndef;
    }
    if (conflicts_this_restart >= restart_limit) {
      cancel_until(0);
      ++stats_.restarts;
      return LBool::kUndef;  // caller loops; learnt clauses kept
    }
    if (static_cast<double>(learnts_local_.size()) >= max_learnts_) {
      reduce_db();
    }

    // Extend with assumptions first.
    Lit next = Lit::undef();
    while (decision_level() < static_cast<int>(assumptions_.size())) {
      const Lit a = assumptions_[static_cast<std::size_t>(decision_level())];
      if (value(a) == LBool::kTrue) {
        new_decision_level();  // already satisfied; dummy level keeps indexing
      } else if (value(a) == LBool::kFalse) {
        analyze_final(~a);
        return LBool::kFalse;
      } else {
        next = a;
        break;
      }
    }
    if (next == Lit::undef()) {
      ++stats_.decisions;
      next = pick_branch_lit();
      if (next == Lit::undef() && !extend_.empty()) {
        // See pick_totalize_lit(): with eliminated variables around, a model
        // must assign *every* remaining variable before it can be trusted.
        next = pick_totalize_lit();
      }
      if (next == Lit::undef()) return LBool::kTrue;  // all assigned: model
    }
    new_decision_level();
    unchecked_enqueue(next, kCRefUndef);
  }
}

LBool Solver::solve(std::span<const Lit> assumptions) {
  conflict_.clear();
  if (!ok_) return LBool::kFalse;
  if (decision_level() > 0) {
    // Search state left over from a previous satisfiable call (see
    // block_model): continue in place when the assumptions are unchanged,
    // otherwise start over. A due inprocessing run also starts over: an
    // enumeration that continues in place and rarely restarts would
    // otherwise never reach decision level 0, where the run happens.
    const bool same_assumptions =
        assumptions.size() == assumptions_.size() &&
        std::equal(assumptions.begin(), assumptions.end(),
                   assumptions_.begin());
    if (!same_assumptions || inprocess_due()) cancel_until(0);
  }
  assumptions_.assign(assumptions.begin(), assumptions.end());
#ifndef NDEBUG
  // Assumption variables must be frozen or decision vars; an eliminated one
  // means the caller broke the freeze contract.
  for (Lit a : assumptions_) assert(!is_eliminated(a.var()));
#endif
  max_learnts_ = std::max<double>(
      static_cast<double>(clauses_.size()) / 3.0, 2000.0);

  LBool status = LBool::kUndef;
  while (status == LBool::kUndef) {
    if (deadline_.expired()) break;
    if (decision_level() == 0) {
      // Restart boundary: run the budgeted simplification pipeline when it
      // is due.
      if (inprocess_due() && !inprocess()) {
        status = LBool::kFalse;
        break;
      }
    }
    status = search();
    max_learnts_ *= 1.05;
  }
  if (status == LBool::kTrue) {
    for (Var v = 0; v < num_vars(); ++v) {
      model_[static_cast<std::size_t>(v)] = value(v);
    }
    // Exact values for eliminated variables: replay the reconstruction
    // stack (every non-eliminated variable is assigned — see
    // pick_totalize_lit).
    if (!extend_.empty()) extend_.extend(model_);
    // Keep the trail: sat::enumerate's block_model() + re-solve
    // continues from here instead of replaying the whole search.
    return status;
  }
  cancel_until(0);
  return status;
}

}  // namespace satdiag::sat
