#include "sat/elim.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace satdiag::sat {

namespace {

struct BinRec {
  Lit a;
  Lit b;
  bool learnt;
  bool deleted;
};

// Resolve two sorted clauses on `v` (first contains pos(v), second neg(v)).
// Returns false for a tautology; otherwise `out` is the sorted resolvent.
bool resolve(const std::vector<Lit>& p, const std::vector<Lit>& n, Var v,
             std::vector<Lit>& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  const auto push = [&](Lit l) {
    if (l.var() == v) return true;
    if (!out.empty() && out.back() == l) return true;       // duplicate
    if (!out.empty() && out.back() == ~l) return false;     // tautology
    out.push_back(l);
    return true;
  };
  while (i < p.size() || j < n.size()) {
    const bool take_p =
        j >= n.size() || (i < p.size() && p[i] < n[j]);
    if (!push(take_p ? p[i++] : n[j++])) return false;
  }
  return true;
}

}  // namespace

bool Eliminator::run() {
  assert(s_.decision_level() == 0);
  using CRef = Solver::CRef;
  const int nv = s_.num_vars();
  const auto& cfg = s_.inprocess_cfg_;

  // Occurrence index: arena clauses by literal, plus a materialized record
  // per binary clause (the binary layer has no CRefs).
  std::vector<std::vector<CRef>> occ(static_cast<std::size_t>(2 * nv));
  const auto index_list = [&](const std::vector<CRef>& list) {
    for (CRef c : list) {
      if (s_.arena_.deleted(c)) continue;
      const std::uint32_t size = s_.arena_.size(c);
      for (std::uint32_t i = 0; i < size; ++i) {
        occ[static_cast<std::size_t>(s_.arena_.lit(c, i).index())].push_back(
            c);
      }
    }
  };
  index_list(s_.clauses_);
  index_list(s_.learnts_core_);
  index_list(s_.learnts_mid_);
  index_list(s_.learnts_local_);

  std::vector<BinRec> bins;
  std::vector<std::vector<std::uint32_t>> bin_occ(
      static_cast<std::size_t>(2 * nv));
  for (std::size_t idx = 0; idx < s_.bin_watches_.size(); ++idx) {
    const Lit a = ~Lit::from_index(static_cast<int>(idx));
    for (const Solver::BinWatcher& w : s_.bin_watches_[idx]) {
      if (a.index() < w.implied.index()) {
        const auto rec = static_cast<std::uint32_t>(bins.size());
        bins.push_back({a, w.implied, w.learnt != 0, false});
        bin_occ[static_cast<std::size_t>(a.index())].push_back(rec);
        bin_occ[static_cast<std::size_t>(w.implied.index())].push_back(rec);
      }
    }
  }

  // Candidates, cheapest first. Decision variables are exempt (enumeration
  // loops block over them), frozen variables by contract, assumption
  // variables defensively (they should all be frozen or decision already).
  std::vector<bool> assumed(static_cast<std::size_t>(nv), false);
  for (Lit a : s_.assumptions_) {
    assumed[static_cast<std::size_t>(a.var())] = true;
  }
  std::vector<std::pair<std::uint32_t, Var>> cands;
  for (Var v = 0; v < nv; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (s_.decision_[vi] || s_.frozen_[vi] || s_.eliminated_[vi] ||
        assumed[vi] || s_.value(v) != LBool::kUndef) {
      continue;
    }
    const auto p = static_cast<std::size_t>(pos(v).index());
    const auto n = static_cast<std::size_t>(neg(v).index());
    cands.emplace_back(static_cast<std::uint32_t>(
                           occ[p].size() + occ[n].size() + bin_occ[p].size() +
                           bin_occ[n].size()),
                       v);
  }
  std::sort(cands.begin(), cands.end());

  std::uint64_t budget = cfg.elim_budget;

  // Materialize the live irredundant clauses containing `l` as sorted
  // literal vectors (root-satisfied ones are skipped: deleting them later
  // loses nothing). Returns false when the side exceeds elim_occ_limit.
  std::vector<std::vector<Lit>> side_pos;
  std::vector<std::vector<Lit>> side_neg;
  const auto gather = [&](Lit l, std::vector<std::vector<Lit>>& out) {
    out.clear();
    for (CRef c : occ[static_cast<std::size_t>(l.index())]) {
      if (s_.arena_.deleted(c) || s_.arena_.learnt(c)) continue;
      const std::uint32_t size = s_.arena_.size(c);
      budget -= std::min<std::uint64_t>(budget, size);
      std::vector<Lit> lits;
      lits.reserve(size);
      bool satisfied = false;
      for (std::uint32_t i = 0; i < size && !satisfied; ++i) {
        const Lit li = s_.arena_.lit(c, i);
        if (s_.value(li) == LBool::kTrue) satisfied = true;
        else if (s_.value(li) != LBool::kFalse) lits.push_back(li);
      }
      if (satisfied) continue;
      std::sort(lits.begin(), lits.end());
      out.push_back(std::move(lits));
      if (out.size() > cfg.elim_occ_limit) return false;
    }
    for (std::uint32_t rec : bin_occ[static_cast<std::size_t>(l.index())]) {
      const BinRec& b = bins[rec];
      if (b.deleted || b.learnt) continue;
      const Lit other = (b.a == l) ? b.b : b.a;
      if (s_.value(other) == LBool::kTrue) continue;
      out.push_back({std::min(l, other), std::max(l, other)});
      if (out.size() > cfg.elim_occ_limit) return false;
    }
    return true;
  };

  const auto detach_bin = [&](BinRec& b) {
    for (auto [x, y] : {std::pair{b.a, b.b}, std::pair{b.b, b.a}}) {
      auto& list = s_.bin_watches_[static_cast<std::size_t>((~x).index())];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].implied == y &&
            (list[i].learnt != 0) == b.learnt) {
          list[i] = list.back();
          list.pop_back();
          break;
        }
      }
    }
    if (b.learnt) --s_.num_bin_learnts_; else --s_.num_bin_clauses_;
    b.deleted = true;
  };

  std::vector<std::vector<Lit>> resolvents;
  std::vector<Lit> res;
  for (const auto& [cost, v] : cands) {
    (void)cost;
    if (!s_.ok_ || budget == 0) break;
    const auto vi = static_cast<std::size_t>(v);
    if (s_.eliminated_[vi] || s_.value(v) != LBool::kUndef) continue;
    const Lit pv = pos(v);
    if (!gather(pv, side_pos) || !gather(~pv, side_neg)) continue;

    // Count and collect the non-tautological resolvents; bail out when the
    // formula would grow or a resolvent would be too long.
    resolvents.clear();
    const std::size_t limit = side_pos.size() + side_neg.size() + cfg.elim_grow;
    bool accept = true;
    for (const auto& p : side_pos) {
      for (const auto& n : side_neg) {
        budget -= std::min<std::uint64_t>(budget, p.size() + n.size());
        if (!resolve(p, n, v, res)) continue;
        if (res.size() > cfg.elim_resolvent_limit ||
            resolvents.size() >= limit) {
          accept = false;
          break;
        }
        resolvents.push_back(res);
      }
      if (!accept || budget == 0) break;
    }
    if (!accept || budget == 0) continue;

    // Model reconstruction: save the smaller-polarity side (every clause
    // with v's literal distinguished), closed by a unit of the opposite
    // polarity. See extend.hpp for the replay semantics.
    const bool save_pos = side_pos.size() <= side_neg.size();
    const Lit saved_lit = save_pos ? pv : ~pv;
    std::vector<Lit> others;
    for (const auto& cl : (save_pos ? side_pos : side_neg)) {
      others.clear();
      for (Lit l : cl) {
        if (l != saved_lit) others.push_back(l);
      }
      s_.extend_.push_clause(saved_lit, others);
    }
    s_.extend_.push_unit(~saved_lit);

    // Remove every clause mentioning v (learnts are implied by the
    // irredundant set, so they go unsaved).
    for (Lit l : {pv, ~pv}) {
      for (CRef c : occ[static_cast<std::size_t>(l.index())]) {
        if (!s_.arena_.deleted(c)) s_.remove_clause(c);
      }
      for (std::uint32_t rec : bin_occ[static_cast<std::size_t>(l.index())]) {
        if (!bins[rec].deleted) detach_bin(bins[rec]);
      }
    }

    // Add the resolvents as irredundant root clauses.
    for (const auto& r : resolvents) {
      if (r.empty()) {
        s_.ok_ = false;
        break;
      }
      if (r.size() == 1) {
        if (!s_.enqueue_root(r[0])) break;
      } else {
        const CRef nc = s_.attach_irredundant(r);
        if (nc == Solver::kCRefUndef) {  // binary
          const auto rec = static_cast<std::uint32_t>(bins.size());
          bins.push_back({r[0], r[1], false, false});
          bin_occ[static_cast<std::size_t>(r[0].index())].push_back(rec);
          bin_occ[static_cast<std::size_t>(r[1].index())].push_back(rec);
        } else {
          for (Lit l : r) {
            occ[static_cast<std::size_t>(l.index())].push_back(nc);
          }
        }
      }
    }
    s_.eliminated_[vi] = true;
    ++s_.stats_.vars_eliminated;
  }
  return s_.ok_;
}

}  // namespace satdiag::sat
