// DIMACS CNF import/export for the solver tests: a fixture format and a
// round-trip check on the clause lists they build.
#pragma once

#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "sat/solver.hpp"

namespace satdiag::sat {

class DimacsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parsed CNF in clause-list form.
struct CnfFormula {
  int num_vars = 0;
  std::vector<Clause> clauses;
};

/// Parse DIMACS text ("p cnf V C" header optional but checked when present).
CnfFormula parse_dimacs(std::istream& in);
CnfFormula parse_dimacs_string(const std::string& text);

/// Load a formula into a solver (creating variables 0..num_vars-1).
/// Returns false when the formula is trivially UNSAT during loading.
bool load_into_solver(const CnfFormula& cnf, Solver& solver);

void write_dimacs(std::ostream& out, const CnfFormula& cnf);

}  // namespace satdiag::sat
