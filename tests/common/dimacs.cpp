#include "common/dimacs.hpp"

#include <sstream>
#include <string>

#include "util/strings.hpp"

namespace satdiag::sat {

CnfFormula parse_dimacs(std::istream& in) {
  CnfFormula cnf;
  int declared_vars = -1;
  long declared_clauses = -1;
  Clause current;
  std::string token;
  bool in_header = false;
  while (in >> token) {
    if (token == "c") {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    if (token == "p") {
      in >> token;
      if (token != "cnf") throw DimacsError("expected 'p cnf' header");
      in >> declared_vars >> declared_clauses;
      if (!in || declared_vars < 0 || declared_clauses < 0) {
        throw DimacsError("malformed 'p cnf' header");
      }
      in_header = true;
      (void)in_header;
      continue;
    }
    long value = 0;
    try {
      value = std::stol(token);
    } catch (const std::exception&) {
      throw DimacsError(strprintf("unexpected token '%s'", token.c_str()));
    }
    if (value == 0) {
      cnf.clauses.push_back(current);
      current.clear();
      continue;
    }
    const int var = static_cast<int>(value < 0 ? -value : value) - 1;
    cnf.num_vars = std::max(cnf.num_vars, var + 1);
    current.push_back(Lit(var, value < 0));
  }
  if (!current.empty()) {
    throw DimacsError("last clause not terminated by 0");
  }
  if (declared_vars >= 0 && cnf.num_vars > declared_vars) {
    throw DimacsError("clause references variable beyond header bound");
  }
  if (declared_vars >= 0) cnf.num_vars = declared_vars;
  if (declared_clauses >= 0 &&
      static_cast<long>(cnf.clauses.size()) != declared_clauses) {
    throw DimacsError("clause count differs from header");
  }
  return cnf;
}

CnfFormula parse_dimacs_string(const std::string& text) {
  std::istringstream in(text);
  return parse_dimacs(in);
}

bool load_into_solver(const CnfFormula& cnf, Solver& solver) {
  while (solver.num_vars() < cnf.num_vars) solver.new_var();
  for (const Clause& clause : cnf.clauses) {
    if (!solver.add_clause(clause)) return false;
  }
  return solver.ok();
}

void write_dimacs(std::ostream& out, const CnfFormula& cnf) {
  out << "p cnf " << cnf.num_vars << ' ' << cnf.clauses.size() << '\n';
  for (const Clause& clause : cnf.clauses) {
    for (Lit l : clause) {
      out << (l.sign() ? -(l.var() + 1) : (l.var() + 1)) << ' ';
    }
    out << "0\n";
  }
}

}  // namespace satdiag::sat
