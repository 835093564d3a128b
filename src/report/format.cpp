#include "report/format.hpp"

#include "util/strings.hpp"
#include "util/table.hpp"

namespace satdiag {

std::string timing_cell(double seconds, bool complete) {
  std::string cell = format_seconds(seconds);
  // Stopped by the time limit or the solution cap (--max-solutions).
  if (!complete) cell += "*";
  return cell;
}

std::vector<std::string> table2_header() {
  return {"I",        "p",       "m",        "BSIM",     "COV.CNF",
          "COV.One",  "COV.All", "BSAT.CNF", "BSAT.One", "BSAT.All"};
}

std::vector<std::string> table2_row(const ExperimentRow& row) {
  return {
      row.config.circuit,
      strprintf("%zu", row.config.num_errors),
      strprintf("%zu", row.config.num_tests),
      format_seconds(row.bsim_seconds),
      format_seconds(row.cov.cnf_seconds),
      timing_cell(row.cov.one_seconds, true),
      timing_cell(row.cov.all_seconds, row.cov.complete),
      format_seconds(row.bsat.cnf_seconds),
      timing_cell(row.bsat.one_seconds, true),
      timing_cell(row.bsat.all_seconds, row.bsat.complete),
  };
}

std::vector<std::string> table3_header() {
  return {"I",        "p",        "m",        "|UCi|",    "avgA",
          "Gmax",     "minG",     "maxG",     "avgG",     "COV.#sol",
          "COV.min",  "COV.max",  "COV.avg",  "SAT.#sol", "SAT.min",
          "SAT.max",  "SAT.avg"};
}

std::vector<std::string> table3_row(const ExperimentRow& row) {
  const auto& b = row.bsim_quality;
  const auto& c = row.cov.quality;
  const auto& s = row.bsat.quality;
  return {
      row.config.circuit,
      strprintf("%zu", row.config.num_errors),
      strprintf("%zu", row.config.num_tests),
      strprintf("%zu", b.union_size),
      format_stat(b.avg_all),
      strprintf("%zu", b.gmax_size),
      format_stat(b.min_g),
      format_stat(b.max_g),
      format_stat(b.avg_g),
      strprintf("%zu", c.num_solutions),
      format_stat(c.min_avg),
      format_stat(c.max_avg),
      format_stat(c.mean_avg),
      strprintf("%zu", s.num_solutions),
      format_stat(s.min_avg),
      format_stat(s.max_avg),
      format_stat(s.mean_avg),
  };
}

std::string fig6_avg_csv_row(const ExperimentRow& row) {
  return strprintf("%s,%zu,%zu,%.4f,%.4f", row.config.circuit.c_str(),
                   row.config.num_errors, row.config.num_tests,
                   row.cov.quality.mean_avg, row.bsat.quality.mean_avg);
}

std::string fig6_nsol_csv_row(const ExperimentRow& row) {
  return strprintf("%s,%zu,%zu,%zu,%zu", row.config.circuit.c_str(),
                   row.config.num_errors, row.config.num_tests,
                   row.cov.quality.num_solutions,
                   row.bsat.quality.num_solutions);
}

}  // namespace satdiag
