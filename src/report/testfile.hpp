// Plain-text interchange format for test-sets (Definition 1 triples).
//
// One test per line:  <01-input-vector> <output_index> <correct_value>
// '#' starts a comment. The vector is ordered like netlist.inputs(). A line
// with any other token after the third field is malformed.
#pragma once

#include <istream>
#include <ostream>
#include <stdexcept>

#include "netlist/testset.hpp"

namespace satdiag {

class TestFileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void write_test_set(std::ostream& out, const TestSet& tests);
std::string write_test_set_string(const TestSet& tests);

/// Parse and validate against `nl` (vector width, output index range).
TestSet read_test_set(std::istream& in, const Netlist& nl);
TestSet read_test_set_string(const std::string& text, const Netlist& nl);

}  // namespace satdiag
