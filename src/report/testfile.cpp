#include "report/testfile.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace satdiag {

void write_test_set(std::ostream& out, const TestSet& tests) {
  out << "# <input-vector> <output-index> <correct-value>\n";
  for (const Test& test : tests) {
    for (bool b : test.input_values) out << (b ? '1' : '0');
    out << ' ' << test.output_index << ' ' << (test.correct_value ? 1 : 0)
        << '\n';
  }
}

std::string write_test_set_string(const TestSet& tests) {
  std::ostringstream out;
  write_test_set(out, tests);
  return out.str();
}

TestSet read_test_set(std::istream& in, const Netlist& nl) {
  TestSet tests;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    std::istringstream fields{std::string(line)};
    std::string vector_text;
    std::uint64_t output_index = 0;
    int correct = 0;
    std::string extra;  // "1.5", "0x" and a fourth field leave a token here
    if (!(fields >> vector_text >> output_index >> correct) ||
        fields >> extra) {
      throw TestFileError(strprintf("line %d: malformed test line", line_no));
    }
    if (vector_text.size() != nl.inputs().size()) {
      throw TestFileError(
          strprintf("line %d: vector has %zu bits, circuit has %zu inputs",
                    line_no, vector_text.size(), nl.inputs().size()));
    }
    if (output_index >= nl.outputs().size()) {
      throw TestFileError(strprintf("line %d: output index %llu out of range",
                                    line_no,
                                    static_cast<unsigned long long>(output_index)));
    }
    if (correct != 0 && correct != 1) {
      throw TestFileError(
          strprintf("line %d: correct value must be 0 or 1", line_no));
    }
    Test test;
    test.input_values.reserve(vector_text.size());
    for (char c : vector_text) {
      if (c != '0' && c != '1') {
        throw TestFileError(
            strprintf("line %d: vector must be over {0,1}", line_no));
      }
      test.input_values.push_back(c == '1');
    }
    test.output_index = static_cast<std::size_t>(output_index);
    test.correct_value = correct == 1;
    tests.push_back(std::move(test));
  }
  return tests;
}

TestSet read_test_set_string(const std::string& text, const Netlist& nl) {
  std::istringstream in(text);
  return read_test_set(in, nl);
}

}  // namespace satdiag
