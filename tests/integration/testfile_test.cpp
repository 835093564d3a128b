#include "report/testfile.hpp"

#include <gtest/gtest.h>

#include "bench/builtin_circuits.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "netlist/scan.hpp"

namespace satdiag {
namespace {

TEST(TestFileTest, RoundTrip) {
  const Netlist nl = make_full_scan(builtin_c17()).comb;
  Rng rng(1);
  InjectorOptions inject;
  inject.num_errors = 1;
  const auto errors = inject_errors(nl, rng, inject);
  ASSERT_TRUE(errors.has_value());
  const TestSet tests = generate_failing_tests(nl, *errors, 4, rng);
  ASSERT_FALSE(tests.empty());

  const std::string text = write_test_set_string(tests);
  const TestSet back = read_test_set_string(text, nl);
  ASSERT_EQ(back.size(), tests.size());
  for (std::size_t i = 0; i < tests.size(); ++i) {
    EXPECT_EQ(back[i].input_values, tests[i].input_values);
    EXPECT_EQ(back[i].output_index, tests[i].output_index);
    EXPECT_EQ(back[i].correct_value, tests[i].correct_value);
  }
}

TEST(TestFileTest, CommentsAndBlanksIgnored) {
  const Netlist nl = make_full_scan(builtin_c17()).comb;
  const TestSet tests = read_test_set_string(
      "# header\n\n10101 0 1  # trailing\n", nl);
  ASSERT_EQ(tests.size(), 1u);
  EXPECT_TRUE(tests[0].input_values[0]);
  EXPECT_FALSE(tests[0].input_values[1]);
  EXPECT_EQ(tests[0].output_index, 0u);
  EXPECT_TRUE(tests[0].correct_value);
}

TEST(TestFileTest, WidthMismatchThrows) {
  const Netlist nl = make_full_scan(builtin_c17()).comb;  // 5 inputs
  EXPECT_THROW(read_test_set_string("1010 0 1\n", nl), TestFileError);
}

TEST(TestFileTest, OutputIndexRangeChecked) {
  const Netlist nl = make_full_scan(builtin_c17()).comb;  // 2 outputs
  EXPECT_THROW(read_test_set_string("10101 2 1\n", nl), TestFileError);
}

TEST(TestFileTest, BadValueThrows) {
  const Netlist nl = make_full_scan(builtin_c17()).comb;
  EXPECT_THROW(read_test_set_string("10101 0 7\n", nl), TestFileError);
  EXPECT_THROW(read_test_set_string("10x01 0 1\n", nl), TestFileError);
  EXPECT_THROW(read_test_set_string("10101\n", nl), TestFileError);
}

TEST(TestFileTest, TrailingTokensThrow) {
  const Netlist nl = make_full_scan(builtin_c17()).comb;
  for (const char* line : {"10101 1 1.5", "10101 1 0x", "10101 1 0 extra"}) {
    try {
      read_test_set_string(std::string("# header\n") + line + "\n", nl);
      FAIL() << "expected TestFileError for '" << line << "'";
    } catch (const TestFileError& e) {
      EXPECT_STREQ(e.what(), "line 2: malformed test line") << line;
    }
  }
}

}  // namespace
}  // namespace satdiag
