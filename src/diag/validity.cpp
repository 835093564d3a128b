#include "diag/validity.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace satdiag {
namespace {

/// Bit j of the lane index, for the lanes of one 64-lane word (j < 6).
constexpr std::uint64_t kLaneBit[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Lanes [lo, hi) of one word, 0 <= lo < hi <= 64.
std::uint64_t lane_range(std::size_t lo, std::size_t hi) {
  const std::uint64_t below_hi = hi == 64 ? ~0ULL : (1ULL << hi) - 1;
  return below_hi & ~((1ULL << lo) - 1);
}

}  // namespace

std::optional<std::size_t> first_failing_test(
    const Netlist& nl, const TestSet& tests,
    std::span<const GateId> correction) {
  const std::size_t width = correction.size();
  assert(width < 32 && "the check spends 2^|C| lanes per test");
  constexpr std::size_t kFree = ~std::size_t{0};
  std::vector<std::size_t> slot(nl.size(), kFree);
  for (std::size_t j = 0; j < width; ++j) slot[correction[j]] = j;

  // A test's 2^|C| lanes lie inside one word (|C| <= 6) or fill whole
  // words (|C| >= 6), so `passed` carries over words only within a test.
  const std::size_t lanes = tests.size() << width;
  std::vector<std::uint64_t> value(nl.size(), 0);
  std::vector<std::uint64_t> forced(width);
  std::vector<std::uint64_t> fanin_buf;
  bool passed = false;  // some lane of the current test read correct_value
  for (std::size_t base = 0; base < lanes; base += 64) {
    const std::size_t end = std::min(base + 64, lanes);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      std::uint64_t word = 0;
      for (std::size_t lane = base; lane < end; ++lane) {
        if (tests[lane >> width].input_values[i]) {
          word |= 1ULL << (lane - base);
        }
      }
      value[nl.inputs()[i]] = word;
    }
    // correction[j] reads bit j of the lane index: a fixed lane pattern
    // below bit 6, a whole-word constant from bit 6 up.
    for (std::size_t j = 0; j < width; ++j) {
      forced[j] = j < 6 ? kLaneBit[j] : ((base >> j) & 1) != 0 ? ~0ULL : 0;
    }
    sweep_words(
        nl, value, fanin_buf, [&nl](GateId g) { return nl.type(g); },
        [&](GateId g, std::uint64_t& word) {
          if (slot[g] != kFree) word = forced[slot[g]];
        });
    for (std::size_t t = base >> width; (t << width) < end; ++t) {
      const std::size_t first = std::max(t << width, base);
      const std::size_t last = std::min((t + 1) << width, end);
      const std::uint64_t out = value[test_output_gate(nl, tests[t])];
      const std::uint64_t correct = tests[t].correct_value ? out : ~out;
      if ((correct & lane_range(first - base, last - base)) != 0) {
        passed = true;
      }
      if (last == (t + 1) << width) {  // the test's last lane
        if (!passed) return t;
        passed = false;
      }
    }
  }
  return std::nullopt;
}

}  // namespace satdiag
