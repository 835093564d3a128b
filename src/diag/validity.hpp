// Correction validity by simulation, Definition 3 of the paper: a set C of
// gates is a valid correction when, for every test, some choice of values at
// C's gates gives the test's correct output value.
//
// The check shares neither the multiplexer CNF nor the compiled opcode
// interpreter with the diagnosis engines: it runs the reference evaluation
// loop (sweep_words) over lanes that enumerate, per test, every assignment
// of C's gates. BSAT calls it with the empty correction to find out whether
// any test fails at all, and then once per model, on the tests that have no
// circuit copy yet, to decide whether the model's correction is emitted or
// a test's copy is added (diag/bsat.hpp). The tests use it as the
// independent oracle for Lemmas 1 and 3.
#pragma once

#include <optional>
#include <span>

#include "netlist/testset.hpp"

namespace satdiag {

/// nullopt when `correction` is valid for every test of `tests`; otherwise
/// the index of the first test that no assignment of the correction's gates
/// rectifies. Lane L = t * 2^|C| + a simulates test t with correction[j]
/// forced to bit j of a, so the cost is 2^|C| lanes per test: the empty
/// correction packs 64 tests per sweep, |C| = 7 spends two sweeps per test.
std::optional<std::size_t> first_failing_test(
    const Netlist& nl, const TestSet& tests,
    std::span<const GateId> correction);

}  // namespace satdiag
