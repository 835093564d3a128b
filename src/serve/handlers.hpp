// Request execution for the serve daemon.
//
// A request is turned back into CliArgs and runs through the command layer
// the one-shot CLI uses (app/command.hpp): the same typed parse, the same
// execute(), the same result JSON. Served results therefore equal the CLI's
// by construction. Serve reads only its own `ping --sleep-ms`; any flag the
// command parser did not read — including the CLI-only --stats, --csv and
// gen --out — is an "unknown flag" bad_request.
//
// Repeat requests on the same inputs hit cache::ArtifactCache through the
// command layer's loader, so warm requests pay only the solve.
#pragma once

#include <cstddef>
#include <string>

#include "serve/protocol.hpp"
#include "util/timer.hpp"

namespace satdiag::serve {

/// Execute one admitted request and return its complete one-line response
/// frame (no trailing newline). `deadline` is the request's remaining
/// budget — it already covered the admission-queue wait, and execution
/// limits (--limit) are clamped to what is left. `lanes` is the server's
/// --threads: the default for SAT-backed diagnoses and experiments that
/// omit `threads`. Never throws: every failure becomes a structured error
/// response.
std::string execute_request(const Request& req, const Deadline& deadline,
                            std::size_t lanes = 1);

}  // namespace satdiag::serve
