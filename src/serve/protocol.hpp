// Wire protocol of the `satdiag serve` daemon (ROADMAP item 2 transport).
//
// Framing is newline-delimited JSON: one request object per line in, one
// response object per line out, over a plain TCP stream. A request body is
// the CLI surface — the same subcommand names and options, minus the CLI's
// output flags (--stats, --csv, gen --out):
//
//   {"id": "r1", "command": "diagnose", "positional": ["faulty.bench"],
//    "args": {"tests": "tests.txt", "approach": "bsat", "k": 2}}
//
// `id` is an opaque client token echoed into the response (any scalar).
// `args` values may be JSON strings, numbers, or booleans; they are coerced
// to the CLI's string form and validated by the same strict CliArgs value
// parsing the one-shot CLI uses, so "k": "2x" is a structured bad_request,
// never a garbage budget. Responses carry a status ("ok", "error",
// "overloaded") and, for executed commands, the schema-versioned
// "satdiag.report" v1 run report as their body.
//
// Hardening: frames are size-capped (kMaxRequestBytes), the JSON reader is
// depth-bounded, nested args are rejected, and unknown commands or flags
// are structured errors.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace satdiag::serve {

/// Upper bound on one request frame (bytes, newline included). A client
/// exceeding it gets one framing error reply and its connection closed.
inline constexpr std::size_t kMaxRequestBytes = 1u << 20;

/// Machine-readable error codes used in "error"/"overloaded" responses.
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrDeadlineExpired = "deadline_expired";
inline constexpr const char* kErrInternal = "internal_error";

struct Request {
  /// Client-chosen token, echoed verbatim (JSON-escaped string form).
  std::string id;
  std::string command;
  /// Flag map in CLI spelling (no "--"), values in CLI string form.
  std::map<std::string, std::string> args;
  /// Positional operands (e.g. the diagnose .bench path).
  std::vector<std::string> positional;
};

/// Parse one request frame. Returns false and a client-facing message on
/// malformed input (not JSON, missing/invalid fields, nested arg values).
bool parse_request(std::string_view frame, Request& out, std::string& error);

/// One-line response builders (no trailing newline; the transport appends
/// the frame delimiter).
std::string ok_response(const std::string& id, std::string_view report_json);
std::string error_response(const std::string& id, std::string_view code,
                           std::string_view message);
/// Load-shed reply: admission state at rejection time rides along so
/// clients can back off proportionally.
std::string overloaded_response(const std::string& id, std::size_t active,
                                std::size_t queued);

}  // namespace satdiag::serve
