#include "bench/bench_parser.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace satdiag {
namespace {

struct Definition {
  std::string name;
  GateType type = GateType::kBuf;
  std::vector<std::string> args;
  int line = 0;
  // DFS state for topological emission.
  enum class Mark { kWhite, kGray, kBlack } mark = Mark::kWhite;
  GateId id = kNoGate;
};

struct ParseState {
  std::map<std::string, Definition> defs;
  std::vector<std::string> input_names;
  std::vector<std::pair<std::string, int>> outputs;  // name, line
  std::map<std::string, int> input_lines;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw BenchParseError(strprintf("line %d: %s", line, message.c_str()));
}

// Parses "HEAD(arg, arg, ...)" and returns {HEAD, args}.
bool parse_call(std::string_view text, std::string& head,
                std::vector<std::string>& args) {
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open || trim(text.substr(close + 1)) != "") {
    return false;
  }
  head = std::string(trim(text.substr(0, open)));
  args.clear();
  const std::string_view inner = text.substr(open + 1, close - open - 1);
  if (trim(inner).empty()) return true;
  for (std::string_view piece : split(inner, ',')) {
    const std::string_view arg = trim(piece);
    if (arg.empty()) return false;
    args.emplace_back(arg);
  }
  return true;
}

class Emitter {
 public:
  Emitter(ParseState& state, Netlist& nl) : state_(state), nl_(nl) {}

  GateId emit(const std::string& name, int use_line) {
    auto def_it = state_.defs.find(name);
    if (def_it == state_.defs.end()) {
      auto in_it = state_.input_lines.find(name);
      if (in_it == state_.input_lines.end()) {
        fail(use_line, strprintf("undefined signal '%s'", name.c_str()));
      }
      return nl_.find(name);  // inputs are pre-created
    }
    Definition& def = def_it->second;
    if (def.id != kNoGate) return def.id;
    if (def.mark == Definition::Mark::kGray) {
      fail(def.line,
           strprintf("combinational cycle through '%s'", name.c_str()));
    }
    def.mark = Definition::Mark::kGray;
    if (def.type == GateType::kDff) {
      // Break the (legal, sequential) cycle: create now, resolve data later.
      def.id = nl_.add_dff(def.name);
      pending_dffs_.push_back(&def);
    } else {
      std::vector<GateId> fanins;
      fanins.reserve(def.args.size());
      for (const std::string& arg : def.args) {
        fanins.push_back(emit(arg, def.line));
      }
      def.id = nl_.add_gate(def.type, def.name, std::move(fanins));
    }
    def.mark = Definition::Mark::kBlack;
    return def.id;
  }

  void resolve_dffs() {
    // DFF data cones may include definitions reachable only through DFFs.
    for (std::size_t i = 0; i < pending_dffs_.size(); ++i) {
      Definition* def = pending_dffs_[i];
      nl_.set_dff_input(def->id, emit(def->args[0], def->line));
    }
  }

 private:
  ParseState& state_;
  Netlist& nl_;
  std::vector<Definition*> pending_dffs_;
};

}  // namespace

Netlist parse_bench(std::istream& in, std::string circuit_name) {
  ParseState state;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    std::string head;
    std::vector<std::string> args;
    if (eq == std::string_view::npos) {
      if (!parse_call(line, head, args) || args.size() != 1) {
        fail(line_no, "expected INPUT(name) or OUTPUT(name)");
      }
      if (iequals(head, "INPUT")) {
        if (!state.input_lines.emplace(args[0], line_no).second) {
          fail(line_no, strprintf("duplicate INPUT '%s'", args[0].c_str()));
        }
        state.input_names.push_back(args[0]);
      } else if (iequals(head, "OUTPUT")) {
        state.outputs.emplace_back(args[0], line_no);
      } else {
        fail(line_no, strprintf("unknown directive '%s'", head.c_str()));
      }
      continue;
    }

    Definition def;
    def.name = std::string(trim(line.substr(0, eq)));
    def.line = line_no;
    if (def.name.empty()) fail(line_no, "empty signal name");
    if (!parse_call(trim(line.substr(eq + 1)), head, args)) {
      fail(line_no, "expected name = TYPE(args)");
    }
    const auto type = gate_type_from_name(head);
    if (!type || *type == GateType::kInput) {
      fail(line_no, strprintf("unknown gate type '%s'", head.c_str()));
    }
    def.type = *type;
    def.args = std::move(args);
    if (def.type == GateType::kConst0 || def.type == GateType::kConst1) {
      if (!def.args.empty()) fail(line_no, "constants take no arguments");
    } else if (!arity_ok(def.type, def.args.size())) {
      fail(line_no, strprintf("%s with %zu arguments", head.c_str(),
                              def.args.size()));
    }
    if (state.input_lines.count(def.name)) {
      fail(line_no,
           strprintf("signal '%s' already declared INPUT", def.name.c_str()));
    }
    if (!state.defs.emplace(def.name, def).second) {
      fail(line_no, strprintf("duplicate definition of '%s'", def.name.c_str()));
    }
  }

  Netlist nl(std::move(circuit_name));
  for (const std::string& name : state.input_names) nl.add_input(name);
  Emitter emitter(state, nl);
  // Emit every definition (not only those reachable from outputs) so the
  // netlist faithfully mirrors the file.
  for (auto& [name, def] : state.defs) {
    (void)def;
    emitter.emit(name, def.line);
  }
  emitter.resolve_dffs();
  for (const auto& [name, line] : state.outputs) {
    const GateId g = nl.find(name);
    if (g == kNoGate) {
      fail(line, strprintf("OUTPUT of undefined signal '%s'", name.c_str()));
    }
    nl.add_output(g);
  }
  nl.finalize();
  return nl;
}

Netlist parse_bench_string(const std::string& text, std::string circuit_name) {
  std::istringstream in(text);
  return parse_bench(in, std::move(circuit_name));
}

Netlist parse_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw BenchParseError(strprintf("cannot open '%s'", path.c_str()));
  }
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return parse_bench(in, std::move(name));
}

}  // namespace satdiag
