// Gate-level netlist IR.
//
// Gates are dense uint32_t ids; all derived structure (topological order,
// levels, fanouts in CSR form) is computed once by finalize() and stays valid
// under the only post-finalize mutation the library performs: gate-type
// substitution at unchanged arity (the error-injection model).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate_type.hpp"

namespace satdiag {

using GateId = std::uint32_t;
inline constexpr GateId kNoGate = 0xffffffffu;

/// Thrown on structural construction errors (bad arity, cycles, ...).
class NetlistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // ---- construction -------------------------------------------------------
  GateId add_input(std::string name);
  GateId add_const(bool value, std::string name);
  GateId add_gate(GateType type, std::string name, std::vector<GateId> fanins);
  /// DFFs are created without a data input so .bench forward references work;
  /// set_dff_input must be called before finalize().
  GateId add_dff(std::string name);
  void set_dff_input(GateId dff, GateId data);
  void add_output(GateId gate);

  /// Validates arities and acyclicity, computes topo order / levels / CSR
  /// fanouts. Throws NetlistError on invalid structure.
  void finalize();
  bool finalized() const { return finalized_; }

  // ---- post-finalize mutation (error injection) ---------------------------
  /// Replace the gate function, keeping fanins. Topology is unchanged, so all
  /// derived data stays valid. Throws on arity mismatch or source gates.
  void substitute_type(GateId gate, GateType new_type);

  // ---- queries -------------------------------------------------------------
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t size() const { return types_.size(); }
  GateType type(GateId g) const { return types_[g]; }
  const std::string& gate_name(GateId g) const { return names_[g]; }
  std::span<const GateId> fanins(GateId g) const { return fanins_[g]; }

  bool is_source(GateId g) const { return is_source_type(types_[g]); }
  bool is_combinational(GateId g) const { return !is_source(g); }

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& dffs() const { return dffs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }

  /// All combinational sources: inputs, DFF outputs, constants.
  std::size_t num_sources() const { return num_sources_; }
  std::size_t num_combinational_gates() const { return size() - num_sources_; }

  /// Lookup by name; kNoGate when absent.
  GateId find(std::string_view name) const;

  // ---- derived structure (valid after finalize) ----------------------------
  /// Combinational topological order over all gates (sources first).
  const std::vector<GateId>& topo_order() const { return topo_; }
  /// Levelization: sources at level 0, gate level = 1 + max(fanin levels).
  const std::vector<std::uint32_t>& levels() const { return levels_; }
  std::uint32_t depth() const { return depth_; }
  /// Fanouts of g, DFF data edges included.
  std::span<const GateId> fanouts(GateId g) const {
    return {fanout_data_.data() + fanout_offset_[g],
            fanout_data_.data() + fanout_offset_[g + 1]};
  }

  /// Deep copy (cheap enough at ISCAS89 scale; used for golden/faulty pairs).
  Netlist clone() const { return *this; }

 private:
  GateId new_gate(GateType type, std::string name, std::vector<GateId> fanins);
  void check_not_finalized(const char* op) const;

  std::string name_;
  std::vector<GateType> types_;
  std::vector<std::string> names_;
  std::vector<std::vector<GateId>> fanins_;
  std::vector<GateId> inputs_;
  std::vector<GateId> dffs_;
  std::vector<GateId> outputs_;
  std::unordered_map<std::string, GateId> by_name_;
  std::size_t num_sources_ = 0;

  bool finalized_ = false;
  std::vector<GateId> topo_;
  std::vector<std::uint32_t> levels_;
  std::uint32_t depth_ = 0;
  // CSR fanout adjacency.
  std::vector<std::uint32_t> fanout_offset_;
  std::vector<GateId> fanout_data_;
};

}  // namespace satdiag
