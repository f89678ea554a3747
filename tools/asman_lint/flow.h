// Flow-sensitive layer over the token stream: per-function control-flow
// graphs, all-paths queries with witness traces, the shared VcpuState
// transition spec, and a cross-TU call graph.
//
// This is what upgrades asman-lint from a lexical checker to asman-verify:
// the `credit-flow`, `state-machine` and `thread-safety` rules ask path
// questions ("is every credit drain dominated by kDestroyed evidence?",
// "can a redistribution escape to the exit without passing audit_minted?")
// instead of pattern questions. The CFG is statement-granular and built by
// recursive descent over the same token stream the lexical checks read, so
// the tool still needs nothing beyond the C++ toolchain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model.h"
#include "token.h"

namespace asman_lint {

/// What a node is, where the flow rules need to know. kBranch marks
/// if/while condition nodes and kForHead for-loop headers: for both,
/// succ[0] is the true/body edge (by construction order in CfgBuilder) and
/// every later successor is a false/after edge. do-while and switch
/// conditions stay kPlain, so no rule refines facts along their edges.
enum class CfgNodeKind : std::uint8_t { kPlain, kBranch, kForHead };

struct CfgNode {
  std::size_t tok_begin{0};  // [tok_begin, tok_end) in the unit's tokens
  std::size_t tok_end{0};
  int line{0};
  bool is_entry{false};
  bool is_exit{false};
  CfgNodeKind kind{CfgNodeKind::kPlain};
  std::vector<std::size_t> succ;
};

struct Cfg {
  std::vector<CfgNode> nodes;
  std::size_t entry{0};
  std::size_t exit{0};

  /// Node containing token index `i`, or npos.
  std::size_t node_of(std::size_t i) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Builds the CFG for a function body whose '{' is at `body_begin` and
/// whose matching '}' is at `body_end - 1` (FunctionSpan extents).
/// Handles if/else, while/for/do, switch/case/default, break/continue,
/// return and throw; expression-position braces (lambdas, braced init) are
/// absorbed into their statement. `exhaustive_enums`, when non-empty,
/// names an enumerator universe: a default-less switch whose case labels
/// cover the whole universe gets no bypass edge (the "no case matched"
/// path is statically dead). The VcpuState universe comes from the shared
/// spec, so the lint and the compiler agree on exhaustiveness.
Cfg build_cfg(const std::vector<Token>& toks, std::size_t body_begin,
              std::size_t body_end,
              const std::vector<std::string>& exhaustive_enums = {});

using NodePred = std::function<bool(const CfgNode&)>;

/// If some entry->target path avoids every node satisfying `marker`
/// (target itself exempt), returns that path's node ids; otherwise
/// nullopt, i.e. every path to `target` passes a marker (domination).
std::optional<std::vector<std::size_t>> path_to_avoiding(
    const Cfg& cfg, std::size_t target, const NodePred& marker);

/// If some target->exit path avoids every marker node (target exempt),
/// returns it; otherwise nullopt, i.e. every path from `target` to the
/// exit passes a marker (post-domination).
std::optional<std::vector<std::size_t>> path_from_avoiding(
    const Cfg& cfg, std::size_t target, const NodePred& marker);

/// Renders a CFG path as finding trace steps (line + short token snippet).
std::vector<TraceStep> trace_of_path(const Cfg& cfg,
                                     const std::vector<std::size_t>& path,
                                     const std::vector<Token>& toks);

/// A legal state-transition relation lexed from a single shared spec
/// header (the same header the runtime compiles against, so there is
/// exactly one definition of legality per machine). `states` is the
/// enumerator universe seen in the table. Cached per (root, spec);
/// `error` is non-empty if the spec could not be read or parsed.
struct TransitionSpec {
  std::vector<std::pair<std::string, std::string>> legal;
  std::vector<std::string> states;
  std::string error;

  bool allows(const std::string& from, const std::string& to) const;
};

/// VcpuState relation from <root>/src/vmm/state_spec.h
/// (kLegalVcpuTransitions — the VMM runtime auditor's table).
const TransitionSpec& vcpu_transition_spec(const Options& options);

/// MigrationPhase relation from <root>/src/cluster/migration_spec.h
/// (kLegalMigrationTransitions — the cluster FSM's table).
const TransitionSpec& migration_transition_spec(const Options& options);

/// Cross-TU call graph keyed by function name (qualified where known),
/// with per-function callee identifier sets and the file-scope mutable
/// statics each function writes. Name resolution is by unqualified
/// suffix, which over-approximates — acceptable because the thread-safety
/// rule only fires when a real static write is reachable.
struct CallGraph {
  struct FnInfo {
    std::string file;
    std::unordered_set<std::string> callees;            // simple names
    std::unordered_map<std::string, int> static_writes;  // name -> line
  };
  std::unordered_map<std::string, FnInfo> functions;  // qualified name
  std::unordered_map<std::string, std::vector<std::string>> by_simple_name;

  void add_unit(const FileUnit& unit);

  /// BFS from `roots` (simple callee names) up to `depth` hops; returns
  /// the first reachable (function, static, line, chain) write found.
  struct StaticWrite {
    std::string function;
    std::string static_name;
    std::string file;
    int line{0};
    std::vector<std::string> chain;  // call chain from the root
  };
  std::optional<StaticWrite> find_static_write(
      const std::unordered_set<std::string>& roots, int depth = 6) const;
};

}  // namespace asman_lint
