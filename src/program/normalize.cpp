#include "program/normalize.hpp"

#include <string>

#include "common/check.hpp"

namespace selfsched::program {

namespace {

class Validator {
 public:
  ValidationInfo run(NodeSeq& top) {
    visit_seq(top, /*level=*/1);  // level 1 is the implicit serial wrapper
    SS_CHECK_MSG(info_.num_leaves > 0,
                 "a program must contain at least one innermost loop");
    return info_;
  }

 private:
  void visit_seq(NodeSeq& seq, Level level) {
    for (NodePtr& n : seq) {
      SS_CHECK_MSG(n != nullptr, "null node in a loop body");
      visit(*n, level);
    }
  }

  void visit(Node& n, Level level) {
    switch (n.kind) {
      case NodeKind::kSections: {
        desugar_sections(n, level);
        visit(n, level);  // validate the rewritten parallel loop
        return;
      }
      case NodeKind::kParallelLoop:
      case NodeKind::kSerialLoop:
        SS_CHECK_MSG(level + 1 < kMaxDepth,
                     "loop nest deeper than kMaxDepth-1");
        SS_CHECK_MSG(!n.children.empty(), "container loop with empty body");
        check_bound(n);
        visit_seq(n.children, level + 1);
        break;
      case NodeKind::kIf:
        SS_CHECK_MSG(!n.children.empty(),
                     "IF-THEN-ELSE with empty TRUE branch (negate the "
                     "condition instead)");
        visit_seq(n.children, level);
        visit_seq(n.else_children, level);
        break;
      case NodeKind::kInnermost:
        SS_CHECK_MSG(n.children.empty() && n.else_children.empty(),
                     "innermost loop must be a leaf");
        // Auto-name before the bound check so its diagnostic can name the
        // offending loop.
        if (n.name.empty()) {
          n.name = std::string("L").append(
              std::to_string(info_.num_leaves + 1));
        }
        check_bound(n);
        if (n.doacross) {
          SS_CHECK_MSG(n.doacross->distance >= 1,
                       "Doacross distance must be >= 1");
          for (const i64 d : n.doacross->extra_distances) {
            SS_CHECK_MSG(d >= 1, "Doacross extra distance must be >= 1");
          }
        }
        ++info_.num_leaves;
        info_.max_depth = std::max(info_.max_depth, level);
        break;
    }
  }

  /// PARALLEL SECTIONS -> par(k) { IF(i==1){S1} ELSE { IF(i==2){S2} ... }}.
  /// Done here rather than in the builder because the branch-selector
  /// conditions read the new loop's index, whose index-vector position is
  /// only known once the construct's nesting level is.
  static void desugar_sections(Node& n, Level level) {
    SS_CHECK_MSG(!n.section_branches.empty(),
                 "PARALLEL SECTIONS needs >= 1 branch");
    for (const NodeSeq& b : n.section_branches) {
      SS_CHECK_MSG(!b.empty(), "empty PARALLEL SECTIONS branch");
    }
    const i64 k = static_cast<i64>(n.section_branches.size());
    // The new parallel loop sits at level+1; its index is ivec[level].
    const std::size_t idx_pos = level;
    NodeSeq chain = std::move(n.section_branches.back());
    for (std::size_t b = n.section_branches.size() - 1; b-- > 0;) {
      const i64 branch_no = static_cast<i64>(b) + 1;
      CondFn cond = [idx_pos, branch_no](const IndexVec& iv) {
        return iv[idx_pos] == branch_no;
      };
      NodeSeq wrapped;
      wrapped.push_back(if_then_else(std::move(cond),
                                     std::move(n.section_branches[b]),
                                     std::move(chain)));
      chain = std::move(wrapped);
    }
    n.kind = NodeKind::kParallelLoop;
    n.bound = Bound{k};
    n.children = std::move(chain);
    n.section_branches.clear();
  }

  /// Constant bounds are fully known here, so a negative one is a program
  /// bug caught at compile time — with the loop's name, so a deep nest's
  /// diagnostic points at the offending loop instead of a bare value
  /// (container loops are usually unnamed; innermost loops are auto-named
  /// above before this check runs).
  static void check_bound(const Node& n) {
    if (n.bound.is_constant()) {
      SS_CHECK_MSG(n.bound.constant >= 0,
                   "loop '" +
                       (n.name.empty() ? std::string("<anonymous>") : n.name) +
                       "': constant loop bound must be >= 0 (got " +
                       std::to_string(n.bound.constant) + ")");
    }
  }

  ValidationInfo info_;
};

}  // namespace

ValidationInfo validate_and_name(NodeSeq& top_level) {
  return Validator{}.run(top_level);
}

}  // namespace selfsched::program
