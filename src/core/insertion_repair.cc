#include "src/core/insertion_repair.h"

#include <algorithm>
#include <vector>

#include "src/util/logging.h"

namespace dyck {

StatusOr<EditScript> PreserveContentScript(const ParenSeq& seq,
                                           const EditScript& script) {
  // Work on T = seq with substitutions applied; deletion positions become
  // the symbols to re-partner.
  ParenSeq t = seq;
  std::vector<bool> deleted(seq.size(), false);
  EditScript out;
  for (const EditOp& op : script.ops) {
    if (op.pos < 0 || op.pos >= static_cast<int64_t>(seq.size())) {
      return Status::InvalidArgument("script position out of range");
    }
    switch (op.kind) {
      case EditOpKind::kDelete:
        deleted[op.pos] = true;
        break;
      case EditOpKind::kSubstitute:
        t[op.pos] = op.replacement;
        out.ops.push_back(op);
        break;
      case EditOpKind::kInsert:
        return Status::InvalidArgument(
            "input script already contains insertions");
    }
  }

  struct Entry {
    ParenType type;
    bool is_virtual;  // a kept-instead-of-deleted opener awaiting a closer
  };
  std::vector<Entry> stack;
  for (int64_t p = 0; p < static_cast<int64_t>(t.size()); ++p) {
    const Paren& symbol = t[p];
    if (deleted[p]) {
      if (symbol.is_open) {
        stack.push_back({symbol.type, /*is_virtual=*/true});
      } else {
        // Give the kept closer a brand-new opener right before it.
        out.ops.push_back(
            {EditOpKind::kInsert, p, Paren::Open(symbol.type)});
      }
      continue;
    }
    if (symbol.is_open) {
      stack.push_back({symbol.type, /*is_virtual=*/false});
      continue;
    }
    // A surviving closer: close any virtual openers sitting between it and
    // its (surviving) partner first, innermost-out.
    while (!stack.empty() && stack.back().is_virtual) {
      out.ops.push_back(
          {EditOpKind::kInsert, p, Paren::Close(stack.back().type)});
      stack.pop_back();
    }
    if (stack.empty() || stack.back().type != symbol.type) {
      return Status::InvalidArgument(
          "script does not repair the sequence (surviving symbols are "
          "unbalanced)");
    }
    stack.pop_back();
  }
  // Close the remaining virtual openers at the end of the input.
  const int64_t end = static_cast<int64_t>(t.size());
  while (!stack.empty()) {
    if (!stack.back().is_virtual) {
      return Status::InvalidArgument(
          "script does not repair the sequence (unclosed surviving "
          "opener)");
    }
    out.ops.push_back(
        {EditOpKind::kInsert, end, Paren::Close(stack.back().type)});
    stack.pop_back();
  }

  // Order by position with inserts ahead of the substitute occupying the
  // same position (inserts apply before the symbol); equal-key order of
  // the inserts themselves (innermost-first nesting) is preserved.
  std::stable_sort(out.ops.begin(), out.ops.end(),
                   [](const EditOp& a, const EditOp& b) {
                     if (a.pos != b.pos) return a.pos < b.pos;
                     return a.kind == EditOpKind::kInsert &&
                            b.kind != EditOpKind::kInsert;
                   });
  DYCK_DCHECK_EQ(out.Cost(), script.Cost());
  return out;
}

}  // namespace dyck
