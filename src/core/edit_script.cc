#include "src/core/edit_script.h"

#include <algorithm>

#include "src/util/logging.h"

namespace dyck {

void EditScript::Normalize() {
  // Stable: multiple inserts at one position keep their relative order,
  // and an insert emitted before a delete/substitute at the same position
  // stays before it.
  std::stable_sort(
      ops.begin(), ops.end(),
      [](const EditOp& a, const EditOp& b) { return a.pos < b.pos; });
}

std::string EditScript::ToString() const {
  std::string out;
  for (const EditOp& op : ops) {
    if (!out.empty()) out += ", ";
    if (op.kind == EditOpKind::kDelete) {
      out += "del@" + std::to_string(op.pos);
    } else if (op.kind == EditOpKind::kSubstitute) {
      out += "sub@" + std::to_string(op.pos) + "->" +
             (op.replacement.is_open ? "open" : "close") +
             std::to_string(op.replacement.type);
    } else {
      out += "ins@" + std::to_string(op.pos) + "+" +
             (op.replacement.is_open ? "open" : "close") +
             std::to_string(op.replacement.type);
    }
  }
  return out.empty() ? "(no edits)" : out;
}

std::string EditScript::ToJson() const {
  std::string out = "{\"cost\":" + std::to_string(Cost()) + ",\"ops\":[";
  bool first = true;
  for (const EditOp& op : ops) {
    if (!first) out += ",";
    first = false;
    if (op.kind == EditOpKind::kDelete) {
      out += "{\"op\":\"delete\",\"pos\":" + std::to_string(op.pos) + "}";
    } else {
      out += std::string("{\"op\":\"") +
             (op.kind == EditOpKind::kSubstitute ? "substitute" : "insert") +
             "\",\"pos\":" + std::to_string(op.pos) +
             ",\"type\":" + std::to_string(op.replacement.type) +
             ",\"open\":" + (op.replacement.is_open ? "true" : "false") +
             "}";
    }
  }
  out += "]}";
  return out;
}

ParenSeq ApplyScript(const ParenSeq& seq, const EditScript& script) {
  ParenSeq out;
  ApplyScript(seq, script, &out);
  return out;
}

void ApplyScript(const ParenSeq& seq, const EditScript& script,
                 ParenSeq* out) {
  out->clear();
  out->reserve(seq.size() + script.ops.size());
  const auto n = static_cast<int64_t>(seq.size());
  int64_t src = 0;  // first input index not yet copied or consumed
  for (const EditOp& op : script.ops) {
    DYCK_CHECK(op.pos >= src &&
               (op.pos < n || (op.pos == n && op.kind == EditOpKind::kInsert)))
        << "script op positions out of range or unsorted";
    out->insert(out->end(), seq.begin() + src, seq.begin() + op.pos);
    src = op.pos;
    if (op.kind != EditOpKind::kDelete) out->push_back(op.replacement);
    if (op.kind != EditOpKind::kInsert) ++src;
  }
  out->insert(out->end(), seq.begin() + src, seq.end());
}

std::vector<std::pair<int64_t, int64_t>> AlignedPairs(
    ParenSpan seq, const EditScript& script) {
  // Each stack entry is an open's type and the output slot reserved for its
  // pair when it was pushed (-1 for an inserted open). Reserving at push
  // time keeps the output sorted by open without a sort; a close fills the
  // slot of the open it pops.
  struct Open {
    ParenType type;
    int64_t slot;
  };
  std::vector<Open> stack;
  std::vector<std::pair<int64_t, int64_t>> pairs;
  pairs.reserve(seq.size() / 2);
  int64_t unfilled = 0;  // original opens closed by an inserted close
  const auto take = [&](const Paren& p, int64_t pos) {
    if (p.is_open) {
      int64_t slot = -1;
      if (pos >= 0) {
        slot = static_cast<int64_t>(pairs.size());
        pairs.emplace_back(pos, -1);
      }
      stack.push_back({p.type, slot});
      return;
    }
    DYCK_CHECK(!stack.empty() && stack.back().type == p.type)
        << "script does not repair the sequence";
    const int64_t slot = stack.back().slot;
    stack.pop_back();
    if (slot < 0) return;
    if (pos >= 0) {
      pairs[slot].second = pos;
    } else {
      ++unfilled;
    }
  };
  const int64_t n = static_cast<int64_t>(seq.size());
  size_t k = 0;
  for (int64_t i = 0; i <= n; ++i) {
    for (; k < script.ops.size() && script.ops[k].pos == i &&
           script.ops[k].kind == EditOpKind::kInsert;
         ++k) {
      take(script.ops[k].replacement, -1);
    }
    if (i == n) break;
    if (k < script.ops.size() && script.ops[k].pos == i) {
      const EditOp& op = script.ops[k++];
      if (op.kind == EditOpKind::kSubstitute) take(op.replacement, i);
    } else {
      take(seq[i], i);
    }
  }
  DYCK_CHECK(k == script.ops.size() && stack.empty())
      << "script does not repair the sequence";
  if (unfilled > 0) {
    std::erase_if(pairs, [](const auto& pair) { return pair.second < 0; });
  }
  return pairs;
}

int32_t PairCost(const Paren& left, const Paren& right,
                 bool allow_substitutions) {
  if (left.Matches(right)) return 0;
  if (!allow_substitutions) return kPairImpossible;
  if (!left.is_open && right.is_open) return 2;  // both must be rewritten
  return 1;  // one substitution aligns the pair
}

void AppendPairAlignment(ParenSpan seq, int64_t i, int64_t j,
                         EditScript* script) {
  const Paren& left = seq[i];
  const Paren& right = seq[j];
  if (left.Matches(right)) {
    // exact match, zero cost
  } else if (left.is_open) {
    // open/close type mismatch or open/open: rewrite the right symbol.
    script->ops.push_back(
        {EditOpKind::kSubstitute, j, Paren::Close(left.type)});
  } else if (!right.is_open) {
    // close/close: rewrite the left symbol.
    script->ops.push_back(
        {EditOpKind::kSubstitute, i, Paren::Open(right.type)});
  } else {
    // close/open: rewrite both.
    script->ops.push_back(
        {EditOpKind::kSubstitute, i, Paren::Open(left.type)});
    script->ops.push_back(
        {EditOpKind::kSubstitute, j, Paren::Close(left.type)});
  }
}

Status ValidateScript(const ParenSeq& seq, const EditScript& script,
                      int64_t expected_cost, bool allow_substitutions,
                      bool allow_insertions) {
  if (script.Cost() != expected_cost) {
    return Status::Internal("script cost " + std::to_string(script.Cost()) +
                            " != reported distance " +
                            std::to_string(expected_cost));
  }
  int64_t prev_pos = -1;
  int64_t prev_consuming_pos = -1;  // last delete/substitute position
  for (const EditOp& op : script.ops) {
    if (op.pos < prev_pos) {
      return Status::Internal("script ops not sorted by position");
    }
    prev_pos = op.pos;
    if (op.kind == EditOpKind::kInsert) {
      if (!allow_insertions) {
        return Status::Internal(
            "insertion produced under a paper metric (edit1/edit2)");
      }
      if (op.pos < 0 || op.pos > static_cast<int64_t>(seq.size())) {
        return Status::Internal("insert position out of range: " +
                                std::to_string(op.pos));
      }
      if (op.pos == prev_consuming_pos) {
        return Status::Internal(
            "insert listed after a delete/substitute at the same position "
            "(inserts apply before the symbol; use pos+1 to insert after)");
      }
      continue;
    }
    if (op.pos <= prev_consuming_pos) {
      return Status::Internal(
          "multiple delete/substitute ops on one position");
    }
    prev_consuming_pos = op.pos;
    if (op.pos < 0 || op.pos >= static_cast<int64_t>(seq.size())) {
      return Status::Internal("script op position out of range: " +
                              std::to_string(op.pos));
    }
    if (op.kind == EditOpKind::kSubstitute) {
      if (!allow_substitutions) {
        return Status::Internal(
            "substitution produced under the deletions-only metric");
      }
      if (op.replacement == seq[op.pos]) {
        return Status::Internal("substitution replaces a symbol by itself");
      }
    }
  }
  if (!IsBalanced(ApplyScript(seq, script))) {
    return Status::Internal("script does not repair the sequence: " +
                            script.ToString());
  }
  return Status::OK();
}

}  // namespace dyck
