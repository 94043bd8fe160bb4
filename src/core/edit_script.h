// Edit scripts: the "optimal sequence of edits" of paper §1.1.
//
// A script lists unit-cost operations against *original* sequence indices:
// deletions (edit1/edit2) and substitutions (edit2 only). Scripts never
// reorder symbols. ApplyScript materializes the repaired sequence;
// ValidateScript is the testing workhorse: a correct distance algorithm
// must produce a script that (a) costs exactly the reported distance and
// (b) applies to a balanced sequence.

#ifndef DYCKFIX_SRC_CORE_EDIT_SCRIPT_H_
#define DYCKFIX_SRC_CORE_EDIT_SCRIPT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/alphabet/paren.h"
#include "src/util/status.h"

namespace dyck {

enum class EditOpKind {
  kDelete,
  kSubstitute,
  /// Insert `replacement` immediately BEFORE original index `pos`
  /// (pos == sequence length appends). The paper's distances use only
  /// deletions and substitutions; insertions arise from the
  /// content-preserving repair style (see core/insertion_repair.h), which
  /// trades each deletion for an insertion of equal cost.
  kInsert,
};

/// One edit against the input sequence.
struct EditOp {
  EditOpKind kind = EditOpKind::kDelete;
  /// Index into the original (pre-reduction) input sequence.
  int64_t pos = 0;
  /// New/inserted symbol; meaningful for kSubstitute and kInsert.
  Paren replacement;

  bool operator==(const EditOp&) const = default;
};

/// A set of edits. The zero-cost alignment the edits make possible (used
/// to draw Figure 2/3-style arc diagrams) is derived on request by
/// AlignedPairs.
struct EditScript {
  /// Sorted by pos; at most one op per position.
  std::vector<EditOp> ops;

  int64_t Cost() const { return static_cast<int64_t>(ops.size()); }

  /// Sorts ops by position (producers may emit out of order).
  void Normalize();

  std::string ToString() const;

  /// Machine-readable rendering for tooling:
  /// {"cost":2,"ops":[{"op":"delete","pos":3},
  ///                  {"op":"substitute","pos":5,"type":1,"open":false}]}
  std::string ToJson() const;
};

/// Applies `script` to `seq`; ops must be sorted by position (inserts at a
/// position apply, in op order, before the symbol at that position; at
/// most one delete/substitute per position; checked). The untouched runs
/// between ops are copied wholesale. Substituting a symbol by itself is
/// allowed (costs 1 like any op) but never produced by this library's
/// algorithms.
ParenSeq ApplyScript(const ParenSeq& seq, const EditScript& script);

/// As above, writing into `*out` (cleared first). Lets callers with a
/// long-lived result object reuse its capacity across documents.
void ApplyScript(const ParenSeq& seq, const EditScript& script,
                 ParenSeq* out);

/// The zero-cost alignment `script` realizes on `seq`: the (open, close)
/// original-index pairs that the repaired sequence matches, sorted by open.
/// The survivors of a valid repair form a balanced sequence, which has
/// exactly one matching, so the alignment is a pure function of
/// (seq, script) and one O(n) stack pass recovers it. Inserted symbols take
/// part in the matching, but pairs with an inserted end are not reported.
/// Requires `script` to repair `seq` (checked, like ApplyScript's op order).
std::vector<std::pair<int64_t, int64_t>> AlignedPairs(
    ParenSpan seq, const EditScript& script);

/// Checks that `script` is well-formed for `seq`, costs `expected_cost`,
/// and that the repaired sequence is balanced.
Status ValidateScript(const ParenSeq& seq, const EditScript& script,
                      int64_t expected_cost, bool allow_substitutions,
                      bool allow_insertions = false);

/// Sentinel returned by PairCost when alignment is impossible.
inline constexpr int32_t kPairImpossible = 1 << 20;

/// Cost of aligning `left` (the earlier symbol) with `right` (the later) as
/// an (open, close) pair: 0 for an exact match; with substitutions, 1 when
/// one rewrite aligns them (open/close of different types, open/open,
/// close/close) and 2 for close/open; kPairImpossible when substitutions
/// are disallowed and the symbols do not match.
int32_t PairCost(const Paren& left, const Paren& right,
                 bool allow_substitutions);

/// Appends the substitutions (if any) realizing PairCost(seq[i], seq[j]).
/// Requires the cost to be realizable (< kPairImpossible).
void AppendPairAlignment(ParenSpan seq, int64_t i, int64_t j,
                         EditScript* script);

}  // namespace dyck

#endif  // DYCKFIX_SRC_CORE_EDIT_SCRIPT_H_
