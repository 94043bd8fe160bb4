#include "src/fpt/deletion.h"

#include <algorithm>
#include <optional>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/context.h"
#include "src/fpt/oracle.h"
#include "src/profile/height.h"
#include "src/profile/reduce.h"
#include "src/profile/valleys.h"
#include "src/util/arena.h"
#include "src/util/budget.h"
#include "src/util/logging.h"

namespace dyck {

namespace {
constexpr int64_t kInf = int64_t{1} << 50;
}  // namespace

// Theorem 25's per-subproblem backend: the full O(|A| * |B|) deletion-
// distance table for A = U(X), B = rev(U(Y)), queryable at any (r, c).
class QuadraticPairTable {
 public:
  QuadraticPairTable(std::vector<int32_t> a, std::vector<int32_t> b)
      : a_(std::move(a)), b_(std::move(b)), cols_(b_.size() + 1) {
    const int64_t rows = static_cast<int64_t>(a_.size()) + 1;
    dp_.resize(rows * cols_);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols_; ++c) {
        int32_t& cell = dp_[r * cols_ + c];
        if (r == 0) {
          cell = static_cast<int32_t>(c);
        } else if (c == 0) {
          cell = static_cast<int32_t>(r);
        } else {
          const int32_t mismatch = a_[r - 1] == b_[c - 1] ? 0 : 2;
          cell = std::min({dp_[(r - 1) * cols_ + c] + 1,
                           dp_[r * cols_ + c - 1] + 1,
                           dp_[(r - 1) * cols_ + c - 1] + mismatch});
        }
      }
    }
  }

  std::optional<int32_t> Point(int64_t r, int64_t c, int32_t max_d) const {
    const int32_t v = dp_[r * cols_ + c];
    if (v > max_d) return std::nullopt;
    return v;
  }

 private:
  std::vector<int32_t> a_;
  std::vector<int32_t> b_;
  int64_t cols_;
  std::vector<int32_t> dp_;
};

class DeletionSolver::Impl {
 public:
  Impl(Reduced reduced, DeletionOracleKind oracle_kind)
      : oracle_kind_(oracle_kind),
        owned_(std::move(reduced)),
        reduced_(&owned_),
        owned_heights_(ComputeHeights(reduced_->seq)),
        heights_(&owned_heights_),
        owned_blocks_(BlockStructure::Build(reduced_->seq)),
        blocks_(&owned_blocks_),
        oracle_(reduced_->seq),
        owned_arena_(std::make_unique<Arena>()),
        memo_(MakeMemo(owned_arena_.get())) {
    CheckSize();
  }

  Impl(const Reduced* reduced, RepairContext* context,
       DeletionOracleKind oracle_kind)
      : oracle_kind_(oracle_kind),
        reduced_(reduced),
        heights_(&context->heights()),
        blocks_(&context->blocks()),
        oracle_(reduced_->seq, &context->wave_pool()),
        context_(context),
        memo_(MakeMemo(&context->arena())) {
    ComputeHeights(reduced_->seq, heights_);
    blocks_->Rebuild(reduced_->seq);
    CheckSize();
  }

  std::optional<int64_t> Distance(int32_t d) {
    DYCK_CHECK_GE(d, 0);
    if (reduced_->seq.empty()) return 0;
    d_ = d;
    memo_.clear();
    memo_.reserve(64);
    const int64_t v =
        Solve(0, static_cast<int64_t>(reduced_->seq.size()) - 1);
    if (v > d) return std::nullopt;
    return v;
  }

  StatusOr<FptResult> Repair(int32_t d) {
    const std::optional<int64_t> dist = Distance(d);
    if (!dist.has_value()) {
      return Status::BoundExceeded("edit1 exceeds bound " +
                                   std::to_string(d));
    }
    FptResult result;
    result.distance = *dist;
    result.script.ops.reserve(static_cast<size_t>(*dist));
    if (!reduced_->seq.empty()) {
      DYCK_RETURN_NOT_OK(Reconstruct(
          0, static_cast<int64_t>(reduced_->seq.size()) - 1,
          &result.script));
    }
    // Translate reduced indices to original ones.
    for (EditOp& op : result.script.ops) {
      op.pos = reduced_->orig_pos[op.pos];
    }
    result.script.Normalize();
    DYCK_CHECK_EQ(result.script.Cost(), result.distance);
    return result;
  }

  int64_t reduced_size() const {
    return static_cast<int64_t>(reduced_->seq.size());
  }

  int64_t subproblem_count() const {
    return static_cast<int64_t>(memo_.size());
  }

 private:
  struct Entry {
    int64_t value = kInf;
    int8_t kase = 0;  // 1, 2, 3 per the paper's case analysis
    int64_t i = -1;   // Case 2: last index of D'_1
    int64_t j = -1;   // Case 2: first index of U'_k
    int64_t t = -1;   // Cases 2/3: split position (start of the right part)
  };

  static uint64_t Key(int64_t p, int64_t q) {
    return (static_cast<uint64_t>(p) << 32) | static_cast<uint64_t>(q);
  }

  using MemoMap =
      std::unordered_map<uint64_t, Entry, std::hash<uint64_t>,
                         std::equal_to<uint64_t>,
                         ArenaAllocator<std::pair<const uint64_t, Entry>>>;
  using SplitVec = std::vector<int64_t, ArenaAllocator<int64_t>>;

  static MemoMap MakeMemo(Arena* arena) {
    return MemoMap(0, std::hash<uint64_t>{}, std::equal_to<uint64_t>{},
                   ArenaAllocator<std::pair<const uint64_t, Entry>>(arena));
  }

  void CheckSize() const {
    // Guards the 32-bit (p, q) memo key packing; the reduced length bounds
    // every index the recursion touches.
    DYCK_CHECK_LT(static_cast<int64_t>(reduced_->seq.size()),
                  int64_t{1} << 31)
        << "sequences beyond 2^31 symbols are unsupported";
  }

  int64_t Solve(int64_t p, int64_t q) {
    if (p > q) return 0;
    const uint64_t key = Key(p, q);
    if (auto it = memo_.find(key); it != memo_.end()) {
      return it->second.value;
    }
    // Reserve the slot first: the recursion never revisits (p, q) before
    // Compute returns (subproblems strictly shrink), so this only guards
    // against pathological rehashing costs.
    Entry entry = Compute(p, q);
    if (entry.value > d_) entry.value = kInf;
    memo_[key] = entry;
    return entry.value;
  }

  // Valley-boundary split positions inside [p, q]: every end of a closing
  // run except U_k's (paper's r in {1, ..., k-1}). Arena-backed: the list
  // dies with the subproblem, and the arena rewinds with the document.
  SplitVec SplitPoints(int64_t p, int64_t q) const {
    SplitVec splits(ArenaAllocator<int64_t>(memo_.get_allocator().arena()));
    const int rf = blocks_->run_of(p);
    const int rl = blocks_->run_of(q);
    splits.reserve(static_cast<size_t>(rl - rf + 1));
    for (int r = rf; r <= rl; ++r) {
      const Run& run = blocks_->runs()[r];
      if (!run.is_open && run.end <= q) splits.push_back(run.end);
    }
    return splits;
  }

  Entry Compute(int64_t p, int64_t q) {
    // One budget step per memoized subproblem, so max_work_steps caps the
    // paper's poly(d) subproblem count directly.
    BudgetCheckpoint("fpt.deletion.solve");
    Entry best;
    const std::vector<int64_t>& heights = *heights_;
    // Fact 20: far-apart endpoint heights force more than d edits.
    if (std::abs(heights[q] - heights[p]) > d_) return best;
    // Claim 21: each valley costs at least one edit.
    const int k_range = blocks_->NumValleysInRange(p, q);
    if (k_range > d_) return best;

    const Run& rf = blocks_->runs()[blocks_->run_of(p)];
    const Run& rl = blocks_->runs()[blocks_->run_of(q)];

    if (k_range <= 1) {
      // Case 1: one valley; a single oracle query.
      int64_t x_begin = p;
      int64_t x_end = p;
      int64_t y_begin = q + 1;
      int64_t y_end = q + 1;
      if (rf.is_open) x_end = std::min(rf.end, q + 1);
      if (!rl.is_open) y_begin = std::max(rl.begin, p);
      std::optional<int32_t> v;
      if (oracle_kind_ == DeletionOracleKind::kWaveOracle) {
        v = oracle_.PairDistance(x_begin, x_end, y_begin, y_end, d_,
                                 WaveMetric::kDeletion);
      } else {
        const QuadraticPairTable table(TypesOf(x_begin, x_end),
                                       TypesOfReversed(y_begin, y_end));
        v = table.Point(x_end - x_begin, y_end - y_begin, d_);
      }
      if (v.has_value()) {
        best.value = *v;
        best.kase = 1;
      }
      return best;
    }

    const SplitVec splits = SplitPoints(p, q);

    // Case 3 (Lemma 24): split at a valley boundary.
    for (int64_t t : splits) {
      const int64_t total = Sum(Solve(p, t - 1), Solve(t, q));
      if (total < best.value) {
        best = Entry{total, 3, -1, -1, t};
      }
    }

    // Case 2 (Lemma 23): some D_1 symbol aligns with some U_k symbol.
    if (rf.is_open && !rl.is_open && !splits.empty()) {
      const int64_t d1_end = std::min(rf.end, q + 1);
      const int64_t uk_begin = std::max(rl.begin, p);
      // l = the highest intermediate peak (the paper's "l := max_i h(i)"
      // ranges over the i_t marking the last symbols of U_1..U_{k-1}).
      // The rightmost good pair sits within O(d) of it: the middle parts
      // of decomposition (3) have endpoint heights within d of their
      // peak (Fact 20), and a peak can rise above a repairable
      // subsequence's endpoints by at most O(d).
      int64_t l = heights[splits.front() - 1];
      for (int64_t t : splits) l = std::max(l, heights[t - 1]);
      // Heights decrease by one per step inside an opening run, so the
      // window |h(i) - l| <= 10d is a contiguous stretch of D_1; similarly
      // for the closing run U_k.
      const int64_t i_lo =
          std::max(p, p + (heights[p] - l) - 10 * int64_t{d_});
      const int64_t i_hi =
          std::min(d1_end - 1, p + (heights[p] - l) + 10 * int64_t{d_});
      const int64_t j_lo =
          std::max(uk_begin, q - (heights[q] - l) - 10 * int64_t{d_});
      const int64_t j_hi =
          std::min(q, q - (heights[q] - l) + 10 * int64_t{d_});
      if (i_hi >= i_lo && j_hi >= j_lo) {
        std::optional<WaveTable> wave;
        std::optional<QuadraticPairTable> quadratic;
        if (oracle_kind_ == DeletionOracleKind::kWaveOracle) {
          wave.emplace(oracle_.BuildTable(p, d1_end, uk_begin, q + 1, d_,
                                          WaveMetric::kDeletion));
        } else {
          quadratic.emplace(TypesOf(p, d1_end),
                            TypesOfReversed(uk_begin, q + 1));
        }
        for (int64_t i = i_lo; i <= i_hi; ++i) {
          // The O(d^2) good-pair scan dominates Case 2; poll per row so a
          // tripped budget interrupts it within O(d) pair probes.
          BudgetCheckpoint("fpt.deletion.solve");
          for (int64_t j = j_lo; j <= j_hi; ++j) {
            const std::optional<int32_t> pair_cost =
                wave.has_value() ? wave->Point(i - p + 1, q - j + 1)
                                 : quadratic->Point(i - p + 1, q - j + 1,
                                                    d_);
            if (!pair_cost.has_value()) continue;
            for (int64_t t : splits) {
              const int64_t total =
                  Sum(*pair_cost, Sum(Solve(i + 1, t - 1), Solve(t, j - 1)));
              if (total < best.value) {
                best = Entry{total, 2, i, j, t};
              }
            }
          }
        }
      }
    }
    return best;
  }

  static int64_t Sum(int64_t a, int64_t b) {
    return (a >= kInf || b >= kInf) ? kInf : a + b;
  }

  Status Reconstruct(int64_t p0, int64_t q0, EditScript* script) {
    std::vector<std::pair<int64_t, int64_t>> local_work;
    std::vector<std::pair<int64_t, int64_t>>& work =
        context_ != nullptr ? context_->work_stack() : local_work;
    work.clear();
    // Each Case 2/3 pops one subproblem and pushes two, and the recursion
    // depth is bounded by the d splits, so 2d + 4 slots suffice.
    work.reserve(static_cast<size_t>(2 * d_ + 4));
    work.emplace_back(p0, q0);
    while (!work.empty()) {
      const auto [p, q] = work.back();
      work.pop_back();
      if (p > q) continue;
      const auto it = memo_.find(Key(p, q));
      if (it == memo_.end() || it->second.value >= kInf) {
        return Status::Internal("reconstruction hit an unsolved subproblem");
      }
      const Entry& entry = it->second;
      switch (entry.kase) {
        case 1: {
          const Run& rf = blocks_->runs()[blocks_->run_of(p)];
          const Run& rl = blocks_->runs()[blocks_->run_of(q)];
          int64_t x_begin = p, x_end = p, y_begin = q + 1, y_end = q + 1;
          if (rf.is_open) x_end = std::min(rf.end, q + 1);
          if (!rl.is_open) y_begin = std::max(rl.begin, p);
          DYCK_RETURN_NOT_OK(
              EmitPairOps(x_begin, x_end, y_begin, y_end, script));
          break;
        }
        case 2: {
          DYCK_RETURN_NOT_OK(
              EmitPairOps(p, entry.i + 1, entry.j, q + 1, script));
          work.emplace_back(entry.i + 1, entry.t - 1);
          work.emplace_back(entry.t, entry.j - 1);
          break;
        }
        case 3: {
          work.emplace_back(p, entry.t - 1);
          work.emplace_back(entry.t, q);
          break;
        }
        default:
          return Status::Internal("corrupt memo entry");
      }
    }
    return Status::OK();
  }

  // Expands the leaf pair (X, Y) into deletions on reduced indices.
  Status EmitPairOps(int64_t x_begin, int64_t x_end, int64_t y_begin,
                     int64_t y_end, EditScript* script) {
    DYCK_ASSIGN_OR_RETURN(
        const BandedResult aligned,
        oracle_.AlignPair(x_begin, x_end, y_begin, y_end, d_,
                          WaveMetric::kDeletion));
    for (const PairOp& op : aligned.ops) {
      switch (op.kind) {
        case PairOpKind::kMatch:
          break;
        case PairOpKind::kDeleteA:
          script->ops.push_back(
              {EditOpKind::kDelete, x_begin + op.a_pos, Paren{}});
          break;
        case PairOpKind::kDeleteB:
          script->ops.push_back(
              {EditOpKind::kDelete, y_end - 1 - op.b_pos, Paren{}});
          break;
        default:
          return Status::Internal(
              "substitution op under the deletion metric");
      }
    }
    return Status::OK();
  }

  // U(X) for X = reduced[begin, end): the type ids in order.
  std::vector<int32_t> TypesOf(int64_t begin, int64_t end) const {
    std::vector<int32_t> out;
    out.reserve(end - begin);
    for (int64_t i = begin; i < end; ++i) {
      out.push_back(reduced_->seq[i].type);
    }
    return out;
  }

  // rev(U(Y)) for Y = reduced[begin, end).
  std::vector<int32_t> TypesOfReversed(int64_t begin, int64_t end) const {
    std::vector<int32_t> out;
    out.reserve(end - begin);
    for (int64_t i = end - 1; i >= begin; --i) {
      out.push_back(reduced_->seq[i].type);
    }
    return out;
  }

  DeletionOracleKind oracle_kind_;
  // Legacy owning path: owned_ holds the reduction and reduced_ points at
  // it. Context path: reduced_ borrows the caller's (owned_ stays empty),
  // and heights_/blocks_/memo_ storage all live on the context.
  Reduced owned_;
  const Reduced* reduced_;
  std::vector<int64_t> owned_heights_;
  std::vector<int64_t>* heights_;
  BlockStructure owned_blocks_;
  BlockStructure* blocks_;
  PairOracle oracle_;
  RepairContext* context_ = nullptr;
  std::unique_ptr<Arena> owned_arena_;  // null on the context path
  int32_t d_ = 0;
  MemoMap memo_;
};

DeletionSolver::DeletionSolver(ParenSpan seq, DeletionOracleKind oracle)
    : impl_(std::make_unique<Impl>(Reduce(seq), oracle)) {}

DeletionSolver::DeletionSolver(Reduced reduced, DeletionOracleKind oracle)
    : impl_(std::make_unique<Impl>(std::move(reduced), oracle)) {}

DeletionSolver::DeletionSolver(const Reduced* reduced,
                               RepairContext* context,
                               DeletionOracleKind oracle)
    : impl_(std::make_unique<Impl>(reduced, context, oracle)) {}

DeletionSolver::~DeletionSolver() = default;
DeletionSolver::DeletionSolver(DeletionSolver&&) noexcept = default;
DeletionSolver& DeletionSolver::operator=(DeletionSolver&&) noexcept =
    default;

std::optional<int64_t> DeletionSolver::Distance(int32_t d) {
  return impl_->Distance(d);
}

StatusOr<FptResult> DeletionSolver::Repair(int32_t d) {
  return impl_->Repair(d);
}

int64_t DeletionSolver::reduced_size() const { return impl_->reduced_size(); }

int64_t DeletionSolver::last_subproblem_count() const {
  return impl_->subproblem_count();
}

int64_t FptDeletionDistance(const ParenSeq& seq) {
  DeletionSolver solver(seq);
  for (int64_t d = 1;; d *= 2) {
    const int32_t bound =
        static_cast<int32_t>(std::min<int64_t>(d, 1 + seq.size()));
    if (const auto v = solver.Distance(bound); v.has_value()) return *v;
  }
}

FptResult FptDeletionRepair(const ParenSeq& seq) {
  DeletionSolver solver(seq);
  for (int64_t d = 1;; d *= 2) {
    const int32_t bound =
        static_cast<int32_t>(std::min<int64_t>(d, 1 + seq.size()));
    auto result = solver.Repair(bound);
    if (result.ok()) return std::move(result).value();
    DYCK_CHECK(result.status().IsBoundExceeded()) << result.status();
  }
}

}  // namespace dyck
