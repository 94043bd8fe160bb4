#include "src/fpt/substitution.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/context.h"
#include "src/core/edit_script.h"
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

class SubstitutionSolver::Impl {
 public:
  explicit Impl(Reduced reduced)
      : owned_(std::move(reduced)),
        owned_heights_(ComputeHeights(owned_.seq)),
        owned_blocks_(BlockStructure::Build(owned_.seq)),
        reduced_(owned_),
        heights_(owned_heights_),
        blocks_(owned_blocks_),
        oracle_(owned_.seq),
        owned_arena_(std::make_unique<Arena>()),
        memo_(MakeMemo(owned_arena_.get())) {
    CheckSize();
  }

  Impl(const Reduced* reduced, RepairContext* context)
      : reduced_(*reduced),
        heights_(context->heights()),
        blocks_(context->blocks()),
        oracle_(reduced->seq, &context->wave_pool()),
        context_(context),
        memo_(MakeMemo(&context->arena())) {
    ComputeHeights(reduced_.seq, &heights_);
    blocks_.Rebuild(reduced_.seq);
    CheckSize();
  }

  std::optional<int64_t> Distance(int32_t d) {
    DYCK_CHECK_GE(d, 0);
    const int64_t n = static_cast<int64_t>(reduced_.seq.size());
    if (n == 0) return 0;
    // Claim 35: more than 2d valleys already witness edit2 > d.
    if (blocks_.num_valleys() > 2 * static_cast<int64_t>(d)) {
      return std::nullopt;
    }
    d_ = d;
    BuildLayers();
    memo_.clear();
    if (LayerOf(heights_[0]) < 0 ||
        LayerOf(heights_[0]) != LayerOf(heights_[n - 1])) {
      return std::nullopt;  // (1, |S|) not in E => distance > d
    }
    const int64_t v = A(0, n - 1);
    if (v > d) return std::nullopt;
    return v;
  }

  StatusOr<FptResult> Repair(int32_t d) {
    const std::optional<int64_t> dist = Distance(d);
    if (!dist.has_value()) {
      return Status::BoundExceeded("edit2 exceeds bound " +
                                   std::to_string(d));
    }
    FptResult result;
    result.distance = *dist;
    result.script.ops.reserve(static_cast<size_t>(*dist));
    if (!reduced_.seq.empty()) {
      DYCK_RETURN_NOT_OK(Reconstruct(
          0, static_cast<int64_t>(reduced_.seq.size()) - 1, &result.script));
    }
    for (EditOp& op : result.script.ops) {
      op.pos = reduced_.orig_pos[op.pos];
    }
    result.script.Normalize();
    DYCK_CHECK_EQ(result.script.Cost(), result.distance);
    return result;
  }

  int64_t reduced_size() const {
    return static_cast<int64_t>(reduced_.seq.size());
  }

  int64_t subproblem_count() const {
    return static_cast<int64_t>(memo_.size());
  }

 private:
  struct Layer {
    int64_t lo = 0;
    int64_t hi = 0;
  };

  struct Entry {
    int64_t value = kInf;
    // 1 = aligned-pair move, 2 = split at r, 3 = layer bridge (i', j').
    int8_t kase = 0;
    int64_t p1 = -1;
    int64_t p2 = -1;
  };

  static uint64_t Key(int64_t i, int64_t j) {
    return (static_cast<uint64_t>(i) << 32) | static_cast<uint64_t>(j);
  }

  static int64_t Sum(int64_t a, int64_t b) {
    return (a >= kInf || b >= kInf) ? kInf : a + b;
  }

  using MemoMap =
      std::unordered_map<uint64_t, Entry, std::hash<uint64_t>,
                         std::equal_to<uint64_t>,
                         ArenaAllocator<std::pair<const uint64_t, Entry>>>;

  static MemoMap MakeMemo(Arena* arena) {
    return MemoMap(0, std::hash<uint64_t>{}, std::equal_to<uint64_t>{},
                   ArenaAllocator<std::pair<const uint64_t, Entry>>(arena));
  }

  void CheckSize() const {
    // Guards the 32-bit (i, j) memo key packing; the reduced length bounds
    // every index the recursion touches.
    DYCK_CHECK_LT(static_cast<int64_t>(reduced_.seq.size()),
                  int64_t{1} << 31)
        << "sequences beyond 2^31 symbols are unsupported";
  }

  // The set H (peak and base heights) is exactly the heights of run
  // endpoints; L is their merged +-100d neighbourhoods (paper §4.2).
  void BuildLayers() {
    std::vector<int64_t>& anchors = anchors_;
    anchors.clear();
    anchors.reserve(2 * blocks_.runs().size());
    for (const Run& run : blocks_.runs()) {
      anchors.push_back(heights_[run.begin]);
      anchors.push_back(heights_[run.end - 1]);
    }
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()),
                  anchors.end());
    layers_.clear();
    const int64_t margin = 100 * static_cast<int64_t>(d_);
    for (int64_t v : anchors) {
      const int64_t lo = v - margin;
      const int64_t hi = v + margin;
      if (!layers_.empty() && lo <= layers_.back().hi) {
        layers_.back().hi = std::max(layers_.back().hi, hi);
      } else {
        layers_.push_back(Layer{lo, hi});
      }
    }
    BuildPositionIndexes();
  }

  // Per layer: every position whose height lies in the layer, and every
  // closing-run position in the layer's bottom zone. Both are unions of
  // arithmetic windows (heights are monotone within a run), so their total
  // size is O(#runs * layer width) = poly(d), independent of n.
  void BuildPositionIndexes() {
    // resize + per-slot clear instead of assign: the inner vectors keep
    // their capacity across doubling probes and documents.
    pos_in_layer_.resize(layers_.size());
    closing_bottom_.resize(layers_.size());
    for (auto& v : pos_in_layer_) v.clear();
    for (auto& v : closing_bottom_) v.clear();
    const int64_t zone = 10 * static_cast<int64_t>(d_);
    for (const Run& run : blocks_.runs()) {
      const int64_t h0 = heights_[run.begin];
      // Height at run.begin + s is h0 - s (opening) or h0 + s (closing).
      const int64_t step = run.is_open ? -1 : +1;
      const int64_t h_last = h0 + step * (run.size() - 1);
      const int64_t h_min = std::min(h0, h_last);
      const int64_t h_max = std::max(h0, h_last);
      for (size_t t = 0; t < layers_.size(); ++t) {
        const Layer& layer = layers_[t];
        if (layer.hi < h_min || layer.lo > h_max) continue;
        AppendWindow(run, h0, step, std::max(layer.lo, h_min),
                     std::min(layer.hi, h_max), &pos_in_layer_[t]);
        if (!run.is_open) {
          const int64_t blo = std::max(layer.lo, h_min);
          const int64_t bhi = std::min(layer.lo + zone, h_max);
          if (blo <= bhi) {
            AppendWindow(run, h0, step, blo, bhi, &closing_bottom_[t]);
          }
        }
      }
    }
    for (auto& v : pos_in_layer_) std::sort(v.begin(), v.end());
    for (auto& v : closing_bottom_) std::sort(v.begin(), v.end());
  }

  static void AppendWindow(const Run& run, int64_t h0, int64_t step,
                           int64_t lo, int64_t hi,
                           std::vector<int64_t>* out) {
    // Positions run.begin + s with h0 + step*s in [lo, hi].
    int64_t s_lo, s_hi;
    if (step > 0) {
      s_lo = lo - h0;
      s_hi = hi - h0;
    } else {
      s_lo = h0 - hi;
      s_hi = h0 - lo;
    }
    s_lo = std::max<int64_t>(s_lo, 0);
    s_hi = std::min(s_hi, run.size() - 1);
    for (int64_t s = s_lo; s <= s_hi; ++s) out->push_back(run.begin + s);
  }

  int LayerOf(int64_t height) const {
    // Last layer with lo <= height.
    auto it = std::upper_bound(
        layers_.begin(), layers_.end(), height,
        [](int64_t h, const Layer& l) { return h < l.lo; });
    if (it == layers_.begin()) return -1;
    --it;
    if (height > it->hi) return -1;
    return static_cast<int>(it - layers_.begin());
  }

  // Definition 39's "bottom neighbours in layer t" dispatch predicate.
  bool BottomNeighbors(int64_t i, int64_t j, int t) const {
    const int64_t zone_hi = layers_[t].lo + 10 * static_cast<int64_t>(d_);
    if (heights_[i] > zone_hi || heights_[j] > zone_hi) return false;
    if (!reduced_.seq[i].is_open || reduced_.seq[j].is_open) return false;
    // S_j's run must be the first closing run after i revisiting the zone.
    const auto& zone = closing_bottom_[t];
    const auto it = std::upper_bound(zone.begin(), zone.end(), i);
    DYCK_DCHECK(it != zone.end());  // j itself is in the zone
    return blocks_.run_of(*it) == blocks_.run_of(j);
  }

  int64_t A(int64_t i, int64_t j) {
    if (i > j) return 0;
    if (i == j) return 1;
    const uint64_t key = Key(i, j);
    if (auto it = memo_.find(key); it != memo_.end()) {
      return it->second.value;
    }
    Entry entry = Compute(i, j);
    if (entry.value > d_) entry.value = kInf;
    memo_[key] = entry;
    return entry.value;
  }

  Entry Compute(int64_t i, int64_t j) {
    // One budget step per memoized subproblem of recurrence (4).
    BudgetCheckpoint("fpt.substitution.solve");
    Entry best;
    const int ti = LayerOf(heights_[i]);
    if (ti < 0 || ti != LayerOf(heights_[j])) return best;  // not in E
    // Fact 36: a substitution moves endpoint heights by at most 2.
    if (std::abs(heights_[i] - heights_[j]) > 2 * int64_t{d_}) return best;
    // Claim 35 applied to the subrange.
    if (blocks_.NumValleysInRange(i, j) > 2 * d_) return best;

    if (ti > 0 && BottomNeighbors(i, j, ti)) {
      ComputeBridge(i, j, ti, &best);
    } else {
      ComputeInterval(i, j, ti, &best);
    }
    return best;
  }

  // Step 2: recurrence (4) restricted to E.
  void ComputeInterval(int64_t i, int64_t j, int ti, Entry* best) {
    const int32_t pc = PairCost(reduced_.seq[i], reduced_.seq[j],
                                /*allow_substitutions=*/true);
    if (pc < kPairImpossible) {
      const int64_t total = Sum(A(i + 1, j - 1), pc);
      if (total < best->value) *best = Entry{total, 1, -1, -1};
    }
    const auto& positions = pos_in_layer_[ti];
    for (auto it = std::lower_bound(positions.begin(), positions.end(), i);
         it != positions.end() && *it < j; ++it) {
      const int64_t r = *it;
      if (LayerOf(heights_[r + 1]) != ti) continue;  // (r+1, j) not in E
      const int64_t total = Sum(A(i, r), A(r + 1, j));
      if (total < best->value) *best = Entry{total, 2, r, -1};
    }
  }

  // Step 3: bridge through the height gap below layer t via top-neighbour
  // anchors (i', j') in layer t-1.
  void ComputeBridge(int64_t i, int64_t j, int ti, Entry* best) {
    const Layer& below = layers_[ti - 1];
    const int64_t zlo = below.hi - 10 * int64_t{d_};
    const int64_t zhi = below.hi;
    const Run& ri = blocks_.runs()[blocks_.run_of(i)];
    const Run& rj = blocks_.runs()[blocks_.run_of(j)];
    const int64_t hi_ = heights_[i];
    const int64_t hj_ = heights_[j];
    // i' strictly after i inside the same descending run, h(i') in the
    // ceiling zone of the layer below: h(i + s) = h(i) - s.
    const int64_t ip_lo = std::max(i + 1, i + (hi_ - zhi));
    const int64_t ip_hi = std::min(ri.end - 1, i + (hi_ - zlo));
    // j' before j inside the same ascending run: h(j - s) = h(j) - s.
    const int64_t jp_lo = std::max(rj.begin, j - (hj_ - zlo));
    const int64_t jp_hi = std::min(j - 1, j - (hj_ - zhi));
    if (ip_lo > ip_hi || jp_lo > jp_hi) return;

    // One wave table answers every bridge: prefixes of X = S[i, ip_hi)
    // against suffixes of Y = S[jp_lo + 1, j + 1).
    const WaveTable table = oracle_.BuildTable(
        i, ip_hi, jp_lo + 1, j + 1, d_, WaveMetric::kSubstitution);
    for (int64_t ip = ip_lo; ip <= ip_hi; ++ip) {
      // The anchor scan is the O(d^2) hot loop of Step 3; poll per row.
      BudgetCheckpoint("fpt.substitution.solve");
      for (int64_t jp = std::max(jp_lo, ip + 1); jp <= jp_hi; ++jp) {
        const std::optional<int32_t> bridge = table.Point(ip - i, j - jp);
        if (!bridge.has_value()) continue;
        const int64_t total = Sum(*bridge, A(ip, jp));
        if (total < best->value) *best = Entry{total, 3, ip, jp};
      }
    }
  }

  Status Reconstruct(int64_t p0, int64_t q0, EditScript* script) {
    std::vector<std::pair<int64_t, int64_t>> local_work;
    std::vector<std::pair<int64_t, int64_t>>& work =
        context_ != nullptr ? context_->work_stack() : local_work;
    work.clear();
    work.reserve(static_cast<size_t>(2 * d_ + 4));
    work.emplace_back(p0, q0);
    while (!work.empty()) {
      const auto [i, j] = work.back();
      work.pop_back();
      if (i > j) continue;
      if (i == j) {
        script->ops.push_back({EditOpKind::kDelete, i, Paren{}});
        continue;
      }
      const auto it = memo_.find(Key(i, j));
      if (it == memo_.end() || it->second.value >= kInf) {
        return Status::Internal("reconstruction hit an unsolved subproblem");
      }
      const Entry& entry = it->second;
      switch (entry.kase) {
        case 1:
          AppendPairAlignment(reduced_.seq, i, j, script);
          work.emplace_back(i + 1, j - 1);
          break;
        case 2:
          work.emplace_back(i, entry.p1);
          work.emplace_back(entry.p1 + 1, j);
          break;
        case 3: {
          DYCK_RETURN_NOT_OK(
              EmitBridgeOps(i, entry.p1, entry.p2, j, script));
          work.emplace_back(entry.p1, entry.p2);
          break;
        }
        default:
          return Status::Internal("corrupt memo entry");
      }
    }
    return Status::OK();
  }

  // Expands one bridge leaf: the pair-metric alignment of the descending
  // fragment S[i, i') against the ascending fragment S[j'+1, j] (reversed).
  Status EmitBridgeOps(int64_t i, int64_t ip, int64_t jp, int64_t j,
                       EditScript* script) {
    DYCK_ASSIGN_OR_RETURN(const BandedResult aligned,
                          oracle_.AlignPair(i, ip, jp + 1, j + 1, d_,
                                            WaveMetric::kSubstitution));
    const ParenSeq& s = reduced_.seq;
    for (const PairOp& op : aligned.ops) {
      const int64_t pa = i + op.a_pos;  // position in the opening fragment
      const int64_t pb = j - op.b_pos;  // position in the closing fragment
      switch (op.kind) {
        case PairOpKind::kMatch:
          break;
        case PairOpKind::kDeleteA:
          script->ops.push_back({EditOpKind::kDelete, pa, Paren{}});
          break;
        case PairOpKind::kDeleteB:
          script->ops.push_back({EditOpKind::kDelete, pb, Paren{}});
          break;
        case PairOpKind::kSubstitute:
          // Opening pa vs closing pb of a different type: rewrite the
          // closer to match.
          script->ops.push_back(
              {EditOpKind::kSubstitute, pb, Paren::Close(s[pa].type)});
          break;
        case PairOpKind::kDoubleDeleteA:
          // Two consecutive openings leave the alignment: "((" -> "()".
          script->ops.push_back({EditOpKind::kSubstitute, pa + 1,
                                 Paren::Close(s[pa].type)});
          break;
        case PairOpKind::kDoubleDeleteB:
          // Two consecutive closings (pb-1, pb): "))" -> "()".
          script->ops.push_back({EditOpKind::kSubstitute, pb - 1,
                                 Paren::Open(s[pb].type)});
          break;
      }
    }
    return Status::OK();
  }

  // Legacy owning path: owned_* hold the data and the references below
  // bind to them. Context path: the references bind to the context's
  // scratch and owned_* stay empty.
  Reduced owned_;
  std::vector<int64_t> owned_heights_;
  BlockStructure owned_blocks_;
  const Reduced& reduced_;
  std::vector<int64_t>& heights_;
  BlockStructure& blocks_;
  PairOracle oracle_;
  RepairContext* context_ = nullptr;
  std::unique_ptr<Arena> owned_arena_;  // null on the context path
  int32_t d_ = 0;
  std::vector<Layer> layers_;
  std::vector<int64_t> anchors_;
  std::vector<std::vector<int64_t>> pos_in_layer_;
  std::vector<std::vector<int64_t>> closing_bottom_;
  MemoMap memo_;
};

SubstitutionSolver::SubstitutionSolver(ParenSpan seq)
    : impl_(std::make_unique<Impl>(Reduce(seq))) {}

SubstitutionSolver::SubstitutionSolver(Reduced reduced)
    : impl_(std::make_unique<Impl>(std::move(reduced))) {}

SubstitutionSolver::SubstitutionSolver(const Reduced* reduced,
                                       RepairContext* context)
    : impl_(std::make_unique<Impl>(reduced, context)) {}

SubstitutionSolver::~SubstitutionSolver() = default;
SubstitutionSolver::SubstitutionSolver(SubstitutionSolver&&) noexcept =
    default;
SubstitutionSolver& SubstitutionSolver::operator=(
    SubstitutionSolver&&) noexcept = default;

std::optional<int64_t> SubstitutionSolver::Distance(int32_t d) {
  return impl_->Distance(d);
}

StatusOr<FptResult> SubstitutionSolver::Repair(int32_t d) {
  return impl_->Repair(d);
}

int64_t SubstitutionSolver::reduced_size() const {
  return impl_->reduced_size();
}

int64_t SubstitutionSolver::last_subproblem_count() const {
  return impl_->subproblem_count();
}

int64_t FptSubstitutionDistance(const ParenSeq& seq) {
  SubstitutionSolver solver(seq);
  for (int64_t d = 1;; d *= 2) {
    const int32_t bound =
        static_cast<int32_t>(std::min<int64_t>(d, 1 + seq.size()));
    if (const auto v = solver.Distance(bound); v.has_value()) return *v;
  }
}

FptResult FptSubstitutionRepair(const ParenSeq& seq) {
  SubstitutionSolver solver(seq);
  for (int64_t d = 1;; d *= 2) {
    const int32_t bound =
        static_cast<int32_t>(std::min<int64_t>(d, 1 + seq.size()));
    auto result = solver.Repair(bound);
    if (result.ok()) return std::move(result).value();
    DYCK_CHECK(result.status().IsBoundExceeded()) << result.status();
  }
}

}  // namespace dyck
