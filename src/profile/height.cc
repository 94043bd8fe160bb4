#include "src/profile/height.h"

#include <algorithm>

#include "src/simd/simd.h"

namespace dyck {

HeightSummary SummarizeHeight(ParenSpan seq) {
  const simd::SpanHeight h = simd::Summarize(seq.data(), seq.size());
  HeightSummary s;
  s.net = h.net;
  s.min_prefix = h.min_prefix;
  return s;
}

int64_t SummaryLowerBound(const HeightSummary& s, bool allow_substitutions) {
  const int64_t closes = -s.min_prefix;
  const int64_t opens = s.net - s.min_prefix;
  if (allow_substitutions) return (closes + 1) / 2 + (opens + 1) / 2;
  return closes + opens;
}

std::vector<int64_t> ComputeHeights(ParenSpan seq) {
  std::vector<int64_t> h;
  ComputeHeights(seq, &h);
  return h;
}

void ComputeHeights(ParenSpan seq, std::vector<int64_t>* out) {
  std::vector<int64_t>& h = *out;
  h.resize(seq.size());
  if (seq.empty()) return;
  h[0] = 0;
  for (size_t i = 1; i < seq.size(); ++i) {
    if (seq[i - 1].is_open == seq[i].is_open) {
      h[i] = h[i - 1] + (seq[i].is_open ? -1 : +1);
    } else {
      h[i] = h[i - 1];
    }
  }
}

std::string RenderProfile(
    ParenSpan seq,
    const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  if (seq.empty()) return "(empty sequence)\n";
  const std::vector<int64_t> h = ComputeHeights(seq);
  const int64_t h_min = *std::min_element(h.begin(), h.end());
  const int64_t h_max = *std::max_element(h.begin(), h.end());
  const int64_t rows = h_max - h_min + 1;
  const int64_t cols = static_cast<int64_t>(seq.size());

  // grid[row][col]; row 0 is the highest height.
  std::vector<std::string> grid(rows, std::string(cols, ' '));
  const std::string text = ToString(seq);
  for (int64_t i = 0; i < cols; ++i) {
    grid[h_max - h[i]][i] = text[std::min<int64_t>(i, text.size() - 1)];
  }
  for (const auto& [a, b] : pairs) {
    if (a < 0 || b < 0 || a >= cols || b >= cols) continue;
    grid[h_max - h[a]][a] = '*';
    grid[h_max - h[b]][b] = '*';
    // Draw the connecting line at the height of the left endpoint where the
    // cell is free (dotted, as in Figure 3).
    const int64_t row = h_max - h[a];
    for (int64_t c = a + 1; c < b; ++c) {
      if (grid[row][c] == ' ') grid[row][c] = '.';
    }
  }

  std::string out;
  for (int64_t r = 0; r < rows; ++r) {
    out += std::to_string(h_max - r);
    out += "\t|";
    out += grid[r];
    out += '\n';
  }
  return out;
}

}  // namespace dyck
