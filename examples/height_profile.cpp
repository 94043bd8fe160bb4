// Reproduces the paper's Figures 1-3: the height function h (Definition
// 15) of an unbalanced sequence, of a balanced sequence with its alignment,
// and the optimal alignment of the unbalanced sequence drawn on its
// profile.

#include <cstdio>
#include <string>

#include "src/core/dyck.h"
#include "src/profile/height.h"

namespace {

void Show(const std::string& title, const std::string& text,
          bool with_alignment) {
  auto seq = dyck::ParenAlphabet::Default().Parse(text).value();
  std::printf("%s\n  S = %s\n", title.c_str(), text.c_str());
  if (!with_alignment) {
    std::printf("%s\n", dyck::RenderProfile(seq).c_str());
    return;
  }
  const auto repair = dyck::Repair(seq, {}).value();
  std::printf("  distance to Dyck = %lld; aligned pairs drawn as '*'\n",
              static_cast<long long>(repair.distance));
  std::printf(
      "%s\n",
      dyck::RenderProfile(seq, dyck::AlignedPairs(seq, repair.script)).c_str());
}

}  // namespace

int main() {
  // Figure 1: height function of an unbalanced sequence (the paper's
  // 9-symbol example shape: "(())){}()" style).
  Show("Figure 1: height function of an unbalanced sequence", "(()){)[(]",
       /*with_alignment=*/false);

  // Figure 2: a balanced sequence; every aligned pair sits at one height
  // and the connecting lines never cross the profile.
  Show("Figure 2: balanced sequence with its alignment", "(()){}",
       /*with_alignment=*/true);

  // Figure 3: the unbalanced sequence again, with the alignment induced by
  // an optimal repair (dotted arcs in the paper).
  Show("Figure 3: optimal alignment of the unbalanced sequence",
       "(()){)[(]", /*with_alignment=*/true);
  return 0;
}
