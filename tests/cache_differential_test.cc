// Differential guarantee of the content-hash repair cache: with a cache
// configured, every repair result — distance, edit script, repaired
// sequence, solver attribution — is byte-identical to the cache-off run,
// across {auto, fpt, cubic, approx} x both metrics x fresh/reused
// contexts, through every entry path (pipeline, RepairDoc, batch engine).
// The cache may change *when* an answer is computed, never *what* it is.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cache/repair_cache.h"
#include "src/core/context.h"
#include "src/core/doc.h"
#include "src/core/dyck.h"
#include "src/gen/workload.h"
#include "src/pipeline/pipeline.h"
#include "src/runtime/batch_engine.h"
#include "src/textio/bracket_tokenizer.h"

namespace dyck {
namespace {

ParenSeq Tokens(const std::string& text) {
  return textio::TokenizeBrackets(text, ParenAlphabet::Default()).seq;
}

std::vector<ParenSeq> Corpus() {
  std::vector<ParenSeq> docs = {
      Tokens(""),        Tokens("()"),         Tokens(")("),
      Tokens("(()[]"),   Tokens("([)]"),       Tokens("((((("),
      Tokens(")]}>"),    Tokens("(x[y{z<w>}])"),
  };
  for (int i = 0; i < 6; ++i) {
    gen::BalancedOptions balanced;
    balanced.length = 64 + 16 * i;
    gen::CorruptionOptions corrupt;
    corrupt.num_edits = 1 + i;
    docs.push_back(
        gen::Corrupt(gen::RandomBalanced(balanced, 900 + 2 * i), corrupt,
                     901 + 2 * i)
            .seq);
  }
  // Repeats: the second occurrence is the one served from the cache.
  const size_t unique = docs.size();
  for (size_t i = 0; i < unique; ++i) docs.push_back(docs[i]);
  return docs;
}

std::vector<Options> OptionGrid() {
  std::vector<Options> grid;
  for (const std::string solver : {"auto", "fpt", "cubic", "approx"}) {
    for (const Metric metric :
         {Metric::kDeletionsAndSubstitutions, Metric::kDeletionsOnly}) {
      Options options;
      options.solver = solver;
      options.metric = metric;
      if (solver == "approx") {
        options.max_approximation_factor = 3.0;
      }
      grid.push_back(options);
    }
  }
  return grid;
}

void ExpectSameResult(const StatusOr<RepairResult>& reference,
                      const StatusOr<RepairResult>& cached,
                      const std::string& label) {
  ASSERT_EQ(reference.ok(), cached.ok())
      << label << ": " << (reference.ok() ? cached : reference)
                              .status()
                              .ToString();
  if (!reference.ok()) return;
  EXPECT_EQ(reference->distance, cached->distance) << label;
  EXPECT_TRUE(ParenSpan(reference->repaired) == ParenSpan(cached->repaired))
      << label;
  EXPECT_EQ(reference->script.ToString(), cached->script.ToString())
      << label;
  EXPECT_EQ(reference->degraded, cached->degraded) << label;
  EXPECT_EQ(reference->telemetry.solver_name, cached->telemetry.solver_name)
      << label;
  EXPECT_EQ(reference->telemetry.certified_factor,
            cached->telemetry.certified_factor)
      << label;
}

TEST(CacheDifferentialTest, PipelineFreshContexts) {
  const std::vector<ParenSeq> docs = Corpus();
  for (const Options& base : OptionGrid()) {
    cache::RepairCache cache(1 << 22);
    Options cached_options = base;
    cached_options.cache = &cache;
    for (size_t i = 0; i < docs.size(); ++i) {
      const auto reference = Repair(docs[i], base);
      const auto cached = Repair(docs[i], cached_options);
      ExpectSameResult(reference, cached,
                       "doc " + std::to_string(i) + " solver " +
                           base.solver);
    }
    // The repeated half of the corpus must actually have hit.
    EXPECT_GT(cache.Stats().hits, 0);
  }
}

TEST(CacheDifferentialTest, PipelineReusedContext) {
  // One warm context on each side: cached results must be identical even
  // when scratch arenas carry state from prior documents.
  const std::vector<ParenSeq> docs = Corpus();
  for (const Options& base : OptionGrid()) {
    cache::RepairCache cache(1 << 22);
    Options cached_options = base;
    cached_options.cache = &cache;
    RepairContext reference_ctx;
    RepairContext cached_ctx;
    for (size_t i = 0; i < docs.size(); ++i) {
      RepairResult reference, cached;
      const Status ref_status =
          pipeline::RunInto(docs[i], base, &reference_ctx, &reference);
      const Status cached_status =
          pipeline::RunInto(docs[i], cached_options, &cached_ctx, &cached);
      ASSERT_EQ(ref_status.ok(), cached_status.ok());
      if (!ref_status.ok()) continue;
      EXPECT_EQ(reference.distance, cached.distance);
      EXPECT_TRUE(ParenSpan(reference.repaired) == ParenSpan(cached.repaired));
      EXPECT_EQ(reference.script.ToString(), cached.script.ToString());
    }
  }
}

TEST(CacheDifferentialTest, RepairDocWholeDocCache) {
  // The incremental RepairDoc consults the cache by whole-document hash;
  // replaying the same edit script on cached and uncached docs must stay
  // in lockstep, including after a splice back to a previously seen state.
  for (const Options& base : OptionGrid()) {
    cache::RepairCache cache(1 << 22);
    Options cached_options = base;
    cached_options.cache = &cache;

    RepairDoc reference_doc(Tokens("(()[]{}"));
    RepairDoc cached_doc(Tokens("(()[]{}"));
    const auto check = [&](const std::string& label) {
      RepairResult reference, cached;
      const Status ref_status = reference_doc.RepairInto(base, &reference);
      const Status cached_status =
          cached_doc.RepairInto(cached_options, &cached);
      ASSERT_EQ(ref_status.ok(), cached_status.ok()) << label;
      if (!ref_status.ok()) return;
      EXPECT_EQ(reference.distance, cached.distance) << label;
      EXPECT_TRUE(ParenSpan(reference.repaired) ==
                  ParenSpan(cached.repaired))
          << label;
      EXPECT_EQ(reference.script.ToString(), cached.script.ToString())
          << label;
    };

    check("initial");
    reference_doc.Splice(2, 1, Tokens("[["));
    cached_doc.Splice(2, 1, Tokens("[["));
    check("after splice");
    reference_doc.Splice(2, 2, Tokens(")"));
    cached_doc.Splice(2, 2, Tokens(")"));
    check("after second splice");
    // Back to the original content: the cached doc now hits its own seed.
    reference_doc.Splice(2, 1, Tokens(")"));
    cached_doc.Splice(2, 1, Tokens(")"));
    check("after revert");
  }
}

TEST(CacheDifferentialTest, BatchEngineSharedCache) {
  const std::vector<ParenSeq> docs = Corpus();
  for (const Options& base : OptionGrid()) {
    runtime::BatchRepairEngine plain({.jobs = 2});
    runtime::BatchOptions cached_batch;
    cached_batch.jobs = 2;
    cached_batch.cache_bytes = 1 << 22;
    runtime::BatchRepairEngine cached(cached_batch);

    const auto reference = plain.RepairAll(docs, base);
    // Two passes through the cached engine: the second is fully warm.
    cached.RepairAll(docs, base);
    const auto warm = cached.RepairAll(docs, base);
    ASSERT_EQ(reference.results.size(), warm.results.size());
    for (size_t i = 0; i < reference.results.size(); ++i) {
      ExpectSameResult(reference.results[i], warm.results[i],
                       "batch doc " + std::to_string(i));
    }
    ASSERT_NE(cached.repair_cache(), nullptr);
    EXPECT_GT(cached.repair_cache()->Stats().hits, 0);
  }
}

}  // namespace
}  // namespace dyck
