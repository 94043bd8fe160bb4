// Differential tests for the batch runtime: RepairBatch must be
// byte-identical to serial Repair calls — per document, in input order —
// for every jobs count, both metrics, and both repair styles, and must
// isolate per-document failures to their own slot.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/core/batch.h"
#include "src/gen/workload.h"
#include "src/runtime/batch_engine.h"

namespace dyck {
namespace {

std::vector<ParenSeq> MakeCorpus(int count, uint64_t seed) {
  const gen::Shape shapes[] = {gen::Shape::kUniform, gen::Shape::kDeep,
                               gen::Shape::kFlat};
  std::vector<ParenSeq> docs;
  docs.reserve(count);
  for (int i = 0; i < count; ++i) {
    const int64_t n = 20 + (seed + i * 37) % 180;
    const ParenSeq base = gen::RandomBalanced(
        {.length = n, .num_types = 4, .shape = shapes[i % 3]}, seed + i);
    gen::CorruptedSequence corrupted = gen::Corrupt(
        base, {.num_edits = i % 4, .kind = gen::CorruptionKind::kMixed,
               .num_types = 4},
        seed * 31 + i);
    docs.push_back(std::move(corrupted.seq));
  }
  return docs;
}

// Everything observable about one result, so equality means byte-identical.
std::string Fingerprint(const StatusOr<RepairResult>& result) {
  if (!result.ok()) return "ERR|" + result.status().ToString();
  return std::to_string(result->distance) + "|" +
         ToString(result->repaired) + "|" + result->script.ToJson();
}

std::vector<int> JobCounts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> jobs = {1, 4};
  if (hw > 0 && hw != 1 && hw != 4) jobs.push_back(hw);
  return jobs;
}

TEST(BatchRuntimeTest, MatchesSerialAcrossJobsMetricsAndStyles) {
  const std::vector<ParenSeq> docs = MakeCorpus(48, 0xB4C5);
  for (const Metric metric :
       {Metric::kDeletionsOnly, Metric::kDeletionsAndSubstitutions}) {
    for (const RepairStyle style :
         {RepairStyle::kMinimalEdits, RepairStyle::kPreserveContent}) {
      Options options;
      options.metric = metric;
      options.style = style;

      std::vector<std::string> expected;
      expected.reserve(docs.size());
      for (const ParenSeq& doc : docs) {
        expected.push_back(Fingerprint(Repair(doc, options)));
      }

      for (const int jobs : JobCounts()) {
        const runtime::BatchRepairOutcome out =
            RepairBatch(docs, options, {.jobs = jobs});
        ASSERT_EQ(out.results.size(), docs.size());
        for (size_t i = 0; i < docs.size(); ++i) {
          EXPECT_EQ(Fingerprint(out.results[i]), expected[i])
              << "doc " << i << " jobs=" << jobs
              << " metric=" << static_cast<int>(metric)
              << " style=" << static_cast<int>(style);
        }
      }
    }
  }
}

TEST(BatchRuntimeTest, StatsAggregateTheResults) {
  const std::vector<ParenSeq> docs = MakeCorpus(32, 0x57A7);
  const Options options{.metric = Metric::kDeletionsOnly};
  const runtime::BatchRepairOutcome out =
      RepairBatch(docs, options, {.jobs = 4});

  int64_t expected_edits = 0;
  for (const auto& result : out.results) {
    ASSERT_TRUE(result.ok()) << result.status();
    expected_edits += result->distance;
  }
  EXPECT_EQ(out.stats.num_documents, static_cast<int64_t>(docs.size()));
  EXPECT_EQ(out.stats.num_ok, static_cast<int64_t>(docs.size()));
  EXPECT_EQ(out.stats.num_failed, 0);
  EXPECT_EQ(out.stats.total_edits, expected_edits);
  EXPECT_GT(expected_edits, 0);  // the corpus does contain corrupted docs
  EXPECT_EQ(out.stats.jobs, 4);
  EXPECT_GT(out.stats.wall_seconds, 0.0);
  EXPECT_GT(out.stats.docs_per_second, 0.0);
  EXPECT_EQ(out.stats.latency.TotalCount(),
            static_cast<int64_t>(docs.size()));
  EXPECT_FALSE(out.stats.ToString().empty());
}

TEST(BatchRuntimeTest, TelemetryAggregatesAcrossJobs) {
  // stats.telemetry must equal the sum of the per-result telemetry records
  // in input order, whatever the jobs count: aggregation happens on the
  // submitting thread after the workers join, so it is deterministic and
  // (under TSan) provably race-free.
  const std::vector<ParenSeq> docs = MakeCorpus(48, 0x7E1E);
  const Options options;
  for (const int jobs : JobCounts()) {
    const runtime::BatchRepairOutcome out =
        RepairBatch(docs, options, {.jobs = jobs});
    ASSERT_EQ(out.results.size(), docs.size());

    TelemetryAggregate expected;
    for (const auto& result : out.results) {
      ASSERT_TRUE(result.ok()) << result.status();
      expected.Add(result->telemetry);
    }
    const TelemetryAggregate& got = out.stats.telemetry;
    EXPECT_EQ(got.documents, static_cast<int64_t>(docs.size()));
    EXPECT_EQ(got.doubling_iterations, expected.doubling_iterations);
    EXPECT_EQ(got.subproblems, expected.subproblems);
    EXPECT_EQ(got.seq_allocations, expected.seq_allocations);
    EXPECT_EQ(got.seq_copies, 0) << "jobs=" << jobs;
    EXPECT_EQ(got.reduced_length_total, expected.reduced_length_total);
    EXPECT_EQ(got.reduced_input_total, expected.reduced_input_total);
    EXPECT_EQ(got.solver_documents, expected.solver_documents)
        << "jobs=" << jobs;
    // The planner's exact choices for this metric; the rest of the corpus
    // is balanced and ran no solver.
    for (const auto& [name, count] : got.solver_documents) {
      EXPECT_TRUE(name == "fpt-substitution" || name == "cubic") << name;
    }
    // Same records, same order, same double summation: exactly equal.
    for (int s = 0; s < kNumPipelineStages; ++s) {
      EXPECT_DOUBLE_EQ(got.stage_seconds[s], expected.stage_seconds[s])
          << "jobs=" << jobs << " stage " << s;
    }
    EXPECT_GT(got.TotalSeconds(), 0.0);
  }
}

TEST(BatchRuntimeTest, TelemetryAggregateSkipsFailedDocuments) {
  std::vector<ParenSeq> docs = {
      ParenAlphabet::Default().Parse("()[]").value(),
      ParenAlphabet::Default().Parse("((((((((").value(),  // BoundExceeded
      ParenAlphabet::Default().Parse("((").value(),
  };
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.max_distance = 3;
  const runtime::BatchRepairOutcome out =
      RepairBatch(docs, options, {.jobs = 2});
  EXPECT_EQ(out.stats.num_failed, 1);
  EXPECT_EQ(out.stats.telemetry.documents, 2);  // only the ok results
}

TEST(BatchRuntimeTest, PerDocumentFailureIsIsolated) {
  // Doc 2 needs 8 deletions, beyond max_distance; its neighbours must
  // still repair, and only its slot may hold the BoundExceeded status.
  std::vector<ParenSeq> docs = {
      ParenAlphabet::Default().Parse("()[]").value(),
      ParenAlphabet::Default().Parse("((").value(),
      ParenAlphabet::Default().Parse("((((((((").value(),
      ParenAlphabet::Default().Parse("{}").value(),
  };
  Options options;
  options.metric = Metric::kDeletionsOnly;
  options.max_distance = 3;
  for (const int jobs : JobCounts()) {
    const runtime::BatchRepairOutcome out =
        RepairBatch(docs, options, {.jobs = jobs});
    ASSERT_EQ(out.results.size(), docs.size());
    EXPECT_TRUE(out.results[0].ok());
    EXPECT_TRUE(out.results[1].ok());
    EXPECT_EQ(out.results[1]->distance, 2);
    EXPECT_TRUE(out.results[2].status().IsBoundExceeded())
        << out.results[2].status();
    EXPECT_TRUE(out.results[3].ok());
    EXPECT_EQ(out.stats.num_ok, 3);
    EXPECT_EQ(out.stats.num_failed, 1);
    EXPECT_EQ(out.stats.total_edits, 2);
  }
}

TEST(BatchRuntimeTest, EmptyBatchAndEmptyDocuments) {
  const runtime::BatchRepairOutcome empty = RepairBatch({}, {}, {.jobs = 4});
  EXPECT_TRUE(empty.results.empty());
  EXPECT_EQ(empty.stats.num_documents, 0);

  const std::vector<ParenSeq> docs(3);  // three empty documents
  const runtime::BatchRepairOutcome out = RepairBatch(docs, {}, {.jobs = 4});
  ASSERT_EQ(out.results.size(), 3u);
  for (const auto& result : out.results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->distance, 0);
    EXPECT_TRUE(result->repaired.empty());
  }
}

TEST(BatchRuntimeTest, JobsZeroMeansHardwareConcurrency) {
  runtime::BatchRepairEngine engine({.jobs = 0});
  EXPECT_GE(engine.jobs(), 1);
  const std::vector<ParenSeq> docs = MakeCorpus(8, 0x0B5);
  const runtime::BatchRepairOutcome out = engine.RepairAll(docs, {});
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_TRUE(out.results[i].ok()) << out.results[i].status();
    EXPECT_EQ(Fingerprint(out.results[i]), Fingerprint(Repair(docs[i], {})));
  }
}

TEST(BatchRuntimeTest, EngineIsReusableAcrossBatches) {
  runtime::BatchRepairEngine engine({.jobs = 3});
  const Options options{.metric = Metric::kDeletionsOnly};
  for (int round = 0; round < 5; ++round) {
    const std::vector<ParenSeq> docs = MakeCorpus(12, 0x900D + round);
    const runtime::BatchRepairOutcome out = engine.RepairAll(docs, options);
    for (size_t i = 0; i < docs.size(); ++i) {
      EXPECT_EQ(Fingerprint(out.results[i]),
                Fingerprint(Repair(docs[i], options)))
          << "round " << round << " doc " << i;
    }
  }
}

TEST(LatencyHistogramTest, BucketsAndRendering) {
  runtime::LatencyHistogram histogram;
  histogram.Record(0.5e-6);   // <= 1us
  histogram.Record(3e-6);     // <= 4us
  histogram.Record(3e-6);     // <= 4us
  histogram.Record(1.0);      // 1s, near the top
  EXPECT_EQ(histogram.TotalCount(), 4);
  EXPECT_EQ(histogram.bucket_count(0), 1);
  EXPECT_EQ(histogram.bucket_count(1), 2);
  EXPECT_EQ(runtime::LatencyHistogram::BucketUpperMicros(0), 1);
  EXPECT_EQ(runtime::LatencyHistogram::BucketUpperMicros(3), 64);
  EXPECT_EQ(runtime::LatencyHistogram::BucketUpperMicros(
                runtime::LatencyHistogram::kNumBuckets - 1),
            -1);
  EXPECT_NE(histogram.ToString().find("<=4us:2"), std::string::npos)
      << histogram.ToString();
}

}  // namespace
}  // namespace dyck
