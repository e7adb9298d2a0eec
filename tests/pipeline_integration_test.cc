// End-to-end integration tests: full pipeline + evaluation on the tiny
// synthetic world. These assert the paper's qualitative claims, not exact
// numbers: campaigns are found, noise herds are the FPs, plain benign
// servers are not flagged, thresholds trade recall for precision. Plus
// the bounded-memory join at week scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "synth/world.h"

namespace smash::core {
namespace {

SmashConfig tiny_config() {
  SmashConfig config;
  config.idf_threshold = 60;  // tiny world has ~400 clients, not ~15k
  return config;
}

class PipelineOnTinyWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new synth::Dataset(synth::generate_world(synth::tiny_world()));
    result_ = new SmashResult(
        SmashPipeline(tiny_config()).run(dataset_->trace, dataset_->whois));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete dataset_;
    result_ = nullptr;
    dataset_ = nullptr;
  }

  static std::set<std::string> detected_names() {
    std::set<std::string> names;
    for (const auto& campaign : result_->campaigns) {
      for (auto member : campaign.servers) {
        names.insert(result_->server_name(member));
      }
    }
    return names;
  }

  static synth::Dataset* dataset_;
  static SmashResult* result_;
};

synth::Dataset* PipelineOnTinyWorld::dataset_ = nullptr;
SmashResult* PipelineOnTinyWorld::result_ = nullptr;

TEST_F(PipelineOnTinyWorld, PreprocessingReducesServers) {
  EXPECT_LT(result_->pre.servers_after_aggregation,
            result_->pre.servers_before_aggregation);
  EXPECT_LE(result_->pre.servers_after_filter,
            result_->pre.servers_after_aggregation);
  EXPECT_LT(result_->pre.requests_after_filter, result_->pre.total_requests);
}

TEST_F(PipelineOnTinyWorld, FindsCampaigns) {
  EXPECT_GE(result_->campaigns.size(), 5u);
  for (const auto& campaign : result_->campaigns) {
    EXPECT_GE(campaign.servers.size(), 2u);
    EXPECT_GE(campaign.involved_clients.size(), 1u);
  }
}

TEST_F(PipelineOnTinyWorld, DetectsZeusEntirely) {
  const auto names = detected_names();
  for (const auto& campaign : dataset_->truth.campaigns()) {
    if (campaign.name != "zeus-0") continue;
    for (const auto& server : campaign.servers) {
      EXPECT_TRUE(names.count(server)) << "zeus domain missed: " << server;
    }
  }
}

TEST_F(PipelineOnTinyWorld, DetectsMostIframeVictims) {
  std::size_t total = 0;
  std::size_t detected = 0;
  const auto names = detected_names();
  for (const auto& campaign : dataset_->truth.campaigns()) {
    if (campaign.name != "iframe-0") continue;
    for (const auto& server : campaign.servers) {
      ++total;
      detected += names.count(server);
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(detected * 10, total * 8);  // >= 80%
}

TEST_F(PipelineOnTinyWorld, NeverFlagsPlainBenignServers) {
  for (const auto& name : detected_names()) {
    const auto idx = dataset_->truth.campaign_of(name);
    const bool structured = idx.has_value();
    // Every detection is a campaign server, a noise server, or (via
    // pruning replacement) a benign structured-group member; arbitrary
    // tail/popular servers must never appear.
    if (!structured) {
      ADD_FAILURE() << "flagged unstructured benign server: " << name;
    } else {
      const auto kind = dataset_->truth.campaigns()[*idx].kind;
      EXPECT_NE(kind, ids::CampaignKind::kBenign)
          << "flagged benign-group server: " << name;
    }
  }
}

TEST_F(PipelineOnTinyWorld, NoSecondaryDimensionCampaignIsMissed) {
  // The deliberate false negative: campaign sharing only parameter
  // patterns (the paper's Cycbot analysis).
  const auto names = detected_names();
  for (const auto& campaign : dataset_->truth.campaigns()) {
    if (!campaign.name.starts_with("nosec-")) continue;
    for (const auto& server : campaign.servers) {
      EXPECT_FALSE(names.count(server))
          << "no-secondary-dimension server should be missed: " << server;
    }
  }
}

TEST_F(PipelineOnTinyWorld, DeterministicAcrossRuns) {
  const SmashResult again =
      SmashPipeline(tiny_config()).run(dataset_->trace, dataset_->whois);
  ASSERT_EQ(again.campaigns.size(), result_->campaigns.size());
  for (std::size_t i = 0; i < again.campaigns.size(); ++i) {
    EXPECT_EQ(again.campaigns[i].servers, result_->campaigns[i].servers);
  }
}

TEST_F(PipelineOnTinyWorld, ThresholdLadderShrinksDetections) {
  std::size_t previous = SIZE_MAX;
  for (const double thresh : {0.5, 0.8, 1.0, 1.5}) {
    const auto result = SmashPipeline(tiny_config().with_threshold(thresh))
                            .run(dataset_->trace, dataset_->whois);
    std::size_t servers = 0;
    for (const auto& campaign : result.campaigns) servers += campaign.servers.size();
    EXPECT_LE(servers, previous) << "thresh " << thresh;
    previous = servers;
  }
}

TEST_F(PipelineOnTinyWorld, EvaluatorFlagsOnlyNoiseAsUpdatedFp) {
  const Evaluator evaluator(dataset_->trace, dataset_->signatures,
                            dataset_->blacklist, dataset_->truth);
  const auto eval = evaluator.evaluate(*result_, /*single_client=*/false);
  EXPECT_GT(eval.campaign_counts.smash, 0);
  EXPECT_GE(eval.campaign_counts.false_positives, eval.campaign_counts.fp_updated);
  EXPECT_EQ(eval.detected_benign, 0);
  EXPECT_GT(eval.detected_truly_malicious, 0);
  // FP rate stays within an order of magnitude of the paper's 0.064%.
  EXPECT_LT(eval.fp_rate_updated, 0.02);
}

TEST_F(PipelineOnTinyWorld, EvaluatorFindsZeroDayCampaign) {
  // Zeus is 2013-signature-only: SMASH must report it although the 2012
  // IDS cannot (the paper's zero-day claim, Table X).
  const Evaluator evaluator(dataset_->trace, dataset_->signatures,
                            dataset_->blacklist, dataset_->truth);
  const auto eval = evaluator.evaluate(*result_, false);
  EXPECT_GT(eval.campaign_counts.ids2013_total + eval.campaign_counts.ids2013_partial,
            0);
  EXPECT_GT(eval.server_counts.ids2013, 0);
}

TEST_F(PipelineOnTinyWorld, FalseNegativesIncludeNoSecondaryThreat) {
  const Evaluator evaluator(dataset_->trace, dataset_->signatures,
                            dataset_->blacklist, dataset_->truth);
  const auto eval = evaluator.evaluate(*result_, false);
  bool nosec_missed = false;
  for (const auto& group : eval.false_negatives) {
    nosec_missed |= group.threat_id.find("nosec") != std::string::npos;
  }
  EXPECT_TRUE(nosec_missed);
}

TEST_F(PipelineOnTinyWorld, SingleClientCampaignsSeparated) {
  const auto multi = result_->detected_campaigns(false);
  const auto single = result_->detected_campaigns(true);
  EXPECT_EQ(multi.size() + single.size(), result_->campaigns.size());
  for (const auto* campaign : single) {
    EXPECT_LE(campaign->involved_clients.size(), 1u);
  }
  for (const auto* campaign : multi) {
    EXPECT_GE(campaign->involved_clients.size(), 2u);
  }
}

TEST_F(PipelineOnTinyWorld, DetectedServersDeduplicated) {
  const auto multi_servers = result_->detected_servers(false);
  std::set<std::uint32_t> unique(multi_servers.begin(), multi_servers.end());
  EXPECT_EQ(unique.size(), multi_servers.size());
}

// A 0.12-scale 2012week world with the postings caps inert, mined in RAM
// and then under a join budget of a quarter of that run's peak postings
// residency, at 1 and 4 threads: the budgeted runs must reproduce the
// in-RAM kept set and campaigns exactly, within the budget, with no cap
// firing.
TEST(BudgetedWeek, QuarterPeakBudgetReproducesInRamRun) {
  const auto ds =
      synth::generate_world(synth::data2012week().scaled(0.12));
  SmashConfig base;
  base.num_threads = 1;
  base.join_postings_cap = std::numeric_limits<std::uint32_t>::max();
  base.file_postings_cap = std::numeric_limits<std::uint32_t>::max();
  const SmashResult in_ram = SmashPipeline(base).run(ds.trace, ds.whois);
  ASSERT_FALSE(in_ram.postings_budget_exceeded());
  ASSERT_FALSE(in_ram.campaigns.empty());
  const std::size_t budget =
      std::max<std::size_t>(in_ram.peak_resident_postings_bytes() / 4, 1);

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SmashConfig budgeted = base;
    budgeted.num_threads = threads;
    budgeted.join_memory_budget_bytes = budget;
    const SmashResult result = SmashPipeline(budgeted).run(ds.trace, ds.whois);
    EXPECT_FALSE(result.postings_budget_exceeded());
    EXPECT_LE(result.peak_resident_postings_bytes(), budget);
    EXPECT_GT(result.join_shard_passes(), in_ram.join_shard_passes());
    EXPECT_EQ(result.pre.kept, in_ram.pre.kept);
    ASSERT_EQ(result.campaigns.size(), in_ram.campaigns.size());
    for (std::size_t c = 0; c < result.campaigns.size(); ++c) {
      EXPECT_EQ(result.campaigns[c].servers, in_ram.campaigns[c].servers);
      EXPECT_EQ(result.campaigns[c].involved_clients,
                in_ram.campaigns[c].involved_clients);
    }
  }
}

}  // namespace
}  // namespace smash::core
