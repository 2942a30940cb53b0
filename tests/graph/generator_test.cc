#include "graph/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/dataset.h"

namespace gids::graph {
namespace {

// FNV-1a over each value's eight little-endian bytes, chained from `h`.
template <typename T>
uint64_t Fnv1a(const std::vector<T>& values,
               uint64_t h = 0xcbf29ce484222325ull) {
  for (T v : values) {
    const uint64_t x = static_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

uint64_t Fingerprint(const CscGraph& g) {
  return Fnv1a(g.indices(), Fnv1a(g.indptr()));
}

// Golden streams: the CSC fingerprint of a generated graph and the
// caller's next draw afterwards. The constants were recorded with the
// generator that evaluates every level of every candidate; early
// rejection must reproduce them exactly.
void ExpectGoldenRmat(NodeId n, EdgeIdx m, const RmatParams& params,
                      uint64_t seed, uint64_t graph_fp, uint64_t next_draw) {
  Rng rng(seed);
  auto g = GenerateRmat(n, m, params, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), m);
  EXPECT_EQ(Fingerprint(*g), graph_fp);
  EXPECT_EQ(rng.Next(), next_draw);
}

constexpr RmatParams kIgbParams{.a = 0.35, .b = 0.287, .c = 0.287, .d = 0.076};

TEST(RmatGoldenTest, PowerOfTwoNeverRejects) {
  ExpectGoldenRmat(1024, 10000, RmatParams{}, 11,
                   2007862762609513708ull, 11464051027312422683ull);
}

TEST(RmatGoldenTest, JustAbovePowerOfTwoWithIgbParams) {
  // 4096 + 29 nodes recurse over an 8192-wide matrix: a candidate whose
  // top row or column bit is set stays in range only if almost all of its
  // lower bits are zero, so more than half of all candidates are rejected.
  ExpectGoldenRmat(4096 + 29, 20000, kIgbParams, 12,
                   3992679196302317830ull, 15203559925819877011ull);
}

TEST(RmatGoldenTest, NoNoise) {
  RmatParams p;
  p.noise = 0;
  ExpectGoldenRmat(1000, 10000, p, 13, 17075362424874133728ull,
                   11967402886412615923ull);
}

TEST(RmatGoldenTest, SingleNode) {
  ExpectGoldenRmat(1, 10, RmatParams{}, 14,
                   8139243878041701487ull, 13314999602426395285ull);
}

TEST(RmatGoldenTest, DatasetIncludingTrainIds) {
  // train_ids come from a fork of the RNG after R-MAT, so they pin the
  // generator's whole draw count, not just the edges it kept.
  auto ds = BuildDataset(DatasetSpec::IgbSmall(), 0.02, 3);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(Fingerprint(ds->graph), 7404091340426085834ull);
  EXPECT_EQ(Fnv1a(ds->train_ids), 6247030009928248032ull);
}

TEST(RmatTest, ProducesRequestedSize) {
  Rng rng(1);
  auto g = GenerateRmat(1000, 15000, RmatParams{}, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 1000u);
  EXPECT_EQ(g->num_edges(), 15000u);
}

TEST(RmatTest, NonPowerOfTwoNodeCount) {
  Rng rng(2);
  auto g = GenerateRmat(1000, 5000, RmatParams{}, rng);
  ASSERT_TRUE(g.ok());
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    for (NodeId u : g->in_neighbors(v)) EXPECT_LT(u, 1000u);
  }
}

TEST(RmatTest, RejectsBadProbabilities) {
  Rng rng(3);
  RmatParams p;
  p.a = 0.9;  // sums to 1.33
  EXPECT_FALSE(GenerateRmat(100, 100, p, rng).ok());
  EXPECT_FALSE(GenerateRmat(0, 100, RmatParams{}, rng).ok());
}

TEST(RmatTest, DeterministicInSeed) {
  Rng a(42);
  Rng b(42);
  auto ga = GenerateRmat(512, 4096, RmatParams{}, a);
  auto gb = GenerateRmat(512, 4096, RmatParams{}, b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga->indices(), gb->indices());
  EXPECT_EQ(ga->indptr(), gb->indptr());
}

TEST(RmatTest, DegreeDistributionIsSkewed) {
  // The R-MAT defaults must produce a heavy-tailed in-degree distribution:
  // the top 1% of nodes should hold far more than 1% of the edges. This
  // skew is the mechanism behind the constant CPU buffer (§3.3).
  Rng rng(7);
  auto g = GenerateRmat(1 << 14, 1 << 18, RmatParams{}, rng);
  ASSERT_TRUE(g.ok());
  std::vector<EdgeIdx> degrees;
  degrees.reserve(g->num_nodes());
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    degrees.push_back(g->in_degree(v));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  size_t top1pct = degrees.size() / 100;
  EdgeIdx top_edges = 0;
  for (size_t i = 0; i < top1pct; ++i) top_edges += degrees[i];
  double share = static_cast<double>(top_edges) / g->num_edges();
  EXPECT_GT(share, 0.10);  // >10x their fair share
}

TEST(RmatTest, UniformIsNotSkewed) {
  Rng rng(8);
  auto g = GenerateUniform(1 << 14, 1 << 18, rng);
  ASSERT_TRUE(g.ok());
  std::vector<EdgeIdx> degrees;
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    degrees.push_back(g->in_degree(v));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  size_t top1pct = degrees.size() / 100;
  EdgeIdx top_edges = 0;
  for (size_t i = 0; i < top1pct; ++i) top_edges += degrees[i];
  double share = static_cast<double>(top_edges) / g->num_edges();
  EXPECT_LT(share, 0.05);
}

TEST(UniformTest, ProducesRequestedSize) {
  Rng rng(9);
  auto g = GenerateUniform(100, 1000, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 100u);
  EXPECT_EQ(g->num_edges(), 1000u);
}

TEST(UniformTest, RejectsZeroNodes) {
  Rng rng(10);
  EXPECT_FALSE(GenerateUniform(0, 10, rng).ok());
}

class RmatSizeTest
    : public ::testing::TestWithParam<std::pair<NodeId, EdgeIdx>> {};

TEST_P(RmatSizeTest, ValidCscAtAnySize) {
  Rng rng(100 + GetParam().first);
  auto g = GenerateRmat(GetParam().first, GetParam().second, RmatParams{}, rng);
  ASSERT_TRUE(g.ok());
  // FromCsc re-validates all invariants.
  auto check = CscGraph::FromCsc(g->indptr(), g->indices());
  EXPECT_TRUE(check.ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RmatSizeTest,
    ::testing::Values(std::make_pair<NodeId, EdgeIdx>(1, 10),
                      std::make_pair<NodeId, EdgeIdx>(2, 100),
                      std::make_pair<NodeId, EdgeIdx>(100, 0),
                      std::make_pair<NodeId, EdgeIdx>(1023, 10000),
                      std::make_pair<NodeId, EdgeIdx>(1024, 10000),
                      std::make_pair<NodeId, EdgeIdx>(1025, 10000)));

}  // namespace
}  // namespace gids::graph
