#include "graph/generator.h"

#include <bit>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace gids::graph {
namespace {

// Draws one R-MAT candidate within a 2^levels-wide adjacency matrix,
// recursing one quadrant per bit level with multiplicative noise. Returns
// false as soon as the bits set so far put the row or column past
// `max_id`: no later (smaller) bit can bring it back in range. The
// rejected candidate's remaining draws are still consumed, so every
// candidate takes the same draws from `rng` whether it is kept or not.
bool RmatEdge(int levels, uint64_t max_id, const RmatParams& p, Rng& rng,
              uint64_t& row, uint64_t& col) {
  const uint64_t per_level = p.noise > 0 ? 5 : 1;
  row = 0;
  col = 0;
  double a = p.a;
  double b = p.b;
  double c = p.c;
  for (int level = 0; level < levels; ++level) {
    double ab = a + b;
    double abc = a + b + c;
    double r = rng.UniformDouble();
    const int shift = levels - 1 - level;
    uint64_t bit = 1ull << shift;
    if (r >= ab) row |= bit;
    if ((r >= a && r < ab) || r >= abc) col |= bit;
    const uint64_t limit = max_id >> shift;
    if ((row >> shift) > limit || (col >> shift) > limit) {
      rng.Discard(per_level - 1 + per_level * static_cast<uint64_t>(shift));
      return false;
    }
    if (p.noise > 0) {
      // Perturb the quadrant probabilities, then renormalize.
      double na = a * (1.0 - p.noise + 2.0 * p.noise * rng.UniformDouble());
      double nb = b * (1.0 - p.noise + 2.0 * p.noise * rng.UniformDouble());
      double nc = c * (1.0 - p.noise + 2.0 * p.noise * rng.UniformDouble());
      double nd = (1.0 - a - b - c) *
                  (1.0 - p.noise + 2.0 * p.noise * rng.UniformDouble());
      double norm = na + nb + nc + nd;
      a = na / norm;
      b = nb / norm;
      c = nc / norm;
    }
  }
  return true;
}

}  // namespace

StatusOr<CscGraph> GenerateRmat(NodeId num_nodes, EdgeIdx num_edges,
                                const RmatParams& params, Rng& rng) {
  if (num_nodes == 0) return Status::InvalidArgument("num_nodes must be > 0");
  double sum = params.a + params.b + params.c + params.d;
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("RMAT probabilities must sum to 1");
  }
  const uint64_t max_id = uint64_t{num_nodes} - 1;
  const int levels = 64 - std::countl_zero(max_id);  // 0 for one node

  std::vector<NodeId> src;
  std::vector<NodeId> dst;
  src.reserve(num_edges);
  dst.reserve(num_edges);
  uint64_t row = 0;
  uint64_t col = 0;
  while (src.size() < num_edges) {
    if (!RmatEdge(levels, max_id, params, rng, row, col)) continue;
    GIDS_DCHECK(row < num_nodes && col < num_nodes);
    src.push_back(static_cast<NodeId>(row));
    dst.push_back(static_cast<NodeId>(col));
  }
  return CscGraph::FromCoo(num_nodes, src, dst);
}

StatusOr<CscGraph> GenerateUniform(NodeId num_nodes, EdgeIdx num_edges,
                                   Rng& rng) {
  if (num_nodes == 0) return Status::InvalidArgument("num_nodes must be > 0");
  std::vector<NodeId> src(num_edges);
  std::vector<NodeId> dst(num_edges);
  for (EdgeIdx i = 0; i < num_edges; ++i) {
    src[i] = static_cast<NodeId>(rng.UniformInt(num_nodes));
    dst[i] = static_cast<NodeId>(rng.UniformInt(num_nodes));
  }
  return CscGraph::FromCoo(num_nodes, src, dst);
}

}  // namespace gids::graph
