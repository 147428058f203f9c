#include "tensor/generator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

namespace tasd {

namespace {

float draw(Dist dist, Rng& rng) {
  switch (dist) {
    case Dist::kUniform01:
      return rng.uniform_float(0.0F, 1.0F);
    case Dist::kNormal:
      return static_cast<float>(rng.normal(0.0, 1.0 / 3.0));
    case Dist::kNormalStd1:
      return static_cast<float>(rng.normal(0.0, 1.0));
  }
  return 0.0F;
}

/// Draw a non-zero value (re-draws the rare exact zero).
float draw_nonzero(Dist dist, Rng& rng) {
  float v = draw(dist, rng);
  while (v == 0.0F) v = draw(dist, rng);
  return v;
}

}  // namespace

MatrixF random_dense(Index rows, Index cols, Dist dist, Rng& rng) {
  MatrixF m(rows, cols);
  for (auto& v : m.flat()) v = draw(dist, rng);
  return m;
}

MatrixF random_unstructured(Index rows, Index cols, double density, Dist dist,
                            Rng& rng) {
  TASD_CHECK_MSG(density >= 0.0 && density <= 1.0,
                 "density " << density << " out of [0,1]");
  MatrixF m(rows, cols);
  for (auto& v : m.flat())
    if (rng.bernoulli(density)) v = draw_nonzero(dist, rng);
  return m;
}

MatrixF random_nm_structured(Index rows, Index cols, int n, int m, Dist dist,
                             Rng& rng) {
  TASD_CHECK_MSG(n >= 0 && m > 0 && n <= m, "invalid N:M = " << n << ":" << m);
  MatrixF out(rows, cols);
  std::vector<Index> positions;
  for (Index r = 0; r < rows; ++r) {
    for (Index b = 0; b < cols; b += static_cast<Index>(m)) {
      const Index block_len = std::min<Index>(static_cast<Index>(m), cols - b);
      positions.resize(block_len);
      std::iota(positions.begin(), positions.end(), b);
      rng.shuffle(positions);
      const Index keep = std::min<Index>(static_cast<Index>(n), block_len);
      for (Index i = 0; i < keep; ++i)
        out(r, positions[i]) = draw_nonzero(dist, rng);
    }
  }
  return out;
}

Tensor4D random_tensor(Index n, Index c, Index h, Index w, double density,
                       Dist dist, Rng& rng) {
  TASD_CHECK_MSG(density >= 0.0 && density <= 1.0,
                 "density " << density << " out of [0,1]");
  Tensor4D t(n, c, h, w);
  for (auto& v : t.flat())
    if (density >= 1.0 || rng.bernoulli(density)) v = draw_nonzero(dist, rng);
  return t;
}

MatrixF magnitude_prune(MatrixF dense, double target_sparsity) {
  TASD_CHECK_MSG(target_sparsity >= 0.0 && target_sparsity <= 1.0,
                 "sparsity " << target_sparsity << " out of [0,1]");
  const Index total = dense.size();
  const auto to_zero = static_cast<Index>(
      std::llround(target_sparsity * static_cast<double>(total)));
  if (to_zero == 0) return dense;

  // The pruned set is the first `to_zero` elements in (|w|, index)
  // order. With the sign bit cleared, a float's bits order like its
  // magnitude (and -0.0 keys like +0.0), so a two-pass radix select over
  // the 16-bit halves of that key finds the threshold key of the last
  // pruned element, and how many elements lie strictly below it.
  auto flat = dense.flat();
  const auto key = [](float v) {
    return std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFU;
  };
  std::vector<Index> hist(Index{1} << 16);
  for (float v : flat) ++hist[key(v) >> 16];
  Index below = 0;  // elements whose key is below the current bucket
  std::uint32_t high = 0;
  while (below + hist[high] < to_zero) below += hist[high++];
  std::fill(hist.begin(), hist.end(), Index{0});
  for (float v : flat)
    if ((key(v) >> 16) == high) ++hist[key(v) & 0xFFFFU];
  std::uint32_t low = 0;
  while (below + hist[low] < to_zero) below += hist[low++];
  const std::uint32_t threshold = (high << 16) | low;

  // Zero every key below the threshold, then ties at the threshold in
  // index order until `to_zero` are gone. Pruned elements become +0.0.
  Index ties = to_zero - below;
  for (float& v : flat) {
    const std::uint32_t k = key(v);
    if (k < threshold) {
      v = 0.0F;
    } else if (k == threshold && ties > 0) {
      v = 0.0F;
      --ties;
    }
  }
  return dense;
}

}  // namespace tasd
