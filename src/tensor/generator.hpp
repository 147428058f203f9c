// Random matrix/tensor generators used across experiments.
//
// All generators take an explicit Rng so every experiment is reproducible.
#pragma once

#include "common/rng.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor4d.hpp"

namespace tasd {

/// Element value distribution for generated data.
enum class Dist {
  kUniform01,   ///< U[0, 1) — the paper's Fig. 18 setup
  kNormal,      ///< N(0, 1/3) — the paper's Fig. 17 setup
  kNormalStd1,  ///< N(0, 1)
};

/// Dense matrix with every element drawn from `dist`.
MatrixF random_dense(Index rows, Index cols, Dist dist, Rng& rng);

/// Unstructured sparse matrix: each element is non-zero with probability
/// `density`, value drawn from `dist`. density in [0,1].
MatrixF random_unstructured(Index rows, Index cols, double density, Dist dist,
                            Rng& rng);

/// Matrix that already satisfies N:M structured sparsity: in every
/// M-aligned block of each row, exactly min(N, nnz budget) random positions
/// are non-zero. cols need not be divisible by m; the tail block is
/// treated as a shorter block.
MatrixF random_nm_structured(Index rows, Index cols, int n, int m, Dist dist,
                             Rng& rng);

/// Random NCHW tensor with the given density (1.0 = dense).
Tensor4D random_tensor(Index n, Index c, Index h, Index w, double density,
                       Dist dist, Rng& rng);

/// Prune a matrix to a target sparsity by zeroing the
/// llround(target_sparsity * size) smallest-magnitude elements (global
/// magnitude pruning); ties are broken by element order. Takes the
/// matrix by value and prunes it in place: move a matrix in to prune it
/// without a copy. Every pruned element becomes +0.0.
MatrixF magnitude_prune(MatrixF dense, double target_sparsity);

}  // namespace tasd
