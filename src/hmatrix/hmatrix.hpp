// Hierarchical matrices (paper Section II): a block cluster tree whose
// leaves are either dense (full-rank) blocks or low-rank RkMatrix blocks.
//
// An HMatrix node references a (row cluster, column cluster) pair of a
// shared ClusterTree; subdivided nodes have 2 x 2 children following the
// binary cluster bisection. The structure mirrors hmat-oss's HMatrix.
#pragma once

#include <array>
#include <memory>

#include "cluster/cluster_tree.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "rk/rk_matrix.hpp"

namespace hcham::hmat {

template <typename T>
class HMatrix {
 public:
  enum class Kind { Full, Rk, Hierarchical };

  using TreePtr = std::shared_ptr<const cluster::ClusterTree>;

  /// Construct an empty node over the (row, col) cluster pair; the builder
  /// in build.hpp decides the kind and fills the payload.
  HMatrix(TreePtr tree, index_t row_node, index_t col_node)
      : tree_(std::move(tree)), row_node_(row_node), col_node_(col_node) {
    HCHAM_CHECK(tree_ != nullptr);
  }

  HMatrix(const HMatrix&) = delete;
  HMatrix& operator=(const HMatrix&) = delete;
  HMatrix(HMatrix&&) = default;
  HMatrix& operator=(HMatrix&&) = default;

  // --- shape and structure ------------------------------------------------

  const cluster::ClusterTree& tree() const { return *tree_; }
  TreePtr tree_ptr() const { return tree_; }
  index_t row_node() const { return row_node_; }
  index_t col_node() const { return col_node_; }

  const cluster::ClusterTree::Node& row_cluster() const {
    return tree_->node(row_node_);
  }
  const cluster::ClusterTree::Node& col_cluster() const {
    return tree_->node(col_node_);
  }

  index_t rows() const { return row_cluster().size; }
  index_t cols() const { return col_cluster().size; }
  /// Offsets of this block inside the (permuted) global matrix.
  index_t row_offset() const { return row_cluster().offset; }
  index_t col_offset() const { return col_cluster().offset; }

  Kind kind() const { return kind_; }
  bool is_full() const { return kind_ == Kind::Full; }
  bool is_rk() const { return kind_ == Kind::Rk; }
  bool is_hierarchical() const { return kind_ == Kind::Hierarchical; }
  bool is_leaf() const { return kind_ != Kind::Hierarchical; }

  // --- payload access -----------------------------------------------------

  la::Matrix<T>& full() {
    HCHAM_DCHECK(is_full());
    return full_;
  }
  const la::Matrix<T>& full() const {
    HCHAM_DCHECK(is_full());
    return full_;
  }
  rk::RkMatrix<T>& rk() {
    HCHAM_DCHECK(is_rk());
    return rk_;
  }
  const rk::RkMatrix<T>& rk() const {
    HCHAM_DCHECK(is_rk());
    return rk_;
  }

  /// Child (i, j) of a subdivided node; i, j in {0, 1}.
  HMatrix& child(int i, int j) {
    HCHAM_DCHECK(is_hierarchical());
    return *children_[static_cast<std::size_t>(i * 2 + j)];
  }
  const HMatrix& child(int i, int j) const {
    HCHAM_DCHECK(is_hierarchical());
    return *children_[static_cast<std::size_t>(i * 2 + j)];
  }

  // --- mutation (used by the builder and the arithmetic) -------------------

  void make_full(la::Matrix<T> data) {
    HCHAM_CHECK(data.rows() == rows() && data.cols() == cols());
    kind_ = Kind::Full;
    full_ = std::move(data);
    rk_ = rk::RkMatrix<T>();
    for (auto& c : children_) c.reset();
  }

  void make_rk(rk::RkMatrix<T> data) {
    HCHAM_CHECK(data.rows() == rows() && data.cols() == cols());
    kind_ = Kind::Rk;
    rk_ = std::move(data);
    full_ = la::Matrix<T>();
    for (auto& c : children_) c.reset();
  }

  /// Subdivide into 2 x 2 children (both clusters must have children).
  void make_hierarchical() {
    const auto& rc = row_cluster();
    const auto& cc = col_cluster();
    HCHAM_CHECK(!rc.is_leaf() && !cc.is_leaf());
    kind_ = Kind::Hierarchical;
    full_ = la::Matrix<T>();
    rk_ = rk::RkMatrix<T>();
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 2; ++j)
        children_[static_cast<std::size_t>(i * 2 + j)] =
            std::make_unique<HMatrix>(tree_, rc.child[i], cc.child[j]);
  }

  // --- whole-matrix utilities ----------------------------------------------

  /// Densify the block (in the PERMUTED ordering of the cluster tree).
  la::Matrix<T> to_dense() const {
    la::Matrix<T> d(rows(), cols());
    add_to_dense(T{1}, d.view());
    return d;
  }

  /// dst += alpha * this, dst addressed in this block's local coordinates.
  void add_to_dense(T alpha, la::MatrixView<T> dst) const {
    HCHAM_CHECK(dst.rows() == rows() && dst.cols() == cols());
    switch (kind_) {
      case Kind::Full:
        la::axpy(alpha, full_.cview(), dst);
        break;
      case Kind::Rk:
        rk_.add_to(alpha, dst);
        break;
      case Kind::Hierarchical: {
        const index_t r0 = child(0, 0).rows();
        const index_t c0 = child(0, 0).cols();
        for (int i = 0; i < 2; ++i)
          for (int j = 0; j < 2; ++j) {
            const HMatrix& ch = child(i, j);
            ch.add_to_dense(alpha, dst.block(i == 0 ? 0 : r0, j == 0 ? 0 : c0,
                                             ch.rows(), ch.cols()));
          }
        break;
      }
    }
  }

  /// Number of scalars stored in the compressed representation.
  index_t stored_elements() const {
    switch (kind_) {
      case Kind::Full: return rows() * cols();
      case Kind::Rk: return rk_.stored_elements();
      case Kind::Hierarchical: {
        index_t total = 0;
        for (int i = 0; i < 2; ++i)
          for (int j = 0; j < 2; ++j) total += child(i, j).stored_elements();
        return total;
      }
    }
    return 0;
  }

  /// stored / (rows * cols): the paper's Fig. 4 metric.
  double compression_ratio() const {
    return static_cast<double>(stored_elements()) /
           (static_cast<double>(rows()) * static_cast<double>(cols()));
  }

  /// Exact Frobenius norm from the compressed representation (leaves cover
  /// disjoint index sets, so the squares add).
  real_t<T> norm_fro() const { return std::sqrt(norm_fro_sq()); }

  real_t<T> norm_fro_sq() const {
    using R = real_t<T>;
    switch (kind_) {
      case Kind::Full: {
        const R f = la::norm_fro(full_.cview());
        return f * f;
      }
      case Kind::Rk: {
        if (rk_.is_zero()) return R{};
        // ||U V^H||_F^2 = sum_ij (U^H U)_ij conj((V^H V)_ij).
        const index_t k = rk_.rank();
        la::Matrix<T> uu(k, k), vv(k, k);
        la::gemm(la::Op::ConjTrans, la::Op::NoTrans, T{1}, rk_.u().cview(),
                 rk_.u().cview(), T{}, uu.view());
        la::gemm(la::Op::ConjTrans, la::Op::NoTrans, T{1}, rk_.v().cview(),
                 rk_.v().cview(), T{}, vv.view());
        T acc{};
        for (index_t j = 0; j < k; ++j)
          for (index_t i = 0; i < k; ++i)
            acc += uu(i, j) * conj_if(vv(i, j));
        return scalar_traits<T>::real(acc);
      }
      case Kind::Hierarchical: {
        R total{};
        for (int i = 0; i < 2; ++i)
          for (int j = 0; j < 2; ++j) total += child(i, j).norm_fro_sq();
        return total;
      }
    }
    return real_t<T>{};
  }

  /// Statistics over the block structure (paper Fig. 3).
  struct Stats {
    index_t full_leaves = 0;
    index_t rk_leaves = 0;
    index_t internal_nodes = 0;
    index_t max_rank = 0;
    index_t total_rank = 0;  ///< sum over rk leaves (for the average)
    double avg_rank() const {
      return rk_leaves > 0
                 ? static_cast<double>(total_rank) /
                       static_cast<double>(rk_leaves)
                 : 0.0;
    }
  };

  Stats stats() const {
    Stats s;
    accumulate_stats(s);
    return s;
  }

 private:
  void accumulate_stats(Stats& s) const {
    switch (kind_) {
      case Kind::Full:
        ++s.full_leaves;
        break;
      case Kind::Rk:
        ++s.rk_leaves;
        s.max_rank = std::max(s.max_rank, rk_.rank());
        s.total_rank += rk_.rank();
        break;
      case Kind::Hierarchical:
        ++s.internal_nodes;
        for (int i = 0; i < 2; ++i)
          for (int j = 0; j < 2; ++j) child(i, j).accumulate_stats(s);
        break;
    }
  }

  TreePtr tree_;
  index_t row_node_ = 0;
  index_t col_node_ = 0;
  Kind kind_ = Kind::Full;
  la::Matrix<T> full_;
  rk::RkMatrix<T> rk_;
  std::array<std::unique_ptr<HMatrix>, 4> children_;
};

/// Deep copy of src's payload into dst, which must sit on the same
/// (row, col) cluster pair of an equivalent tree; dst keeps its own tree.
/// Rk leaves copy their factors as they are (no re-compression).
template <typename T>
void copy_into(const HMatrix<T>& src, HMatrix<T>& dst) {
  switch (src.kind()) {
    case HMatrix<T>::Kind::Full:
      dst.make_full(la::Matrix<T>::from_view(src.full().cview()));
      return;
    case HMatrix<T>::Kind::Rk: {
      rk::RkMatrix<T> r(src.rows(), src.cols());
      if (!src.rk().is_zero())
        r.set_factors(la::Matrix<T>::from_view(src.rk().u().cview()),
                      la::Matrix<T>::from_view(src.rk().v().cview()));
      dst.make_rk(std::move(r));
      return;
    }
    case HMatrix<T>::Kind::Hierarchical:
      dst.make_hierarchical();
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j) copy_into(src.child(i, j), dst.child(i, j));
      return;
  }
}

}  // namespace hcham::hmat
