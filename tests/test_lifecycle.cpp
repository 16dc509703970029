// Lifecycle subsystem tests: factor-store round trips and rejection of
// truncated/corrupted/mismatched files (with no partial state escaping),
// Session save/restore cold-starts, Woodbury rank-k updated solves against
// a dense referee (including sync and background rebase), and the bounded
// session cache (LRU order, pinning under pressure, spill-reload,
// concurrent tenants, stats JSON), and the lifecycle env config.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bem/testcase.hpp"
#include "core/tile_h.hpp"
#include "lifecycle/config.hpp"
#include "lifecycle/factor_store.hpp"
#include "lifecycle/session_cache.hpp"
#include "lifecycle/updatable_operator.hpp"
#include "serve/solver_service.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using bem::FemBemProblem;
using core::TileHMatrix;
using core::TileHOptions;
using la::Matrix;
using lifecycle::FactorKind;
using lifecycle::SessionCache;
using lifecycle::UpdatableOperator;
using rt::Engine;
using serve::Session;
using serve::SessionOptions;
using hcham::testing::rel_diff;
using hcham::testing::ScopedEnv;

TileHOptions make_options(index_t nb, double eps) {
  TileHOptions opts;
  opts.tile_size = nb;
  opts.clustering.leaf_size = 32;
  opts.hmatrix.compression.eps = eps;
  return opts;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// EXPECT that `fn` throws hcham::Error whose message contains `needle`.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected Error containing \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

/// Scoped file that removes itself.
struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---------------------------------------------------------------------------
// Factor store.

TEST(FactorStore, RoundTripIsBitExact) {
  const index_t n = 240;
  FemBemProblem<double> problem(n, 1.0, 8.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine({.num_workers = 2});
  auto m = TileHMatrix<double>::build(engine, problem.points(), gen,
                                      make_options(64, 1e-8));
  m.factorize(engine);
  const Matrix<double> before = m.to_dense_original();

  TempFile f("lifecycle_roundtrip.hfac");
  lifecycle::save_factors(m, FactorKind::Lu, f.path);

  Engine other({.num_workers = 1});
  auto loaded = lifecycle::load_factors<double>(other, f.path);
  EXPECT_EQ(loaded.kind, FactorKind::Lu);
  EXPECT_EQ(loaded.matrix.structure_signature(), m.structure_signature());
  const Matrix<double> after = loaded.matrix.to_dense_original();
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        sizeof(double) * static_cast<std::size_t>(n) * n),
            0)
      << "payload round trip must be bit-exact";
}

TEST(FactorStore, RejectsTruncatedCorruptedAndMismatchedFiles) {
  const index_t n = 180;
  FemBemProblem<double> problem(n, 1.0, 8.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine({.num_workers = 1});
  auto m = TileHMatrix<double>::build(engine, problem.points(), gen,
                                      make_options(64, 1e-6));
  m.factorize(engine);
  TempFile f("lifecycle_reject.hfac");
  lifecycle::save_factors(m, FactorKind::Lu, f.path);
  const std::vector<unsigned char> good = read_file(f.path);

  // Missing file.
  expect_error_containing(
      [&] { lifecycle::load_factors<double>(engine, "no_such_file.hfac"); },
      "cannot open");

  // Truncated at various cut points (header, tree block, payload).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{12}, std::size_t{100}, good.size() / 2,
        good.size() - 1}) {
    write_file(f.path, std::vector<unsigned char>(good.begin(),
                                                  good.begin() + keep));
    expect_error_containing(
        [&] { lifecycle::load_factors<double>(engine, f.path); }, "truncated");
  }

  // Flipped payload byte: checksum rejects before any tile is trusted.
  {
    std::vector<unsigned char> bad = good;
    bad[bad.size() - 5] ^= 0x40;
    write_file(f.path, bad);
    expect_error_containing(
        [&] { lifecycle::load_factors<double>(engine, f.path); }, "checksum");
  }

  // Flipped structure-signature byte.
  {
    std::vector<unsigned char> bad = good;
    bad[lifecycle::detail::kStructureSigOffset] ^= 0x01;
    write_file(f.path, bad);
    expect_error_containing(
        [&] { lifecycle::load_factors<double>(engine, f.path); },
        "signature mismatch");
  }

  // Wrong magic.
  {
    std::vector<unsigned char> bad = good;
    bad[0] ^= 0xff;
    write_file(f.path, bad);
    expect_error_containing(
        [&] { lifecycle::load_factors<double>(engine, f.path); },
        "not a factor file");
  }

  // Wrong scalar type: double store read as float.
  write_file(f.path, good);
  expect_error_containing(
      [&] { lifecycle::load_factors<float>(engine, f.path); },
      "scalar type mismatch");

  // Hostile element counts must be rejected BEFORE they size an
  // allocation (clean Error, not bad_alloc / OOM). Patch the node count
  // deep in the tree block to 2^31 nodes (~100 GiB of Node storage) —
  // far beyond what the mapped bytes could possibly hold.
  {
    std::vector<unsigned char> bad = good;
    const std::size_t n_nodes_at =
        lifecycle::detail::kHeaderBytes + 8 +
        static_cast<std::size_t>(n) * 24 + 8 + static_cast<std::size_t>(n) * 8;
    const std::int64_t huge = std::int64_t{1} << 31;
    ASSERT_LT(n_nodes_at + sizeof huge, bad.size());
    std::memcpy(bad.data() + n_nodes_at, &huge, sizeof huge);
    write_file(f.path, bad);
    expect_error_containing(
        [&] { lifecycle::load_factors<double>(engine, f.path); },
        "corrupt tree block");
  }
}

/// Factorize a small operator and save it to `path`; returns the file.
/// n = 170 leaves a payload of 32-byte blocks plus an 8-byte tail.
std::vector<unsigned char> save_small_factors(const std::string& path) {
  FemBemProblem<double> problem(170, 1.0, 8.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine({.num_workers = 1});
  auto m = TileHMatrix<double>::build(engine, problem.points(), gen,
                                      make_options(64, 1e-6));
  m.factorize(engine);
  lifecycle::save_factors(m, FactorKind::Lu, path);
  return read_file(path);
}

TEST(FactorStore, RejectsOlderFormatVersion) {
  TempFile f("lifecycle_version.hfac");
  std::vector<unsigned char> bad = save_small_factors(f.path);
  const std::uint32_t old = lifecycle::detail::kVersion - 1;
  std::memcpy(bad.data() + 4, &old, sizeof old);  // after the magic word
  write_file(f.path, bad);
  Engine engine({.num_workers = 1});
  expect_error_containing(
      [&] { lifecycle::load_factors<double>(engine, f.path); },
      "unsupported format version");
}

// The checksum folds 32-byte blocks as four 64-bit lanes and the remaining
// payload % 32 bytes one by one; a flipped byte in either part must be
// caught.
TEST(FactorStore, ChecksumCatchesFlippedWordAndTailBytes) {
  using lifecycle::detail::payload_checksum;
  std::vector<unsigned char> buf(3 * 32 + 7);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  const std::uint64_t sum = payload_checksum(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (const unsigned char bit : {0x01, 0x80}) {
      buf[i] ^= bit;
      EXPECT_NE(payload_checksum(buf.data(), buf.size()), sum)
          << "byte " << i << " bit " << static_cast<int>(bit);
      buf[i] ^= bit;
    }
  }

  TempFile f("lifecycle_checksum.hfac");
  const std::vector<unsigned char> good = save_small_factors(f.path);
  std::uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes,
              good.data() + lifecycle::detail::kPayloadBytesOffset,
              sizeof payload_bytes);
  ASSERT_GT(payload_bytes, 64u);
  const std::size_t payload_start = good.size() - payload_bytes;
  ASSERT_GT(payload_bytes % 32, 0u);
  // Two bytes inside the word blocks, then the last byte of the tail.
  const std::size_t flips[] = {payload_start + 8 + 3,
                               payload_start + 32 * (payload_bytes / 64),
                               good.size() - 1};
  Engine engine({.num_workers = 1});
  for (const std::size_t at : flips) {
    std::vector<unsigned char> bad = good;
    bad[at] ^= 0x10;
    write_file(f.path, bad);
    expect_error_containing(
        [&] { lifecycle::load_factors<double>(engine, f.path); }, "checksum");
  }
}

// ---------------------------------------------------------------------------
// Session persistence.

TEST(SessionPersistence, RestoredSessionSolvesLikeTheOriginal) {
  const index_t n = 240;
  FemBemProblem<double> problem(n, 1.0, 8.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  TempFile f("lifecycle_session.hfac");
  SessionOptions opts;
  opts.workers = 2;
  opts.save_factors_to = f.path;
  auto session = Session<double>::build(problem.points(), gen,
                                        make_options(64, 1e-8), opts);

  SessionOptions ropts;
  ropts.workers = 1;
  // Deliberately wrong: the factor kind must come from the file.
  ropts.cholesky = true;
  auto restored = Session<double>::restore(f.path, ropts);
  EXPECT_FALSE(restored.options().cholesky);
  EXPECT_EQ(restored.size(), n);
  EXPECT_GT(restored.memory_bytes(), 0u);

  auto b = Matrix<double>::random(n, 3, 17);
  Matrix<double> x1 = Matrix<double>::from_view(b.cview());
  Matrix<double> x2 = Matrix<double>::from_view(b.cview());
  session.solve_now(x1.view());
  restored.solve_now(x2.view());
  EXPECT_LT(rel_diff<double>(x2.cview(), x1.cview()), 1e-12)
      << "restored factors must reproduce the original solve";

  // A failed restore must throw, not hand back a half-built session.
  SessionOptions bopts;
  bopts.workers = 1;
  EXPECT_THROW(Session<double>::restore("missing.hfac", bopts), Error);
}

// The file carries a Cholesky factor kind, and a restored session serves
// plain solves: it holds no unfactorized operator to refine against, so a
// refinement request in the restore options is dropped.
TEST(SessionPersistence, RestoredCholeskySessionServesPlainSolves) {
  const index_t n = 240;
  FemBemProblem<double> problem(n, 1.0, 8.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  TempFile f("lifecycle_cholesky.hfac");
  SessionOptions opts;
  opts.workers = 2;
  opts.cholesky = true;
  opts.save_factors_to = f.path;
  auto session = Session<double>::build(problem.points(), gen,
                                        make_options(64, 1e-8), opts);

  SessionOptions ropts;
  ropts.workers = 1;
  ropts.refine_iters = 2;
  auto restored = Session<double>::restore(f.path, ropts);
  EXPECT_TRUE(restored.options().cholesky);
  EXPECT_EQ(restored.options().refine_iters, 0);

  auto b = Matrix<double>::random(n, 2, 19);
  Matrix<double> x1 = Matrix<double>::from_view(b.cview());
  Matrix<double> x2 = Matrix<double>::from_view(b.cview());
  session.solve_now(x1.view());
  const auto rr = restored.solve_now(x2.view());
  EXPECT_EQ(rr.iterations, 0);
  EXPECT_LT(rel_diff<double>(x2.cview(), x1.cview()), 1e-12)
      << "restored Cholesky factors must reproduce the original solve";
}

// ---------------------------------------------------------------------------
// Woodbury updatable operator.

struct WoodburyRig {
  static constexpr index_t n = 260;
  FemBemProblem<double> problem{n, 1.0, 8.0};
  Engine engine{{.num_workers = 2}};
  Matrix<double> a0;  ///< densified compressed operator (the referee base)

  TileHMatrix<double> assemble() {
    auto gen = [this](index_t i, index_t j) { return problem.entry(i, j); };
    auto m = TileHMatrix<double>::build(engine, problem.points(), gen,
                                        make_options(64, 1e-9));
    a0 = m.to_dense_original();
    return m;
  }

  /// x solving (a0 + sum_i U_i V_i^T) x = b by dense LU.
  Matrix<double> referee_solve(
      const std::vector<std::pair<Matrix<double>, Matrix<double>>>& deltas,
      const Matrix<double>& b) const {
    Matrix<double> m = Matrix<double>::from_view(a0.cview());
    for (const auto& [u, v] : deltas)
      la::gemm(la::Op::NoTrans, la::Op::ConjTrans, 1.0, u.cview(), v.cview(),
               1.0, m.view());
    Matrix<double> x = Matrix<double>::from_view(b.cview());
    EXPECT_EQ(la::gesv(m.view(), x.view()), 0);
    return x;
  }
};

TEST(UpdatableOperator, WoodburySolveMatchesDenseReferee) {
  WoodburyRig rig;
  UpdatableOperator<double> op(rig.engine, rig.assemble(), {.max_rank = 32});

  const auto b = Matrix<double>::random(rig.n, 2, 5);
  {  // No delta: plain base solve.
    Matrix<double> x = Matrix<double>::from_view(b.cview());
    op.solve(x.view());
    const auto x_ref = rig.referee_solve({}, b);
    EXPECT_LT(rel_diff<double>(x.cview(), x_ref.cview()), 1e-6);
  }

  std::vector<std::pair<Matrix<double>, Matrix<double>>> deltas;
  deltas.emplace_back(Matrix<double>::random(rig.n, 6, 11),
                      Matrix<double>::random(rig.n, 6, 12));
  op.update(deltas[0].first.cview(), deltas[0].second.cview());
  EXPECT_EQ(op.delta_rank(), 6);
  {
    Matrix<double> x = Matrix<double>::from_view(b.cview());
    op.solve(x.view());
    const auto x_ref = rig.referee_solve(deltas, b);
    EXPECT_LT(rel_diff<double>(x.cview(), x_ref.cview()), 1e-6);
  }

  // Second update accumulates on top of the first.
  deltas.emplace_back(Matrix<double>::random(rig.n, 4, 21),
                      Matrix<double>::random(rig.n, 4, 22));
  op.update(deltas[1].first.cview(), deltas[1].second.cview());
  {
    Matrix<double> x = Matrix<double>::from_view(b.cview());
    op.solve(x.view());
    const auto x_ref = rig.referee_solve(deltas, b);
    EXPECT_LT(rel_diff<double>(x.cview(), x_ref.cview()), 1e-6);
  }

  // Folding the delta into fresh factors serves the same operator.
  EXPECT_FALSE(op.needs_rebase());
  op.rebase();
  EXPECT_EQ(op.delta_rank(), 0);
  {
    Matrix<double> x = Matrix<double>::from_view(b.cview());
    op.solve(x.view());
    const auto x_ref = rig.referee_solve(deltas, b);
    EXPECT_LT(rel_diff<double>(x.cview(), x_ref.cview()), 1e-6);
  }
}

TEST(UpdatableOperator, RankBudgetSignalsRebase) {
  WoodburyRig rig;
  UpdatableOperator<double> op(rig.engine, rig.assemble(), {.max_rank = 4});
  // Honest rank 8 > budget 4: compaction must NOT force a lossy cap, it
  // must raise the rebase signal instead.
  op.update(Matrix<double>::random(rig.n, 8, 31).cview(),
            Matrix<double>::random(rig.n, 8, 32).cview());
  EXPECT_GT(op.delta_rank(), 4);
  EXPECT_TRUE(op.needs_rebase());
  op.rebase();
  EXPECT_FALSE(op.needs_rebase());
  EXPECT_EQ(op.delta_rank(), 0);
}

TEST(UpdatableOperator, BackgroundRebaseKeepsServingAndSwapsIn) {
  WoodburyRig rig;
  UpdatableOperator<double> op(rig.engine, rig.assemble(), {.max_rank = 32});
  std::vector<std::pair<Matrix<double>, Matrix<double>>> deltas;
  deltas.emplace_back(Matrix<double>::random(rig.n, 5, 41),
                      Matrix<double>::random(rig.n, 5, 42));
  op.update(deltas[0].first.cview(), deltas[0].second.cview());

  const auto b = Matrix<double>::random(rig.n, 1, 7);
  op.rebase_async();
  // Woodbury keeps serving while the rebase runs in the background.
  {
    Matrix<double> x = Matrix<double>::from_view(b.cview());
    op.solve(x.view());
    const auto x_ref = rig.referee_solve(deltas, b);
    EXPECT_LT(rel_diff<double>(x.cview(), x_ref.cview()), 1e-6);
  }
  // A second update staged during (or right after) the rebase survives it.
  deltas.emplace_back(Matrix<double>::random(rig.n, 3, 51),
                      Matrix<double>::random(rig.n, 3, 52));
  op.update(deltas[1].first.cview(), deltas[1].second.cview());
  op.wait_rebase();
  EXPECT_FALSE(op.rebase_in_progress());
  EXPECT_LE(op.delta_rank(), 3);  // the folded prefix is gone
  {
    Matrix<double> x = Matrix<double>::from_view(b.cview());
    op.solve(x.view());
    const auto x_ref = rig.referee_solve(deltas, b);
    EXPECT_LT(rel_diff<double>(x.cview(), x_ref.cview()), 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Session cache.

constexpr index_t kCacheN = 160;

serve::Session<double> build_cache_session(double height) {
  FemBemProblem<double> problem(kCacheN, 1.0, height);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  SessionOptions so;
  so.workers = 1;
  return Session<double>::build(problem.points(), gen, make_options(64, 1e-7),
                                so);
}

/// Bytes of one cache session, measured once (all test sessions share n).
std::uint64_t one_session_bytes() {
  static const std::uint64_t bytes = build_cache_session(8.0).memory_bytes();
  return bytes;
}

TEST(SessionCache, LruEvictionOrder) {
  SessionCache<double> cache(
      {.max_bytes = one_session_bytes() * 5 / 2, .spill_dir = ""});
  { auto p = cache.get_or_build("a", [] { return build_cache_session(6.0); }); }
  { auto p = cache.get_or_build("b", [] { return build_cache_session(8.0); }); }
  // Touch a: b becomes the LRU victim.
  { auto p = cache.get_or_build("a", [] { return build_cache_session(6.0); }); }
  { auto p = cache.get_or_build("c", [] { return build_cache_session(10.0); }); }
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.spills, 0u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, s.max_bytes);
}

TEST(SessionCache, PinnedEntriesSurvivePressure) {
  SessionCache<double> cache(
      {.max_bytes = one_session_bytes() * 3 / 2, .spill_dir = ""});
  auto pin_a = cache.get_or_build("a", [] { return build_cache_session(6.0); });
  {
    // b does not fit next to a, but a is pinned: b (unpinned once its own
    // pin drops) is the only legal victim.
    auto pin_b =
        cache.get_or_build("b", [] { return build_cache_session(8.0); });
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_TRUE(cache.contains("b"));
  }
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  // Pinned sessions stay usable under pressure.
  auto b = Matrix<double>::random(kCacheN, 1, 3);
  pin_a.solve_now(b.view());
  EXPECT_TRUE(std::isfinite(la::norm_fro(b.cview())));
}

TEST(SessionCache, SpillToDiskAndReload) {
  TempFile spill_a("a.hfac");  // sanitize(id) + .hfac in cwd
  TempFile spill_b("b.hfac");  // b spills in turn when a reloads
  SessionCache<double> cache(
      {.max_bytes = one_session_bytes() * 3 / 2,
       .spill_dir = "."});
  const auto b = Matrix<double>::random(kCacheN, 1, 9);
  Matrix<double> x_fresh = Matrix<double>::from_view(b.cview());
  {
    auto p = cache.get_or_build("a", [] { return build_cache_session(6.0); });
    p.solve_now(x_fresh.view());
  }
  { auto p = cache.get_or_build("b", [] { return build_cache_session(8.0); }); }
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.spilled("a"));
  {
    auto p = cache.get_or_build("a", [] {
      ADD_FAILURE() << "spilled session must reload from disk, not rebuild";
      return build_cache_session(6.0);
    });
    Matrix<double> x_reloaded = Matrix<double>::from_view(b.cview());
    p.solve_now(x_reloaded.view());
    EXPECT_LT(rel_diff<double>(x_reloaded.cview(), x_fresh.cview()), 1e-12)
        << "reloaded factors must reproduce the original session's solve";
  }
  EXPECT_FALSE(cache.spilled("a"));
  const auto s = cache.stats();
  EXPECT_GE(s.spills, 1u);
  EXPECT_EQ(s.spill_reloads, 1u);
  EXPECT_GE(s.evictions, 1u);
}

TEST(SessionCache, FailedSpillDegradesToDiscard) {
  // The spill dir does not exist, so every eviction-time save_factors
  // fails. That must degrade to a plain discard — counted, never thrown
  // (the spill runs from Pin's noexcept destructor path).
  SessionCache<double> cache(
      {.max_bytes = one_session_bytes() * 3 / 2,
       .spill_dir = "no_such_spill_dir.d"});
  { auto p = cache.get_or_build("a", [] { return build_cache_session(6.0); }); }
  { auto p = cache.get_or_build("b", [] { return build_cache_session(8.0); }); }
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_FALSE(cache.spilled("a"));
  const auto s = cache.stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_EQ(s.spills, 0u);
  EXPECT_GE(s.failed_spills, 1u);
  // The discarded id stays serveable through its builder.
  bool rebuilt = false;
  {
    auto p = cache.get_or_build("a", [&rebuilt] {
      rebuilt = true;
      return build_cache_session(6.0);
    });
    auto b = Matrix<double>::random(kCacheN, 1, 5);
    p.solve_now(b.view());
    EXPECT_TRUE(std::isfinite(la::norm_fro(b.cview())));
  }
  EXPECT_TRUE(rebuilt);
}

TEST(SessionCache, BrokenSpillFileFallsBackToBuilder) {
  TempFile spill_a("a.hfac");
  TempFile spill_b("b.hfac");  // b spills when a's rebuild re-evicts it
  SessionCache<double> cache(
      {.max_bytes = one_session_bytes() * 3 / 2,
       .spill_dir = "."});
  { auto p = cache.get_or_build("a", [] { return build_cache_session(6.0); }); }
  { auto p = cache.get_or_build("b", [] { return build_cache_session(8.0); }); }
  ASSERT_TRUE(cache.spilled("a"));
  // Sabotage the spill file: the reload must drop the spill record and
  // fall back to the builder, not leave "a" permanently unserveable.
  write_file(spill_a.path, {0xde, 0xad, 0xbe, 0xef});
  bool rebuilt = false;
  {
    auto p = cache.get_or_build("a", [&rebuilt] {
      rebuilt = true;
      return build_cache_session(6.0);
    });
    auto b = Matrix<double>::random(kCacheN, 1, 7);
    p.solve_now(b.view());
    EXPECT_TRUE(std::isfinite(la::norm_fro(b.cview())));
  }
  EXPECT_TRUE(rebuilt);
  EXPECT_FALSE(cache.spilled("a"));
  // And the rebuilt entry serves hits like any other resident session.
  {
    auto p = cache.get_or_build("a", [] {
      ADD_FAILURE() << "resident session must hit, not rebuild";
      return build_cache_session(6.0);
    });
  }
}

TEST(SessionCache, ConcurrentTenantsAreSerializedPerSession) {
  SessionCache<double> cache(
      {.max_bytes = one_session_bytes() * 3 / 2, .spill_dir = ""});
  constexpr int kThreads = 4;
  constexpr int kIters = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      const std::string id = t % 2 == 0 ? "x" : "y";
      const double height = t % 2 == 0 ? 6.0 : 10.0;
      for (int it = 0; it < kIters; ++it) {
        auto pin = cache.get_or_build(
            id, [height] { return build_cache_session(height); });
        auto b = Matrix<double>::random(kCacheN, 1,
                                        static_cast<std::uint64_t>(t * 31 + it));
        pin.solve_now(b.view());
        if (!std::isfinite(static_cast<double>(la::norm_fro(b.cview()))))
          failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads * kIters));
  // Two distinct ids: each id is built at most once per residency period.
  EXPECT_GE(s.misses, 2u);
}

TEST(SessionCache, StatsJsonHasStableKeys) {
  SessionCache<double> cache({.max_bytes = 1u << 30, .spill_dir = ""});
  { auto p = cache.get_or_build("a", [] { return build_cache_session(6.0); }); }
  const std::string js = cache.stats_json();
  for (const char* key :
       {"\"hits\":", "\"misses\":", "\"evictions\":", "\"spills\":",
        "\"failed_spills\":", "\"spill_reloads\":", "\"entries\":",
        "\"pinned\":", "\"bytes\":", "\"max_bytes\":"}) {
    EXPECT_NE(js.find(key), std::string::npos) << key << " missing in " << js;
  }
  // And the tallies ride along in the ServiceStats JSON "cache" section.
  serve::ServiceStats stats;
  cache.record_to(stats);
  const std::string service_js = serve::to_json(stats.snapshot());
  EXPECT_NE(service_js.find("\"cache\":{\"hits\":"), std::string::npos)
      << service_js;
  EXPECT_NE(service_js.find("\"misses\":1"), std::string::npos) << service_js;
}

TEST(EnvBounded, LifecycleConfigFromEnvParsesAndBounds) {
  // Hostile values degrade to the defaults, never a clamp to an extreme.
  ScopedEnv max_rank("HCHAM_WOODBURY_MAX_RANK", "-4");
  ScopedEnv cache_bytes("HCHAM_SESSION_CACHE_BYTES", "12");  // < 4 KiB floor
  ScopedEnv store_dir("HCHAM_FACTOR_STORE_DIR", "/tmp/hcham_spill");
  auto c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 32);
  EXPECT_EQ(c.session_cache_bytes, 256ull << 20);
  EXPECT_EQ(c.factor_store_dir, "/tmp/hcham_spill");

  max_rank.set("not_a_number");
  cache_bytes.set("99999999999999999999");  // overflow
  c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 32);
  EXPECT_EQ(c.session_cache_bytes, 256ull << 20);

  // In-range values are taken verbatim (bounds inclusive).
  max_rank.set("1");
  cache_bytes.set("4096");
  c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 1);
  EXPECT_EQ(c.session_cache_bytes, 4096u);
  max_rank.set("4096");
  c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 4096);

  max_rank.set(nullptr);
  cache_bytes.set(nullptr);
  store_dir.set(nullptr);
  c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 32);
  EXPECT_EQ(c.session_cache_bytes, 256ull << 20);
  EXPECT_TRUE(c.factor_store_dir.empty());
}

}  // namespace
}  // namespace hcham
