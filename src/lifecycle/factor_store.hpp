// Factor persistence: a versioned binary format for factorized TileHMatrix
// instances plus an mmap-backed loader, so a serve::Session cold-starts
// from disk in milliseconds instead of refactorizing (DESIGN.md section 12).
//
// File layout (all integers little-endian on the writing host; the header
// endianness word detects a mismatched reader):
//
//   [header]   fixed 160 bytes: magic/version/endianness, scalar tag,
//              factor kind, structure + cluster-tree signatures, payload
//              extent + checksum, and every TileHOptions field that
//              feeds structure_signature()
//   [tree]     points, permutation, nodes (offset/size/children only:
//              parents and bounding boxes are recomputed on load), tile
//              roots — everything ClusterTree::from_parts validates
//   [payload]  per-tile records in row-major tile order via
//              hmat::write_payload, every scalar run 64-byte aligned so an
//              mmap'd reader could hand aligned slices straight to kernels
//
// Trust model: nothing from the file is used before it is validated. The
// tree block goes through ClusterTree::from_parts's structural checks, the
// reconstructed skeleton's structure_signature() must equal the stored one,
// and the payload checksum must match before any tile is filled — so a
// truncated, corrupted, or wrong-structure file fails with a clean Error
// and no partially-populated matrix escapes.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "core/tile_h.hpp"
#include "hmatrix/io.hpp"

namespace hcham::lifecycle {

enum class FactorKind : std::uint32_t { Lu = 0, Cholesky = 1 };

namespace detail {

inline constexpr std::uint32_t kMagic = 0x46484348u;  // "HCHF"
inline constexpr std::uint32_t kVersion = 2;  // 2: four-lane checksum
inline constexpr std::uint32_t kEndianness = 0x01020304u;

// Fixed header offsets (bytes). Tests poke these to simulate targeted
// corruption; bump kVersion if the layout or the checksum ever changes.
inline constexpr std::size_t kStructureSigOffset = 24;
inline constexpr std::size_t kPayloadBytesOffset = 40;
inline constexpr std::size_t kPayloadSumOffset = 48;
inline constexpr std::size_t kHeaderBytes = 160;

template <typename T>
constexpr std::uint32_t scalar_tag() {
  if constexpr (std::is_same_v<T, float>) return 1;
  if constexpr (std::is_same_v<T, double>) return 2;
  if constexpr (std::is_same_v<T, std::complex<float>>) return 3;
  if constexpr (std::is_same_v<T, std::complex<double>>) return 4;
  return 0;
}

/// Payload checksum: four independent FNV-1a-style lanes, each folding in
/// every fourth 64-bit word (one multiply per 8 bytes per lane, and the
/// lanes' multiply chains overlap), then a byte-wise tail, then the lanes
/// folded into one value. Every step is a bijection of the lane state, so
/// any change confined to one word or one tail byte always changes the
/// result. Words are read in host byte order; the header's endianness word
/// rejects a mismatched reader before this runs.
inline std::uint64_t payload_checksum(const unsigned char* p, std::size_t n) {
  constexpr std::uint64_t kBasis = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t lane[4] = {kBasis, kBasis ^ 1, kBasis ^ 2, kBasis ^ 3};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t w;
      std::memcpy(&w, p + i + 8 * k, sizeof w);
      lane[k] = (lane[k] ^ w) * kPrime;
    }
  }
  for (; i < n; ++i) lane[0] = (lane[0] ^ p[i]) * kPrime;
  std::uint64_t h = kBasis;
  for (const std::uint64_t l : lane) h = (h ^ l) * kPrime;
  return h;
}

/// Growable in-memory sink; the whole file is assembled here so the
/// payload checksum can be patched into the header before anything touches
/// the filesystem, and the final write is one atomic tmp+rename.
class VecSink {
 public:
  void put_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  void put_u32(std::uint32_t v) { put_bytes(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_bytes(&v, sizeof v); }
  void put_i64(index_t v) {
    const std::int64_t w = static_cast<std::int64_t>(v);
    put_bytes(&w, sizeof w);
  }
  void put_f64(double v) { put_bytes(&v, sizeof v); }
  template <typename T>
  void put_scalars(const T* p, index_t count) {
    align64();
    put_bytes(p, sizeof(T) * static_cast<std::size_t>(count));
  }
  void align64() { buf_.resize((buf_.size() + 63) & ~std::size_t{63}, 0); }
  std::size_t size() const { return buf_.size(); }
  void patch_u64(std::size_t at, std::uint64_t v) {
    std::memcpy(buf_.data() + at, &v, sizeof v);
  }
  const std::vector<unsigned char>& bytes() const { return buf_; }

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked reader over the mapped file; every access that would run
/// off the end throws instead of reading garbage.
class MapCursor {
 public:
  MapCursor(const unsigned char* base, std::size_t size)
      : base_(base), size_(size) {}

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  index_t i64() { return static_cast<index_t>(get<std::int64_t>()); }
  double f64() { return get<double>(); }
  template <typename T>
  void scalars(T* dst, index_t count) {
    align64();
    const std::size_t n = sizeof(T) * static_cast<std::size_t>(count);
    need(n);
    std::memcpy(dst, base_ + at_, n);
    at_ += n;
  }
  void align64() { at_ = (at_ + 63) & ~std::size_t{63}; }
  std::size_t pos() const { return at_; }
  /// Unread mapped bytes; bounds element counts read from the file before
  /// anything is allocated from them (align64 may park at_ past the end).
  std::size_t remaining() const { return at_ >= size_ ? 0 : size_ - at_; }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, base_ + at_, sizeof v);
    at_ += sizeof v;
    return v;
  }
  void need(std::size_t n) {
    if (at_ + n > size_) throw Error("factor store: truncated file");
  }

  const unsigned char* base_;
  std::size_t size_;
  std::size_t at_ = 0;
};

struct MappedFile {
  explicit MappedFile(const std::string& path) {
    fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw Error("factor store: cannot open " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw Error("factor store: cannot stat " + path);
    }
    len = static_cast<std::size_t>(st.st_size);
    if (len > 0) {
      ptr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
      if (ptr == MAP_FAILED) {
        ::close(fd);
        throw Error("factor store: mmap failed for " + path);
      }
    }
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (ptr != nullptr && ptr != MAP_FAILED) ::munmap(ptr, len);
    if (fd >= 0) ::close(fd);
  }
  const unsigned char* data() const {
    return static_cast<const unsigned char*>(ptr);
  }
  std::size_t size() const { return len; }

  int fd = -1;
  void* ptr = nullptr;
  std::size_t len = 0;
};

inline void write_file_atomic(const std::string& path,
                              const std::vector<unsigned char>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw Error("factor store: cannot write " + tmp);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw Error("factor store: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("factor store: cannot rename into place: " + path);
  }
}

}  // namespace detail

template <typename T>
struct LoadedFactors {
  core::TileHMatrix<T> matrix;
  FactorKind kind;
};

/// Serialize factorized (or assembled) tiles to `path`, atomically
/// (tmp + rename): readers never observe a half-written store.
template <typename T>
void save_factors(const core::TileHMatrix<T>& m, FactorKind kind,
                  const std::string& path) {
  const core::TileHOptions& opts = m.options();
  const cluster::ClusterTree& tree = m.tree();
  detail::VecSink sink;
  // Header.
  sink.put_u32(detail::kMagic);
  sink.put_u32(detail::kVersion);
  sink.put_u32(detail::kEndianness);
  sink.put_u32(detail::scalar_tag<T>());
  sink.put_u32(static_cast<std::uint32_t>(kind));
  sink.put_u32(0);  // reserved
  sink.put_u64(m.structure_signature());
  sink.put_u64(tree.structure_signature());
  sink.put_u64(0);  // payload_bytes, patched below
  sink.put_u64(0);  // payload checksum, patched below
  sink.put_i64(m.size());
  sink.put_i64(m.tile_size());
  sink.put_i64(m.num_tiles());
  sink.put_i64(static_cast<index_t>(opts.format));
  sink.put_i64(opts.clustering.leaf_size);
  sink.put_i64(static_cast<index_t>(opts.clustering.strategy));
  sink.put_i64(static_cast<index_t>(opts.hmatrix.admissibility.kind));
  sink.put_f64(opts.hmatrix.admissibility.eta);
  sink.put_i64(opts.hmatrix.admissibility.use_min_diameter ? 1 : 0);
  sink.put_f64(opts.hmatrix.compression.eps);
  sink.put_i64(opts.hmatrix.compression.max_rank);
  sink.put_i64(static_cast<index_t>(opts.hmatrix.compression.method));
  sink.put_i64(opts.hmatrix.compression.recompress ? 1 : 0);
  HCHAM_CHECK(sink.size() == detail::kHeaderBytes);
  // Cluster tree + tile roots.
  sink.put_i64(tree.num_points());
  for (const cluster::Point3& p : tree.points()) {
    sink.put_f64(p.x);
    sink.put_f64(p.y);
    sink.put_f64(p.z);
  }
  sink.put_i64(static_cast<index_t>(tree.permutation().size()));
  for (const index_t p : tree.permutation()) sink.put_i64(p);
  sink.put_i64(tree.num_nodes());
  for (index_t i = 0; i < tree.num_nodes(); ++i) {
    const cluster::ClusterTree::Node& nd = tree.node(i);
    sink.put_i64(nd.offset);
    sink.put_i64(nd.size);
    sink.put_i64(nd.child[0]);
    sink.put_i64(nd.child[1]);
  }
  const std::vector<index_t>& roots = m.clustering().tile_roots;
  sink.put_i64(static_cast<index_t>(roots.size()));
  for (const index_t r : roots) sink.put_i64(r);
  // Tile payloads.
  sink.align64();
  const std::size_t payload_start = sink.size();
  const index_t nt = m.num_tiles();
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j < nt; ++j) {
      const tile::Tile<T>& t = m.desc().tile(i, j);
      if (t.format == tile::TileFormat::Full) {
        sink.put_u32(hmat::kPayloadFull);
        sink.put_scalars(t.full.data(), t.m * t.n);
      } else {
        hmat::write_payload(*t.h, sink);
      }
    }
  }
  sink.patch_u64(detail::kPayloadBytesOffset,
                 static_cast<std::uint64_t>(sink.size() - payload_start));
  sink.patch_u64(detail::kPayloadSumOffset,
                 detail::payload_checksum(sink.bytes().data() + payload_start,
                                          sink.size() - payload_start));
  detail::write_file_atomic(path, sink.bytes());
  lifecycle_counters().bump(lifecycle_counters().factor_saves);
}

/// Reconstruct a factorized TileHMatrix from `path` via mmap. Throws
/// hcham::Error on any validation failure; on success the returned matrix
/// is interchangeable with the one that was saved (bit-identical payloads,
/// equal structure_signature, so cached task graphs replay on it).
template <typename T>
LoadedFactors<T> load_factors(rt::Engine& engine, const std::string& path) {
  detail::MappedFile map(path);
  detail::MapCursor cur(map.data(), map.size());
  if (cur.u32() != detail::kMagic)
    throw Error("factor store: not a factor file: " + path);
  if (cur.u32() != detail::kVersion)
    throw Error("factor store: unsupported format version in " + path);
  if (cur.u32() != detail::kEndianness)
    throw Error("factor store: endianness mismatch in " + path);
  if (cur.u32() != detail::scalar_tag<T>())
    throw Error("factor store: scalar type mismatch in " + path);
  const std::uint32_t kind_raw = cur.u32();
  if (kind_raw > static_cast<std::uint32_t>(FactorKind::Cholesky))
    throw Error("factor store: unknown factor kind in " + path);
  cur.u32();  // reserved
  const std::uint64_t structure_sig = cur.u64();
  const std::uint64_t tree_sig = cur.u64();
  const std::uint64_t payload_bytes = cur.u64();
  const std::uint64_t payload_sum = cur.u64();
  const index_t n = cur.i64();
  const index_t tile_size = cur.i64();
  const index_t num_tiles = cur.i64();
  core::TileHOptions opts;
  const index_t format = cur.i64();
  opts.clustering.leaf_size = cur.i64();
  const index_t strategy = cur.i64();
  const index_t adm_kind = cur.i64();
  opts.hmatrix.admissibility.eta = cur.f64();
  opts.hmatrix.admissibility.use_min_diameter = cur.i64() != 0;
  opts.hmatrix.compression.eps = cur.f64();
  opts.hmatrix.compression.max_rank = cur.i64();
  const index_t method = cur.i64();
  opts.hmatrix.compression.recompress = cur.i64() != 0;
  if (n < 0 || tile_size < 1 || num_tiles != ceil_div(n, tile_size) ||
      format < 0 || format > 2 || strategy < 0 || strategy > 1 ||
      adm_kind < 0 || adm_kind > 2 || method < 0 || method > 2 ||
      opts.clustering.leaf_size < 1)
    throw Error("factor store: corrupt header in " + path);
  opts.tile_size = tile_size;
  opts.format = static_cast<core::TileRepresentation>(format);
  opts.clustering.strategy = static_cast<cluster::Bisection>(strategy);
  opts.hmatrix.admissibility.kind =
      static_cast<cluster::AdmissibilityCondition::Kind>(adm_kind);
  opts.hmatrix.compression.method =
      static_cast<rk::CompressionMethod>(method);
  // Cluster tree block. Every element count from the file is bounded by
  // the mapped bytes left to read BEFORE it sizes an allocation, so a
  // corrupt or hostile header fails with a clean Error instead of
  // bad_alloc / OOM.
  const index_t n_points = cur.i64();
  if (n_points != n ||
      static_cast<std::uint64_t>(n_points) > cur.remaining() / (3 * sizeof(double)))
    throw Error("factor store: corrupt tree block in " + path);
  std::vector<cluster::Point3> points(static_cast<std::size_t>(n_points));
  for (cluster::Point3& p : points) {
    p.x = cur.f64();
    p.y = cur.f64();
    p.z = cur.f64();
  }
  const index_t n_perm = cur.i64();
  if (n_perm != n ||
      static_cast<std::uint64_t>(n_perm) > cur.remaining() / sizeof(std::int64_t))
    throw Error("factor store: corrupt tree block in " + path);
  std::vector<index_t> perm(static_cast<std::size_t>(n_perm));
  for (index_t& p : perm) p = cur.i64();
  const index_t n_nodes = cur.i64();
  if (n_nodes < 0 ||
      static_cast<std::uint64_t>(n_nodes) >
          cur.remaining() / (4 * sizeof(std::int64_t)))
    throw Error("factor store: corrupt tree block in " + path);
  std::vector<cluster::ClusterTree::Node> nodes(
      static_cast<std::size_t>(n_nodes));
  for (cluster::ClusterTree::Node& nd : nodes) {
    nd.offset = cur.i64();
    nd.size = cur.i64();
    nd.child[0] = cur.i64();
    nd.child[1] = cur.i64();
  }
  const index_t n_roots = cur.i64();
  if (n_roots != num_tiles ||
      static_cast<std::uint64_t>(n_roots) > cur.remaining() / sizeof(std::int64_t))
    throw Error("factor store: corrupt tree block in " + path);
  std::vector<index_t> roots(static_cast<std::size_t>(n_roots));
  for (index_t& r : roots) r = cur.i64();
  // from_parts enforces the structural invariants; re-wrap its Error with
  // the path for context.
  cluster::TileClustering tc;
  try {
    tc.tree = cluster::ClusterTree::from_parts(std::move(points),
                                               std::move(perm),
                                               std::move(nodes));
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " in " + path);
  }
  if (tc.tree.structure_signature() != tree_sig)
    throw Error("factor store: cluster tree signature mismatch in " + path);
  for (index_t i = 0; i < n_roots; ++i) {
    const index_t r = roots[static_cast<std::size_t>(i)];
    if (r < 0 || r >= tc.tree.num_nodes() ||
        tc.tree.node(r).offset != i * tile_size)
      throw Error("factor store: corrupt tile roots in " + path);
  }
  tc.tile_roots = std::move(roots);
  tc.tile_size = tile_size;
  // Checksum the payload region before touching it.
  cur.align64();
  const std::size_t payload_start = cur.pos();
  if (payload_start > map.size() ||
      map.size() - payload_start != payload_bytes)
    throw Error("factor store: truncated file");
  if (detail::payload_checksum(map.data() + payload_start, payload_bytes) !=
      payload_sum)
    throw Error("factor store: payload checksum mismatch in " + path);
  // The reconstructed skeleton must hash to the recorded signature before
  // any payload is trusted; this pins every option the task graphs and the
  // tile shapes depend on.
  core::TileHMatrix<T> m =
      core::TileHMatrix<T>::skeleton(engine, std::move(tc), opts);
  if (m.structure_signature() != structure_sig)
    throw Error("factor store: structure signature mismatch in " + path);
  for (index_t i = 0; i < num_tiles; ++i) {
    for (index_t j = 0; j < num_tiles; ++j) {
      tile::Tile<T>& t = m.desc().tile(i, j);
      if (t.format == tile::TileFormat::Full) {
        if (cur.u32() != hmat::kPayloadFull)
          throw Error("factor store: dense tile payload expected in " + path);
        t.full.reset(t.m, t.n);
        cur.scalars(t.full.data(), t.m * t.n);
      } else {
        hmat::read_payload(*t.h, cur);
      }
    }
  }
  if (cur.pos() != map.size())
    throw Error("factor store: trailing bytes after payload in " + path);
  lifecycle_counters().bump(lifecycle_counters().factor_loads);
  return LoadedFactors<T>{std::move(m), static_cast<FactorKind>(kind_raw)};
}

}  // namespace hcham::lifecycle
