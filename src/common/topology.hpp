// Host topology probes for the bench JSON stamping (EXPERIMENTS.md):
// hardware thread count, NUMA node count, and the L1 data-cache line size.
// All probes are best-effort with safe fallbacks — no libnuma dependency,
// just sysfs/sysconf on Linux and portable defaults elsewhere. Results are
// cached after the first call; topology does not change underneath a
// running process.
#pragma once

#include <thread>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>

#include <cstring>
#endif

namespace hcham {

/// Hardware threads visible to this process (>= 1).
inline int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Number of online NUMA nodes. Counts /sys/devices/system/node/node<N>
/// directories on Linux; 1 when the sysfs tree is absent (containers,
/// non-Linux hosts, single-socket machines without the node tree).
inline int numa_node_count() {
  static const int cached = [] {
#if defined(__linux__)
    DIR* dir = ::opendir("/sys/devices/system/node");
    if (dir == nullptr) return 1;
    int nodes = 0;
    while (dirent* e = ::readdir(dir)) {
      if (std::strncmp(e->d_name, "node", 4) != 0) continue;
      const char* p = e->d_name + 4;
      if (*p == '\0') continue;
      bool digits = true;
      for (; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') {
          digits = false;
          break;
        }
      }
      if (digits) ++nodes;
    }
    ::closedir(dir);
    return nodes > 0 ? nodes : 1;
#else
    return 1;
#endif
  }();
  return cached;
}

/// L1 data-cache line size in bytes; 64 when the host will not say.
inline int cache_line_bytes() {
  static const int cached = [] {
#if defined(__linux__) && defined(_SC_LEVEL1_DCACHE_LINESIZE)
    const long sz = ::sysconf(_SC_LEVEL1_DCACHE_LINESIZE);
    if (sz > 0) return static_cast<int>(sz);
#endif
    return 64;
  }();
  return cached;
}

}  // namespace hcham
