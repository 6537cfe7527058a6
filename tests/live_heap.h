// Live heap bytes of a test program, kept by replacement global allocation
// functions. A replacement allocation function may not be inline, so include
// this header from exactly one translation unit of a test program.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<std::int64_t> g_live_heap_bytes{0};

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_heap_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

// The replacement operator new above allocates with malloc, so free() is
// the matching release; GCC cannot see that pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
#pragma GCC diagnostic pop

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
