// Counting replacement of the global allocation functions: a process-wide
// counter (all threads: client, shard strands, flusher) and a per-thread
// counter (exact per-call deltas while other threads allocate). Compiled
// out under AddressSanitizer, which must own operator new; the counts then
// read 0.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<std::uint64_t> g_process_allocs{0};
thread_local std::uint64_t t_thread_allocs = 0;
}  // namespace

namespace perfbench {
std::uint64_t thread_allocs() noexcept { return t_thread_allocs; }
std::uint64_t process_allocs() noexcept {
  return g_process_allocs.load(std::memory_order_relaxed);
}
}  // namespace perfbench

#if !defined(__SANITIZE_ADDRESS__)

namespace {
void count_one() noexcept {
  g_process_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_thread_allocs;
}
}  // namespace

void* operator new(std::size_t size) {
  count_one();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  count_one();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif
