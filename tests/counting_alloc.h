// A counting replacement of the global allocator, for tests that assert a
// code path makes no heap allocation or bound the heap a structure holds.
//
// This header *defines* the replaceable global operator new and delete, so
// include it in exactly one source file of a test binary. Every form that
// libstdc++ does not route through operator new(size_t) itself is replaced,
// each paired with a matching delete, and every one of them stays out of
// line: inlined into a caller, GCC sees malloc's pointer meet a sized
// delete (or free meet operator new's pointer) and warns
// -Wmismatched-new-delete, which -Werror turns into a failed Release build.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace counting_alloc {

/// Heap allocations since the process started, on any thread.
inline std::atomic<std::size_t> allocations{0};

/// Bytes held right now by blocks from operator new, on any thread: each
/// block counts its malloc_usable_size from allocation until release.
inline std::atomic<std::size_t> live_bytes{0};

inline void* allocate(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

inline void release(void* p) {
  if (p == nullptr) return;
  live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

/// Heap allocations made by `calls` runs of fn(i).
template <typename Fn>
std::size_t allocations_over(std::size_t calls, const Fn& fn) {
  const std::size_t before = allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < calls; ++i) fn(i);
  return allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace counting_alloc

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = counting_alloc::allocate(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counting_alloc::allocate(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counting_alloc::allocate(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { counting_alloc::release(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { counting_alloc::release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  counting_alloc::release(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  counting_alloc::release(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  counting_alloc::release(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counting_alloc::release(p);
}
