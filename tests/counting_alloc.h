// A counting replacement of the global allocator, for tests that assert a
// code path makes no heap allocation.
//
// This header *defines* the replaceable global operator new and delete, so
// include it in exactly one source file of a test binary. Every form that
// libstdc++ does not route through operator new(size_t) itself is replaced,
// each paired with a matching delete, and every one of them stays out of
// line: inlined into a caller, GCC sees malloc's pointer meet a sized
// delete (or free meet operator new's pointer) and warns
// -Wmismatched-new-delete, which -Werror turns into a failed Release build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace counting_alloc {

/// Heap allocations since the process started, on any thread.
inline std::atomic<std::size_t> allocations{0};

inline void* allocate(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
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
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
