// Size-class recycling arena for coroutine frames.
//
// Protocol code (src/core/tx.cc commit chains, recovery, lease renewal) is
// written as C++20 coroutines; every Task<T> and Detached frame is one
// heap allocation, and at bench load those dominate the allocator profile.
// Frames churn fast and cluster around a handful of sizes, so a per-size
// free list turns almost every frame allocation into a pointer pop.
//
// Design notes:
//   - The free lists are thread_local: a simulation runs on one thread (at
//     most one live Cluster per thread), so its frames never cross threads,
//     recycling order stays deterministic (LIFO per class), and clusters on
//     separate threads do not share lists.
//   - Requests are rounded up to 64-byte classes; anything over
//     kMaxRecycledBytes falls through to the global allocator.
//   - Recycled blocks stay on their thread's bins for reuse and are freed
//     when the thread exits.
//   - Under AddressSanitizer the arena is disabled entirely: recycling
//     would blind ASan to use-after-free on destroyed coroutine frames,
//     which is exactly the class of bug the sanitizer CI job exists to
//     catch.
#ifndef SRC_SIM_FRAME_ARENA_H_
#define SRC_SIM_FRAME_ARENA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define FARM_FRAME_ARENA_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FARM_FRAME_ARENA_DISABLED 1
#endif
#endif

namespace farm {

class FrameArena {
 public:
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kMaxRecycledBytes = 4096;
  static constexpr size_t kNumClasses = kMaxRecycledBytes / kClassBytes;

  static void* Alloc(size_t n) {
#ifndef FARM_FRAME_ARENA_DISABLED
    size_t cls = ClassFor(n);
    if (cls < kNumClasses) {
      FreeNode*& head = Bins().heads[cls];
      if (head != nullptr) {
        FreeNode* node = head;
        head = node->next;
        recycled_hits_++;
        return node;
      }
      return ::operator new((cls + 1) * kClassBytes);
    }
#endif
    return ::operator new(n);
  }

  static void Free(void* p, size_t n) noexcept {
    (void)n;  // unused when the arena is compiled out under ASan
#ifndef FARM_FRAME_ARENA_DISABLED
    size_t cls = ClassFor(n);
    if (cls < kNumClasses) {
      FreeNode* node = static_cast<FreeNode*>(p);
      node->next = Bins().heads[cls];
      Bins().heads[cls] = node;
      return;
    }
#endif
    ::operator delete(p);
  }

  // Number of allocations this thread served from a free list (telemetry
  // for tests and benches).
  static uint64_t recycled_hits() { return recycled_hits_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static size_t ClassFor(size_t n) { return (n - 1) / kClassBytes; }

  struct FreeLists {
    std::array<FreeNode*, kNumClasses> heads{};
    FreeLists() = default;
    FreeLists(const FreeLists&) = delete;
    FreeLists& operator=(const FreeLists&) = delete;
    ~FreeLists() {
      for (FreeNode* head : heads) {
        while (head != nullptr) {
          FreeNode* next = head->next;
          ::operator delete(head);
          head = next;
        }
      }
    }
  };

  static FreeLists& Bins() {
    static thread_local FreeLists bins;
    return bins;
  }

  static inline thread_local uint64_t recycled_hits_ = 0;
};

// Base class for coroutine promise types whose frames should be arena
// recycled. The compiler looks up operator new/delete in the promise type's
// scope, so inheriting is enough; the sized operator delete is required so
// the frame returns to the right size class.
struct ArenaFrame {
  static void* operator new(size_t n) { return FrameArena::Alloc(n); }
  static void operator delete(void* p, size_t n) noexcept { FrameArena::Free(p, n); }
};

}  // namespace farm

#endif  // SRC_SIM_FRAME_ARENA_H_
