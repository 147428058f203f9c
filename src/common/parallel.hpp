// Shared parallel execution layer: a reusable worker pool plus a
// deterministic parallel_for that every CPU kernel routes through.
//
// Design notes:
//  * Determinism first. parallel_for splits [begin, end) into contiguous
//    chunks that are a pure function of the range and the pool's thread
//    count; workers never share accumulators, so kernels that write
//    disjoint row ranges produce bit-identical results at every thread
//    count (no atomics on float accumulation).
//  * The calling thread participates: ThreadPool(t) serves t-way
//    parallelism with t-1 workers plus the caller. t <= 1 runs inline
//    with zero synchronization, so the serial path *is* the parallel
//    path with one chunk.
//  * Nested parallel_for calls run inline on the calling worker rather
//    than re-entering the pool (no deadlock, no oversubscription).
//  * Exceptions thrown by chunk bodies are captured and the first one is
//    rethrown on the calling thread after all chunks finish; the pool
//    stays usable afterwards.
//
// The pool used by default is sized from TASD_NUM_THREADS (falling back
// to std::thread::hardware_concurrency) — see default_pool().
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace tasd::rt {

/// Reusable fixed-size worker pool executing parallel_for chunks.
class ThreadPool {
 public:
  /// `num_threads` is the total parallelism (workers + calling thread).
  /// 0 and 1 both mean "serial": no worker threads are spawned.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism this pool provides (always >= 1).
  [[nodiscard]] std::size_t num_threads() const { return threads_; }

  /// Number of spawned worker threads (num_threads() - 1, or 0 when
  /// serial).
  [[nodiscard]] std::size_t workers() const;

  /// Run fn(chunk_begin, chunk_end) over a deterministic partition of
  /// [begin, end) into at most num_threads() contiguous chunks of at
  /// least `grain` iterations each. Blocks until every chunk finished;
  /// rethrows the first chunk exception. Safe to call from inside a
  /// chunk body (the nested call runs inline).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Chunk boundaries parallel_for would use for a range of length `len`
  /// with the given grain: a pure function of (len, grain, num_threads),
  /// exposed so tests can assert the partition is deterministic.
  [[nodiscard]] std::vector<std::size_t> partition(std::size_t len,
                                                   std::size_t grain) const;

 private:
  struct Impl;
  std::size_t threads_ = 1;
  Impl* impl_ = nullptr;  // null when serial
};

/// Process-wide default pool, sized from the TASD_NUM_THREADS environment
/// variable (unset/0 = std::thread::hardware_concurrency). Constructed on
/// first use.
ThreadPool& default_pool();

/// Thread count default_pool() is (or would be) built with.
std::size_t default_num_threads();

/// parallel_for on the default pool.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Run fn(i) once for every i in [0, count), one task per index: each
/// participating thread claims the next unclaimed index from a shared
/// counter. For tasks of uneven cost (one per network layer), where
/// parallel_for's contiguous chunks would leave threads idle behind the
/// largest chunk. Results are independent of the thread count when
/// fn(i) writes only state owned by index i. Serial pools and nested
/// calls run every index inline, in order; the first exception is
/// rethrown after all claimed tasks finish.
void for_each_index(ThreadPool& pool, std::size_t count,
                    const std::function<void(std::size_t)>& fn);

}  // namespace tasd::rt
