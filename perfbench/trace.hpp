// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files only: around the public
// calls a workload makes into the libraries, and inside the forwarding
// Application decorator (traced_app.hpp). Nothing here reaches into src/.
// Spans stay in memory until the run ends and are then written out as
// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// One closed span. Times are seconds since the tracer was created.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::size_t id = 0;
  std::size_t parent = 0;  ///< 0 = no parent
  std::uint64_t op = 0;    ///< op id shared by every span of one op
  int thread = 0;          ///< small per-thread index (0 = first recorder)
  std::vector<std::pair<std::string, double>> args;  ///< counts for `args`

  double seconds() const { return end - start; }
};

/// Thread-safe span store. Ids are handed out at span start, so a parent
/// id can be passed to children that run on other threads.
class Tracer {
 public:
  Tracer();

  double now() const;
  std::size_t next_id();
  void record(Span span);

  /// Spans of one op (copied out under the lock).
  std::vector<Span> spans_of(std::uint64_t op) const;

  /// Chrome trace-event JSON: one process row per workload (named after
  /// it), one thread row per recording thread, "X" complete events with
  /// the op id, parent span and counts in `args`.
  void write_chrome_json(const std::string& path,
                         const std::string& workload) const;

 private:
  int thread_index();

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  // guards everything below
  std::size_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t op,
             std::size_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const { return span_.id; }
  void arg(std::string key, double value);

 private:
  Tracer* tracer_;
  Span span_;
};

/// Length of the union of [start, end) intervals.
double covered_seconds(std::vector<std::pair<double, double>> intervals);

}  // namespace perfbench
