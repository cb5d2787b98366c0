#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::size_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

int Tracer::thread_index() {
  const std::thread::id self = std::this_thread::get_id();
  const auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
  threads_.push_back(self);
  return static_cast<int>(threads_.size() - 1);
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  span.thread = thread_index();
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans_of(std::uint64_t op) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& s : spans_)
    if (s.op == op) out.push_back(s);
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& workload) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
               "\"process_name\", \"args\": {\"name\": \"%s\"}}",
               json_escape(workload).c_str());
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    std::fprintf(f,
                 ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, \"name\": "
                 "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                 t, t == 0 ? "client" : ("worker " + std::to_string(t)).c_str());
  }
  for (const auto& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu, "
                 "\"span\": %zu, \"parent\": %zu",
                 s.thread, json_escape(s.name).c_str(), s.start * 1e6,
                 s.seconds() * 1e6, static_cast<unsigned long long>(s.op), s.id,
                 s.parent);
    for (const auto& [key, value] : s.args)
      std::fprintf(f, ", \"%s\": %.17g", json_escape(key).c_str(), value);
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::uint64_t op,
                       std::size_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.op = op;
  span_.parent = parent;
  span_.id = tracer_->next_id();
  span_.start = tracer_->now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = tracer_->now();
  tracer_->record(std::move(span_));
}

void ScopedSpan::arg(std::string key, double value) {
  if (tracer_ != nullptr) span_.args.emplace_back(std::move(key), value);
}

double covered_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0, lo = 0.0, hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

}  // namespace perfbench
