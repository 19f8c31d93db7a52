#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local uint64_t tls_current_span = 0;

}  // namespace

Tracer::Tracer() : origin_ns_(SteadyNs()) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() const { return SteadyNs() - origin_ns_; }

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"value\":%.17g}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.value);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  span_.name = name;
  span_.id = tracer.NextId();
  span_.parent = tls_current_span;
  span_.request = request;
  saved_parent_ = tls_current_span;
  tls_current_span = span_.id;
  span_.start_ns = tracer.NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  Tracer& tracer = Tracer::Get();
  span_.end_ns = tracer.NowNs();
  tls_current_span = saved_parent_;
  tracer.Record(span_);
}

}  // namespace perfbench
