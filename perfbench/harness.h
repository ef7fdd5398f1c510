// Harness pieces shared by the perfbench workloads: command-line options,
// latency samples, phase time budgets, the correctness gate, the
// in-memory span recorder of the traced run, and the result printer.
//
// Everything here sits outside the library: latencies are timed around
// public API calls, and spans are recorded by the benchmark itself.
#ifndef CLIPBB_PERFBENCH_HARNESS_H_
#define CLIPBB_PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "util/rng.h"

namespace clipbb::perfbench {

using obs::NowNs;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short phases: the self-test mode.
  bool tiny = false;
  /// Adds one to one expected result count before the gate compares it:
  /// the self-test's proof that the gate can fail.
  bool perturb = false;
  /// Directory for page files, logs and the span dump.
  std::string work_dir = ".";
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Latency samples of one run. A fixed-size uniform reservoir (Vitter's
/// algorithm R, fixed seed) keeps memory constant however long a run is (a
/// growing sample buffer would leak the run length into peak RSS);
/// percentiles are taken over the reservoir, a uniform sample of every call
/// of the run, and are exact while the run has at most kReservoir calls.
class Samples {
 public:
  static constexpr size_t kReservoir = size_t{1} << 16;

  void Add(uint64_t ns) {
    ++count_;
    sum_ += ns;
    if (kept_.size() < kReservoir) {
      kept_.push_back(ns);
    } else {
      const uint64_t slot = rng_.Below(count_);
      if (slot < kReservoir) kept_[slot] = ns;
    }
  }
  size_t size() const { return count_; }
  uint64_t Sum() const { return sum_; }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double Percentile(double q) const {
    if (kept_.empty()) return 0.0;
    std::vector<uint64_t> v = kept_;
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size()) rank = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + rank, v.end());
    return static_cast<double>(v[rank]);
  }

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  std::vector<uint64_t> kept_;
  Rng rng_{1};
};

/// A slice of the run's measuring time. Loops run whole passes until the
/// slice is spent, and always at least `min_passes`.
class Budget {
 public:
  explicit Budget(double seconds, int min_passes = 1)
      : end_ns_(NowNs() + static_cast<uint64_t>(seconds * 1e9)),
        min_passes_(min_passes) {}
  bool Continue(int passes_done) const {
    return passes_done < min_passes_ || NowNs() < end_ns_;
  }

 private:
  uint64_t end_ns_;
  int min_passes_;
};

inline double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Whether to time another set-up: setup_s is the median of at least 3,
/// and set-ups cheaper than 1 s repeat until 3 s are spent (at most 9), so
/// that a short set-up is not judged on 3 noisy samples.
inline bool MoreSetUps(const std::vector<double>& seconds) {
  double spent = 0.0;
  for (double s : seconds) spent += s;
  return seconds.size() < 3 || (spent < 3.0 && seconds.size() < 9);
}

/// Times one call of `set_up` (which returns an owning pointer, null on
/// failure) and destroys its result after the clock stops.
template <typename SetUp>
double TimeSetUp(SetUp&& set_up, bool* ok) {
  const uint64_t t0 = NowNs();
  auto state = set_up();
  const double s = (NowNs() - t0) / 1e9;
  *ok = state != nullptr;
  return s;
}

/// The correctness gate. Comparisons run outside the timed calls; any
/// mismatch marks the run incorrect, and the first few are printed.
class Gate {
 public:
  void Check(bool ok, const char* fmt, ...) {
    ++checks_;
    if (ok) return;
    ++mismatches_;
    if (mismatches_ > 10) return;
    std::va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "perfbench: MISMATCH: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }
  bool ok() const { return mismatches_ == 0 && checks_ > 0; }
  uint64_t checks() const { return checks_; }
  uint64_t mismatches() const { return mismatches_; }

 private:
  uint64_t checks_ = 0;
  uint64_t mismatches_ = 0;
};

/// Operations attempted and failed, across every phase of a workload.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ------------------------------------------------------------------ spans

/// In-memory span recorder of the traced run. Each span has a name, a
/// parent (kNoParent for a root), a request id shared by the spans of one
/// request, and a [t0, t0 + dur) interval. Spans the engine reports as
/// aggregated durations (pin-miss I/O, refine, sink) are anchored at their
/// parent's start, as the engine's own trace does. Written out as Chrome
/// trace JSON at the end of the run.
class Spans {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t request = 0;
    uint64_t t0 = 0;
    uint64_t dur = 0;
  };

  explicit Spans(size_t capacity = 1u << 20) { spans_.reserve(capacity); }

  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               uint64_t t0, uint64_t dur) {
    spans_.push_back(Span{NameId(name), parent, request, t0, dur});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  /// Sum of the self time (duration minus the durations of direct
  /// children) of every span with this name.
  uint64_t SelfNs(const char* name) const {
    const auto it = ids_.find(name);
    if (it == ids_.end()) return 0;
    const std::vector<uint64_t> self = SelfTimes();
    uint64_t total = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == it->second) total += self[i];
    }
    return total;
  }
  uint64_t Count(const char* name) const {
    const auto it = ids_.find(name);
    if (it == ids_.end()) return 0;
    uint64_t n = 0;
    for (const Span& s : spans_) n += s.name == it->second;
    return n;
  }
  /// Self time summed over the spans named after a library layer (rtree.,
  /// core., storage., epoch., replica.): the time the layers account for.
  /// The self time of the benchmark's api.* and write.* roots is not
  /// assigned to any layer.
  uint64_t LayerSelfNs() const {
    static constexpr const char* kLayers[] = {"rtree.", "core.", "storage.",
                                              "epoch.", "replica."};
    std::vector<bool> layer(names_.size(), false);
    for (size_t i = 0; i < names_.size(); ++i) {
      for (const char* prefix : kLayers) {
        if (names_[i].rfind(prefix, 0) == 0) layer[i] = true;
      }
    }
    const std::vector<uint64_t> self = SelfTimes();
    uint64_t total = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (layer[spans_[i].name]) total += self[i];
    }
    return total;
  }
  /// Summed duration of the spans whose name starts with `prefix`.
  uint64_t DurNs(const std::string& prefix) const {
    uint64_t total = 0;
    for (const Span& s : spans_) {
      if (names_[s.name].rfind(prefix, 0) == 0) total += s.dur;
    }
    return total;
  }
  uint64_t request(uint32_t span) const { return spans_[span].request; }
  size_t size() const { return spans_.size(); }

  /// Writes the first `max_spans` spans (a bounded file; the metrics use
  /// every span).
  bool WriteChromeTrace(const std::string& path,
                        size_t max_spans = 50000) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const size_t n = std::min(max_spans, spans_.size());
    uint64_t base = UINT64_MAX;
    for (size_t i = 0; i < n; ++i) base = std::min(base, spans_[i].t0);
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"request\":%llu}}",
                   i ? "," : "", names_[s.name].c_str(),
                   (s.t0 - base) / 1e3, s.dur / 1e3, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  uint32_t NameId(const char* name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.emplace_back(name);
    const uint32_t id = static_cast<uint32_t>(names_.size() - 1);
    ids_.emplace(name, id);
    return id;
  }
  std::vector<uint64_t> SelfTimes() const {
    std::vector<uint64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur;
    for (const Span& s : spans_) {
      if (s.parent == kNoParent) continue;
      uint64_t& p = self[s.parent];
      p = p > s.dur ? p - s.dur : 0;
    }
    return self;
  }

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> ids_;
};

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  bool correct = false;
  OpCount ops;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON line: this workload's
  /// end-to-end figures under their own names (README.md), with units.
  std::vector<Metric> detail;

  void Put(const std::string& name, double value, const char* unit) {
    metrics.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Detail(const std::string& name, double value, const char* unit) {
    detail.push_back(Metric{name, value, unit});
  }
};

inline void PrintResult(const Options& opt, const Result& r,
                        const Gate& gate) {
  std::printf("workload %s  seed %llu  %s run\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  for (const Metric& m : r.detail) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  gate: %llu checks, %llu mismatches; ops %llu attempted, "
              "%llu failed\n",
              static_cast<unsigned long long>(gate.checks()),
              static_cast<unsigned long long>(gate.mismatches()),
              static_cast<unsigned long long>(r.ops.attempted),
              static_cast<unsigned long long>(r.ops.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.ops.attempted),
              static_cast<unsigned long long>(r.ops.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace clipbb::perfbench

#endif  // CLIPBB_PERFBENCH_HARNESS_H_
