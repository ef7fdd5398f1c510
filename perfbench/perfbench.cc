// perfbench: the clipbb benchmark. One binary runs one seeded workload for
// a fixed measuring time, checks every answer, and prints the metrics as
// the last line of its output (JSON). Usually started through run.py:
//
//   perfbench --workload resident|spill|write_follow --seed N
//             --seconds S --trace 0|1 [--tiny] [--perturb] [--work-dir D]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md for their definitions). Exit status 1 means a wrong
// answer (or a failed set-up), 2 a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "read_workload.h"
#include "write_follow.h"

namespace clipbb::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in order. Every run prints every
// metric of its list; a layer a workload does not exercise reads 0. The
// end-to-end list is the gated subset; a workload's other figures are
// printed above the JSON line only.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"},  {"p50_us", "us"},
    {"p99_ms", "ms"}, {"group_p50_ms", "ms"}, {"ops_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"rtree.nodes_per_query", "nodes"},
    {"rtree.useful_leaf_ratio", "ratio"},
    {"rtree.traversal_self_ns", "ns"},
    {"rtree.schedule_ms", "ms"},
    {"core.clip_lookups_per_query", "lookups"},
    {"core.clip_leaf_saved_ratio", "ratio"},
    {"pool.pin_hit_p50_ns", "ns"},
    {"pool.pin_hit_p99_ns", "ns"},
    {"pool.hit_ratio", "ratio"},
    {"pool.misses_per_query", "pages"},
    {"pool.evictions", "count"},
    {"pool.pin_miss_p50_ns", "ns"},
    {"pool.pin_miss_p99_ns", "ns"},
    {"pool.miss_share", "ratio"},
    {"pool.miss_other_ns", "ns"},
    {"file.read_ns", "ns"},
    {"file.verify_ns", "ns"},
    {"file.read_retries", "count"},
    {"write.mirror_us_per_op", "us"},
    {"write.page_reads_per_op", "pages"},
    {"write.page_writes_per_op", "pages"},
    {"write.checkpoint_ms", "ms"},
    {"wal.append_p50_ns", "ns"},
    {"wal.bytes_per_op", "B"},
    {"wal.records_per_sync", "records"},
    {"wal.sync_p50_us", "us"},
    {"wal.sync_p99_us", "us"},
    {"pool.wal_forced_syncs", "count"},
    {"pool.writebacks_per_checkpoint", "pages"},
    {"epoch.pages_captured_per_commit", "pages"},
    {"epoch.live_deltas_max", "count"},
    {"epoch.retained_bytes_max", "B"},
    {"epoch.reclaimed", "count"},
    {"epoch.chain_depth", "epochs"},
    {"replica.refresh_us_per_window", "us"},
    {"replica.windows_applied", "count"},
    {"replica.scan_us_per_window", "us"},
    {"replica.apply_us_per_window", "us"},
    {"replica.apply_growth", "ratio"},
    {"replica.rebase_ms", "ms"},
    {"replica.rebases", "count"},
    {"replica.lag_p50_ms", "ms"},
    {"replica.lag_p99_ms", "ms"},
    {"replica.query_p50_us", "us"},
    {"hotpath.clip_lookup_speedup", "x"},
    {"hotpath.batch_traversal_speedup", "x"},
    {"trace.overhead", "ratio"},
    {"trace.unaccounted_share", "ratio"},
};

/// Sizes of each workload; --tiny shrinks them for the self-test.
ReadConfig ResidentConfig(bool tiny) {
  ReadConfig c;
  c.objects = tiny ? 4000 : 100000;
  c.specs = tiny ? 200 : 16000;
  c.qr1 = 0.7;
  c.qr2 = 0.1;
  c.knn = 0.1;  // the last 10 % are contains-point queries
  c.resident = true;
  return c;
}

ReadConfig SpillConfig(bool tiny) {
  ReadConfig c;
  c.objects = tiny ? 6000 : 150000;
  c.specs = tiny ? 200 : 6000;
  c.qr1 = 0.7;
  c.qr2 = 0.3;
  c.resident = false;
  return c;
}

WriteConfig WriteFollowConfig(bool tiny) {
  WriteConfig c;
  c.objects = tiny ? 3000 : 40000;
  c.specs = tiny ? 64 : 512;
  c.checkpoint_ops = tiny ? 128 : 1024;
  return c;
}

/// Keeps exactly the listed metrics, in list order (0 when not measured).
template <size_t N>
std::vector<Metric> Canonical(const std::vector<Metric>& got,
                              const MetricDef (&defs)[N]) {
  std::unordered_map<std::string, double> by_name;
  for (const Metric& m : got) by_name[m.name] = m.value;
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = by_name.find(d.name);
    out.push_back(Metric{d.name, it == by_name.end() ? 0.0 : it->second,
                         d.unit});
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload resident|spill|write_follow "
               "--seed N --seconds S --trace 0|1 [--tiny] [--perturb] "
               "[--work-dir DIR]\n");
  return 2;
}

/// Crash and read-fault injection knobs would make a run measure
/// recovery paths instead of the workload; refuse to run with any armed.
bool FaultKnobsArmed() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const bool knob = kv.rfind("CLIPBB_CRASH_", 0) == 0 ||
                      kv.rfind("CLIPBB_READ_FAULT", 0) == 0;
    if (knob && kv.find('=') + 1 < kv.size()) {
      std::fprintf(stderr, "perfbench: %s is armed; unset it\n", kv.c_str());
      return true;
    }
  }
  return false;
}

}  // namespace
}  // namespace clipbb::perfbench

int main(int argc, char** argv) {
  using namespace clipbb::perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--perturb") {
      opt.perturb = true;
    } else {
      return Usage();
    }
  }
  if (opt.seconds <= 0) return Usage();
  if (FaultKnobsArmed()) return 2;

  Gate gate;
  Result r;
  if (opt.workload == "resident") {
    r = RunRead<2>(ResidentConfig(opt.tiny), opt, &gate);
  } else if (opt.workload == "spill") {
    r = RunRead<3>(SpillConfig(opt.tiny), opt, &gate);
  } else if (opt.workload == "write_follow") {
    r = RunWriteFollow(WriteFollowConfig(opt.tiny), opt, &gate);
  } else {
    return Usage();
  }
  r.correct = gate.ok();
  r.metrics = opt.trace ? Canonical(r.metrics, kPerLayer)
                        : Canonical(r.metrics, kEndToEnd);
  PrintResult(opt, r, gate);
  return r.correct ? 0 : 1;
}
