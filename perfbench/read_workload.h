// The read-only workloads: `resident` (2-d, the pool holds every page) and
// `spill` (3-d, the pool holds 10 % of the section pages). Both build a
// CSTA-clipped HR-tree, write it as a page file, open it read-only, and
// drive the same query specs through the paged engine and the in-memory
// engine of the same tree.
#ifndef CLIPBB_PERFBENCH_READ_WORKLOAD_H_
#define CLIPBB_PERFBENCH_READ_WORKLOAD_H_

#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "obs/trace.h"
#include "rtree/factory.h"
#include "rtree/page_format.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "storage/page_file.h"
#include "util/rng.h"
#include "workload/dataset.h"
#include "workload/query.h"

namespace clipbb::perfbench {

struct ReadConfig {
  size_t objects = 0;
  size_t specs = 0;
  /// Shares of the query mix; the rest are contains-point queries.
  double qr1 = 0.0, qr2 = 0.0, knn = 0.0;
  /// true: the pool holds every section page (in each shard); false: the
  /// default 10 % pool of the Fig. 15 setup.
  bool resident = true;
};

inline constexpr unsigned kWorkers = 4;
inline constexpr int kKnnK = 10;
/// Calls per group: the serial loop's unit, and the group commit of the
/// writer (commit_every) in write_follow.
inline constexpr size_t kGroup = 16;

template <int D>
workload::Dataset<D> MakeParDataset(size_t n, uint64_t seed) {
  if constexpr (D == 2) {
    return workload::MakePar02(n, seed);
  } else {
    return workload::MakePar03(n, seed);
  }
}

/// The query mix, shuffled deterministically from `seed`: intersects
/// windows calibrated to ~10 (QR1) and ~100 (QR2) results (paper §V-B),
/// kNN and contains-point queries at dithered object centers.
template <int D>
std::vector<rtree::QuerySpec<D>> MakeSpecs(const workload::Dataset<D>& data,
                                           const ReadConfig& cfg,
                                           uint64_t seed) {
  using Spec = rtree::QuerySpec<D>;
  const size_t n = cfg.specs;
  const size_t n1 = static_cast<size_t>(cfg.qr1 * n + 0.5);
  const size_t n2 = static_cast<size_t>(cfg.qr2 * n + 0.5);
  const size_t nk = static_cast<size_t>(cfg.knn * n + 0.5);
  const size_t np = n - n1 - n2 - nk;
  std::vector<Spec> specs;
  specs.reserve(n);
  if (n1 > 0) {
    for (const auto& w : workload::MakeQueries<D>(
             data, 10.0, static_cast<int>(n1), seed * 31 + 1).queries) {
      specs.push_back(Spec::Intersects(w));
    }
  }
  if (n2 > 0) {
    for (const auto& w : workload::MakeQueries<D>(
             data, 100.0, static_cast<int>(n2), seed * 31 + 2).queries) {
      specs.push_back(Spec::Intersects(w));
    }
  }
  Rng rng(seed * 31 + 3);
  for (size_t i = 0; i < nk; ++i) {
    specs.push_back(
        Spec::Knn(workload::query_internal::DitheredCenter<D>(data, rng),
                  kKnnK));
  }
  for (size_t i = 0; i < np; ++i) {
    specs.push_back(Spec::ContainsPoint(
        workload::query_internal::DitheredCenter<D>(data, rng)));
  }
  for (size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[rng.Below(i)]);
  }
  return specs;
}

/// Everything one setup produces.
template <int D>
struct ReadState {
  workload::Dataset<D> data;
  std::vector<rtree::QuerySpec<D>> specs;
  std::unique_ptr<rtree::RTree<D>> mem;
  std::unique_ptr<rtree::PagedRTree<D>> paged;
  std::string path;
  ~ReadState() {
    if (paged) paged->Close();
    if (!path.empty()) std::filesystem::remove(path);
  }
};

/// Generate, build, clip, write the page file, open it, warm it.
template <int D>
std::unique_ptr<ReadState<D>> SetUpRead(const ReadConfig& cfg,
                                        const Options& opt) {
  auto st = std::make_unique<ReadState<D>>();
  st->data = MakeParDataset<D>(cfg.objects, opt.seed);
  st->specs = MakeSpecs<D>(st->data, cfg, opt.seed);
  st->mem = rtree::BuildTree<D>(rtree::Variant::kHilbert, st->data.items,
                                st->data.domain);
  st->mem->EnableClipping(core::ClipConfig<D>::Sta());
  st->mem->RefreshAccel();
  st->path = opt.work_dir + "/" + opt.workload + ".pages";
  if (!rtree::WritePagedTree<D>(*st->mem, st->path)) return nullptr;
  typename rtree::PagedRTree<D>::OpenOptions oo;
  oo.pool_shards = kWorkers;
  if (cfg.resident) {
    // Every shard can hold the whole file, so hash skew never evicts.
    const uint64_t pages = std::filesystem::file_size(st->path) /
                           rtree::SerializedPageSize<D>(*st->mem);
    oo.pool_pages = pages * kWorkers;
  }
  st->paged = std::make_unique<rtree::PagedRTree<D>>();
  if (!st->paged->Open(st->path, oo)) return nullptr;
  // Warm-up: one whole-domain query touches every page (the resident pool
  // then never misses), then a prefix of the specs.
  const rtree::SpatialEngine<D> engine(*st->paged);
  engine.Execute(rtree::QuerySpec<D>::Intersects(st->data.domain));
  for (size_t i = 0; i < st->specs.size() && i < 2000; ++i) {
    engine.Execute(st->specs[i]);
  }
  return st;
}

/// Expected results, from the in-memory engine.
template <int D>
struct Expected {
  std::vector<size_t> counts;
  std::unordered_map<size_t, std::vector<rtree::KnnNeighbor<D>>> knn;
};

template <int D>
Expected<D> ComputeExpected(const ReadState<D>& st, const Options& opt,
                            Gate* gate) {
  Expected<D> ex;
  const rtree::SpatialEngine<D> mem(*st.mem);
  ex.counts.resize(st.specs.size());
  for (size_t i = 0; i < st.specs.size(); ++i) {
    const auto& s = st.specs[i];
    if (s.kind == rtree::QueryKind::kKnn) {
      std::vector<rtree::KnnNeighbor<D>> out;
      rtree::KnnHeapSink<D> sink(&out);
      ex.counts[i] = mem.Execute(s, &sink);
      ex.knn.emplace(i, std::move(out));
    } else {
      ex.counts[i] = mem.Execute(s);
    }
  }
  // Anchor the reference itself: a linear scan over the data for the
  // first window specs.
  size_t scanned = 0;
  for (size_t i = 0; i < st.specs.size() && scanned < 16; ++i) {
    const auto& s = st.specs[i];
    if (s.kind != rtree::QueryKind::kIntersects) continue;
    size_t n = 0;
    for (const auto& e : st.data.items) n += e.rect.Intersects(s.window);
    gate->Check(n == ex.counts[i], "spec %zu: scan %zu, in-memory %zu", i, n,
                ex.counts[i]);
    ++scanned;
  }
  if (opt.perturb) ++ex.counts[0];
  return ex;
}

template <int D>
void CheckCounts(const std::vector<size_t>& got, const Expected<D>& ex,
                 const char* what, Gate* gate) {
  size_t bad = 0, first = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != ex.counts[i] && bad++ == 0) first = i;
  }
  gate->Check(bad == 0, "%s: %zu wrong counts, first spec %zu (%zu vs %zu)",
              what, bad, first, bad ? got[first] : 0,
              bad ? ex.counts[first] : 0);
}

/// kNN ids and distances must match the in-memory engine exactly; window
/// results as sorted id sets for a prefix of the specs.
template <int D>
void CheckFullResults(const ReadState<D>& st, const Expected<D>& ex,
                      Gate* gate) {
  const rtree::SpatialEngine<D> paged(*st.paged);
  const rtree::SpatialEngine<D> mem(*st.mem);
  for (const auto& [i, want] : ex.knn) {
    std::vector<rtree::KnnNeighbor<D>> got;
    rtree::KnnHeapSink<D> sink(&got);
    storage::Status status;
    paged.Execute(st.specs[i], &sink, nullptr, nullptr, &status);
    bool same = status.ok() && got.size() == want.size();
    for (size_t j = 0; same && j < got.size(); ++j) {
      same = got[j].id == want[j].id && got[j].dist2 == want[j].dist2;
    }
    gate->Check(same, "kNN spec %zu differs from the in-memory engine", i);
  }
  for (size_t i = 0; i < st.specs.size() && i < 256; ++i) {
    if (st.specs[i].kind == rtree::QueryKind::kKnn) continue;
    std::vector<rtree::ObjectId> a, b;
    rtree::CollectIds<D> sa(&a), sb(&b);
    paged.Execute(st.specs[i], &sa);
    mem.Execute(st.specs[i], &sb);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    gate->Check(a == b, "spec %zu: paged and in-memory id sets differ", i);
  }
  gate->Check(!st.paged->io_error(), "paged engine latched an I/O error");
}

/// One serial pass: Execute per spec, input order, one client.
template <int D>
uint64_t SerialPass(const rtree::SpatialEngine<D>& engine,
                    const std::vector<rtree::QuerySpec<D>>& specs,
                    std::vector<size_t>* counts, storage::IoStats* io,
                    OpCount* ops,
                    Spans* spans = nullptr) {
  rtree::TraversalScratch scratch;
  scratch.Reserve(engine.Height(), engine.max_entries());
  const uint64_t pass0 = NowNs();
  for (size_t i = 0; i < specs.size(); ++i) {
    storage::Status status;
    const uint64_t t0 = NowNs();
    (*counts)[i] = engine.Execute(specs[i], nullptr, io, &scratch, &status);
    const uint64_t dt = NowNs() - t0;
    if (spans) spans->Add("api.execute", Spans::kNoParent, i, t0, dt);
    ops->Add(status.ok());
  }
  return NowNs() - pass0;
}

/// Execute per spec in input order, one client, continuing from `*cursor`
/// (wrapping around the specs) until `seconds` are spent. Calls go in
/// groups of kGroup; `group` (optional) gets the wall time of each group.
/// Returns the slice's calls per second of wall time.
template <int D>
double SerialSlice(const rtree::SpatialEngine<D>& engine,
                   const std::vector<rtree::QuerySpec<D>>& specs,
                   const Expected<D>& ex, double seconds, const char* what,
                   size_t* cursor, Samples* lat, Samples* group, OpCount* ops,
                   Gate* gate) {
  rtree::TraversalScratch scratch;
  scratch.Reserve(engine.Height(), engine.max_entries());
  size_t wrong = 0;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  size_t calls = 0;
  do {
    const uint64_t g0 = NowNs();
    for (size_t k = 0; k < kGroup; ++k) {
      const size_t i = (*cursor)++ % specs.size();
      storage::Status status;
      const uint64_t t0 = NowNs();
      const size_t n = engine.Execute(specs[i], nullptr, nullptr, &scratch,
                                      &status);
      lat->Add(NowNs() - t0);
      ops->Add(status.ok());
      wrong += n != ex.counts[i];
    }
    if (group) group->Add(NowNs() - g0);
    calls += kGroup;
  } while (NowNs() < end);
  gate->Check(wrong == 0, "%s: %zu wrong counts", what, wrong);
  return calls / ((NowNs() - start) / 1e9);
}

/// One ExecuteBatch; returns its wall time.
template <int D>
uint64_t BatchPass(const rtree::SpatialEngine<D>& engine,
                   const std::vector<rtree::QuerySpec<D>>& specs,
                   unsigned threads, const Expected<D>& ex, const char* what,
                   OpCount* ops, Gate* gate,
                   storage::IoStats* io = nullptr) {
  rtree::QueryBatchOptions bo;
  bo.threads = threads;
  const uint64_t t0 = NowNs();
  const rtree::QueryBatchResult r = engine.ExecuteBatch(
      std::span<const rtree::QuerySpec<D>>(specs), bo);
  const uint64_t dt = NowNs() - t0;
  ops->attempted += specs.size();
  ops->failed += r.failed.size();
  CheckCounts<D>(r.counts, ex, what, gate);
  if (io) *io += r.io;
  return dt;
}

/// Repeats batches until the budget is spent; returns queries per second
/// over the whole slice.
template <int D>
double BatchQps(const rtree::SpatialEngine<D>& engine,
                const std::vector<rtree::QuerySpec<D>>& specs,
                unsigned threads, double seconds, const Expected<D>& ex,
                const char* what, OpCount* ops, Gate* gate) {
  uint64_t ns = 0;
  int batches = 0;
  for (Budget b(seconds, 1); b.Continue(batches); ++batches) {
    ns += BatchPass<D>(engine, specs, threads, ex, what, ops, gate);
  }
  return static_cast<double>(batches) * specs.size() / (ns / 1e9);
}

// ----------------------------------------------------------- layer probes

/// The README's hot-path claims, re-measured on the in-memory tree: clip
/// lookup through an unordered_map vs the CSR arena, and per-query traversal
/// in input order vs the Hilbert-ordered batch (one worker). Medians of 5.
template <int D>
void MeasureHotpath(const rtree::RTree<D>& tree,
                    const std::vector<rtree::QuerySpec<D>>& specs, Result* r,
                    Gate* gate) {
  std::vector<core::NodeId> ids;
  tree.ForEachNode([&](storage::PageId, const rtree::Node<D>& n) {
    if (n.IsLeaf()) return;
    for (const auto& e : n.entries) ids.push_back(e.id);
  });
  std::unordered_map<core::NodeId, std::vector<core::ClipPoint<D>>> map;
  tree.clip_index().ForEach(
      [&](core::NodeId id, std::span<const core::ClipPoint<D>> clips) {
        map[id].assign(clips.begin(), clips.end());
      });
  std::vector<double> map_ns, arena_ns;
  size_t map_sum = 0, arena_sum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t t0 = NowNs();
    map_sum = 0;
    for (int pass = 0; pass < 20; ++pass) {
      for (core::NodeId id : ids) {
        const auto it = map.find(id);
        if (it != map.end()) map_sum += it->second.size();
      }
    }
    map_ns.push_back(static_cast<double>(NowNs() - t0));
    t0 = NowNs();
    arena_sum = 0;
    for (int pass = 0; pass < 20; ++pass) {
      for (core::NodeId id : ids) arena_sum += tree.clip_index().Get(id).size();
    }
    arena_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  gate->Check(map_sum == arena_sum, "clip lookup sums differ");

  std::vector<geom::Rect<D>> windows;
  for (const auto& s : specs) {
    if (s.kind == rtree::QueryKind::kIntersects) windows.push_back(s.window);
  }
  const rtree::SpatialEngine<D> engine(tree);
  std::vector<double> single_ns, batch_ns;
  size_t single_total = 0, batch_total = 0;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t t0 = NowNs();
    single_total = 0;
    for (const auto& w : windows) single_total += tree.RangeCount(w);
    single_ns.push_back(static_cast<double>(NowNs() - t0));
    t0 = NowNs();
    const auto res = engine.ExecuteBatch(
        std::span<const geom::Rect<D>>(windows), rtree::QueryBatchOptions{});
    batch_ns.push_back(static_cast<double>(NowNs() - t0));
    batch_total = 0;
    for (size_t c : res.counts) batch_total += c;
  }
  gate->Check(single_total == batch_total, "traversal totals differ");
  r->Put("hotpath.clip_lookup_speedup", Median(map_ns) / Median(arena_ns),
         "x");
  r->Put("hotpath.batch_traversal_speedup",
         Median(single_ns) / Median(batch_ns), "x");
}

/// Times PageFile::ReadPage and VerifyPageChecksum on `pages` random
/// section pages of a tree's file (as many as the measured run missed):
/// file.read_ns and file.verify_ns per page, and pool.miss_other_ns, the
/// rest of a mean pin miss (`miss_mean_ns`).
template <int D>
void MeasureFile(const rtree::PagedRTree<D>& tree, const std::string& path,
                 uint64_t pages, uint64_t seed, double miss_mean_ns,
                 Result* r) {
  double read_ns = 0.0, verify_ns = 0.0;
  const uint32_t ps = tree.superblock().file_page_size;
  const uint64_t section = tree.superblock().num_section_pages;
  storage::PageFile file;
  if (pages > 0 && file.Open(path, false, ps, /*read_only=*/true)) {
    std::vector<std::byte> buf(ps);
    Rng rng(seed);
    uint64_t read = 0, verify = 0;
    bool valid = true;
    for (uint64_t n = 0; n < pages; ++n) {
      const int64_t page = 1 + static_cast<int64_t>(rng.Below(section));
      const uint64_t t0 = NowNs();
      valid &= file.ReadPage(page, buf.data());
      const uint64_t t1 = NowNs();
      valid &= rtree::VerifyPageChecksum(buf.data(), buf.size());
      read += t1 - t0;
      verify += NowNs() - t1;
    }
    if (!valid) std::fprintf(stderr, "perfbench: file probe saw a bad page\n");
    read_ns = static_cast<double>(read) / pages;
    verify_ns = static_cast<double>(verify) / pages;
  }
  r->Put("file.read_ns", read_ns, "ns");
  r->Put("file.verify_ns", verify_ns, "ns");
  r->Put("pool.miss_other_ns",
         pages ? std::max(0.0, miss_mean_ns - read_ns - verify_ns) : 0.0,
         "ns");
}

/// Leaf accesses of the specs on the unclipped tree over those on the
/// clipped one: the share of leaf reads clipping saves.
template <int D>
double ClipLeafSavedRatio(const rtree::RTree<D>& plain,
                          const rtree::RTree<D>& clipped,
                          const std::vector<rtree::QuerySpec<D>>& specs) {
  const rtree::SpatialEngine<D> a(plain), b(clipped);
  storage::IoStats ia, ib;
  for (const auto& s : specs) {
    a.Execute(s, nullptr, &ia);
    b.Execute(s, nullptr, &ib);
  }
  return ib.leaf_accesses ? static_cast<double>(ia.leaf_accesses) /
                                ib.leaf_accesses
                          : 0.0;
}

/// Converts the engine's per-query traces into child spans of the
/// benchmark's spans around the same calls: `roots[j]` is the span of the
/// j-th traced call (the collector numbers calls in order).
inline void AttachEngineTraces(const obs::TraceCollector& tc,
                               const std::vector<uint32_t>& roots,
                               Spans* spans) {
  for (const obs::QueryTrace& t : tc.Snapshot()) {
    if (t.query_index >= roots.size()) continue;
    const uint32_t root = roots[t.query_index];
    const uint64_t req = spans->request(root);
    uint32_t trav = root;
    for (uint32_t k = 0; k < t.n_spans; ++k) {
      const obs::TraceSpan& s = t.spans[k];
      if (s.kind == obs::SpanKind::kTraversal) {
        trav = spans->Add("rtree.traversal", root, req, s.t0_ns, s.dur_ns);
      }
    }
    for (uint32_t k = 0; k < t.n_spans; ++k) {
      const obs::TraceSpan& s = t.spans[k];
      const char* name = nullptr;
      switch (s.kind) {
        case obs::SpanKind::kPinMissIo:
          name = "storage.buffer_pool.miss";
          break;
        case obs::SpanKind::kRefine: name = "rtree.refine"; break;
        case obs::SpanKind::kSinkDelivery: name = "rtree.sink"; break;
        default: break;
      }
      if (name != nullptr) spans->Add(name, trav, req, s.t0_ns, s.dur_ns);
    }
  }
}

// ------------------------------------------------------------------- run

template <int D>
Result RunRead(const ReadConfig& cfg, const Options& opt, Gate* gate) {
  Result r;
  // The measured instance is set up first; peak RSS is read before the
  // extra set-ups that only feed the setup_s median.
  const uint64_t setup0 = NowNs();
  std::unique_ptr<ReadState<D>> st = SetUpRead<D>(cfg, opt);
  std::vector<double> setup_s{(NowNs() - setup0) / 1e9};
  if (!st) {
    gate->Check(false, "set-up failed (write or open of the page file)");
    return r;
  }
  const Expected<D> ex = ComputeExpected<D>(*st, opt, gate);
  const rtree::SpatialEngine<D> paged(*st->paged);
  const rtree::SpatialEngine<D> mem(*st->mem);
  std::vector<size_t> counts(st->specs.size());
  storage::BufferPool& pool = st->paged->pool();
  const double s = opt.seconds;

  if (!opt.trace) {
    // The phases run interleaved in rounds, so slow stretches of the
    // machine spread over all of them; throughputs are medians over rounds.
    // The paged serial loop, which every gated figure comes from, gets the
    // largest share; the other phases are printed only.
    Samples lat, mem_lat, group_lat;
    std::vector<double> serial, hilbert, batch, mem_batch;
    const int rounds = opt.tiny ? 2 : 15;
    const double slice = s / rounds;
    size_t cursor = 0, mem_cursor = 0;
    for (int round = 0; round < rounds; ++round) {
      serial.push_back(SerialSlice<D>(paged, st->specs, ex, slice * 0.4,
                                      "paged serial", &cursor, &lat,
                                      &group_lat, &r.ops, gate));
      hilbert.push_back(BatchQps<D>(paged, st->specs, 1, slice * 0.25, ex,
                                    "paged 1-worker batch", &r.ops, gate));
      batch.push_back(BatchQps<D>(paged, st->specs, kWorkers, slice * 0.1,
                                  ex, "paged 4-worker batch", &r.ops, gate));
      SerialSlice<D>(mem, st->specs, ex, slice * 0.15, "in-memory serial",
                     &mem_cursor, &mem_lat, nullptr, &r.ops, gate);
      mem_batch.push_back(BatchQps<D>(mem, st->specs, kWorkers, slice * 0.1,
                                      ex, "in-memory 4-worker batch", &r.ops,
                                      gate));
    }
    const double serial_qps = Median(serial);
    const double hilbert_qps = Median(hilbert);
    const double batch_qps = Median(batch);
    const double mem_batch_qps = Median(mem_batch);
    CheckFullResults<D>(*st, ex, gate);
    const double rss_mb = PeakRssMb();
    st.reset();
    while (MoreSetUps(setup_s)) {
      bool ok = false;
      setup_s.push_back(TimeSetUp([&] { return SetUpRead<D>(cfg, opt); }, &ok));
      gate->Check(ok, "repeated set-up failed");
    }

    r.Put("setup_s", Median(setup_s), "s");
    r.Put("peak_rss_mb", rss_mb, "MB");
    r.Put("p50_us", lat.Percentile(0.50) / 1e3, "us");
    r.Put("p99_ms", lat.Percentile(0.99) / 1e6, "ms");
    r.Put("ops_s", serial_qps, "1/s");
    r.Put("group_p50_ms", group_lat.Percentile(0.50) / 1e6, "ms");
    r.Detail("query_p50_us", lat.Percentile(0.50) / 1e3, "us");
    r.Detail("query_p99_us", lat.Percentile(0.99) / 1e3, "us");
    r.Detail("query_samples", static_cast<double>(lat.size()), "count");
    r.Detail("serial_qps", serial_qps, "1/s");
    r.Detail("hilbert_qps", hilbert_qps, "1/s");
    r.Detail("batch_qps", batch_qps, "1/s");
    r.Detail("mem_query_p50_us", mem_lat.Percentile(0.50) / 1e3, "us");
    r.Detail("mem_query_p99_us", mem_lat.Percentile(0.99) / 1e3, "us");
    r.Detail("mem_batch_qps", mem_batch_qps, "1/s");
    r.Detail("group16_p50_ms", group_lat.Percentile(0.50) / 1e6, "ms");
    r.Detail("group16_p99_ms", group_lat.Percentile(0.99) / 1e6, "ms");
    return r;
  }

  // ------------------------------------------------------- traced run
  // Counter pass (untraced): logical and pool counters of one serial pass.
  storage::IoStats io;
  pool.ResetCounters();
  const uint64_t counter_wall =
      SerialPass<D>(paged, st->specs, &counts, &io, &r.ops);
  CheckCounts<D>(counts, ex, "paged serial (counters)", gate);
  const double q = static_cast<double>(st->specs.size());
  const uint64_t hits = pool.hits(), misses = pool.misses();
  const obs::Histogram miss_h = pool.PinMissLatency();
  r.Put("rtree.nodes_per_query", io.TotalAccesses() / q, "nodes");
  r.Put("rtree.useful_leaf_ratio",
        io.leaf_accesses ? static_cast<double>(io.contributing_leaf_accesses) /
                               io.leaf_accesses
                         : 0.0,
        "ratio");
  r.Put("core.clip_lookups_per_query", io.clip_accesses / q, "lookups");
  {
    auto plain = rtree::BuildTree<D>(rtree::Variant::kHilbert,
                                     st->data.items, st->data.domain);
    plain->RefreshAccel();
    r.Put("core.clip_leaf_saved_ratio",
          ClipLeafSavedRatio<D>(*plain, *st->mem, st->specs), "ratio");
  }
  r.Put("pool.hit_ratio",
        hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0,
        "ratio");
  r.Put("pool.misses_per_query", misses / q, "pages");
  r.Put("pool.evictions", static_cast<double>(pool.evictions()), "count");
  r.Put("pool.pin_miss_p50_ns", static_cast<double>(miss_h.Percentile(0.5)),
        "ns");
  r.Put("pool.pin_miss_p99_ns", static_cast<double>(miss_h.Percentile(0.99)),
        "ns");
  r.Put("pool.miss_share",
        static_cast<double>(io.pin_miss_ns) / counter_wall, "ratio");
  r.Put("file.read_retries", static_cast<double>(io.read_retries), "count");
  MeasureFile<D>(*st->paged, st->path, std::min<uint64_t>(misses, 20000),
                 opt.seed, miss_h.Mean(), &r);

  // Traced vs untraced serial passes, alternating, for the overhead and
  // the self-time split.
  Spans spans;
  obs::TraceCollector tc(1, opt.seed, st->specs.size());
  rtree::EngineMetrics em;
  std::vector<double> plain_ns, traced_ns;
  uint64_t traced_wall = 0;
  // At most 8 pass pairs: every traced call leaves spans in memory.
  for (Budget b(s * 0.5, 2); b.Continue(static_cast<int>(traced_ns.size())) &&
                             traced_ns.size() < 8;) {
    plain_ns.push_back(static_cast<double>(
        SerialPass<D>(paged, st->specs, &counts, nullptr, &r.ops)));
    CheckCounts<D>(counts, ex, "paged serial (untraced)", gate);
    tc.Reset();
    paged.SetMetrics(&em);
    paged.SetTraces(&tc);
    const size_t first = spans.size();
    const uint64_t wall =
        SerialPass<D>(paged, st->specs, &counts, nullptr, &r.ops,
                      &spans);
    paged.SetMetrics(nullptr);
    paged.SetTraces(nullptr);
    CheckCounts<D>(counts, ex, "paged serial (traced)", gate);
    std::vector<uint32_t> roots(st->specs.size());
    std::iota(roots.begin(), roots.end(), static_cast<uint32_t>(first));
    AttachEngineTraces(tc, roots, &spans);
    traced_ns.push_back(static_cast<double>(wall));
    traced_wall += wall;
  }
  const uint64_t traversals = spans.Count("rtree.traversal");
  r.Put("rtree.traversal_self_ns",
        traversals ? static_cast<double>(spans.SelfNs("rtree.traversal")) /
                         traversals
                   : 0.0,
        "ns");
  r.Put("trace.overhead", Median(traced_ns) / Median(plain_ns) - 1.0,
        "ratio");
  r.Put("trace.unaccounted_share",
        1.0 - static_cast<double>(spans.LayerSelfNs()) / traced_wall,
        "ratio");

  // Batches: schedule spans (engine) and hit-pin latency under 4 workers.
  obs::TraceCollector batch_tc(uint64_t{1} << 40, opt.seed, 64);
  paged.SetTraces(&batch_tc);
  for (unsigned threads : {1u, kWorkers}) {
    if (threads == kWorkers) pool.ResetCounters();
    for (int rep = 0; rep < 3; ++rep) {
      BatchPass<D>(paged, st->specs, threads, ex, "paged batch (traced)",
                   &r.ops, gate);
    }
  }
  paged.SetTraces(nullptr);
  const obs::Histogram hit_h = pool.PinHitLatency();
  r.Put("pool.pin_hit_p50_ns", static_cast<double>(hit_h.Percentile(0.5)),
        "ns");
  r.Put("pool.pin_hit_p99_ns", static_cast<double>(hit_h.Percentile(0.99)),
        "ns");
  double sched_ns = 0;
  size_t batches = 0;
  for (const obs::QueryTrace& t : batch_tc.Snapshot()) {
    for (uint32_t k = 0; k < t.n_spans; ++k) {
      if (t.spans[k].kind != obs::SpanKind::kSchedule) continue;
      spans.Add("rtree.schedule", Spans::kNoParent, t.query_index,
                t.spans[k].t0_ns, t.spans[k].dur_ns);
      sched_ns += static_cast<double>(t.spans[k].dur_ns);
      ++batches;
    }
  }
  r.Put("rtree.schedule_ms", batches ? sched_ns / batches / 1e6 : 0.0, "ms");
  MeasureHotpath<D>(*st->mem, st->specs, &r, gate);
  CheckFullResults<D>(*st, ex, gate);
  spans.WriteChromeTrace(opt.work_dir + "/" + opt.workload + "-trace.json");
  return r;
}

}  // namespace clipbb::perfbench

#endif  // CLIPBB_PERFBENCH_READ_WORKLOAD_H_
