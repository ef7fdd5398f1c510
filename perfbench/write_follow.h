// The `write_follow` workload: one thread drives a read-write paged
// RR*-tree (CSTA-clipped, bulk-loaded on 90 % of its data) through
// alternating inserts and deletes with a group commit every 16 operations,
// refreshes an in-process follower replica after each commit, queries the
// follower and a snapshot pinned several commits earlier, and checkpoints
// every few thousand operations.
#ifndef CLIPBB_PERFBENCH_WRITE_FOLLOW_H_
#define CLIPBB_PERFBENCH_WRITE_FOLLOW_H_

#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "read_workload.h"
#include "replica/wal_tailer.h"

namespace clipbb::perfbench {

struct WriteConfig {
  size_t objects = 0;
  size_t specs = 0;
  /// Operations between checkpoints (a multiple of kCommitEvery, so every
  /// checkpoint lands on a group-commit boundary).
  uint64_t checkpoint_ops = 0;
};

/// The group commit: one fdatasync per kCommitEvery operations.
inline constexpr size_t kCommitEvery = kGroup;
/// A new snapshot is pinned every kPinEvery windows; queries go to the
/// oldest of the last kPinDepth pins.
inline constexpr uint64_t kPinEvery = 8;
inline constexpr size_t kPinDepth = 2;
/// Follower and snapshot queries per commit window.
inline constexpr size_t kQueriesPerWindow = 8;

/// Everything one setup produces.
struct WriteState {
  workload::Dataset<2> data;
  std::vector<rtree::QuerySpec<2>> specs;
  /// The bulk-loaded, clipped tree written to the file (kept for the
  /// traced run's probes).
  std::unique_ptr<rtree::RTree<2>> bulk;
  std::unique_ptr<rtree::PagedRTree<2>> writer;
  std::unique_ptr<rtree::PagedRTree<2>> follower;
  std::string path;
  /// Objects in the tree, and objects out of it (the held-out 10 % first).
  std::vector<size_t> in;
  std::deque<size_t> out;
  ~WriteState() {
    if (follower) follower->Close();
    if (writer) writer->Close();
    if (!path.empty()) {
      std::filesystem::remove(path);
      std::filesystem::remove(rtree::WalPathFor(path));
    }
  }
};

inline std::unique_ptr<WriteState> SetUpWrite(const WriteConfig& cfg,
                                              const Options& opt) {
  using rtree::PagedRTree;
  auto st = std::make_unique<WriteState>();
  st->data = workload::MakePar02(cfg.objects, opt.seed);
  st->specs.reserve(cfg.specs);
  for (const auto& w : workload::MakeQueries<2>(
           st->data, 10.0, static_cast<int>(cfg.specs), opt.seed * 31 + 5)
           .queries) {
    st->specs.push_back(rtree::QuerySpec<2>::Intersects(w));
  }
  const size_t loaded = cfg.objects * 9 / 10;
  const std::vector<rtree::Entry<2>> items(
      st->data.items.begin(), st->data.items.begin() + loaded);
  st->bulk = rtree::BuildTree<2>(rtree::Variant::kRRStar, items,
                                 st->data.domain);
  st->bulk->EnableClipping(core::ClipConfig<2>::Sta());
  st->bulk->RefreshAccel();
  st->path = opt.work_dir + "/" + opt.workload + ".pages";
  if (!rtree::WritePagedTree<2>(*st->bulk, st->path)) return nullptr;
  for (size_t i = 0; i < loaded; ++i) st->in.push_back(i);
  for (size_t i = loaded; i < cfg.objects; ++i) st->out.push_back(i);

  // Both pools hold the whole file with room for growth.
  const uint64_t pages = std::filesystem::file_size(st->path) /
                         rtree::SerializedPageSize<2>(*st->bulk);
  PagedRTree<2>::OpenOptions wo;
  wo.mode = PagedRTree<2>::OpenMode::kReadWrite;
  wo.commit_every = kCommitEvery;
  wo.pool_pages = pages * 2 * kWorkers;
  wo.pool_shards = kWorkers;
  st->writer = std::make_unique<PagedRTree<2>>();
  if (!st->writer->Open(st->path, wo,
                        rtree::MakeRTree<2>(rtree::Variant::kRRStar,
                                            st->data.domain))) {
    return nullptr;
  }
  PagedRTree<2>::OpenOptions fo;
  fo.mode = PagedRTree<2>::OpenMode::kFollow;
  fo.follow_poll_ms = 0;
  fo.pool_pages = pages * 2 * kWorkers;
  fo.pool_shards = kWorkers;
  st->follower = std::make_unique<PagedRTree<2>>();
  if (!st->follower->Open(st->path, fo)) return nullptr;
  const rtree::SpatialEngine<2> we(*st->writer), fe(*st->follower);
  for (const auto& s : st->specs) {
    we.Execute(s);
    fe.Execute(s);
  }
  return st;
}

/// A pinned snapshot with the counts its specs had when it was pinned.
struct Pin {
  rtree::EngineSnapshot<2> snap;
  std::vector<size_t> counts;  // for every spec
};

inline Result RunWriteFollow(const WriteConfig& cfg, const Options& opt,
                             Gate* gate) {
  Result r;
  // The measured instance is set up first; peak RSS is read before the
  // extra set-ups that only feed the setup_s median.
  const uint64_t setup0 = NowNs();
  std::unique_ptr<WriteState> st = SetUpWrite(cfg, opt);
  std::vector<double> setup_s{(NowNs() - setup0) / 1e9};
  if (!st) {
    gate->Check(false, "set-up failed (write or open of the page file)");
    return r;
  }
  rtree::PagedRTree<2>& writer = *st->writer;
  rtree::PagedRTree<2>& follower = *st->follower;
  const rtree::SpatialEngine<2> we(writer), fe(follower);
  // The writer's memory mirror is an in-memory RTree that applied every
  // committed operation: the reference the follower and pins must match.
  const rtree::SpatialEngine<2> reference(*writer.mirror());
  const std::vector<rtree::QuerySpec<2>>& specs = st->specs;
  auto expected = [&](size_t i) {
    return reference.Execute(specs[i]) + (opt.perturb && i == 0 ? 1 : 0);
  };

  // Traced-run probes: the same op sequence on a separate in-memory tree,
  // and a separate WAL tailer scanning the same log.
  std::unique_ptr<rtree::RTree<2>> mirror2;
  std::unique_ptr<replica::WalTailer> tailer;
  Spans spans;
  obs::TraceCollector snap_tc(1, opt.seed, 1u << 14);
  obs::TraceCollector fol_tc(1, opt.seed, 1u << 14);
  if (opt.trace) {
    const size_t loaded = st->in.size();
    const std::vector<rtree::Entry<2>> items(
        st->data.items.begin(), st->data.items.begin() + loaded);
    mirror2 = rtree::BuildTree<2>(rtree::Variant::kRRStar, items,
                                  st->data.domain);
    mirror2->RefreshAccel();
    r.Put("core.clip_leaf_saved_ratio",
          ClipLeafSavedRatio<2>(*mirror2, *st->bulk, specs), "ratio");
    mirror2->EnableClipping(core::ClipConfig<2>::Sta());
    tailer = std::make_unique<replica::WalTailer>(
        rtree::WalPathFor(st->path));
    std::vector<replica::WalCommitWindow> skip;
    tailer->Poll(&skip);
  }

  // write_lat: whole Insert/Delete calls. path_lat: the same calls with
  // the group commit's log sync (Wal's own sync timer) taken out; the
  // device flush time varies several-fold on a shared disk. lag: from the
  // return of the op that closes a group commit until the follower's
  // Refresh() returns with it applied.
  Samples write_lat, path_lat, lag, fol_lat, snap_lat;
  uint64_t ops_done = 0, windows = 0, spec_cursor = 0;
  uint64_t checkpoints = 0, checkpoint_ns = 0;
  uint64_t refresh_ns = 0, scan_ns = 0, rebase_ns = 0, mirror_ns = 0;
  uint64_t depth_sum = 0, depth_n = 0;
  uint64_t live_deltas_max = 0, retained_max = 0;
  // Apply cost (refresh minus scan) by position inside a checkpoint cycle.
  const uint64_t cycle_windows = cfg.checkpoint_ops / kCommitEvery;
  const uint64_t tenth = std::max<uint64_t>(1, cycle_windows / 10);
  uint64_t apply_first = 0, apply_first_n = 0, apply_last = 0,
           apply_last_n = 0;
  // Trace overhead: system time per window in traced vs untraced cycles.
  uint64_t sys_plain = 0, sys_plain_n = 0, sys_traced = 0, sys_traced_n = 0;
  uint64_t traced_wall = 0;
  std::vector<uint32_t> snap_roots, fol_roots;
  storage::IoStats snap_io;
  std::deque<Pin> pins;
  Rng rng(opt.seed * 31 + 7);

  auto execute = [&](const rtree::SpatialEngine<2>& e, size_t i,
                     const rtree::EngineSnapshot<2>* snap,
                     storage::IoStats* io, Samples* lat, bool traced,
                     const char* span, std::vector<uint32_t>* roots,
                     uint64_t request, uint64_t* sys, uint64_t* total) {
    storage::Status status;
    const uint64_t t0 = NowNs();
    const size_t n = e.Execute(specs[i], nullptr, io, nullptr, &status, snap);
    const uint64_t dt = NowNs() - t0;
    lat->Add(dt);
    *sys += dt;
    if (total) *total += dt;
    if (traced) roots->push_back(spans.Add(span, Spans::kNoParent, request,
                                           t0, dt));
    r.ops.Add(status.ok());
    return n;
  };

  // Runs whole checkpoint cycles until the time slice is spent. The
  // throughputs are per cycle: writer ops per second of writer time (op
  // and checkpoint calls; `path`: with the Wal's sync time taken out), ops
  // the follower applied per second of Refresh() time, and follower
  // queries per second of Execute time. A run reports their medians.
  std::vector<double> cycle_ops_s, cycle_path_ops_s, cycle_apply_ops_s,
      cycle_fol_qps;
  uint64_t cycle_writer_ns = 0, cycle_path_ns = 0, cycle_refresh_ns = 0,
           cycle_fol_ns = 0, cycle_fol_n = 0;
  const Budget budget(opt.seconds * 0.9, 0);
  while (budget.Continue(1) || ops_done % cfg.checkpoint_ops != 0) {
    const uint64_t cycle = ops_done / cfg.checkpoint_ops;
    const bool traced = opt.trace && cycle % 2 == 1;
    const uint64_t window0 = NowNs();
    uint64_t sys = 0;
    if (traced) {
      we.SetTraces(&snap_tc);
      fe.SetTraces(&fol_tc);
    }

    // 16 operations: the last one's return is the commit boundary.
    for (size_t j = 0; j < kCommitEvery; ++j) {
      const bool insert = ops_done % 2 == 0 && !st->out.empty();
      size_t obj;
      if (insert) {
        obj = st->out.front();
        st->out.pop_front();
        st->in.push_back(obj);
      } else {
        const size_t k = rng.Below(st->in.size());
        obj = st->in[k];
        st->in[k] = st->in.back();
        st->in.pop_back();
        st->out.push_back(obj);
      }
      const rtree::Entry<2>& e = st->data.items[obj];
      // The log's own timers, read around the calls that may sync (every
      // call in a traced window, for its storage.wal child spans).
      const bool closes = j + 1 == kCommitEvery;
      const bool timers = closes || traced;
      const storage::WalMetrics wm0 =
          timers ? writer.wal().MetricsSnapshot() : storage::WalMetrics{};
      const uint64_t t0 = NowNs();
      const bool ok = insert ? writer.Insert(e.rect, e.id)
                             : writer.Delete(e.rect, e.id);
      const uint64_t dt = NowNs() - t0;
      const storage::WalMetrics wm1 =
          timers ? writer.wal().MetricsSnapshot() : storage::WalMetrics{};
      const uint64_t sync = wm1.sync_ns.sum() - wm0.sync_ns.sum();
      write_lat.Add(dt);
      path_lat.Add(dt > sync ? dt - sync : 0);
      cycle_writer_ns += dt;
      cycle_path_ns += dt > sync ? dt - sync : 0;
      sys += dt;
      r.ops.Add(ok);
      ++ops_done;
      if (traced) {
        const uint32_t root = spans.Add(insert ? "write.insert"
                                               : "write.delete",
                                        Spans::kNoParent, ops_done, t0, dt);
        spans.Add("storage.wal.append", root, ops_done, t0,
                  wm1.append_ns.sum() - wm0.append_ns.sum());
        if (sync > 0) spans.Add("storage.wal.sync", root, ops_done, t0, sync);
      }
      if (mirror2) {
        const uint64_t m0 = NowNs();
        if (insert) {
          mirror2->Insert(e.rect, e.id);
        } else {
          mirror2->Delete(e.rect, e.id);
        }
        const uint64_t m = NowNs() - m0;
        mirror_ns += m;
        if (traced) {
          spans.Add("probe.mirror_op", Spans::kNoParent, ops_done, m0, m);
        }
      }
    }
    const uint64_t commit_ns = NowNs();
    ++windows;

    // Follower catches up to the commit.
    const uint64_t rebases0 = follower.replica_rebases();
    storage::Status rs;
    const uint64_t f0 = NowNs();
    const bool refreshed = follower.Refresh(&rs);
    const uint64_t f1 = NowNs();
    lag.Add(f1 - commit_ns);
    sys += f1 - f0;
    refresh_ns += f1 - f0;
    cycle_refresh_ns += f1 - f0;
    r.ops.Add(refreshed && rs.ok());
    if (traced) spans.Add("replica.refresh", Spans::kNoParent, windows, f0,
                          f1 - f0);
    const bool rebased = follower.replica_rebases() != rebases0;
    if (rebased) rebase_ns += f1 - f0;
    gate->Check(follower.replica_applied_lsn() >= writer.wal().durable_lsn(),
                "window %llu: follower applied LSN %llu < durable LSN %llu",
                static_cast<unsigned long long>(windows),
                static_cast<unsigned long long>(follower.replica_applied_lsn()),
                static_cast<unsigned long long>(writer.wal().durable_lsn()));
    if (tailer) {
      std::vector<replica::WalCommitWindow> got;
      const uint64_t s0 = NowNs();
      if (tailer->Poll(&got) == replica::WalTailer::PollResult::kShrunk) {
        tailer->ResetToStart();
        got.clear();
        tailer->Poll(&got);
      }
      const uint64_t s = NowNs() - s0;
      scan_ns += s;
      if (traced) spans.Add("probe.wal_scan", Spans::kNoParent, windows, s0, s);
      if (!rebased) {
        const uint64_t pos = (windows - 1) % cycle_windows;
        const uint64_t apply = (f1 - f0) > s ? (f1 - f0) - s : 0;
        if (pos < tenth) {
          apply_first += apply;
          ++apply_first_n;
        } else if (pos >= cycle_windows - tenth) {
          apply_last += apply;
          ++apply_last_n;
        }
      }
    }

    // Follower queries must equal the writer's latest results.
    const uint64_t g0 = NowNs();
    uint64_t gate_ns = 0;
    for (size_t q = 0; q < kQueriesPerWindow; ++q) {
      const size_t i = spec_cursor++ % specs.size();
      const size_t n = execute(fe, i, nullptr, nullptr, &fol_lat, traced,
                               "api.follower_execute", &fol_roots, windows,
                               &sys, &cycle_fol_ns);
      ++cycle_fol_n;
      const uint64_t c0 = NowNs();
      gate->Check(n == expected(i), "window %llu: follower spec %zu",
                  static_cast<unsigned long long>(windows), i);
      gate_ns += NowNs() - c0;
    }

    // Pin a new snapshot every kPinEvery windows, recording its answers.
    if ((windows - 1) % kPinEvery == 0) {
      const uint64_t c0 = NowNs();
      Pin pin;
      pin.snap = we.PinSnapshot();
      pin.counts.resize(specs.size());
      for (size_t i = 0; i < specs.size(); ++i) pin.counts[i] = expected(i);
      pins.push_back(std::move(pin));
      if (pins.size() > kPinDepth) pins.pop_front();
      gate_ns += NowNs() - c0;
    }
    const Pin& old = pins.front();
    for (size_t q = 0; q < kQueriesPerWindow; ++q) {
      const size_t i = spec_cursor++ % specs.size();
      depth_sum += writer.current_epoch() - old.snap.epoch();
      ++depth_n;
      const size_t n = execute(we, i, &old.snap, &snap_io, &snap_lat, traced,
                               "api.snapshot_execute", &snap_roots, windows,
                               &sys, nullptr);
      gate->Check(n == old.counts[i], "window %llu: snapshot spec %zu",
                  static_cast<unsigned long long>(windows), i);
    }

    if (traced) spans.Add("bench.gate", Spans::kNoParent, windows, g0,
                          gate_ns);

    const storage::EpochStats es = writer.EpochChainStats();
    live_deltas_max = std::max(live_deltas_max, es.live_deltas);
    retained_max = std::max(retained_max, es.retained_bytes);

    if (ops_done % cfg.checkpoint_ops == 0) {
      const uint64_t sync0 = writer.wal().MetricsSnapshot().sync_ns.sum();
      const uint64_t t0 = NowNs();
      const bool ok = writer.Checkpoint();
      const uint64_t dt = NowNs() - t0;
      const uint64_t sync =
          writer.wal().MetricsSnapshot().sync_ns.sum() - sync0;
      const double ops = static_cast<double>(cfg.checkpoint_ops);
      cycle_ops_s.push_back(ops / ((cycle_writer_ns + dt) / 1e9));
      cycle_path_ops_s.push_back(
          ops / ((cycle_path_ns + (dt > sync ? dt - sync : 0)) / 1e9));
      cycle_apply_ops_s.push_back(ops / (cycle_refresh_ns / 1e9));
      cycle_fol_qps.push_back(cycle_fol_n / (cycle_fol_ns / 1e9));
      cycle_writer_ns = cycle_path_ns = cycle_refresh_ns = 0;
      cycle_fol_ns = cycle_fol_n = 0;
      sys += dt;
      checkpoint_ns += dt;
      ++checkpoints;
      r.ops.Add(ok);
      if (traced) {
        const uint32_t root = spans.Add("write.checkpoint", Spans::kNoParent,
                                        windows, t0, dt);
        if (sync > 0) spans.Add("storage.wal.sync", root, windows, t0, sync);
      }
    }
    if (traced) {
      we.SetTraces(nullptr);
      fe.SetTraces(nullptr);
      sys_traced += sys;
      ++sys_traced_n;
      traced_wall += NowNs() - window0;
    } else {
      sys_plain += sys;
      ++sys_plain_n;
    }
  }

  // Final state: follower and writer agree on every spec.
  gate->Check(follower.Refresh(), "final follower refresh");
  for (size_t i = 0; i < specs.size(); ++i) {
    storage::Status status;
    gate->Check(fe.Execute(specs[i], nullptr, nullptr, nullptr, &status) ==
                        expected(i) &&
                    status.ok(),
                "final follower spec %zu", i);
  }
  gate->Check(!writer.io_error() && !follower.io_error(),
              "an engine latched an I/O error");
  pins.clear();

  const double ops = static_cast<double>(ops_done);
  if (!opt.trace) {
    const double rss_mb = PeakRssMb();
    st.reset();
    while (MoreSetUps(setup_s)) {
      bool ok = false;
      setup_s.push_back(TimeSetUp([&] { return SetUpWrite(cfg, opt); }, &ok));
      gate->Check(ok, "repeated set-up failed");
    }
    r.Put("setup_s", Median(setup_s), "s");
    r.Put("peak_rss_mb", rss_mb, "MB");
    r.Put("p50_us", path_lat.Percentile(0.50) / 1e3, "us");
    r.Put("ops_s", Median(cycle_path_ops_s), "1/s");
    r.Put("group_p50_ms", lag.Percentile(0.50) / 1e6, "ms");
    r.Put("p99_ms", lag.Percentile(0.99) / 1e6, "ms");
    r.Detail("write_ops_s", Median(cycle_ops_s), "1/s");
    r.Detail("write_p50_us", write_lat.Percentile(0.50) / 1e3, "us");
    r.Detail("write_p99_us", write_lat.Percentile(0.99) / 1e3, "us");
    r.Detail("write_samples", static_cast<double>(write_lat.size()), "count");
    r.Detail("write_path_p50_us", path_lat.Percentile(0.50) / 1e3, "us");
    r.Detail("write_path_p99_us", path_lat.Percentile(0.99) / 1e3, "us");
    r.Detail("write_path_ops_s", Median(cycle_path_ops_s), "1/s");
    r.Detail("snapshot_query_p50_us", snap_lat.Percentile(0.50) / 1e3, "us");
    r.Detail("snapshot_query_p99_us", snap_lat.Percentile(0.99) / 1e3, "us");
    r.Detail("snapshot_samples", static_cast<double>(snap_lat.size()),
             "count");
    r.Detail("follower_lag_p50_ms", lag.Percentile(0.50) / 1e6, "ms");
    r.Detail("follower_lag_p99_ms", lag.Percentile(0.99) / 1e6, "ms");
    r.Detail("lag_samples", static_cast<double>(lag.size()), "count");
    r.Detail("follower_query_p50_us", fol_lat.Percentile(0.50) / 1e3, "us");
    r.Detail("follower_query_qps", Median(cycle_fol_qps), "1/s");
    r.Detail("follower_apply_ops_s", Median(cycle_apply_ops_s), "1/s");
    r.Detail("checkpoints", static_cast<double>(checkpoints), "count");
    return r;
  }

  // ------------------------------------------------------- traced run
  AttachEngineTraces(snap_tc, snap_roots, &spans);
  AttachEngineTraces(fol_tc, fol_roots, &spans);
  const double q = static_cast<double>(snap_lat.size());
  storage::BufferPool& pool = writer.pool();
  const uint64_t hits = pool.hits(), misses = pool.misses();
  const obs::Histogram hit_h = pool.PinHitLatency();
  const obs::Histogram miss_h = pool.PinMissLatency();
  r.Put("rtree.nodes_per_query", snap_io.TotalAccesses() / q, "nodes");
  r.Put("rtree.useful_leaf_ratio",
        snap_io.leaf_accesses
            ? static_cast<double>(snap_io.contributing_leaf_accesses) /
                  snap_io.leaf_accesses
            : 0.0,
        "ratio");
  const uint64_t traversals = spans.Count("rtree.traversal");
  r.Put("rtree.traversal_self_ns",
        traversals ? static_cast<double>(spans.SelfNs("rtree.traversal")) /
                         traversals
                   : 0.0,
        "ns");
  r.Put("core.clip_lookups_per_query", snap_io.clip_accesses / q, "lookups");
  r.Put("pool.pin_hit_p50_ns", static_cast<double>(hit_h.Percentile(0.5)),
        "ns");
  r.Put("pool.pin_hit_p99_ns", static_cast<double>(hit_h.Percentile(0.99)),
        "ns");
  r.Put("pool.hit_ratio",
        hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0,
        "ratio");
  r.Put("pool.misses_per_query", snap_io.page_reads / q, "pages");
  r.Put("pool.evictions", static_cast<double>(pool.evictions()), "count");
  r.Put("pool.pin_miss_p50_ns", static_cast<double>(miss_h.Percentile(0.5)),
        "ns");
  r.Put("pool.pin_miss_p99_ns", static_cast<double>(miss_h.Percentile(0.99)),
        "ns");
  r.Put("pool.miss_share",
        static_cast<double>(snap_io.pin_miss_ns) / snap_lat.Sum(), "ratio");
  const storage::IoStats& uio = writer.update_io();
  r.Put("file.read_retries",
        static_cast<double>(uio.read_retries + snap_io.read_retries),
        "count");
  MeasureFile<2>(writer, st->path, std::min<uint64_t>(misses, 20000),
                 opt.seed, miss_h.Mean(), &r);
  r.Put("write.mirror_us_per_op", mirror_ns / ops / 1e3, "us");
  r.Put("write.page_reads_per_op", uio.page_reads / ops, "pages");
  r.Put("write.page_writes_per_op", uio.page_writes / ops, "pages");
  const storage::WalMetrics wm = writer.wal().MetricsSnapshot();
  r.Put("wal.append_p50_ns", static_cast<double>(wm.append_ns.Percentile(0.5)),
        "ns");
  r.Put("wal.bytes_per_op", uio.wal_bytes / ops, "B");
  r.Put("wal.records_per_sync",
        uio.wal_syncs ? static_cast<double>(uio.wal_appends) / uio.wal_syncs
                      : 0.0,
        "records");
  r.Put("wal.sync_p50_us", wm.sync_ns.Percentile(0.5) / 1e3, "us");
  r.Put("wal.sync_p99_us", wm.sync_ns.Percentile(0.99) / 1e3, "us");
  r.Put("pool.wal_forced_syncs", static_cast<double>(pool.wal_forced_syncs()),
        "count");
  r.Put("write.checkpoint_ms",
        checkpoints ? checkpoint_ns / 1e6 / checkpoints : 0.0, "ms");
  r.Put("pool.writebacks_per_checkpoint",
        checkpoints ? static_cast<double>(pool.writebacks()) / checkpoints
                    : 0.0,
        "pages");
  const storage::EpochStats es = writer.EpochChainStats();
  r.Put("epoch.pages_captured_per_commit",
        static_cast<double>(es.pages_captured) / windows, "pages");
  r.Put("epoch.live_deltas_max", static_cast<double>(live_deltas_max),
        "count");
  r.Put("epoch.retained_bytes_max", static_cast<double>(retained_max), "B");
  r.Put("epoch.reclaimed", static_cast<double>(es.epochs_reclaimed), "count");
  r.Put("epoch.chain_depth",
        depth_n ? static_cast<double>(depth_sum) / depth_n : 0.0, "epochs");
  const uint64_t rebases = follower.replica_rebases();
  r.Put("replica.refresh_us_per_window", refresh_ns / 1e3 / windows, "us");
  r.Put("replica.windows_applied",
        static_cast<double>(follower.replica_windows_applied()), "count");
  r.Put("replica.scan_us_per_window", scan_ns / 1e3 / windows, "us");
  r.Put("replica.apply_us_per_window",
        refresh_ns > scan_ns ? (refresh_ns - scan_ns) / 1e3 / windows : 0.0,
        "us");
  r.Put("replica.apply_growth",
        apply_first && apply_last_n
            ? (static_cast<double>(apply_last) / apply_last_n) /
                  (static_cast<double>(apply_first) / apply_first_n)
            : 0.0,
        "ratio");
  r.Put("replica.rebase_ms", rebases ? rebase_ns / 1e6 / rebases : 0.0, "ms");
  r.Put("replica.rebases", static_cast<double>(rebases), "count");
  r.Put("replica.lag_p50_ms", lag.Percentile(0.50) / 1e6, "ms");
  r.Put("replica.lag_p99_ms", lag.Percentile(0.99) / 1e6, "ms");
  r.Put("replica.query_p50_us", fol_lat.Percentile(0.50) / 1e3, "us");
  r.Put("trace.overhead",
        sys_plain_n && sys_traced_n
            ? (static_cast<double>(sys_traced) / sys_traced_n) /
                      (static_cast<double>(sys_plain) / sys_plain_n) -
                  1.0
            : 0.0,
        "ratio");
  // The end-to-end time of the traced windows leaves out the benchmark's
  // probes and gate checks (all root spans).
  const uint64_t e2e = traced_wall - spans.DurNs("probe.") -
                       spans.DurNs("bench.");
  r.Put("trace.unaccounted_share",
        e2e ? 1.0 - static_cast<double>(spans.LayerSelfNs()) / e2e : 0.0,
        "ratio");
  MeasureHotpath<2>(*st->bulk, specs, &r, gate);
  spans.WriteChromeTrace(opt.work_dir + "/" + opt.workload + "-trace.json");
  return r;
}

}  // namespace clipbb::perfbench

#endif  // CLIPBB_PERFBENCH_WRITE_FOLLOW_H_
