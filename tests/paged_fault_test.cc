// Read-path fault acceptance sweep — the failure-model contract, proven
// over a dense fault matrix: {EIO, short read, flipped bit} × {transient,
// persistent} × a spread of trigger points. For every armed combination,
// every query against the paged engine must either (a) return a count
// identical to the in-memory engine's, with an ok Status, or (b) surface
// an explicit non-ok Status (and fire the sink's OnError exactly once).
// Zero success-with-wrong-result outcomes, ever — a silently truncated
// traversal is the one behavior this file exists to make impossible.
// Transient faults (budget 1) must additionally be invisible: absorbed by
// the pool's bounded retry, counted in IoStats::read_retries, all counts
// exact. The env-driven case at the bottom is the hook for the CI fault
// sweep (CLIPBB_READ_FAULT=...), mirroring the crash-recovery env sweep.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "rtree/factory.h"
#include "rtree/page_format.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "storage/fault_injection.h"
#include "storage/status.h"
#include "test_util.h"

namespace clipbb::rtree {
namespace {

using clipbb::testing::RandomRect;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "clipbb_fault_" + name + "_" +
         std::to_string(::getpid()) + ".pages";
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() {
    std::remove(path.c_str());
    std::remove(WalPathFor(path).c_str());
  }
  std::string path;
};

struct FaultGuard {
  ~FaultGuard() { storage::ReadFaultDisarm(); }
};

geom::Rect<2> Domain2() {
  geom::Rect<2> r;
  for (int i = 0; i < 2; ++i) {
    r.lo[i] = -0.5;
    r.hi[i] = 1.5;
  }
  return r;
}

/// Counts matches and records every OnError delivery.
class RecordingSink final : public ResultSink<2> {
 public:
  void OnMatch(ObjectId) override { ++count_; }
  void OnError(const storage::Status& s) override {
    ++errors_;
    last_error_ = s;
  }
  size_t count() const { return count_; }
  int errors() const { return errors_; }
  const storage::Status& last_error() const { return last_error_; }
  void Reset() {
    count_ = 0;
    errors_ = 0;
    last_error_ = storage::Status{};
  }

 private:
  size_t count_ = 0;
  int errors_ = 0;
  storage::Status last_error_{};
};

/// A mixed-kind query workload: range, stabbing, containment, kNN.
std::vector<QuerySpec<2>> MixedSpecs(Rng& rng) {
  std::vector<QuerySpec<2>> specs;
  for (int q = 0; q < 90; ++q) {
    specs.push_back(QuerySpec<2>::Intersects(RandomRect<2>(rng, 0.10)));
  }
  for (int q = 0; q < 20; ++q) {
    specs.push_back(
        QuerySpec<2>::ContainsPoint(RandomRect<2>(rng, 0.0).lo));
  }
  for (int q = 0; q < 20; ++q) {
    specs.push_back(QuerySpec<2>::ContainedIn(RandomRect<2>(rng, 0.25)));
  }
  for (int q = 0; q < 10; ++q) {
    specs.push_back(QuerySpec<2>::Knn(RandomRect<2>(rng, 0.0).lo, 12));
  }
  return specs;
}

struct SweepOutcome {
  size_t ok_queries = 0;
  size_t failed_queries = 0;
  size_t wrong_results = 0;  // ok status but count != reference — must be 0
  size_t sink_error_mismatches = 0;
  storage::IoStats io;
};

/// Opens the paged tree fresh, then calls `arm` (arming after the open
/// scopes the fault window to the query path — Open itself reads the free
/// chain and root without the pool's retry protection), runs every spec,
/// and checks the no-silent-truncation invariant query by query. The
/// caller disarms.
template <typename ArmFn>
SweepOutcome RunArmedSweep(const std::string& path,
                           const std::vector<QuerySpec<2>>& specs,
                           const std::vector<size_t>& ref, ArmFn&& arm) {
  SweepOutcome out;
  PagedRTree<2> paged;
  PagedRTree<2>::OpenOptions opts;
  opts.pool_pages = 64;  // small: evictions keep the read path busy
  opts.pool_shards = 1;
  EXPECT_TRUE(paged.Open(path, opts));
  arm();
  const SpatialEngine<2> engine(paged);
  TraversalScratch scratch;
  RecordingSink sink;
  for (size_t i = 0; i < specs.size(); ++i) {
    sink.Reset();
    storage::Status status;
    const size_t n =
        engine.Execute(specs[i], &sink, &out.io, &scratch, &status);
    EXPECT_EQ(n, sink.count()) << "spec " << i;
    if (status.ok()) {
      ++out.ok_queries;
      if (n != ref[i]) ++out.wrong_results;
      if (sink.errors() != 0) ++out.sink_error_mismatches;
    } else {
      ++out.failed_queries;
      // OnError fired exactly once, carrying the same status.
      if (sink.errors() != 1 ||
          sink.last_error().kind != status.kind) {
        ++out.sink_error_mismatches;
      }
    }
  }
  paged.Close();
  return out;
}

TEST(PagedFaultSweep, NoSilentTruncationAcrossTheFaultMatrix) {
  FaultGuard guard;
  Rng rng(431);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 3000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(Variant::kRStar, items, Domain2());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  const std::vector<QuerySpec<2>> specs = MixedSpecs(rng);

  FileGuard file(TempPath("matrix"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));

  // In-memory reference counts (the in-memory engine cannot fail).
  std::vector<size_t> ref(specs.size());
  {
    const SpatialEngine<2> mem(*tree);
    TraversalScratch scratch;
    for (size_t i = 0; i < specs.size(); ++i) {
      ref[i] = mem.Execute(specs[i], nullptr, nullptr, &scratch);
    }
  }

  const storage::ReadFaultKind kKinds[] = {
      storage::ReadFaultKind::kEio, storage::ReadFaultKind::kShortRead,
      storage::ReadFaultKind::kBitFlip};
  const char* kKindNames[] = {"eio", "short", "flip"};
  const uint64_t kNth[] = {1, 3, 7, 17, 41, 97};

  for (int ki = 0; ki < 3; ++ki) {
    for (const bool persistent : {false, true}) {
      for (const uint64_t nth : kNth) {
        SCOPED_TRACE(::testing::Message()
                     << kKindNames[ki] << (persistent ? "/persistent" : "/transient")
                     << " nth=" << nth);
        const SweepOutcome out = RunArmedSweep(file.path, specs, ref, [&] {
          storage::ReadFaultArm(kKinds[ki], nth,
                                persistent ? (1u << 20) : 1);
        });
        const uint64_t injected = storage::ReadFaultInjected();
        storage::ReadFaultDisarm();

        // The contract, in both regimes: an ok status is a guarantee.
        EXPECT_EQ(out.wrong_results, 0u)
            << "a query returned success with a wrong result";
        EXPECT_EQ(out.sink_error_mismatches, 0u);

        if (!persistent) {
          // One fault, absorbed: nothing fails, every count exact, the
          // retry that absorbed it is visible in the stats.
          EXPECT_EQ(out.failed_queries, 0u);
          EXPECT_EQ(out.ok_queries, specs.size());
          if (injected > 0) {
            EXPECT_GE(out.io.read_retries, 1u);
          }
        } else if (injected > 0) {
          // Unbounded budget: the fault outlasts every retry, so at
          // least one query must have failed loudly.
          EXPECT_GT(out.failed_queries, 0u);
          EXPECT_GE(out.io.read_retries,
                    storage::BufferPool::kMaxReadRetries);
        }
      }
    }
  }
}

/// Rewrites file page `fid` in place through `mutate` and restamps its
/// checksum: damage the CRC cannot see, so only the walks' own structural
/// checks stand between it and a wrong answer.
template <typename MutateFn>
void RewritePage(const std::string& path, size_t page_size,
                 storage::PageId fid, MutateFn&& mutate) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::vector<std::byte> page(page_size);
  const auto off = static_cast<std::streamoff>(fid * page_size);
  f.seekg(off);
  ASSERT_TRUE(f.read(reinterpret_cast<char*>(page.data()), page_size));
  mutate(page.data());
  StampPageChecksum(page.data(), page_size);
  f.seekp(off);
  ASSERT_TRUE(f.write(reinterpret_cast<const char*>(page.data()), page_size));
}

/// Object ids in the in-memory subtree under `id`.
void SubtreeIds(const RTree<2>& tree, int64_t id, std::vector<ObjectId>* out) {
  const Node<2>& n = tree.NodeAt(id);
  for (const Entry<2>& e : n.entries) {
    if (n.IsLeaf()) {
      out->push_back(e.id);
    } else {
      SubtreeIds(tree, e.id, out);
    }
  }
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A child pointer past the section, on a root page whose checksum is
/// valid: the window and kNN walks — unpinned and on a pinned snapshot —
/// skip that one child, still visit every sibling, report
/// kCorruptStructure on the parent's page, and latch io_error. A stale
/// follower read of the same file reports kStaleSnapshot and latches
/// nothing.
TEST(PagedCorruptChild, SkippedLoudlyWhileSiblingsAreStillVisited) {
  Rng rng(435);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(Variant::kRStar, items, Domain2());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  FileGuard file(TempPath("child"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));

  Superblock sb;
  {
    PagedRTree<2> probe;
    ASSERT_TRUE(probe.Open(file.path));
    sb = probe.superblock();
  }
  const storage::PageId root_page = 1 + sb.root_page;
  // Serialization keeps entry order, so entry j of the file's root is
  // entry j of the in-memory root.
  const Node<2>& root = tree->NodeAt(tree->root());
  ASSERT_FALSE(root.IsLeaf());
  const size_t j = root.entries.size() / 2;
  std::vector<ObjectId> lost;
  SubtreeIds(*tree, root.entries[j].id, &lost);
  ASSERT_FALSE(lost.empty());
  std::vector<ObjectId> expected;
  for (const Entry<2>& e : items) {
    if (std::find(lost.begin(), lost.end(), e.id) == lost.end()) {
      expected.push_back(e.id);
    }
  }
  RewritePage(file.path, sb.file_page_size, root_page, [&](std::byte* page) {
    const PagedNodeView<2> v = DecodeNodePage<2>(page);
    ASSERT_EQ(v.n(), root.entries.size());
    const int64_t bad = static_cast<int64_t>(sb.num_section_pages) + 7;
    std::memcpy(page + (reinterpret_cast<const std::byte*>(v.id + j) - page),
                &bad, sizeof bad);
  });

  const geom::Rect<2> everything = Domain2();
  const int k_all = static_cast<int>(items.size());
  for (const bool pinned : {false, true}) {
    for (const bool knn : {false, true}) {
      SCOPED_TRACE(::testing::Message() << (pinned ? "pinned" : "unpinned")
                                        << (knn ? " knn" : " window"));
      PagedRTree<2> paged;
      ASSERT_TRUE(paged.Open(file.path));
      const auto snap = paged.PinSnapshot();
      std::vector<ObjectId> got;
      storage::Status st;
      if (knn) {
        paged.Knn(
            everything.Center(), k_all,
            [&got](const KnnNeighbor<2>& n) { got.push_back(n.id); },
            nullptr, nullptr, &st, pinned ? &snap : nullptr);
      } else {
        paged.RangeQuery(everything, &got, nullptr, nullptr, &st,
                         pinned ? &snap : nullptr);
      }
      EXPECT_EQ(st.kind, storage::ErrorKind::kCorruptStructure)
          << st.kind_name();
      EXPECT_EQ(st.page, root_page);
      EXPECT_TRUE(paged.io_error());
      EXPECT_EQ(Sorted(std::move(got)), expected);
    }
  }

  // A follower whose base page carries a future LSN: both walks, pinned
  // and auto-pinned, fail stale at the root — and never latch.
  PagedRTree<2> follower;
  PagedRTree<2>::OpenOptions fopts;
  fopts.mode = PagedRTree<2>::OpenMode::kFollow;
  ASSERT_TRUE(follower.Open(file.path, fopts));
  RewritePage(file.path, sb.file_page_size, root_page,
              [](std::byte* page) { SetPageLsn(page, uint64_t{1} << 40); });
  const auto snap = follower.PinSnapshot();
  for (const bool pinned : {false, true}) {
    storage::Status st;
    follower.RangeQuery(everything, nullptr, nullptr, nullptr, &st,
                        pinned ? &snap : nullptr);
    EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot) << st.kind_name();
    st = {};
    follower.Knn(everything.Center(), 3, [](const KnnNeighbor<2>&) {},
                 nullptr, nullptr, &st, pinned ? &snap : nullptr);
    EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot) << st.kind_name();
    EXPECT_FALSE(follower.io_error());
  }
}

// CI hook: when CLIPBB_READ_FAULT is set, run the same invariant under
// whatever fault the environment describes (the workflow sweeps kind ×
// trigger point, exactly like the crash-recovery sweep). Unset, the test
// skips, so local `ctest` runs are unaffected.
TEST(PagedFaultEnv, EnvConfiguredFaultNeverTruncatesSilently) {
  FaultGuard guard;
  if (!storage::ReadFaultArmFromEnv()) {
    GTEST_SKIP() << "CLIPBB_READ_FAULT not set";
  }
  storage::ReadFaultDisarm();  // re-arm after the setup phase below

  Rng rng(433);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(Variant::kHilbert, items, Domain2());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  const std::vector<QuerySpec<2>> specs = MixedSpecs(rng);
  FileGuard file(TempPath("env"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));
  std::vector<size_t> ref(specs.size());
  {
    const SpatialEngine<2> mem(*tree);
    TraversalScratch scratch;
    for (size_t i = 0; i < specs.size(); ++i) {
      ref[i] = mem.Execute(specs[i], nullptr, nullptr, &scratch);
    }
  }

  const SweepOutcome out = RunArmedSweep(file.path, specs, ref, [] {
    ASSERT_TRUE(storage::ReadFaultArmFromEnv());
  });
  storage::ReadFaultDisarm();
  EXPECT_EQ(out.wrong_results, 0u)
      << "a query returned success with a wrong result under "
      << std::getenv("CLIPBB_READ_FAULT");
  EXPECT_EQ(out.sink_error_mismatches, 0u);
  // Whatever happened — absorbed or failed — both totals add up.
  EXPECT_EQ(out.ok_queries + out.failed_queries, specs.size());
}

// Writer-side pre-image capture under a read fault. A page freed by a
// delete must be captured for snapshots pinned before the free; when it
// is not resident, the capture reads the file. A failed or bit-flipped
// read there must capture a tombstone — the pinned query then answers
// kStaleSnapshot — never skip the capture (the snapshot would read the
// page reformatted as free or recycled) nor keep damaged bytes, and
// never latch io_error: the live tree is intact.
TEST(PagedCaptureFault, FreedPageReadFaultTombstonesPinnedEpoch) {
  FaultGuard guard;
  for (const storage::ReadFaultKind kind :
       {storage::ReadFaultKind::kEio, storage::ReadFaultKind::kBitFlip}) {
    SCOPED_TRACE(kind == storage::ReadFaultKind::kEio ? "eio" : "flip");
    Rng rng(451);
    std::vector<Entry<2>> items;
    for (int i = 0; i < 3000; ++i) {
      items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
    }
    auto tree = BuildTree<2>(Variant::kHilbert, items, Domain2());
    tree->EnableClipping(core::ClipConfig<2>::Sta());
    FileGuard file(TempPath("capture"));
    ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));

    PagedRTree<2> paged;
    PagedRTree<2>::OpenOptions wopts;
    wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
    wopts.pool_pages = 16;
    ASSERT_TRUE(paged.Open(file.path, wopts,
                           MakeRTree<2>(Variant::kHilbert, Domain2())));
    const RTree<2>& mirror = *paged.mirror();
    ASSERT_GT(mirror.Height(), 1);
    // A leaf other than the root, trimmed to the minimum fill so that the
    // next delete from it dissolves it and frees its page.
    int64_t victim = mirror.root();
    while (!mirror.NodeAt(victim).IsLeaf()) {
      victim = mirror.NodeAt(victim).entries[0].id;
    }
    const size_t min_fill = static_cast<size_t>(mirror.options().min_entries);
    while (mirror.NodeAt(victim).entries.size() > min_fill) {
      const Entry<2> e = mirror.NodeAt(victim).entries.back();
      ASSERT_TRUE(paged.Delete(e.rect, e.id));
    }
    ASSERT_TRUE(paged.Commit());

    const auto snap = paged.PinSnapshot();
    const geom::Rect<2> everything = Domain2();
    std::vector<ObjectId> at_pin;
    storage::Status st;
    paged.RangeQuery(everything, &at_pin, nullptr, nullptr, &st, &snap);
    ASSERT_TRUE(st.ok()) << st.kind_name();

    // Nothing resident: the free-time capture must read the file.
    paged.pool().Clear();
    storage::ReadFaultArm(kind, /*nth_read=*/1, /*count=*/1,
                          /*page_id=*/1 + victim);
    const Entry<2> last = mirror.NodeAt(victim).entries.back();
    ASSERT_TRUE(paged.Delete(last.rect, last.id));
    // The only read of the freed page is its capture (a recycled id is
    // staged without a read).
    EXPECT_EQ(storage::ReadFaultInjected(), 1u);
    storage::ReadFaultDisarm();
    // Let the freed id be recycled by later inserts.
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(paged.Insert(RandomRect<2>(rng, 0.04), 10000 + i));
    }
    ASSERT_TRUE(paged.Commit());

    std::vector<ObjectId> again;
    st = {};
    paged.RangeQuery(everything, &again, nullptr, nullptr, &st, &snap);
    if (st.ok()) {
      EXPECT_EQ(again, at_pin);
    } else {
      EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot)
          << st.kind_name() << " at page " << st.page;
    }
    EXPECT_FALSE(paged.io_error());
  }
}

}  // namespace
}  // namespace clipbb::rtree
