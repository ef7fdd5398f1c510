// Close/eviction edge cases of the paged tree:
//
//  * Close() is idempotent — the destructor after an explicit Close (and
//    a second Close) performs no further I/O and repeats the verdict;
//  * a poisoned writer (io_error) must never truncate the WAL at close —
//    the log is the only durable copy of the committed suffix;
//  * a read-only open replays the sidecar WAL but leaves the file
//    byte-identical through Open AND Close (a reader must not destroy a
//    log that may belong to a live writer), and can never checkpoint;
//  * that redo covers node pages: a copy of a live writer's file and log
//    opened read-only answers every query kind, pinned or not, exactly
//    like the writer's memory mirror.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "rtree/factory.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "storage/wal.h"
#include "test_util.h"

namespace clipbb::rtree {
namespace {

using clipbb::testing::RandomPoint;
using clipbb::testing::RandomRect;

geom::Rect<2> Domain2() {
  geom::Rect<2> r;
  for (int i = 0; i < 2; ++i) {
    r.lo[i] = -0.5;
    r.hi[i] = 1.5;
  }
  return r;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "clipbb_close_" + name + "_" +
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

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<int64_t>(in.tellg()) : -1;
}

/// A small serialized clipped tree at `path`; returns its items.
std::vector<Entry<2>> WriteSeedTree(const std::string& path, int n = 600) {
  Rng rng(77);
  std::vector<Entry<2>> items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(Variant::kHilbert, items, Domain2());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  EXPECT_TRUE(WritePagedTree<2>(*tree, path));
  return items;
}

TEST(PagedClose, ExplicitCloseThenDestructorIsIdempotent) {
  FileGuard file(TempPath("idem"));
  WriteSeedTree(file.path);
  Rng rng(78);
  {
    PagedRTree<2> paged;
    PagedRTree<2>::OpenOptions wopts;
    wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
    ASSERT_TRUE(paged.Open(file.path, wopts,
                           MakeRTree<2>(Variant::kHilbert, Domain2())));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(paged.Insert(RandomRect<2>(rng, 0.03), 10000 + i));
    }
    EXPECT_TRUE(paged.Close());
    EXPECT_FALSE(paged.is_open());
    // Second close: no-op, same verdict; the WAL stays checkpointed.
    const int64_t wal_after_first = FileSize(WalPathFor(file.path));
    EXPECT_TRUE(paged.Close());
    EXPECT_EQ(FileSize(WalPathFor(file.path)), wal_after_first);
    // Destructor runs a third Close here — must be a no-op too.
  }
  PagedRTree<2> reopened;
  ASSERT_TRUE(reopened.Open(file.path));
  EXPECT_EQ(reopened.NumObjects(), 610u);
}

TEST(PagedClose, PoisonedCloseNeverTruncatesWal) {
  FileGuard file(TempPath("poison"));
  WriteSeedTree(file.path);
  Rng rng(79);
  PagedRTree<2> paged;
  PagedRTree<2>::OpenOptions wopts;
  wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
  ASSERT_TRUE(paged.Open(file.path, wopts,
                         MakeRTree<2>(Variant::kHilbert, Domain2())));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(paged.Insert(RandomRect<2>(rng, 0.03), 20000 + i));
  }
  // Make everything durable, then drop every cached frame so the next
  // operation must fault its pages from the file...
  ASSERT_TRUE(paged.Checkpoint());
  paged.pool().Clear();
  // ...and cut the file down to the superblock so those faults fail:
  // deterministic staging failure -> poisoned writer.
  ASSERT_EQ(::truncate(file.path.c_str(),
                       paged.superblock().file_page_size),
            0);
  EXPECT_FALSE(paged.Insert(RandomRect<2>(rng, 0.03), 30000));
  EXPECT_TRUE(paged.io_error());

  // Further updates are refused, and a poisoned writer cannot checkpoint
  // (a checkpoint would truncate the WAL — the only durable copy).
  EXPECT_FALSE(paged.Insert(RandomRect<2>(rng, 0.03), 30001));
  EXPECT_FALSE(paged.Checkpoint());

  const std::vector<char> wal_before = FileBytes(WalPathFor(file.path));
  EXPECT_FALSE(paged.Close());  // durability not guaranteed -> false
  EXPECT_TRUE(paged.io_error());  // verdict survives Close
  // The WAL was not truncated (nor rewritten) by the poisoned close.
  EXPECT_EQ(FileBytes(WalPathFor(file.path)), wal_before);
  // Idempotent: a second close repeats the verdict without new I/O.
  EXPECT_FALSE(paged.Close());
  EXPECT_EQ(FileBytes(WalPathFor(file.path)), wal_before);
}

TEST(PagedClose, ReadOnlyOpenRecoversButNeverTouchesWalOrFile) {
  FileGuard file(TempPath("ro"));
  WriteSeedTree(file.path);

  // Craft a committed sidecar WAL by hand: one image of the superblock
  // with a bumped LSN high-water mark — harmless, but distinguishable
  // from the on-disk page, so we can prove the reader served the WAL
  // image from memory without writing it anywhere.
  storage::PageFile pf;
  ASSERT_TRUE(pf.Open(file.path, /*create=*/false));
  Superblock sb{};
  ASSERT_TRUE(pf.ReadRaw(0, &sb, sizeof sb));
  pf.set_page_size(sb.file_page_size);
  std::vector<std::byte> page0(sb.file_page_size);
  ASSERT_TRUE(pf.ReadPage(0, page0.data()));
  pf.Close();
  Superblock patched = sb;
  patched.lsn = sb.lsn + 7;
  std::memcpy(page0.data(), &patched, sizeof patched);
  // Like every real encode path, the crafted image must carry a valid
  // checksum or the reader's open-time verification (rightly) rejects it.
  StampSuperblockPage(page0.data(), page0.size());
  storage::Wal wal;
  ASSERT_TRUE(wal.Open(WalPathFor(file.path), sb.file_page_size,
                       sb.lsn + 1));
  ASSERT_GT(wal.AppendPageImage(0, page0.data(), /*op_seq=*/1), 0u);
  ASSERT_GT(wal.AppendCommit(/*op_seq=*/1), 0u);
  ASSERT_TRUE(wal.Sync());
  wal.Close();

  const std::vector<char> wal_bytes = FileBytes(WalPathFor(file.path));
  const std::vector<char> data_bytes = FileBytes(file.path);
  ASSERT_GT(wal_bytes.size(), 16u);  // more than the bare header

  {
    PagedRTree<2> paged;
    ASSERT_TRUE(paged.Open(file.path));  // read-only
    // The committed image was redone into memory and is visible...
    EXPECT_EQ(paged.recovery().pages_replayed, 1u);
    EXPECT_EQ(paged.superblock().lsn, sb.lsn + 7);
    // ...but neither the log nor the page file was written.
    EXPECT_EQ(FileBytes(WalPathFor(file.path)), wal_bytes);
    EXPECT_EQ(FileBytes(file.path), data_bytes);
    // A read-only tree can never checkpoint.
    EXPECT_FALSE(paged.writable());
    EXPECT_FALSE(paged.Checkpoint());
    Rng rng(80);
    storage::IoStats io;
    EXPECT_GT(paged.RangeCount(RandomRect<2>(rng, 0.3), &io), 0u);
    EXPECT_TRUE(paged.Close());
    // ...and Close touched them as little as Open did.
    EXPECT_EQ(FileBytes(WalPathFor(file.path)), wal_bytes);
    EXPECT_EQ(FileBytes(file.path), data_bytes);
  }
  // A second read-only open just rebuilds the overlay (idempotent redo).
  {
    PagedRTree<2> paged;
    ASSERT_TRUE(paged.Open(file.path));
    EXPECT_EQ(paged.recovery().pages_replayed, 1u);
    EXPECT_EQ(paged.superblock().lsn, sb.lsn + 7);
    EXPECT_EQ(FileBytes(WalPathFor(file.path)), wal_bytes);
  }
  // A WRITABLE open owns the file: redo writes the pages for real and
  // truncates the replayed log.
  {
    PagedRTree<2> paged;
    PagedRTree<2>::OpenOptions wopts;
    wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
    ASSERT_TRUE(paged.Open(
        file.path, wopts, MakeRTree<2>(Variant::kHilbert, Domain2())));
    EXPECT_LT(FileSize(WalPathFor(file.path)),
              static_cast<int64_t>(wal_bytes.size()));
    EXPECT_EQ(paged.superblock().lsn, sb.lsn + 7);
    EXPECT_NE(FileBytes(file.path), data_bytes);  // image hit the disk
    EXPECT_TRUE(paged.Close());
  }
}

TEST(PagedClose, ReadOnlyOpenRedoesNodePagesFromWal) {
  FileGuard file(TempPath("redo"));
  FileGuard copy(TempPath("redo_copy"));
  const std::vector<Entry<2>> items = WriteSeedTree(file.path, 2000);

  // A live writer with committed inserts and deletes since its open and
  // no checkpoint: the newest node pages exist only in its WAL (or, after
  // an eviction from the small pool, also in the file).
  PagedRTree<2> writer;
  PagedRTree<2>::OpenOptions wopts;
  wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
  wopts.commit_every = 8;
  wopts.pool_pages = 16;
  ASSERT_TRUE(writer.Open(file.path, wopts,
                          MakeRTree<2>(Variant::kHilbert, Domain2())));
  Rng rng(82);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(writer.Insert(RandomRect<2>(rng, 0.04), 50000 + i));
    if (i % 2 == 0) {
      const Entry<2>& e = items[static_cast<size_t>(i) * 7];
      ASSERT_TRUE(writer.Delete(e.rect, e.id));
    }
  }
  ASSERT_TRUE(writer.Commit());
  namespace fs = std::filesystem;
  fs::copy_file(file.path, copy.path, fs::copy_options::overwrite_existing);
  fs::copy_file(WalPathFor(file.path), WalPathFor(copy.path),
                fs::copy_options::overwrite_existing);

  PagedRTree<2> paged;
  ASSERT_TRUE(paged.Open(copy.path));  // read-only
  EXPECT_GT(paged.recovery().pages_replayed, 1u);  // node pages, not just sb
  EXPECT_EQ(paged.NumObjects(), writer.NumObjects());

  const SpatialEngine<2> memory(*writer.mirror());
  const SpatialEngine<2> disk(paged);
  const EngineSnapshot<2> snap = disk.PinSnapshot();
  std::vector<QuerySpec<2>> specs;
  for (int t = 0; t < 10; ++t) {
    const geom::Vec<2> p = RandomPoint<2>(rng);
    const geom::Rect<2> w = RandomRect<2>(rng, 0.3);
    specs.push_back(QuerySpec<2>::Intersects(w));
    specs.push_back(QuerySpec<2>::ContainsPoint(p));
    specs.push_back(QuerySpec<2>::ContainedIn(w));
    specs.push_back(QuerySpec<2>::Encloses(RandomRect<2>(rng, 0.02)));
    specs.push_back(QuerySpec<2>::Knn(p, 7));
  }
  for (const bool pinned : {false, true}) {
    for (const QuerySpec<2>& spec : specs) {
      SCOPED_TRACE(::testing::Message()
                   << QueryKindName(spec.kind)
                   << (pinned ? " pinned" : " unpinned"));
      storage::IoStats mem_io, disk_io;
      storage::Status st;
      if (spec.kind == QueryKind::kKnn) {
        std::vector<KnnNeighbor<2>> mem_nn, disk_nn;
        KnnHeapSink<2> mem_sink(&mem_nn), disk_sink(&disk_nn);
        memory.Execute(spec, &mem_sink, &mem_io);
        disk.Execute(spec, &disk_sink, &disk_io, nullptr, &st,
                     pinned ? &snap : nullptr);
        ASSERT_EQ(mem_nn.size(), disk_nn.size());
        for (size_t i = 0; i < mem_nn.size(); ++i) {
          EXPECT_EQ(mem_nn[i].id, disk_nn[i].id);
          EXPECT_EQ(mem_nn[i].dist2, disk_nn[i].dist2);
        }
      } else {
        std::vector<ObjectId> mem_ids, disk_ids;
        CollectIds<2> mem_sink(&mem_ids), disk_sink(&disk_ids);
        memory.Execute(spec, &mem_sink, &mem_io);
        disk.Execute(spec, &disk_sink, &disk_io, nullptr, &st,
                     pinned ? &snap : nullptr);
        EXPECT_EQ(mem_ids, disk_ids);
      }
      ASSERT_TRUE(st.ok()) << st.kind_name() << " at page " << st.page;
      EXPECT_EQ(mem_io.leaf_accesses, disk_io.leaf_accesses);
      EXPECT_EQ(mem_io.internal_accesses, disk_io.internal_accesses);
      EXPECT_EQ(mem_io.clip_accesses, disk_io.clip_accesses);
    }
  }
  EXPECT_FALSE(paged.io_error());
  EXPECT_TRUE(paged.Close());
  EXPECT_TRUE(writer.Close());
}

}  // namespace
}  // namespace clipbb::rtree
