// Write-ahead-log unit coverage (storage/wal.h): record round-trip through
// redo, CRC rejection of corrupt/torn tails, commit-boundary semantics
// (uncommitted images are never replayed), LSN-idempotent redo, log
// truncation at checkpoint — plus the buffer-pool WAL rule: a dirty frame
// whose record is not durable is never written back without syncing the
// log first. The Crc32 tests hold the kernel (the carry-less-multiply fold
// in -march=native builds, the bytewise loop otherwise) to a bytewise
// reference for every length, offset and chaining split.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "rtree/page_format.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/wal.h"

namespace clipbb::storage {
namespace {

constexpr uint32_t kPage = 256;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "clipbb_wal_" + name + "_" +
         std::to_string(::getpid());
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
  std::string path;
};

std::vector<std::byte> ImageFor(int64_t page, uint64_t lsn,
                                std::byte marker) {
  std::vector<std::byte> img(kPage, marker);
  // Honour the page-LSN convention so redo's idempotency check works.
  std::memset(img.data(), 0, kPageLsnOffset);
  std::memcpy(img.data() + kPageLsnOffset, &lsn, sizeof lsn);
  (void)page;
  return img;
}

TEST(Crc32, KnownVectorAndChaining) {
  // IEEE CRC-32 of "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  const uint32_t whole = Crc32("123456789", 9);
  uint32_t chained = Crc32("12345", 5);
  chained = Crc32("6789", 4, chained);
  EXPECT_EQ(chained, whole);
}

// The bytewise table loop Crc32 used before the carry-less-multiply fold
// (and still uses for tails, short inputs and builds without PCLMULQDQ):
// the reference every kernel must match bit for bit. Works on the raw CRC
// register, so one pass yields the reference of every prefix.
uint32_t ReferenceCrcStep(uint32_t reg, const unsigned char* p, size_t n) {
  static const auto kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  for (size_t i = 0; i < n; ++i) reg = kTable[(reg ^ p[i]) & 0xFF] ^ (reg >> 8);
  return reg;
}

uint32_t ReferenceCrc32(const void* data, size_t n, uint32_t seed = 0) {
  return ReferenceCrcStep(seed ^ 0xFFFFFFFFu,
                          static_cast<const unsigned char*>(data), n) ^
         0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng());
  return v;
}

// Every length 0..4200 (short inputs, the 64-byte fold threshold, every
// 16-byte tail residue, whole pages and past them) at every start offset
// within a 16-byte line, each offset with its own random seed.
TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 4200;
  const std::vector<unsigned char> buf = RandomBytes(kMaxLen + 16, 7);
  std::mt19937 rng(11);
  for (size_t off = 0; off < 16; ++off) {
    const uint32_t seed = static_cast<uint32_t>(rng());
    const unsigned char* p = buf.data() + off;
    uint32_t reg = seed ^ 0xFFFFFFFFu;  // reference register after `len` bytes
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) reg = ReferenceCrcStep(reg, p + len - 1, 1);
      ASSERT_EQ(Crc32(p, len, seed), reg ^ 0xFFFFFFFFu)
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, ChainingSplitAtEveryPositionOfAPage) {
  const std::vector<unsigned char> page = RandomBytes(4096, 13);
  const uint32_t whole = ReferenceCrc32(page.data(), page.size());
  ASSERT_EQ(Crc32(page.data(), page.size()), whole);
  for (size_t cut = 0; cut <= page.size(); ++cut) {
    const uint32_t head = Crc32(page.data(), cut);
    ASSERT_EQ(Crc32(page.data() + cut, page.size() - cut, head), whole)
        << "split at " << cut;
  }
}

// Stored checksums are unchanged by the kernel: a page stamped with the
// reference verifies, and every single flipped bit (checksum field
// included) fails verification.
TEST(Crc32, ReferenceStampedPageVerifiesAndEveryBitFlipFails) {
  constexpr size_t kPageSize = 4096;
  std::vector<unsigned char> bytes = RandomBytes(kPageSize, 17);
  std::memset(bytes.data() + rtree::kPageChecksumOffset, 0, sizeof(uint32_t));
  const uint32_t stamp = ReferenceCrc32(bytes.data(), kPageSize);
  std::memcpy(bytes.data() + rtree::kPageChecksumOffset, &stamp, sizeof stamp);
  const auto* page = reinterpret_cast<const std::byte*>(bytes.data());
  ASSERT_TRUE(rtree::VerifyPageChecksum(page, kPageSize));
  for (size_t bit = 0; bit < kPageSize * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ASSERT_FALSE(rtree::VerifyPageChecksum(page, kPageSize))
        << "flip of bit " << bit << " went undetected";
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_TRUE(rtree::VerifyPageChecksum(page, kPageSize));
}

TEST(Wal, CommittedImagesReplayUncommittedTailDiscards) {
  FileGuard f(TempPath("replay"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  std::vector<std::byte> zero(kPage, std::byte{0});
  for (int64_t p = 0; p < 4; ++p) ASSERT_TRUE(file.WritePage(p, zero.data()));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, /*start_lsn=*/1));
  // Committed op 1: pages 1 and 2.
  uint64_t l1 = wal.next_lsn();
  wal.AppendPageImage(1, ImageFor(1, l1, std::byte{0xA1}).data(), 1);
  uint64_t l2 = wal.next_lsn();
  wal.AppendPageImage(2, ImageFor(2, l2, std::byte{0xA2}).data(), 1);
  wal.AppendCommit(/*op_seq=*/1);
  ASSERT_TRUE(wal.Sync());
  EXPECT_EQ(wal.durable_lsn(), l2 + 1);
  // Uncommitted tail: page 3's image without a commit record.
  uint64_t l3 = wal.next_lsn();
  wal.AppendPageImage(3, ImageFor(3, l3, std::byte{0xA3}).data(), 2);
  ASSERT_TRUE(wal.Sync());  // durable but commit-less
  wal.Close();

  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_TRUE(res.log_found);
  EXPECT_EQ(res.pages_replayed, 2u);
  EXPECT_EQ(res.last_op_seq, 1u);
  EXPECT_GT(res.tail_discarded, 0u);

  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(1, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0xA1});
  ASSERT_TRUE(file.ReadPage(2, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0xA2});
  ASSERT_TRUE(file.ReadPage(3, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0});  // uncommitted: untouched

  // Recovery truncated the log: replaying again is a no-op.
  Wal::RecoveryResult res2;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res2));
  EXPECT_FALSE(res2.log_found);
}

TEST(Wal, RedoRepairsTornPageEvenWhenItsLsnPersisted) {
  // A torn page write can persist the page header — LSN included — while
  // the tail is garbage. Redo must therefore replay committed images
  // unconditionally (log order makes it idempotent), never trusting the
  // on-disk LSN as proof the content is intact.
  FileGuard f(TempPath("tornpage"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 1));
  const uint64_t l = wal.next_lsn();
  const auto image = ImageFor(0, l, std::byte{0x66});
  wal.AppendPageImage(0, image.data(), 1);
  wal.AppendCommit(1);
  ASSERT_TRUE(wal.Sync());
  wal.Close();

  // Simulate the torn write-back: first half (header + LSN) lands, the
  // tail stays zero.
  std::vector<std::byte> torn(kPage, std::byte{0});
  std::memcpy(torn.data(), image.data(), kPage / 2);
  ASSERT_TRUE(file.WritePage(0, torn.data()));

  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_EQ(res.pages_replayed, 1u);  // replayed despite matching LSN
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(0, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0x66});  // tail repaired
}

TEST(Wal, TornTailIsDetectedByCrcAndDiscarded) {
  FileGuard f(TempPath("torn"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  std::vector<std::byte> zero(kPage, std::byte{0});
  ASSERT_TRUE(file.WritePage(0, zero.data()));
  ASSERT_TRUE(file.WritePage(1, zero.data()));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 1));
  uint64_t l0 = wal.next_lsn();
  wal.AppendPageImage(0, ImageFor(0, l0, std::byte{0xB0}).data(), 1);
  wal.AppendCommit(1);
  uint64_t l1 = wal.next_lsn();
  wal.AppendPageImage(1, ImageFor(1, l1, std::byte{0xB1}).data(), 2);
  wal.AppendCommit(2);
  ASSERT_TRUE(wal.Sync());
  wal.Close();

  // Tear the SECOND transaction's image mid-payload (flip bytes), leaving
  // record framing intact: only the CRC can catch it.
  {
    PageFile raw;
    ASSERT_TRUE(raw.Open(f.path + ".wal", /*create=*/false));
    const uint64_t off = 16 /*file hdr*/ + (40 + kPage) + 40 /*commit*/ +
                         40 + kPage / 2;
    const uint32_t garbage = 0xDEADBEEF;
    ASSERT_TRUE(raw.WriteRaw(off, &garbage, sizeof garbage));
  }
  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_EQ(res.pages_replayed, 1u);  // only the intact first transaction
  EXPECT_EQ(res.last_op_seq, 1u);
  EXPECT_GT(res.tail_discarded, 0u);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(0, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0xB0});
  ASSERT_TRUE(file.ReadPage(1, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0});  // corrupt record not replayed
}

TEST(Wal, LeakedImagesOfFailedOpAreNotAdoptedByNextCommit) {
  // A writer that fails mid-staging syncs the log (to preserve earlier
  // group-committed work) and never appends a commit for the failed
  // transaction. Its leaked page images must stay inert: the NEXT
  // transaction's commit record must not retroactively apply them.
  FileGuard f(TempPath("orphan"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  std::vector<std::byte> zero(kPage, std::byte{0});
  ASSERT_TRUE(file.WritePage(0, zero.data()));
  ASSERT_TRUE(file.WritePage(1, zero.data()));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 1));
  // Failed op 7: image leaked, no commit.
  uint64_t lo = wal.next_lsn();
  wal.AppendPageImage(0, ImageFor(0, lo, std::byte{0xBA}).data(), 7);
  ASSERT_TRUE(wal.Sync());
  // Successful op 8 commits its own page.
  uint64_t l1 = wal.next_lsn();
  wal.AppendPageImage(1, ImageFor(1, l1, std::byte{0x08}).data(), 8);
  wal.AppendCommit(8);
  ASSERT_TRUE(wal.Sync());
  wal.Close();

  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_EQ(res.pages_replayed, 1u);  // only op 8's page
  EXPECT_EQ(res.last_op_seq, 8u);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(0, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0});  // orphan image NOT applied
  ASSERT_TRUE(file.ReadPage(1, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0x08});
}

TEST(Wal, TruncateEmptiesLogAndKeepsLsnRunning) {
  FileGuard f(TempPath("trunc"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 10));
  EXPECT_EQ(wal.next_lsn(), 10u);
  wal.AppendPageImage(0, ImageFor(0, 10, std::byte{0x5A}).data(), 1);
  wal.AppendCommit(1);
  ASSERT_TRUE(wal.Sync());
  ASSERT_TRUE(wal.Truncate());
  EXPECT_EQ(wal.pending_bytes(), 0u);
  const uint64_t next = wal.next_lsn();
  EXPECT_GT(next, 10u);  // counter keeps running past truncation
  wal.Close();
  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_FALSE(res.log_found);  // truncated log has nothing to replay
}

// Satellite regression: the pool must not write back a dirty frame whose
// WAL record is unflushed — it syncs the log first (flushed-LSN >=
// page-LSN before write-back), never the other way around.
TEST(BufferPoolWalRule, EvictionSyncsLogBeforeWriteBack) {
  FileGuard f(TempPath("rule"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  std::vector<std::byte> zero(kPage, std::byte{0});
  for (int64_t p = 0; p < 4; ++p) ASSERT_TRUE(file.WritePage(p, zero.data()));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 1));
  BufferPool pool(1, &file);
  pool.SetWal(&wal);

  std::byte* frame = pool.PinForWrite(2);
  ASSERT_NE(frame, nullptr);
  frame[kPage - 1] = std::byte{0xCD};
  const uint64_t lsn = wal.next_lsn();
  std::memcpy(frame + kPageLsnOffset, &lsn, sizeof lsn);
  wal.AppendPageImage(2, frame, 1);
  wal.AppendCommit(1);
  pool.Unpin(2, /*dirty=*/true, lsn);
  ASSERT_GT(lsn, wal.durable_lsn());  // record only buffered so far

  // Evict page 2 by pinning another page: the pool must sync the WAL
  // before the write-back reaches the file.
  ASSERT_NE(pool.Pin(3), nullptr);
  pool.Unpin(3);
  EXPECT_EQ(pool.wal_forced_syncs(), 1u);
  EXPECT_EQ(pool.writebacks(), 1u);
  EXPECT_GE(wal.durable_lsn(), lsn);  // log-before-data held

  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(2, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0xCD});

  // A frame whose record is already durable evicts without another sync.
  std::byte* frame2 = pool.PinForWrite(0);
  ASSERT_NE(frame2, nullptr);
  frame2[kPage - 1] = std::byte{0xCE};
  const uint64_t lsn2 = wal.next_lsn();
  std::memcpy(frame2 + kPageLsnOffset, &lsn2, sizeof lsn2);
  wal.AppendPageImage(0, frame2, 2);
  wal.AppendCommit(2);
  ASSERT_TRUE(wal.Sync());
  pool.Unpin(0, /*dirty=*/true, lsn2);
  ASSERT_NE(pool.Pin(1), nullptr);
  pool.Unpin(1);
  EXPECT_EQ(pool.wal_forced_syncs(), 1u);  // unchanged
  EXPECT_EQ(pool.writebacks(), 2u);
}

TEST(BufferPool, PinNewHandsOutZeroedDirtyFrameWithoutRead) {
  FileGuard f(TempPath("pinnew"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  BufferPool pool(2, &file);
  // Page 9 does not exist on disk yet (file is empty).
  std::byte* frame = pool.PinNew(9);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(file.reads(), 0u);
  for (uint32_t i = 0; i < kPage; ++i) EXPECT_EQ(frame[i], std::byte{0});
  frame[0] = std::byte{0x7E};
  pool.Unpin(9, /*dirty=*/true);
  ASSERT_TRUE(pool.FlushAll());  // write-back extends the file
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(9, buf.data()));
  EXPECT_EQ(buf[0], std::byte{0x7E});
}

}  // namespace
}  // namespace clipbb::storage
