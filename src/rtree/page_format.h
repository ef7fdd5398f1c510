// Packed on-page node format of the paged storage engine.
//
// Every node — entries, level, and its clip-point run — is encoded into one
// fixed-size byte page, so a leaf visit touches exactly one page. The entry
// coordinates are laid out SoA *on the page* (per dimension: all lows, then
// all highs, then the ids), which lets the IntersectsAll / SoaMinDist2 scan
// kernels run directly over the pinned frame bytes with zero decode:
//
//   page (file_page_size bytes)
//   +---------+----------------------------------+---------+-----------+
//   | header  | lo0[n] hi0[n] ... loD-1[n] hiD-1 | id[n]   | clip run  |
//   | 16 B    | 2*D*n doubles                    | n int64 | (if fits) |
//   +---------+----------------------------------+---------+-----------+
//
// The 16-byte header packs the page kind (node / free / clip-spill), the
// level, and the entry and inline-clip counts into one 32-bit word
// (level:5 | flags:3 | entry_count:12 | clip_count:12, LE), followed by a
// CRC-32 page checksum at bytes 4–7 covering the whole page with the
// checksum field itself zeroed, and — at byte offset 8 of *every* page,
// superblock included (storage::kPageLsnOffset) — the LSN of the WAL
// record that last wrote the page, the redo pass's idempotency anchor.
// Checksums are stamped at encode/staging time, so WAL page images, pool
// frames, and file pages all carry a valid checksum, and verified on every
// buffer-pool miss read before any decode.
//
// The clip run is the node's clip points in descending-score order: n*D
// coordinates followed by n corner masks (Fig. 4b layout — scores are not
// stored; decode re-synthesises a descending sequence, which is all the
// pruning tests need). A run that does not fit the page's free space is
// relocated whole to a dedicated clip-spill page (same page space, id
// allocated from the free-page map) and the node's spill flag is set; the
// spill page records its owner, so an open-time scan reattaches runs
// without any directory.
//
// A paged tree file is one superblock page followed by the allocatable
// section: node pages, clip-spill pages, and free pages, addressed as
// file page 1 + id. Free pages form a LIFO chain anchored in the
// superblock (free_head/free_count; each free page stores its successor),
// managed by storage::FreePageMap. rtree/serialize.h writes this format
// through any ostream; PagedRTree (rtree/paged_rtree.h) opens it through
// the buffer pool, read-only or read-write.
#ifndef CLIPBB_RTREE_PAGE_FORMAT_H_
#define CLIPBB_RTREE_PAGE_FORMAT_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/clip_builder.h"
#include "core/clip_point.h"
#include "rtree/node.h"
#include "rtree/soa.h"
#include "storage/wal.h"

namespace clipbb::rtree {

inline constexpr uint64_t kPagedMagic = 0xC11BB0CC'5EED0004ULL;

/// Hard caps of the packed header word: 5 bits of level, 12 bits each of
/// entry and clip counts. Far above any capacity a sane page size derives
/// (4095 entries needs a ~160 KiB page in 2-d), asserted at encode time.
inline constexpr uint32_t kMaxPageLevel = 31;
inline constexpr uint32_t kMaxPageEntries = 4095;
inline constexpr uint32_t kMaxPageClips = 4095;

/// File header, stored at the start of page 0 (rest of the page is zero).
/// The lsn field sits at storage::kPageLsnOffset like every other page's.
struct Superblock {
  uint64_t magic = kPagedMagic;
  uint64_t lsn = 0;             // WAL LSN high-water mark
  uint32_t dim = 0;
  uint32_t user_tag = 0;        // caller-defined (the CLI stores the variant)
  uint32_t file_page_size = 0;  // frame size of THIS file's pages
  int32_t page_size = 0;        // RTreeOptions fields, echoed back on load
  int32_t max_entries = 0;
  int32_t min_entries = 0;
  uint8_t clipped = 0;
  uint8_t clip_mode = 0;        // core::ClipMode
  uint16_t reserved = 0;
  int32_t max_clips = 0;
  double tau = 0.0;
  uint64_t num_objects = 0;
  uint64_t num_section_pages = 0;  // pages after the superblock (all kinds)
  uint64_t num_nodes = 0;          // live node pages among them
  int64_t root_page = 0;           // section index (0-based) of the root
  int64_t free_head = -1;          // head of the free-page chain, -1 = none
  uint64_t free_count = 0;         // length of the free-page chain
  uint64_t num_spill_pages = 0;    // clip-spill pages, for stats
  uint64_t num_clip_points = 0;    // inline + spilled, for stats
  uint64_t num_clipped_nodes = 0;
  /// Sequence number of the last committed write operation. Persisted
  /// here as well as in WAL commit records, so the count survives the
  /// checkpoint truncating the log.
  uint64_t last_op_seq = 0;
  /// CRC-32 of the whole superblock page with this field zeroed
  /// (Stamp/VerifySuperblockPage below). Lives in the struct rather than
  /// at the shared header offset because bytes 4–7 of page 0 hold the
  /// high half of the magic.
  uint32_t checksum = 0;
  /// Monotonic checkpoint generation. The writer bumps it (and rewrites
  /// page 0) immediately BEFORE truncating the WAL, so a follower that
  /// observes a new generation knows every head image it tailed from the
  /// old log is now durable in the page file and must rebase; byte offsets
  /// into the old log never alias into the regrown one. Pre-rename files
  /// read generation 0 (the field was reserved padding).
  uint32_t checkpoint_gen = 0;
};
static_assert(sizeof(Superblock) <= 192,
              "superblock must stay well under one page");
static_assert(offsetof(Superblock, lsn) == storage::kPageLsnOffset);

/// The node's clip run lives on a clip-spill page, not inline.
inline constexpr uint8_t kNodeFlagClipsSpilled = 1;
/// The page is on the free chain (not a node).
inline constexpr uint8_t kPageFlagFree = 2;
/// The page holds a relocated clip run for its owner node.
inline constexpr uint8_t kPageFlagSpill = 4;

/// 16-byte page header shared by all section page kinds; entry coordinates
/// start right after it, so every double on the page is naturally aligned.
/// Level, flags, and both counts pack into the `meta` word, freeing bytes
/// 4–7 for the page checksum while keeping the header at exactly the 16
/// bytes the capacity derivation (options.h kNodeHeaderBytes) assumes.
struct NodePageHeader {
  uint32_t meta = 0;      // level:5 | flags:3 | entry_count:12 | clip_count:12
  uint32_t checksum = 0;  // CRC-32 of the page with this field zeroed
  uint64_t lsn = 0;  // WAL LSN of the record that last wrote this page

  uint32_t level() const { return meta & kMaxPageLevel; }  // 0 = leaf
  uint32_t flags() const { return (meta >> 5) & 0x7u; }
  uint32_t entry_count() const { return (meta >> 8) & kMaxPageEntries; }
  /// Inline (node) or spilled (spill page) clip points.
  uint32_t clip_count() const { return (meta >> 20) & kMaxPageClips; }

  void SetMeta(uint32_t level, uint32_t flags, uint32_t entries,
               uint32_t clips) {
    assert(level <= kMaxPageLevel && flags <= 7u &&
           entries <= kMaxPageEntries && clips <= kMaxPageClips);
    meta = level | (flags << 5) | (entries << 8) | (clips << 20);
  }
};
static_assert(sizeof(NodePageHeader) == 16);
static_assert(offsetof(NodePageHeader, lsn) == storage::kPageLsnOffset);

/// Byte offset of the checksum field shared by every section page kind.
inline constexpr size_t kPageChecksumOffset =
    offsetof(NodePageHeader, checksum);

inline bool PageIsNode(const NodePageHeader& h) {
  return (h.flags() & (kPageFlagFree | kPageFlagSpill)) == 0;
}

/// Reads / stamps the LSN field any section page keeps at offset 8.
inline uint64_t PageLsn(const std::byte* page) {
  uint64_t lsn;
  std::memcpy(&lsn, page + storage::kPageLsnOffset, sizeof lsn);
  return lsn;
}
inline void SetPageLsn(std::byte* page, uint64_t lsn) {
  std::memcpy(page + storage::kPageLsnOffset, &lsn, sizeof lsn);
}

// ---------------------------------------------------------- page checksums
//
// Every page is covered end to end by one CRC-32 computed with its own
// 4-byte checksum field zeroed: section pages keep it at the shared header
// offset (bytes 4–7), the superblock keeps it in Superblock::checksum
// (bytes 4–7 of page 0 are the high half of the magic). Stamped by the
// Encode* functions and the staging path, verified on every buffer-pool
// miss, by the open-time scan, and by `clipbb_cli scrub`.

/// CRC-32 of `page` with the 4 bytes at `skip_off` treated as zero.
inline uint32_t PageCrcExcluding(const std::byte* page, size_t page_size,
                                 size_t skip_off) {
  assert(skip_off + sizeof(uint32_t) <= page_size);
  const uint32_t zero = 0;
  uint32_t c = storage::Crc32(page, skip_off);
  c = storage::Crc32(&zero, sizeof zero, c);
  return storage::Crc32(page + skip_off + sizeof zero,
                        page_size - skip_off - sizeof zero, c);
}

inline uint32_t ComputePageChecksum(const std::byte* page,
                                    size_t page_size) {
  return PageCrcExcluding(page, page_size, kPageChecksumOffset);
}

inline void StampPageChecksum(std::byte* page, size_t page_size) {
  const uint32_t c = ComputePageChecksum(page, page_size);
  std::memcpy(page + kPageChecksumOffset, &c, sizeof c);
}

inline bool VerifyPageChecksum(const std::byte* page, size_t page_size) {
  uint32_t stored;
  std::memcpy(&stored, page + kPageChecksumOffset, sizeof stored);
  return stored == ComputePageChecksum(page, page_size);
}

inline void StampSuperblockPage(std::byte* page, size_t page_size) {
  const uint32_t c =
      PageCrcExcluding(page, page_size, offsetof(Superblock, checksum));
  std::memcpy(page + offsetof(Superblock, checksum), &c, sizeof c);
}

inline bool VerifySuperblockPage(const std::byte* page, size_t page_size) {
  uint32_t stored;
  std::memcpy(&stored, page + offsetof(Superblock, checksum),
              sizeof stored);
  return stored ==
         PageCrcExcluding(page, page_size, offsetof(Superblock, checksum));
}

template <int D>
constexpr size_t PagedEntryBytes() {
  return 2 * D * sizeof(double) + sizeof(int64_t);
}

/// Packed size of a node with `n` entries, excluding the clip run. Matches
/// NodeBytes<D> (options.h derives capacities from the same 16-byte
/// header).
template <int D>
constexpr size_t PagedNodeBytes(size_t n) {
  return sizeof(NodePageHeader) + n * PagedEntryBytes<D>();
}

/// Bytes of a clip run of `c` points: c*D coordinates + c corner masks.
template <int D>
constexpr size_t ClipRunBytes(size_t c) {
  return c * (D * sizeof(double) + 1);
}

/// Encodes `n` (entries + clip run) into `page` (page_size bytes, zeroed
/// first). Returns true when the clip run fit inline; false when it was
/// omitted and must be relocated to a spill page (the caller sets the
/// spill flag implicitly — this function already did). The node's entries
/// must fit: PagedNodeBytes(n) <= page_size.
template <int D>
bool EncodeNodePage(const Node<D>& n,
                    std::span<const core::ClipPoint<D>> clips,
                    std::byte* page, size_t page_size, uint64_t lsn = 0) {
  const size_t count = n.entries.size();
  const size_t node_bytes = PagedNodeBytes<D>(count);
  assert(node_bytes <= page_size);
  std::memset(page, 0, page_size);

  const bool inline_fits =
      clips.empty() || node_bytes + ClipRunBytes<D>(clips.size()) <= page_size;
  NodePageHeader h;
  h.SetMeta(static_cast<uint32_t>(n.level),
            inline_fits ? 0u : kNodeFlagClipsSpilled,
            static_cast<uint32_t>(count),
            inline_fits ? static_cast<uint32_t>(clips.size()) : 0u);
  h.lsn = lsn;
  std::memcpy(page, &h, sizeof h);

  double* coords = reinterpret_cast<double*>(page + sizeof h);
  for (int d = 0; d < D; ++d) {
    double* lo = coords + (2 * d) * count;
    double* hi = coords + (2 * d + 1) * count;
    for (size_t i = 0; i < count; ++i) {
      lo[i] = n.entries[i].rect.lo[d];
      hi[i] = n.entries[i].rect.hi[d];
    }
  }
  int64_t* ids = reinterpret_cast<int64_t*>(coords + 2 * D * count);
  for (size_t i = 0; i < count; ++i) ids[i] = n.entries[i].id;

  if (inline_fits && !clips.empty()) {
    double* ccoord = reinterpret_cast<double*>(page + node_bytes);
    for (size_t c = 0; c < clips.size(); ++c) {
      for (int d = 0; d < D; ++d) ccoord[c * D + d] = clips[c].coord[d];
    }
    uint8_t* masks = reinterpret_cast<uint8_t*>(
        page + node_bytes + clips.size() * D * sizeof(double));
    for (size_t c = 0; c < clips.size(); ++c) {
      masks[c] = static_cast<uint8_t>(clips[c].mask);
    }
  }
  StampPageChecksum(page, page_size);
  return inline_fits;
}

/// Zero-copy view of a packed node page: the coordinate/id arrays point
/// into the page bytes, so the SoA scan kernels run on them directly.
template <int D>
struct PagedNodeView {
  NodePageHeader header;
  const double* lo[D];
  const double* hi[D];
  const int64_t* id = nullptr;
  const double* clip_coord = nullptr;  // clip c, dim d at [c * D + d]
  const uint8_t* clip_mask = nullptr;

  bool IsLeaf() const { return header.level() == 0; }
  uint32_t n() const { return header.entry_count(); }
  bool ClipsSpilled() const {
    return (header.flags() & kNodeFlagClipsSpilled) != 0;
  }

  /// Bridge into the shared scan kernels (IntersectsAll, SoaMinDist2).
  SoaNodeView<D> Soa() const {
    SoaNodeView<D> v;
    for (int d = 0; d < D; ++d) {
      v.lo[d] = lo[d];
      v.hi[d] = hi[d];
    }
    v.id = id;
    v.n = header.entry_count();
    return v;
  }

  geom::Rect<D> EntryRect(uint32_t i) const { return Soa().EntryRect(i); }

  /// Inline clip run as ClipPoints. Scores are synthesised strictly
  /// descending (the stored order), which is the only property the
  /// pruning tests need — real scores are not part of the page format.
  std::vector<core::ClipPoint<D>> DecodeClips() const {
    const uint32_t nc = header.clip_count();
    std::vector<core::ClipPoint<D>> out(nc);
    for (uint32_t c = 0; c < nc; ++c) {
      for (int d = 0; d < D; ++d) out[c].coord[d] = clip_coord[c * D + d];
      out[c].mask = clip_mask[c];
      out[c].score = static_cast<double>(nc - c);
    }
    return out;
  }
};

template <int D>
PagedNodeView<D> DecodeNodePage(const std::byte* page) {
  PagedNodeView<D> v;
  std::memcpy(&v.header, page, sizeof v.header);
  const size_t count = v.header.entry_count();
  const double* coords =
      reinterpret_cast<const double*>(page + sizeof v.header);
  for (int d = 0; d < D; ++d) {
    v.lo[d] = coords + (2 * d) * count;
    v.hi[d] = coords + (2 * d + 1) * count;
  }
  v.id = reinterpret_cast<const int64_t*>(coords + 2 * D * count);
  if (v.header.clip_count() > 0 && !v.ClipsSpilled() &&
      PageIsNode(v.header)) {
    const size_t node_bytes = PagedNodeBytes<D>(count);
    v.clip_coord = reinterpret_cast<const double*>(page + node_bytes);
    v.clip_mask = reinterpret_cast<const uint8_t*>(
        page + node_bytes + v.header.clip_count() * D * sizeof(double));
  }
  return v;
}

/// Full AoS decode (DeserializeTree's restore path).
template <int D>
Node<D> DecodeNode(const std::byte* page) {
  const PagedNodeView<D> v = DecodeNodePage<D>(page);
  Node<D> n;
  n.level = static_cast<int>(v.header.level());
  n.entries.resize(v.n());
  for (uint32_t i = 0; i < v.n(); ++i) {
    n.entries[i].rect = v.EntryRect(i);
    n.entries[i].id = v.id[i];
  }
  return n;
}

// ------------------------------------------------------------- free pages
//
// A free page is a 16-byte header (kPageFlagFree) followed by the section
// index of the next free page (-1 terminates) — one link of the LIFO chain
// the superblock anchors.

inline void EncodeFreePage(std::byte* page, size_t page_size,
                           int64_t next, uint64_t lsn = 0) {
  assert(page_size >= sizeof(NodePageHeader) + sizeof(int64_t));
  std::memset(page, 0, page_size);
  NodePageHeader h;
  h.SetMeta(0, kPageFlagFree, 0, 0);
  h.lsn = lsn;
  std::memcpy(page, &h, sizeof h);
  std::memcpy(page + sizeof h, &next, sizeof next);
  StampPageChecksum(page, page_size);
}

/// Next link of a free page (caller checked kPageFlagFree).
inline int64_t FreePageNext(const std::byte* page) {
  int64_t next;
  std::memcpy(&next, page + sizeof(NodePageHeader), sizeof next);
  return next;
}

// ------------------------------------------------------- clip-spill pages
//
// A clip run that does not fit its node page inline is relocated whole to
// a spill page: 16-byte header (kPageFlagSpill, clip_count = run length),
// owner node id, a reserved continuation link (-1; runs are bounded by
// max_clips and always fit one page at sane page sizes), then the run in
// the inline layout (coords, then masks).

/// Spill payload bytes for a run of `c` points.
template <int D>
constexpr size_t SpillPageBytes(size_t c) {
  return sizeof(NodePageHeader) + 2 * sizeof(int64_t) + ClipRunBytes<D>(c);
}

template <int D>
bool EncodeSpillPage(int64_t owner, std::span<const core::ClipPoint<D>> clips,
                     std::byte* page, size_t page_size, uint64_t lsn = 0) {
  if (SpillPageBytes<D>(clips.size()) > page_size ||
      clips.size() > kMaxPageClips) {
    return false;
  }
  std::memset(page, 0, page_size);
  NodePageHeader h;
  h.SetMeta(0, kPageFlagSpill, 0, static_cast<uint32_t>(clips.size()));
  h.lsn = lsn;
  std::memcpy(page, &h, sizeof h);
  std::byte* p = page + sizeof h;
  std::memcpy(p, &owner, sizeof owner);
  p += sizeof owner;
  const int64_t next = -1;
  std::memcpy(p, &next, sizeof next);
  p += sizeof next;
  double* ccoord = reinterpret_cast<double*>(p);
  for (size_t c = 0; c < clips.size(); ++c) {
    for (int d = 0; d < D; ++d) ccoord[c * D + d] = clips[c].coord[d];
  }
  uint8_t* masks = reinterpret_cast<uint8_t*>(
      p + clips.size() * D * sizeof(double));
  for (size_t c = 0; c < clips.size(); ++c) {
    masks[c] = static_cast<uint8_t>(clips[c].mask);
  }
  StampPageChecksum(page, page_size);
  return true;
}

template <int D>
struct SpillPageView {
  int64_t owner = -1;
  uint16_t count = 0;
  const double* coord = nullptr;
  const uint8_t* mask = nullptr;

  /// Run as ClipPoints, scores synthesised descending like inline runs.
  std::vector<core::ClipPoint<D>> Decode() const {
    std::vector<core::ClipPoint<D>> out(count);
    for (uint32_t c = 0; c < count; ++c) {
      for (int d = 0; d < D; ++d) out[c].coord[d] = coord[c * D + d];
      out[c].mask = mask[c];
      out[c].score = static_cast<double>(count - c);
    }
    return out;
  }
};

/// Decodes a spill page; false when the declared run does not fit the
/// page (corruption) — the view is unusable then.
template <int D>
bool DecodeSpillPage(const std::byte* page, size_t page_size,
                     SpillPageView<D>* out) {
  NodePageHeader h;
  std::memcpy(&h, page, sizeof h);
  if ((h.flags() & kPageFlagSpill) == 0) return false;
  if (SpillPageBytes<D>(h.clip_count()) > page_size) return false;
  out->count = static_cast<uint16_t>(h.clip_count());
  const std::byte* p = page + sizeof h;
  std::memcpy(&out->owner, p, sizeof out->owner);
  p += 2 * sizeof(int64_t);  // owner + reserved continuation link
  out->coord = reinterpret_cast<const double*>(p);
  out->mask = reinterpret_cast<const uint8_t*>(
      p + static_cast<size_t>(out->count) * D * sizeof(double));
  return true;
}

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_PAGE_FORMAT_H_
