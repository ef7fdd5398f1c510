// Epoch-based snapshot isolation for the paged engine, and the one store
// of page images that live in neither a buffer-pool frame nor the page
// file.
//
// The writer keeps the base state (buffer pool frames + page file) current
// and mutates it in place, exactly as before. What snapshots add is
// *history*: the first time a commit window overwrites a page or a clip run
// that existed at the last published epoch, its pre-image is captured into
// the window's pending delta. At each group-commit boundary (the WAL sync
// point) the writer publishes: the pending delta becomes epoch N's undo
// record, a consistent `EpochTreeView` (root, height, bounds, clip flag) is
// stamped, and a fresh pending window opens.
//
// Head images: a read-only open whose sidecar WAL holds committed pages,
// and a follower replica applying a writer's log, see pages whose newest
// committed bytes are in neither the pool nor the file. The manager keeps
// one *head* image per such page. Read-only redo seeds the heads at open;
// the follower's apply installs each WAL image with InstallHead, which
// moves the page's previous head into the pending delta as its pre-image
// (first touch per window wins) and stores the new bytes — no page map is
// copied and no page is copied twice. A follower rebase clears the heads
// once the page file holds what they held.
//
// A reader pins the latest published epoch E via the RAII `Snapshot`
// handle and resolves every page/clip-run through `EpochManager`:
//
//   * scan published deltas oldest-first; the first delta with epoch > E
//     that contains the key holds the version as of E (each delta's
//     pre-images are the values at its epoch minus one, and the key being
//     absent from older deltas means it was untouched between E and that
//     window);
//   * then the pending delta (pre-images at the published epoch), then the
//     page's head;
//   * a miss means the key is unmodified since E — the base is correct.
//     For pages the base is the buffer pool (copied out under the shard
//     latch, then re-checked against the manager so a racing overwrite
//     can never be observed torn or unrecorded); for clip runs the base
//     is a stable table owned by the manager (write and follow mode) or
//     the immutable compacted clip index (read-only mode).
//
// Reclamation is refcount-driven and pause-free: a published delta is
// dropped as soon as no reader pins an epoch older than it. Because deltas
// are pure history — the base never needs them — reclamation is a plain
// memory free with no WAL or checkpoint interplay, and checkpoints/close
// proceed regardless of outstanding snapshots.
//
// Thread safety: one mutex guards the chain, the pending delta, the heads,
// the view, the pin table, and the base clip table. The writer (or the
// follower's applier) captures under the mutex *before* installing new
// bytes, so a reader that copies a frame and then re-checks the manager
// (in that order) always sees either the old bytes or the pre-image —
// never a lost version. Pointers returned by `FindPage` for chain and
// pending hits, and chain clip spans, stay valid after the mutex is
// released: published deltas are immutable until reclaimed, reclamation
// cannot touch deltas newer than a pinned epoch, and the pending maps are
// insert-only with stable heap buffers (moving the map at publish, or a
// head into it, transfers, not reallocates, them). Heads are replaced and
// cleared in place, so a head hit is copied into the reader's buffer
// under the mutex instead.

#ifndef CLIPBB_RTREE_EPOCH_H_
#define CLIPBB_RTREE_EPOCH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/clip_index.h"
#include "geom/rect.h"
#include "storage/epoch.h"
#include "storage/page_store.h"

namespace clipbb::rtree {

/// Everything a pinned traversal needs from the superblock, frozen at
/// publish time so readers never touch writer-mutated members.
template <int D>
struct EpochTreeView {
  uint64_t epoch = 0;
  int64_t root_page = -1;
  uint64_t num_section_pages = 0;
  size_t num_objects = 0;
  int height = 1;
  bool clipped = false;
  geom::Rect<D> bounds = geom::Rect<D>::Empty();
  /// True when this view was published by a follower replica. Follower
  /// base reads are gated: a base-file page stamped with an LSN past
  /// `applied_lsn` is the cross-process writer's future leaking through
  /// the page file without the follower holding a pre-image — the read
  /// fails kStaleSnapshot rather than return a torn-in-time view. (The
  /// flag, not `applied_lsn == 0`, distinguishes a writer: a follower on
  /// a freshly bulk-loaded file has applied LSN 0 too and still needs
  /// the gate.)
  bool follower = false;
  /// The WAL LSN this view's epoch has applied up to (follower mode).
  uint64_t applied_lsn = 0;
};

template <int D>
class EpochManager {
 public:
  using ClipRun = std::vector<core::ClipPoint<D>>;
  using ClipMap = std::unordered_map<core::NodeId, ClipRun>;

  explicit EpochManager(EpochTreeView<D> view) : view_(view) {
    pending_.epoch = view_.epoch + 1;
  }

  // ------------------------------------------------------------- writer
  // Single writer thread. Capture calls are first-touch-per-window — the
  // caller tracks what it already captured, so every key is inserted at
  // most once per pending delta.

  /// Records `n` bytes as page `id`'s value at the last published epoch.
  void CapturePage(storage::PageId id, const std::byte* img, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = pending_.pages.try_emplace(id);
    if (!inserted) return;
    it->second.assign(img, img + n);
    pending_.bytes += n;
    ++pages_captured_;
  }

  /// Records `run` as node `id`'s clip run at the last published epoch.
  void CaptureClips(core::NodeId id, std::span<const core::ClipPoint<D>> run) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = pending_.clips.try_emplace(id);
    if (!inserted) return;
    it->second.assign(run.begin(), run.end());
    pending_.bytes += run.size() * sizeof(core::ClipPoint<D>);
    ++clip_runs_captured_;
  }

  /// Installs the stable base clip table readers fall back to (write and
  /// follow mode; open-time, before any snapshot exists). Read-only opens
  /// skip this — their live clip index is immutable and serves as the
  /// base.
  void SeedBaseClips(ClipMap base) {
    std::lock_guard<std::mutex> lock(mu_);
    base_clips_ = std::move(base);
    has_base_ = true;
  }

  // -------------------------------------------------------------- heads
  // One applier thread (the read-only open's redo, then the follower's
  // Refresh) mutates the heads; readers only see them through FindPage's
  // copy.

  /// Installs `bytes` (verified by the caller) as page `id`'s newest
  /// committed image. The previous head becomes the page's pre-image in
  /// the pending delta unless the window already captured one. A page
  /// without a head must have had its base copy captured first.
  void InstallHead(storage::PageId id, std::vector<std::byte> bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = heads_.try_emplace(id);
    if (!fresh) {
      auto [pre, inserted] = pending_.pages.try_emplace(id);
      if (inserted) {
        pre->second = std::move(it->second);
        pending_.bytes += pre->second.size();
        ++pages_captured_;
      }
    }
    it->second = std::move(bytes);
  }

  bool HasHead(storage::PageId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return heads_.contains(id);
  }

  /// Copies page `id`'s head into `dst` (one page); false when it has none.
  bool CopyHead(storage::PageId id, std::byte* dst) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = heads_.find(id);
    if (it == heads_.end()) return false;
    std::memcpy(dst, it->second.data(), it->second.size());
    return true;
  }

  /// Drops every head (a follower rebase, once the page file holds them).
  void ClearHeads() {
    std::lock_guard<std::mutex> lock(mu_);
    heads_.clear();
  }

  /// Publishes the pending window: the accumulated pre-images become the
  /// new epoch's undo delta, `base_updates` (post-state runs of every node
  /// whose clips changed this window; empty run = erased) advance the base
  /// clip table, and `view` becomes what new pins observe. An empty window
  /// refreshes the view without minting an epoch. Returns the published
  /// epoch id.
  uint64_t Publish(EpochTreeView<D> view,
                   std::vector<std::pair<core::NodeId, ClipRun>> base_updates) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!pending_.pages.empty() || !pending_.clips.empty()) {
      auto d = std::make_shared<Delta>(std::move(pending_));
      live_bytes_ += d->bytes;
      pending_ = Delta{};
      chain_.push_back(std::move(d));
      ++published_total_;
      ++view_.epoch;  // the delta already carries this id
    }
    pending_.epoch = view_.epoch + 1;
    if (has_base_) {
      for (auto& [id, run] : base_updates) {
        if (run.empty()) {
          base_clips_.erase(id);
        } else {
          base_clips_[id] = std::move(run);
        }
      }
    }
    const uint64_t e = view_.epoch;
    view_ = view;
    view_.epoch = e;
    ReclaimLocked();
    return e;
  }

  // ------------------------------------------------------------ readers

  /// Pins the latest published epoch; pair with Unpin (Snapshot does).
  EpochTreeView<D> Pin() {
    std::lock_guard<std::mutex> lock(mu_);
    pins_.Pin(view_.epoch);
    return view_;
  }

  void Unpin(uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    pins_.Unpin(epoch);
    ReclaimLocked();
  }

  /// Page `id`'s image as of `epoch`: a chain or pending pre-image (an
  /// empty one is a tombstone — the version is lost; the pointer stays
  /// valid while `epoch` remains pinned), else the page's head copied into
  /// `*buf` (returns `buf`), else nullptr — the base copy is current.
  const std::vector<std::byte>* FindPage(uint64_t epoch, storage::PageId id,
                                         std::vector<std::byte>* buf) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& d : chain_) {  // oldest-first
      if (d->epoch <= epoch) continue;
      if (auto it = d->pages.find(id); it != d->pages.end()) {
        return &it->second;
      }
    }
    if (auto it = pending_.pages.find(id); it != pending_.pages.end()) {
      return &it->second;
    }
    if (auto it = heads_.find(id); it != heads_.end()) {
      buf->assign(it->second.begin(), it->second.end());
      return buf;
    }
    return nullptr;
  }

  /// Node `id`'s clip run as of `epoch`. Returns true when the chain or
  /// the seeded base resolved it (`*out` set; base hits are copied into
  /// `*buf` because the base mutates at publish). Returns false only when
  /// no base is seeded (read-only mode) — the caller's immutable clip
  /// index is then authoritative.
  bool FindClips(uint64_t epoch, core::NodeId id,
                 std::span<const core::ClipPoint<D>>* out, ClipRun* buf) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& d : chain_) {
      if (d->epoch <= epoch) continue;
      if (auto it = d->clips.find(id); it != d->clips.end()) {
        *out = it->second;
        return true;
      }
    }
    if (auto it = pending_.clips.find(id); it != pending_.clips.end()) {
      *out = it->second;
      return true;
    }
    if (!has_base_) return false;
    if (auto it = base_clips_.find(id); it != base_clips_.end()) {
      *buf = it->second;
      *out = *buf;
    } else {
      *out = {};
    }
    return true;
  }

  uint64_t published_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return view_.epoch;
  }

  storage::EpochStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    storage::EpochStats s;
    s.published_epoch = view_.epoch;
    s.epochs_published = published_total_;
    s.epochs_reclaimed = reclaimed_total_;
    s.live_deltas = chain_.size();
    s.pinned_snapshots = pins_.handles();
    const uint64_t oldest = pins_.MinPinned(view_.epoch);
    s.oldest_pinned_age = view_.epoch - oldest;
    s.retained_bytes = live_bytes_ + pending_.bytes;
    s.pages_captured = pages_captured_;
    s.clip_runs_captured = clip_runs_captured_;
    return s;
  }

 private:
  struct Delta {
    uint64_t epoch = 0;  ///< Pre-images are the values at `epoch - 1`.
    storage::RecoveredPageMap pages;
    ClipMap clips;
    size_t bytes = 0;
  };

  // Delta F is still needed iff some pinned epoch predates it (readers at
  // E < F.epoch resolve through F). Drop from the front while safe.
  void ReclaimLocked() {
    const uint64_t min_pinned = pins_.MinPinned(UINT64_MAX);
    while (!chain_.empty() && chain_.front()->epoch <= min_pinned) {
      live_bytes_ -= chain_.front()->bytes;
      chain_.pop_front();
      ++reclaimed_total_;
    }
  }

  mutable std::mutex mu_;
  EpochTreeView<D> view_;  // epoch field == last published epoch
  Delta pending_;          // window being accumulated (epoch published+1)
  std::deque<std::shared_ptr<const Delta>> chain_;  // ascending by epoch
  storage::RecoveredPageMap heads_;  // page -> newest committed image
  storage::EpochPinTable pins_;
  ClipMap base_clips_;  // node -> run at the published epoch (write mode)
  bool has_base_ = false;
  uint64_t published_total_ = 0;
  uint64_t reclaimed_total_ = 0;
  uint64_t pages_captured_ = 0;
  uint64_t clip_runs_captured_ = 0;
  size_t live_bytes_ = 0;
};

/// RAII pin on a published epoch. Movable, not copyable; the destructor
/// unpins (which may reclaim drained deltas). Holds the manager by
/// shared_ptr, so a Snapshot may outlive PagedRTree::Close — queries
/// against a closed tree are still invalid, but destruction is safe.
template <int D>
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(std::shared_ptr<EpochManager<D>> mgr, EpochTreeView<D> view)
      : mgr_(std::move(mgr)), view_(view) {}
  ~Snapshot() { Release(); }

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  Snapshot(Snapshot&& o) noexcept : mgr_(std::move(o.mgr_)), view_(o.view_) {
    o.mgr_.reset();
  }
  Snapshot& operator=(Snapshot&& o) noexcept {
    if (this != &o) {
      Release();
      mgr_ = std::move(o.mgr_);
      view_ = o.view_;
      o.mgr_.reset();
    }
    return *this;
  }

  bool valid() const { return mgr_ != nullptr; }
  uint64_t epoch() const { return view_.epoch; }
  const EpochTreeView<D>& view() const { return view_; }
  EpochManager<D>* manager() const { return mgr_.get(); }

  void Release() {
    if (mgr_) {
      mgr_->Unpin(view_.epoch);
      mgr_.reset();
    }
  }

 private:
  std::shared_ptr<EpochManager<D>> mgr_;
  EpochTreeView<D> view_{};
};

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_EPOCH_H_
