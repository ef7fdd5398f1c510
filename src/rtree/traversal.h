// The paper's query walk (Algorithm 2), written once for both engines.
//
// WindowWalk is the depth-first window search: at every node the SoA
// IntersectsAll kernel tests all entries against the window at once; at an
// internal node each surviving child is then pruned by its clip points
// (ClipsPruneQuery) before it is pushed, and at a leaf the query's
// predicate refines the survivors. KnnWalk is the best-first kNN search
// (Hjaltason & Samet) ordered by the CBB-aware MINDIST (CbbMinDist2), so
// results equal the classic algorithm and the tighter bound only prunes
// nodes earlier.
//
// Both bodies are generic over a node *source*, which is all that differs
// between the in-memory RTree and the disk-resident PagedRTree:
//
//   using View = ...;                   // n(), IsLeaf(), Soa(), EntryRect(i)
//   int64_t root() const;               // root node id
//   bool clipped() const;               // prune with clip points?
//   bool Acquire(int64_t id, View* v, storage::Status* st);
//                                       // node -> view; false + *st on failure
//   void Release(int64_t id);           // done with an acquired view
//   storage::Status CheckChild(int64_t parent, int64_t child) const;
//                                       // ok, or why `child` is not followed
//   std::span<const core::ClipPoint<D>> Clips(int64_t id);
//
// Because both engines run these exact bodies, node visit order, results,
// logical I/O counts and kNN distances are identical by construction.
//
// Failures go to `status`, first error wins: a node that cannot be
// acquired abandons the walk; a child that fails CheckChild is skipped and
// the walk continues. The in-memory source never fails.
#ifndef CLIPBB_RTREE_TRAVERSAL_H_
#define CLIPBB_RTREE_TRAVERSAL_H_

#include <bit>
#include <cstdint>
#include <queue>
#include <type_traits>
#include <vector>

#include "core/intersect.h"
#include "core/mindist.h"
#include "rtree/node.h"
#include "rtree/soa.h"
#include "storage/io_stats.h"
#include "storage/status.h"

namespace clipbb::rtree {

/// Leaf predicate tag for plain range queries: window intersection alone
/// decides membership, so the walk skips the per-entry callback.
struct MatchAllPred {
  template <typename RectT>
  constexpr bool operator()(const RectT&) const {
    return true;
  }
};

/// One kNN result: object id + squared distance from the query point.
/// The single kNN result type of both engines (in-memory and paged).
template <int D>
struct KnnNeighbor {
  ObjectId id = kInvalidPage;
  double dist2 = 0.0;
};

namespace traversal_internal {

inline void Report(storage::Status* status, const storage::Status& s) {
  if (status->ok()) *status = s;
}

}  // namespace traversal_internal

/// Depth-first window search. Emits `emit(ObjectId)` once per leaf entry
/// that intersects `window` and satisfies `pred`, in visit order (children
/// are pushed in ascending entry index); returns the number emitted.
/// Counts node, contributing-leaf and clip accesses into `io` if non-null.
template <int D, typename Src, typename Pred, typename Emit>
size_t WindowWalk(Src& src, const geom::Rect<D>& window, Pred&& pred,
                  Emit&& emit, storage::IoStats* io,
                  TraversalScratch* scratch, storage::Status* status) {
  constexpr bool kMatchAll = std::is_same_v<std::decay_t<Pred>, MatchAllPred>;
  auto& stack = scratch->stack;
  stack.clear();
  stack.push_back(src.root());
  size_t found = 0;
  typename Src::View v;
  while (!stack.empty()) {
    const int64_t id = stack.back();
    stack.pop_back();
    storage::Status acquired;
    if (!src.Acquire(id, &v, &acquired)) {
      traversal_internal::Report(status, acquired);
      break;
    }
    const SoaNodeView<D> s = v.Soa();
    uint64_t* mask = scratch->MaskFor(v.n());
    IntersectsAll<D>(s, window, mask, scratch->FlagsFor(v.n()));
    if (v.IsLeaf()) {
      if (io) ++io->leaf_accesses;
      bool contributed = false;
      for (uint32_t w = 0; w * 64 < v.n(); ++w) {
        uint64_t m = mask[w];
        while (m) {
          const uint32_t i =
              w * 64 + static_cast<uint32_t>(std::countr_zero(m));
          m &= m - 1;
          if (kMatchAll || pred(v.EntryRect(i))) {
            ++found;
            contributed = true;
            emit(static_cast<ObjectId>(s.id[i]));
          }
        }
      }
      if (io && contributed) ++io->contributing_leaf_accesses;
    } else {
      if (io) ++io->internal_accesses;
      for (uint32_t w = 0; w * 64 < v.n(); ++w) {
        uint64_t m = mask[w];
        while (m) {
          const uint32_t i =
              w * 64 + static_cast<uint32_t>(std::countr_zero(m));
          m &= m - 1;
          const int64_t child = s.id[i];
          if (const storage::Status bad = src.CheckChild(id, child);
              !bad.ok()) {
            traversal_internal::Report(status, bad);
            continue;
          }
          if (src.clipped()) {
            if (io) ++io->clip_accesses;
            if (core::ClipsPruneQuery<D>(src.Clips(child), window)) continue;
          }
          stack.push_back(child);
        }
      }
    }
    src.Release(id);
  }
  return found;
}

/// Best-first k-nearest-neighbour search by squared rect distance. Emits
/// `emit(const KnnNeighbor<D>&)` once per neighbour the moment it leaves
/// the frontier, ascending; returns the number emitted (< k when the tree
/// holds fewer objects). Counts node and clip accesses into `io`.
template <int D, typename Src, typename Emit>
size_t KnnWalk(Src& src, const geom::Vec<D>& q, int k, Emit&& emit,
               storage::IoStats* io, storage::Status* status) {
  if (k <= 0) return 0;
  struct QueueItem {
    double dist2;
    bool is_object;
    int64_t id;  // node id or object id
    bool operator>(const QueueItem& o) const { return dist2 > o.dist2; }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      frontier;
  frontier.push({0.0, false, src.root()});
  size_t found = 0;
  typename Src::View v;
  while (!frontier.empty()) {
    const QueueItem item = frontier.top();
    frontier.pop();
    if (item.is_object) {
      emit(KnnNeighbor<D>{item.id, item.dist2});
      if (static_cast<int>(++found) == k) break;
      continue;
    }
    storage::Status acquired;
    if (!src.Acquire(item.id, &v, &acquired)) {
      traversal_internal::Report(status, acquired);
      break;
    }
    const SoaNodeView<D> s = v.Soa();
    const bool leaf = v.IsLeaf();
    if (io) ++(leaf ? io->leaf_accesses : io->internal_accesses);
    for (uint32_t i = 0; i < v.n(); ++i) {
      if (leaf) {
        frontier.push({SoaMinDist2<D>(s, i, q), true, s.id[i]});
        continue;
      }
      const int64_t child = s.id[i];
      if (const storage::Status bad = src.CheckChild(item.id, child);
          !bad.ok()) {
        traversal_internal::Report(status, bad);
        continue;
      }
      double bound;
      if (src.clipped()) {
        if (io) ++io->clip_accesses;
        bound = core::CbbMinDist2<D>(q, v.EntryRect(i), src.Clips(child));
      } else {
        bound = SoaMinDist2<D>(s, i, q);
      }
      frontier.push({bound, false, child});
    }
    src.Release(item.id);
  }
  return found;
}

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_TRAVERSAL_H_
