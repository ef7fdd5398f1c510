// Extension bench: k-nearest-neighbour search with the CBB-aware MINDIST
// bound (rtree/traversal.h KnnWalk) — node pops and leaf accesses vs the
// classic bound, per variant, on the neuroscience workload where dead
// space dominates.
#include "common.h"

#include "rtree/query_api.h"
#include "util/rng.h"

namespace clipbb::bench {
namespace {

constexpr int kQueries = 300;
constexpr int kK = 10;

void Run() {
  const auto data = LoadDataset3("axo03");
  // Query points: dithered object centers (dense regions queried most).
  Rng rng(0x1337);
  std::vector<geom::Vec3> points;
  for (int i = 0; i < kQueries; ++i) {
    const auto& e = data.items[rng.Below(data.items.size())];
    auto c = e.rect.Center();
    for (int k = 0; k < 3; ++k) c[k] += rng.Uniform(-0.01, 0.01);
    points.push_back(c);
  }

  PrintHeader("kNN (k=10) — CBB-aware MINDIST vs classic, axo03");
  Table t({"variant", "leafAcc plain", "leafAcc CSTA", "I/O reduction"});
  for (rtree::Variant v : rtree::kAllVariants) {
    auto tree = Build<3>(v, data);
    const rtree::SpatialEngine<3> engine(*tree);
    storage::IoStats plain;
    for (const auto& q : points) {
      engine.Execute(rtree::QuerySpec<3>::Knn(q, kK), /*sink=*/nullptr,
                     &plain);
    }
    tree->EnableClipping(core::ClipConfig<3>::Sta());
    storage::IoStats clipped;
    for (const auto& q : points) {
      engine.Execute(rtree::QuerySpec<3>::Knn(q, kK), /*sink=*/nullptr,
                     &clipped);
    }
    const double reduction =
        plain.leaf_accesses
            ? 1.0 - static_cast<double>(clipped.leaf_accesses) /
                        static_cast<double>(plain.leaf_accesses)
            : 0.0;
    t.AddRow({rtree::VariantName(v),
              Table::Int(static_cast<long long>(plain.leaf_accesses)),
              Table::Int(static_cast<long long>(clipped.leaf_accesses)),
              Table::Percent(reduction)});
  }
  t.Print();
}

}  // namespace
}  // namespace clipbb::bench

int main() {
  clipbb::bench::Run();
  return 0;
}
