//! Property-based tests for the grid geometry invariants the parallel
//! implementations rely on.

use enkf_grid::{
    Decomposition, FileLayout, LocalizationRadius, Mesh, ObsIndex, ObservationNetwork, RegionRect,
};
use proptest::prelude::*;

/// A mesh whose extents have useful divisors.
fn mesh_strategy() -> impl Strategy<Value = Mesh> {
    (1usize..=6, 1usize..=6, 1usize..=6, 1usize..=6)
        .prop_map(|(a, b, c, d)| Mesh::new(a * b * 4, c * d * 4))
}

fn decomp_strategy() -> impl Strategy<Value = Decomposition> {
    mesh_strategy().prop_flat_map(|mesh| {
        let divx: Vec<usize> = (1..=mesh.nx()).filter(|d| mesh.nx() % d == 0).collect();
        let divy: Vec<usize> = (1..=mesh.ny()).filter(|d| mesh.ny() % d == 0).collect();
        (
            proptest::sample::select(divx),
            proptest::sample::select(divy),
        )
            .prop_map(move |(sx, sy)| Decomposition::new(mesh, sx, sy).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_index_roundtrips(mesh in mesh_strategy(), k in any::<usize>()) {
        let idx = k % mesh.n();
        prop_assert_eq!(mesh.index(mesh.point(idx)), idx);
    }

    #[test]
    fn subdomains_partition(decomp in decomp_strategy()) {
        let mut covered = vec![false; decomp.mesh().n()];
        for id in decomp.iter_ids() {
            for p in decomp.subdomain(id).iter_points() {
                let idx = decomp.mesh().index(p);
                prop_assert!(!covered[idx], "point covered twice");
                covered[idx] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "every point covered");
    }

    #[test]
    fn owner_is_consistent_with_subdomain(decomp in decomp_strategy(), k in any::<usize>()) {
        let p = decomp.mesh().point(k % decomp.mesh().n());
        let owner = decomp.owner_of(p);
        prop_assert!(decomp.subdomain(owner).contains(p));
    }

    #[test]
    fn expansion_contains_halo(
        decomp in decomp_strategy(),
        xi in 0usize..5,
        eta in 0usize..5,
    ) {
        let radius = LocalizationRadius { xi, eta };
        for id in decomp.iter_ids() {
            let sub = decomp.subdomain(id);
            let exp = decomp.expansion(id, radius);
            prop_assert!(exp.contains_rect(&sub));
            // Every point within the radius of a subdomain point is inside
            // the expansion (clamped to the mesh).
            for p in sub.iter_points() {
                let single = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1);
                let b = single.expand(radius, decomp.mesh());
                prop_assert!(exp.contains_rect(&b), "box of {p:?} escapes expansion");
            }
        }
    }

    #[test]
    fn layers_partition_each_subdomain(decomp in decomp_strategy(), lseed in any::<u64>()) {
        let sub_h = decomp.mesh().ny() / decomp.nsdy();
        let divisors: Vec<usize> = (1..=sub_h).filter(|l| sub_h.is_multiple_of(*l)).collect();
        let layers = divisors[(lseed as usize) % divisors.len()];
        for id in decomp.iter_ids() {
            let sub = decomp.subdomain(id);
            let mut count = 0;
            let mut prev_end = sub.y0;
            for l in 0..layers {
                let lay = decomp.layer(id, l, layers);
                prop_assert_eq!(lay.y0, prev_end, "layers tile in order");
                prev_end = lay.y1;
                prop_assert!(sub.contains_rect(&lay));
                count += lay.npoints();
            }
            prop_assert_eq!(prev_end, sub.y1);
            prop_assert_eq!(count, sub.npoints());
        }
    }

    #[test]
    fn small_bar_contains_all_its_blocks(
        decomp in decomp_strategy(),
        xi in 0usize..4,
        eta in 0usize..4,
        lseed in any::<u64>(),
    ) {
        let radius = LocalizationRadius { xi, eta };
        let sub_h = decomp.mesh().ny() / decomp.nsdy();
        let divisors: Vec<usize> = (1..=sub_h).filter(|l| sub_h.is_multiple_of(*l)).collect();
        let layers = divisors[(lseed as usize) % divisors.len()];
        for j in 0..decomp.nsdy() {
            for l in 0..layers {
                let bar = decomp.small_bar(j, l, layers, radius);
                for i in 0..decomp.nsdx() {
                    let id = enkf_grid::SubDomainId { i, j };
                    let block = decomp.block_of_small_bar(id, l, layers, radius);
                    prop_assert!(bar.contains_rect(&block));
                }
            }
        }
    }

    #[test]
    fn segments_cover_region_bytes_exactly(
        decomp in decomp_strategy(),
        h in 1u64..=5,
        xi in 0usize..4,
        eta in 0usize..4,
    ) {
        let mesh = decomp.mesh();
        let layout = FileLayout::new(mesh, h * 8);
        let radius = LocalizationRadius { xi, eta };
        for id in decomp.iter_ids() {
            let region = decomp.expansion(id, radius);
            let mut segs = Vec::new();
            layout.for_each_segment(&region, |seg| segs.push(seg));
            // Total bytes match; segments are disjoint, ordered, in-file.
            let total: u64 = segs.iter().map(|s| s.len).sum();
            prop_assert_eq!(total, layout.region_bytes(&region));
            for w in segs.windows(2) {
                prop_assert!(w[0].offset + w[0].len < w[1].offset + w[1].len);
                prop_assert!(w[0].offset + w[0].len <= w[1].offset, "segments overlap");
            }
            if let Some(last) = segs.last() {
                prop_assert!(last.offset + last.len <= layout.file_size());
            }
            prop_assert_eq!(segs.len(), layout.seek_count(&region));
        }
    }

    #[test]
    fn local_indices_are_bijective(decomp in decomp_strategy()) {
        for id in decomp.iter_ids() {
            let sub = decomp.subdomain(id);
            let mut seen = vec![false; sub.npoints()];
            for p in sub.iter_points() {
                let li = sub.local_index(p);
                prop_assert!(!seen[li]);
                seen[li] = true;
                prop_assert_eq!(sub.point_at(li), p);
            }
        }
    }

    #[test]
    fn rank_mapping_roundtrips(decomp in decomp_strategy()) {
        for rank in 0..decomp.num_subdomains() {
            prop_assert_eq!(decomp.rank_of(decomp.id_of_rank(rank)), rank);
        }
    }

    /// The one bucket grid answers every box query as the linear scan of
    /// [`ObservationNetwork::indices_in`] does — the same items, ascending
    /// — for both of its uses: a random set of distinct points, listed in a
    /// random order, inside a random outer rectangle of the mesh (the whole
    /// mesh is the network's use, an interior one an expansion's), buckets
    /// of 1 point to wider than the outer rectangle, and queries that are
    /// empty, one point, exactly a block of whole buckets, the whole outer
    /// rectangle, or any rectangle of the mesh.
    #[test]
    fn obs_index_matches_linear_scan_on_random_points(
        mesh in mesh_strategy(),
        corners in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
        mask in proptest::collection::vec(any::<bool>(), 1..400),
        (order, cell) in (any::<u64>(), any::<usize>()),
        rect in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
        buckets in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
    ) {
        // `[a, b)` with `lo ≤ a ≤ b ≤ hi`, from two arbitrary numbers.
        let within = |lo: usize, hi: usize, a: usize, b: usize| {
            let a = lo + a % (hi - lo + 1);
            (a, a + b % (hi - a + 1))
        };
        let rect_in = |r: RegionRect, c: (usize, usize, usize, usize)| {
            let (x0, x1) = within(r.x0, r.x1, c.0, c.1);
            let (y0, y1) = within(r.y0, r.y1, c.2, c.3);
            RegionRect::new(x0, x1, y0, y1)
        };
        let full = RegionRect::full(mesh);
        let outer = rect_in(full, corners);
        // Distinct points of `outer`: point k kept iff mask[k % mask.len()],
        // listed in an order scrambled by `order`.
        let mut points: Vec<_> = outer
            .iter_points()
            .enumerate()
            .filter(|(k, _)| mask[k % mask.len()])
            .map(|(_, p)| p)
            .collect();
        points.sort_by_key(|p| (mesh.index(*p) as u64 ^ order).wrapping_mul(order | 1));
        let cell = 1 + cell % (outer.width().max(outer.height()) + 2);
        let net = ObservationNetwork::from_points(mesh, points.clone());
        let index = ObsIndex::build(points.clone(), &outer, cell);
        // A block of whole buckets, clipped to `outer` as its last ones are.
        let (ncx, ncy) = (outer.width().div_ceil(cell), outer.height().div_ceil(cell));
        let (bx0, bx1) = within(0, ncx, buckets.0, buckets.1);
        let (by0, by1) = within(0, ncy, buckets.2, buckets.3);
        let edge = |lo: usize, hi: usize, b: usize| (lo + b * cell).min(hi);
        let whole = RegionRect::new(
            edge(outer.x0, outer.x1, bx0),
            edge(outer.x0, outer.x1, bx1),
            edge(outer.y0, outer.y1, by0),
            edge(outer.y0, outer.y1, by1),
        );
        let (x0, _) = within(outer.x0, outer.x1.max(outer.x0 + 1) - 1, rect.0, 0);
        let (y0, _) = within(outer.y0, outer.y1.max(outer.y0 + 1) - 1, rect.2, 0);
        let mut out = vec![usize::MAX; 3];
        for region in [
            rect_in(full, rect),
            rect_in(outer, rect),
            RegionRect::new(x0, x0, y0, outer.y1),
            RegionRect::new(x0, x0 + 1, y0, y0 + 1).intersect(&full),
            whole,
            outer,
            full,
        ] {
            index.query_into(&region, &mut out);
            prop_assert_eq!(&out, &net.indices_in(&region), "{:?} in {:?}", region, outer);
        }
    }
}
