//! Property-based tests for the synthetic-data substrate.

use enkf_data::{
    gather_surface_into, read_ensemble, write_ensemble, AdvectionDiffusion, ScenarioBuilder,
};
use enkf_grid::{FileLayout, Mesh, RegionRect};
use enkf_linalg::Matrix;
use enkf_pfs::{FileStore, RegionData, ScratchDir};
use proptest::prelude::*;

fn mesh_strategy() -> impl Strategy<Value = Mesh> {
    (4usize..24, 4usize..16).prop_map(|(nx, ny)| Mesh::new(nx, ny))
}

/// A non-empty sub-rectangle of `outer`.
fn sub_rect_strategy(outer: RegionRect) -> impl Strategy<Value = RegionRect> {
    (outer.x0..outer.x1, outer.y0..outer.y1).prop_flat_map(move |(x0, y0)| {
        (x0 + 1..=outer.x1, y0 + 1..=outer.y1)
            .prop_map(move |(x1, y1)| RegionRect::new(x0, x1, y0, y1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gather_matches_the_per_element_surface_scatter(
        (mesh, outer, inner) in mesh_strategy().prop_flat_map(|mesh| {
            sub_rect_strategy(RegionRect::full(mesh)).prop_flat_map(move |outer| {
                (Just(mesh), Just(outer), sub_rect_strategy(outer))
            })
        }),
        members in 1usize..6,
        spare_cols in 0usize..4,
        levels in 1u64..=4,
        seed in any::<u64>(),
    ) {
        // Strided views (blocks cut out of a wider read), 1-wide regions
        // and sparse, shuffled column maps all land exactly where the
        // per-element `m[(i, col)] = surface[i]` scatter puts them, and
        // columns outside the map are left alone.
        let scratch = ScratchDir::new("data-gather").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
        let n = mesh.n() as u64 * levels;
        for k in 0..members as u64 {
            let values: Vec<f64> = (0..n)
                .map(|i| f64::from_bits((i + 1 + k * n).wrapping_mul(seed | 1) ^ seed.rotate_left(29)))
                .collect();
            store.write_member(k as usize, &values).unwrap();
        }
        let reads: Vec<RegionData> =
            (0..members).map(|k| store.read_region(k, &outer).unwrap()).collect();
        let ncols = members + spare_cols;
        let mut cols: Vec<usize> = (0..ncols).collect();
        let mut state = seed;
        for i in (1..ncols).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cols.swap(i, (state >> 33) as usize % (i + 1));
        }
        cols.truncate(members);

        let one_wide = RegionRect::new(inner.x0, inner.x0 + 1, inner.y0, inner.y1);
        for region in [outer, inner, one_wide] {
            let views: Vec<RegionData> = reads.iter().map(|d| d.extract(&region)).collect();
            let mut got = Matrix::from_fn(region.npoints(), ncols, |i, j| (i * ncols + j) as f64);
            let mut want = got.clone();
            gather_surface_into(&mut got, &cols, &views);
            for (&col, view) in cols.iter().zip(&views) {
                for (i, v) in view.surface().enumerate() {
                    want[(i, col)] = v;
                }
            }
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn scenario_is_deterministic_and_consistent(
        mesh in mesh_strategy(),
        members in 2usize..10,
        seed in any::<u64>(),
    ) {
        let a = ScenarioBuilder::new(mesh).members(members).seed(seed).build();
        let b = ScenarioBuilder::new(mesh).members(members).seed(seed).build();
        prop_assert_eq!(a.ensemble.states(), b.ensemble.states());
        prop_assert_eq!(&a.truth, &b.truth);
        prop_assert_eq!(a.observations.values(), b.observations.values());
        prop_assert_eq!(a.ensemble.size(), members);
        prop_assert_eq!(a.truth.len(), mesh.n());
        prop_assert!(a.rmse_background() > 0.0);
    }

    #[test]
    fn file_roundtrip_is_bit_exact(
        mesh in mesh_strategy(),
        members in 2usize..6,
        levels in 1u64..4,
        seed in any::<u64>(),
    ) {
        let scenario = ScenarioBuilder::new(mesh).members(members).seed(seed).build();
        let scratch = ScratchDir::new("data-prop").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let back = read_ensemble(&store, members).unwrap();
        prop_assert_eq!(back.states(), scenario.ensemble.states());
    }

    #[test]
    fn advection_diffusion_is_stable_and_mass_conserving(
        mesh in mesh_strategy(),
        u in -0.8f64..0.8,
        kappa in 0.0f64..0.1,
        steps in 1usize..20,
        seed in any::<u64>(),
    ) {
        let dynamics = AdvectionDiffusion { u, v: 0.0, kappa, dt: 0.5 };
        prop_assume!(dynamics.stability_number() < 1.0);
        let scenario = ScenarioBuilder::new(mesh).members(2).seed(seed).build();
        let before: f64 = scenario.truth.iter().sum();
        let max_before = scenario.truth.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let after_field = dynamics.integrate(mesh, &scenario.truth, steps);
        let after: f64 = after_field.iter().sum();
        // Mass conservation (periodic x, zero-gradient y, v = 0).
        prop_assert!((before - after).abs() < 1e-6 * (1.0 + before.abs()), "{before} vs {after}");
        // Upwind + diffusion never amplifies the max norm.
        let max_after = after_field.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        prop_assert!(max_after <= max_before * (1.0 + 1e-9), "{max_before} -> {max_after}");
    }

    #[test]
    fn observation_values_sit_on_the_truth_up_to_noise(
        mesh in mesh_strategy(),
        seed in any::<u64>(),
    ) {
        let std = 0.05;
        let scenario = ScenarioBuilder::new(mesh)
            .members(4)
            .obs_noise_std(std)
            .observation_stride(2)
            .seed(seed)
            .build();
        let op = scenario.observations.operator();
        let truth_at_obs = op.apply(&scenario.truth);
        for (obs, truth) in scenario.observations.values().iter().zip(&truth_at_obs) {
            prop_assert!((obs - truth).abs() < 6.0 * std, "{obs} vs {truth}");
        }
    }
}
