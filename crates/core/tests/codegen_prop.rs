//! Property tests over the code generator: the scratchpad (tiled) execution
//! path must be bit-identical to the global path, and a rule's span body to
//! its per-cell `elem`, for arbitrary stencil shapes, geometries and
//! work-group sizes; and launch-geometry encoding must round-trip.

use petal_core::codegen::{
    decode_scalars, encode_scalars, generate_source, kernel_work, run_global, run_tiled, Geometry,
    RawInput,
};
use petal_core::stencil::{AccessPattern, Span, StencilInput, StencilRule};
use proptest::prelude::*;
use std::sync::Arc;

/// A box-sum stencil of shape `bw × bh` over one input, computed per cell.
fn box_rule(bw: usize, bh: usize) -> StencilRule {
    box_rule_with_span(bw, bh).per_cell()
}

/// [`box_rule`] with the row-at-a-time form beside `elem`: tap-outer, each
/// cell taking its taps in `elem`'s `(j, i)` order from `elem`'s `0.0`.
fn box_rule_with_span(bw: usize, bh: usize) -> StencilRule {
    StencilRule {
        name: "box_sum".into(),
        inputs: vec![StencilInput { index: 0, access: AccessPattern::Stencil { w: bw, h: bh } }],
        flops_per_output: (bw * bh) as f64,
        body_c:
            "for (int j = 0; j < BH; j++) for (int i = 0; i < BW; i++) result += IN0(x+i, y+j);"
                .into(),
        elem: Arc::new(move |env, x, y| {
            let mut acc = 0.0;
            for j in 0..bh {
                for i in 0..bw {
                    acc += env.inputs[0].at(x + i, y + j);
                }
            }
            acc
        }),
        span: Span::Rows(Arc::new(move |env, x0, y, out| {
            out.fill(0.0);
            for j in 0..bh {
                for i in 0..bw {
                    let taps = env.inputs[0].row_span(y + j, x0 + i, out.len());
                    for (o, &v) in out.iter_mut().zip(taps) {
                        *o += v;
                    }
                }
            }
        })),
        native_only_body: false,
        text: Default::default(),
    }
}

type Run = fn(&StencilRule, &[RawInput<'_>], &[f64], &mut [f64], &Geometry);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiled_matches_global_for_any_shape(
        bw in 1usize..6,
        bh in 1usize..6,
        out_w in 1usize..24,
        out_h in 1usize..24,
        local_size in 1usize..200,
        row_frac in 0.0f64..1.0,
    ) {
        let in_w = out_w + bw - 1;
        let in_h = out_h + bh - 1;
        // Signed zeros and a sign change in every row: an order or a
        // starting value that differed would show in the bits.
        let input: Vec<f64> = (0..in_w * in_h)
            .map(|i| if i % 7 == 0 { -0.0 } else { ((i * 31) % 97) as f64 / 8.0 - 6.0 })
            .collect();
        let row0 = ((out_h as f64) * row_frac) as usize;
        let geom = Geometry {
            out_w,
            out_h,
            row0,
            row1: out_h,
            in_dims: vec![(in_w, in_h)],
            local_size,
        };
        // Per cell over whole-matrix views is the definition; staging and
        // the span form must each, and together, reproduce its bits.
        let bits = |rule: &StencilRule, run: Run| -> Vec<u64> {
            let mut out = vec![f64::NAN; geom.items()];
            run(rule, &[(&input, in_w, in_h)], &[], &mut out, &geom);
            out.iter().map(|v| v.to_bits()).collect()
        };
        let (cells, spans) = (box_rule(bw, bh), box_rule_with_span(bw, bh));
        let want = bits(&cells, run_global);
        prop_assert_eq!(&bits(&cells, run_tiled), &want, "staging must be bit-transparent");
        prop_assert_eq!(&bits(&spans, run_global), &want, "span over Full views");
        prop_assert_eq!(&bits(&spans, run_tiled), &want, "span over Tile views");
    }

    #[test]
    fn scalar_encoding_roundtrips(
        out_w in 1usize..5000,
        out_h in 1usize..5000,
        row0 in 0usize..100,
        extra in 0usize..100,
        local_size in 1usize..1024,
        dims in proptest::collection::vec((1usize..4000, 1usize..4000), 0..4),
        user in proptest::collection::vec(-1e9f64..1e9, 0..6),
    ) {
        let geom = Geometry {
            out_w,
            out_h: out_h.max(row0 + extra + 1),
            row0,
            row1: row0 + extra + 1,
            in_dims: dims,
            local_size,
        };
        let enc = encode_scalars(&geom, &user);
        let (back, back_user) = decode_scalars(&enc);
        prop_assert_eq!(back, geom);
        prop_assert_eq!(back_user, user);
    }

    #[test]
    fn generated_source_hash_is_stable_and_variant_sensitive(
        bw in 2usize..8,
        bh in 1usize..8,
    ) {
        let rule = box_rule(bw, bh);
        let plain = generate_source(&rule, false);
        prop_assert_eq!(&plain, &generate_source(&rule, false));
        let local = generate_source(&rule, true);
        prop_assert_ne!(&plain, &local, "variants must hash differently");
        prop_assert!(local.contains("barrier(CLK_LOCAL_MEM_FENCE);"));
    }

    #[test]
    fn work_descriptors_are_nonnegative_and_variant_consistent(
        bw in 1usize..8,
        bh in 1usize..8,
        out in 2usize..200,
        local_size in 1usize..512,
    ) {
        let rule = box_rule(bw, bh);
        let geom = Geometry {
            out_w: out,
            out_h: out,
            row0: 0,
            row1: out,
            in_dims: vec![(out + bw - 1, out + bh - 1)],
            local_size,
        };
        let plain = kernel_work(&rule, &geom, false);
        let local = kernel_work(&rule, &geom, true);
        for w in [&plain, &local] {
            prop_assert!(w.work_items >= 0.0);
            prop_assert!(w.global_read_bytes >= 0.0);
            prop_assert!(w.redundant_read_bytes >= 0.0);
            prop_assert!(w.local_fill_bytes >= 0.0);
            prop_assert!(w.groups >= 1.0);
        }
        prop_assert_eq!(plain.work_items, local.work_items);
        prop_assert!(!plain.uses_local_memory);
        if bw * bh > 1 {
            prop_assert!(local.uses_local_memory);
            prop_assert_eq!(local.redundant_read_bytes, 0.0,
                "staged inputs leave no redundant global reads");
        }
    }
}
