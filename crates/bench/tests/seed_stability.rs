//! Pack seed-derivation regression suite: the "appends never shift
//! existing variants" guarantee, tested in isolation.
//!
//! [`ScenarioPack`] derives every variant's seed and every site's seed
//! from the master seed, the pack name and the variant (and site) index,
//! so appending *variants* must not perturb the variant or site seeds of
//! the pre-existing variants, and two packs of different names draw
//! disjoint streams.
//!
//! Every published pack artifact leans on these guarantees ("packs
//! compose without perturbing existing artifacts"), so they are
//! property-tested here rather than inferred from figure goldens.

use dpss_traces::{Scenario, ScenarioPack};
use proptest::prelude::*;

/// Pack names exercised by the properties (the vendored proptest has no
/// string strategies; an index into this roster stands in).
const NAMES: [&str; 6] = ["fig6-v", "pack-x", "a", "sweep", "pack-seasonal", "z9"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Extending a pack with new variants keeps every existing variant —
    /// and every site of every existing variant — on its original seeds.
    #[test]
    fn pack_extension_never_shifts_existing_variant_seeds(
        master in 0u64..1_000_000_007,
        name_idx in 0usize..6,
        variants in 1usize..5,
        extra in 1usize..4,
        sites in 1usize..4,
    ) {
        let mut base = ScenarioPack::new(NAMES[name_idx]);
        for v in 0..variants {
            base = base.with_variant(&format!("v{v}"), Scenario::icdcs13());
        }
        let mut grown = base.clone();
        for v in 0..extra {
            grown = grown.with_variant(&format!("extra{v}"), Scenario::windy_plains());
        }
        for v in 0..variants {
            prop_assert_eq!(
                base.variant_seed(master, v),
                grown.variant_seed(master, v),
                "variant {} shifted when the pack grew", v
            );
            for s in 0..sites {
                prop_assert_eq!(
                    base.site_seed(master, v, s),
                    grown.site_seed(master, v, s),
                    "variant {} site {} shifted when the pack grew", v, s
                );
            }
        }
    }

    /// Pack seeds are salted by the pack name: same roster, different
    /// name, disjoint streams.
    #[test]
    fn pack_seeds_are_name_salted(
        master in 0u64..1_000_000_007,
        name_idx in 0usize..6,
    ) {
        let name = NAMES[name_idx];
        let a = ScenarioPack::new(name).with_variant("v", Scenario::icdcs13());
        let other = format!("{name}-prime");
        let b = ScenarioPack::new(&other).with_variant("v", Scenario::icdcs13());
        prop_assert!(
            a.variant_seed(master, 0) != b.variant_seed(master, 0),
            "packs {} and {} share a variant seed", name, other
        );
    }
}

/// The cross-registry contract the figure/pack artifacts rely on, pinned
/// deterministically: the four built-in packs occupy disjoint seed
/// streams at the canonical master seed.
#[test]
fn builtin_packs_have_disjoint_seed_streams() {
    let mut seeds = Vec::new();
    for &name in ScenarioPack::builtin_names() {
        let pack = ScenarioPack::builtin(name).unwrap();
        for v in 0..pack.len() {
            seeds.push(pack.variant_seed(dpss_bench::PAPER_SEED, v));
            for s in 0..4 {
                seeds.push(pack.site_seed(dpss_bench::PAPER_SEED, v, s));
            }
        }
    }
    let n = seeds.len();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), n, "built-in pack seed streams collide");
}
