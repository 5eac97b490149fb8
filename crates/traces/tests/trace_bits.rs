//! Bit-exact trace pins: the FNV-1a hash of the `to_bits` of every
//! generated value.
//!
//! `golden_stats` fingerprints each series at 9 decimals, so a drift in
//! the last bit of a value passes it unseen. This suite hashes every bit
//! of every series (arrivals included), so any change to the RNG draw
//! order or to the floating-point operations that produce a value fails
//! here, naming the stream.
//!
//! Covered: every built-in pack variant at sites 0–2 through
//! [`ScenarioPack::generate_site`], with variants interleaved on one pack
//! so the shared market is generated, reused and replaced; and
//! [`Scenario::generate`] with and without wind on four clocks (the paper
//! month, 15-minute slots, 20-minute slots and a 372-day year). It also
//! checks that [`hour_of_day`], which the generators use in place of
//! `x % 24.0`, returns the same bits.
//!
//! To regenerate after an *intentional* generator change:
//!
//! ```text
//! cargo test -p dpss-traces --test trace_bits -- --ignored --nocapture \
//!     print_snapshot
//! ```
//!
//! and replace the body of `SNAPSHOT` with the printed rows.

use dpss_traces::seed::splitmix64;
use dpss_traces::{hour_of_day, Scenario, ScenarioPack, TraceSet, WindModel, WorkloadModel};
use dpss_units::SlotClock;

/// Canonical master seed of every published artifact.
const SEED: u64 = 42;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over each series' length and the bits of its values, in a
/// fixed order; a missing arrival stream hashes as the length `u64::MAX`.
fn bits_hash(t: &TraceSet) -> u64 {
    let mut h = FNV_OFFSET;
    let mut series = |values: &mut dyn Iterator<Item = f64>, len: usize| {
        fnv1a(&mut h, len as u64);
        for v in values {
            fnv1a(&mut h, v.to_bits());
        }
    };
    series(&mut t.demand_ds.iter().map(|e| e.mwh()), t.demand_ds.len());
    series(&mut t.demand_dt.iter().map(|e| e.mwh()), t.demand_dt.len());
    series(&mut t.renewable.iter().map(|e| e.mwh()), t.renewable.len());
    series(
        &mut t.price_lt.iter().map(|p| p.dollars_per_mwh()),
        t.price_lt.len(),
    );
    series(
        &mut t.price_rt.iter().map(|p| p.dollars_per_mwh()),
        t.price_rt.len(),
    );
    match &t.arrivals {
        Some(a) => series(&mut a.iter().map(|e| e.mwh()), a.len()),
        None => fnv1a(&mut h, u64::MAX),
    }
    h
}

/// The four scenario clocks: the paper month, 15-minute slots, 20-minute
/// slots (`slot_hours = 1/3`, a length that is not a power of two) and a
/// 372-day year.
fn clocks() -> [(&'static str, SlotClock); 4] {
    [
        ("month", SlotClock::icdcs13_month()),
        ("quarter-hour", SlotClock::new(31, 96, 0.25).unwrap()),
        ("third-hour", SlotClock::new(31, 72, 1.0 / 3.0).unwrap()),
        ("year", SlotClock::new(372, 24, 1.0).unwrap()),
    ]
}

/// Every pinned stream, in generation order. Pack sites run on one pack
/// per built-in name: sites 0 and 1 of each variant in roster order (the
/// second site reuses the variant's market), then site 2 of each variant
/// in reverse order (every call switches variant).
fn entries() -> Vec<(String, u64)> {
    let clock = SlotClock::icdcs13_month();
    let mut out = Vec::new();
    for &name in ScenarioPack::builtin_names() {
        let pack = ScenarioPack::builtin(name).unwrap();
        let mut site = |v: usize, s: usize| {
            let (label, _) = pack.variant(v).unwrap();
            let t = pack.generate_site(&clock, SEED, v, s).unwrap();
            out.push((format!("pack/{name}/{label}/site{s}"), bits_hash(&t)));
        };
        for v in 0..pack.len() {
            site(v, 0);
            site(v, 1);
        }
        for v in (0..pack.len()).rev() {
            site(v, 2);
        }
    }
    let windy = Scenario::icdcs13()
        .with_wind(WindModel::icdcs13())
        .with_workload(WorkloadModel::icdcs13().with_offset_spread(12.0));
    for (clock_name, clock) in clocks() {
        for (label, scenario) in [("icdcs13", Scenario::icdcs13()), ("windy", windy.clone())] {
            let t = scenario.generate(&clock, SEED).unwrap();
            out.push((format!("scenario/{label}/{clock_name}"), bits_hash(&t)));
        }
    }
    out
}

// SNAPSHOT-BEGIN
#[rustfmt::skip]
const SNAPSHOT: &[(&str, u64)] = &[
    ("pack/seasonal-calendar/winter/site0", 0xa0a2fad03c76f1d9),
    ("pack/seasonal-calendar/winter/site1", 0x79d9201624943117),
    ("pack/seasonal-calendar/spring/site0", 0x8cd003695b92dab8),
    ("pack/seasonal-calendar/spring/site1", 0x9445a70b32aefb41),
    ("pack/seasonal-calendar/summer/site0", 0xdfa2b3348c7d3bd5),
    ("pack/seasonal-calendar/summer/site1", 0xf7dd75ac8ad600c6),
    ("pack/seasonal-calendar/autumn-windy/site0", 0x44be7c8059d7e0db),
    ("pack/seasonal-calendar/autumn-windy/site1", 0x60cb18197904d943),
    ("pack/seasonal-calendar/autumn-windy/site2", 0x00c0933e0c8cab69),
    ("pack/seasonal-calendar/summer/site2", 0xf1350d7ff0b83962),
    ("pack/seasonal-calendar/spring/site2", 0x84e2d277cdb4972b),
    ("pack/seasonal-calendar/winter/site2", 0x1b551329ef77a018),
    ("pack/price-spike/calm/site0", 0x8fa71239624afa81),
    ("pack/price-spike/calm/site1", 0x188ac24fb6d750fc),
    ("pack/price-spike/paper/site0", 0x7be3650cf640b9d0),
    ("pack/price-spike/paper/site1", 0xda731b96fc2c11f9),
    ("pack/price-spike/spiky/site0", 0xdb423d014a42947d),
    ("pack/price-spike/spiky/site1", 0xfc30d95079bc3279),
    ("pack/price-spike/stressed/site0", 0x08d883455dc3f064),
    ("pack/price-spike/stressed/site1", 0xf824a70e6cbfe45c),
    ("pack/price-spike/stressed/site2", 0xc05ad1e1f2ae3ee6),
    ("pack/price-spike/spiky/site2", 0x18911762ff66ab41),
    ("pack/price-spike/paper/site2", 0x3900630fcffe5dde),
    ("pack/price-spike/calm/site2", 0x6a6584ad41d5cec7),
    ("pack/renewable-drought/paper/site0", 0xc07f3dfa67601e58),
    ("pack/renewable-drought/paper/site1", 0x9d228041d4450b61),
    ("pack/renewable-drought/dim/site0", 0x17987274dd2ff67f),
    ("pack/renewable-drought/dim/site1", 0x2129361148e5e4d1),
    ("pack/renewable-drought/drought/site0", 0x12f908a146adac87),
    ("pack/renewable-drought/drought/site1", 0x7496497f7adbfd80),
    ("pack/renewable-drought/near-dark/site0", 0xddcacb35fd655046),
    ("pack/renewable-drought/near-dark/site1", 0x23eec88bb6523006),
    ("pack/renewable-drought/near-dark/site2", 0x89c57d2e376efbf0),
    ("pack/renewable-drought/drought/site2", 0xf550507d63e5d461),
    ("pack/renewable-drought/dim/site2", 0x377fe59483f41d4e),
    ("pack/renewable-drought/paper/site2", 0x2146022df1f765e8),
    ("pack/flat-baseline/paper/site0", 0x968d87114e3d2451),
    ("pack/flat-baseline/paper/site1", 0xd55ee72b7a0b03f6),
    ("pack/flat-baseline/flat-demand/site0", 0xabe7b1fc877dc4c4),
    ("pack/flat-baseline/flat-demand/site1", 0x53e8032639b5a7a5),
    ("pack/flat-baseline/flat-prices/site0", 0xdfdd8c9d3438b0bf),
    ("pack/flat-baseline/flat-prices/site1", 0x18af8ffb42847319),
    ("pack/flat-baseline/flat-both/site0", 0xaa04ca202d85950f),
    ("pack/flat-baseline/flat-both/site1", 0x751772383348da44),
    ("pack/flat-baseline/flat-both/site2", 0xed2a61edcd2081d5),
    ("pack/flat-baseline/flat-prices/site2", 0x1ec3182ed2d25c36),
    ("pack/flat-baseline/flat-demand/site2", 0x02e168c842e480fc),
    ("pack/flat-baseline/paper/site2", 0xf6d911f4e2059a7f),
    ("pack/traffic-wave/steady/site0", 0x55c6c809f0bdda67),
    ("pack/traffic-wave/steady/site1", 0x527ac6e3fc2f34ab),
    ("pack/traffic-wave/offset-diurnal/site0", 0x2b14a7ea5dead027),
    ("pack/traffic-wave/offset-diurnal/site1", 0xc02fbb41aa19b68e),
    ("pack/traffic-wave/flash-crowd/site0", 0x4a176833629fcb29),
    ("pack/traffic-wave/flash-crowd/site1", 0xbdf50615a317e1aa),
    ("pack/traffic-wave/surge/site0", 0x2cf89a0990a0081c),
    ("pack/traffic-wave/surge/site1", 0xf7a7b5b270831164),
    ("pack/traffic-wave/surge/site2", 0x0ac5bee6957b9074),
    ("pack/traffic-wave/flash-crowd/site2", 0x0269f7cdec7387f1),
    ("pack/traffic-wave/offset-diurnal/site2", 0xad48285e3b767f22),
    ("pack/traffic-wave/steady/site2", 0x9db4f1840b8c01b2),
    ("scenario/icdcs13/month", 0x4929199e0b88d001),
    ("scenario/windy/month", 0x4f83dda53b8b569e),
    ("scenario/icdcs13/quarter-hour", 0x91b4e0ed04f0e41e),
    ("scenario/windy/quarter-hour", 0x470cfb2bdc241b8d),
    ("scenario/icdcs13/third-hour", 0xa6c1dcc801175ac1),
    ("scenario/windy/third-hour", 0xc9eb045202bbd1fb),
    ("scenario/icdcs13/year", 0xd33ba6677766f31d),
    ("scenario/windy/year", 0xdeba62c8a37a11aa),
];
// SNAPSHOT-END

#[test]
fn every_stream_matches_its_bit_pin() {
    let got = entries();
    assert_eq!(got.len(), SNAPSHOT.len(), "pinned stream count");
    let mut drift = Vec::new();
    for ((name, hash), &(want_name, want)) in got.iter().zip(SNAPSHOT) {
        assert_eq!(name, want_name, "stream order");
        if *hash != want {
            drift.push(format!("{name}: {hash:#018x} != pinned {want:#018x}"));
        }
    }
    assert!(drift.is_empty(), "bit drift:\n{}", drift.join("\n"));
}

#[test]
#[ignore = "prints the snapshot table for regeneration"]
fn print_snapshot() {
    for (name, hash) in entries() {
        println!("    ({name:?}, {hash:#018x}),");
    }
}

/// The values `hour_of_day(x)` and `x % 24.0` disagree on.
fn remainder_mismatches(xs: impl Iterator<Item = f64>) -> Vec<f64> {
    xs.filter(|&x| hour_of_day(x).to_bits() != (x % 24.0).to_bits())
        .collect()
}

#[test]
fn hour_of_day_is_the_f64_remainder_bit_for_bit() {
    // Slot starts `i·slot_h` for a roster of slot lengths, binary-exact
    // and not, over millions of slots.
    for slot_h in [1.0, 0.25, 1.0 / 3.0, 0.1, 1.0 / 7.0, 1.0 / 60.0, 1.5] {
        let bad = remainder_mismatches((0..4_000_000u32).map(|i| f64::from(i) * slot_h));
        assert!(
            bad.is_empty(),
            "slot {slot_h} h: {:?}",
            &bad[..bad.len().min(5)]
        );
    }

    // Seeded random finite x ≥ 0 below 2^53: uniform bit patterns (every
    // binade, subnormals included) and uniform values below 10^7 hours.
    let mut state = 0x5EED_u64;
    let mut draw = || {
        state = splitmix64(state);
        state
    };
    let mut patterns = Vec::with_capacity(2_000_000);
    while patterns.len() < 2_000_000 {
        let x = f64::from_bits(draw() >> 1);
        if x < 9_007_199_254_740_992.0 {
            patterns.push(x);
        }
    }
    let uniform = (0..2_000_000).map(|_| (draw() >> 11) as f64 / (1u64 << 53) as f64 * 1e7);
    let bad = remainder_mismatches(patterns.into_iter().chain(uniform));
    assert!(bad.is_empty(), "random: {:?}", &bad[..bad.len().min(5)]);

    // Edges: 0, multiples of 24 (small and up to 2^52) and the value just
    // below each.
    let below = |x: f64| f64::from_bits(x.to_bits() - 1);
    let multiples = (0..100_000u32)
        .map(|k| 24.0 * f64::from(k))
        .chain((0..48).flat_map(|j| [1u64 << j, 3 << j, (1 << j) + 1].map(|k| 24.0 * k as f64)))
        .filter(|&m| m < 4_503_599_627_370_496.0);
    let edges = multiples.flat_map(|m| if m > 0.0 { vec![m, below(m)] } else { vec![m] });
    let bad = remainder_mismatches(edges);
    assert!(bad.is_empty(), "edges: {bad:?}");
}
