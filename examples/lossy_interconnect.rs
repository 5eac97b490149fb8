//! Planned vs post-hoc settlement over a lossy interconnect: three sites
//! of each scenario pack's first variant share one market, coupled by
//! (a) the legacy pooled lossless knob and (b) a directed ring with 5%
//! line losses and a $2/MWh wheeling charge. The post-hoc mode settles
//! realized curtailment greedily; the planned mode routes each frame's
//! exports with the `FleetPlanner` flow LP.
//!
//! ```sh
//! cargo run --release --example lossy_interconnect
//! ```

use smartdpss::bench::smart_controllers;
use smartdpss::sim::SimError;
use smartdpss::{
    DispatchMode, Energy, Interconnect, MultiSiteEngine, MultiSiteReport, Price, ScenarioPack,
    SimParams, SlotClock,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let sites = 3usize;

    // A one-directional ring 0 → 1 → 2 → 0: per-pair caps (no pool),
    // realistic losses, and a wheeling charge per MWh sent.
    let ring = |n: usize| -> Result<Interconnect, SimError> {
        let mut ic = Interconnect::decoupled(n)?;
        for s in 0..n {
            ic = ic
                .with_link(s, (s + 1) % n, Energy::from_mwh(2.0))?
                .with_loss(s, (s + 1) % n, 0.05)?
                .with_wheeling(s, (s + 1) % n, Price::from_dollars_per_mwh(2.0))?;
        }
        Ok(ic)
    };

    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "pack (variant 0)", "pooled ph", "pooled pl", "ring ph", "ring pl"
    );
    println!("{:-<64}", "");
    for name in ScenarioPack::builtin_names() {
        let pack = ScenarioPack::builtin(name).expect("registry is consistent");
        let multi = MultiSiteEngine::from_pack(params, &pack, clock, 42, 0, sites)?;
        // Both modes run the same sites; only the settlement differs.
        let settle = |ic: Interconnect, mode: DispatchMode| -> Result<MultiSiteReport, SimError> {
            let coupled = multi.clone().with_interconnect(ic)?;
            coupled.run_with(
                &mut smart_controllers(sites, params, clock),
                &mut mode.dispatcher(coupled.interconnect()),
            )
        };
        let pooled = Interconnect::pooled(sites, Energy::from_mwh(2.0))?;
        let per_slot = |r: &MultiSiteReport| r.time_average_cost().dollars();
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            per_slot(&settle(pooled.clone(), DispatchMode::PostHoc)?),
            per_slot(&settle(pooled, DispatchMode::Planned)?),
            per_slot(&settle(ring(sites)?, DispatchMode::PostHoc)?),
            per_slot(&settle(ring(sites)?, DispatchMode::Planned)?),
        );
    }
    println!(
        "\nph = post-hoc greedy settlement, pl = planned (FleetPlanner flow LPs).\n\
         On the pooled lossless knob the greedy fold is optimal, so the modes\n\
         coincide; on the constrained lossy ring the planner routes around\n\
         the topology and settles at least as cheaply."
    );
    Ok(())
}
