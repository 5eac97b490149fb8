//! Frame-synchronous fleet dispatch on a price-spike fleet: the three
//! dispatch modes side by side.
//!
//! Three SmartDPSS sites share one spiky real-time market over a lossy
//! ring (5% line loss, $2/MWh wheeling). Post-hoc settlement can only
//! route the curtailment the sites happened to realize; the planned LP
//! routes the same curtailment optimally; *coordinated* dispatch closes
//! the loop — between frames the planner forecasts each site's
//! curtailment and its neighbours' real-time exposure, and directs
//! sites to buy-to-export when a neighbour's delivered price (after
//! loss and wheeling) beats the local long-term price plus waste
//! penalty. On spiky variants that arbitrage is worth real money; on
//! calm ones the directives stay inert and coordinated collapses to
//! planned.
//!
//! ```sh
//! cargo run --release --example coordinated_dispatch
//! ```

use smartdpss::bench::{smart_controllers, PAPER_SEED};
use smartdpss::{
    DispatchMode, Energy, Interconnect, MultiSiteEngine, Price, ScenarioPack, SimParams, SlotClock,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = SlotClock::icdcs13_month();
    let params = SimParams::icdcs13();
    let pack = ScenarioPack::builtin("price-spike").expect("built-in pack");
    let sites = 3usize;
    let ring = Interconnect::ring(sites, Energy::from_mwh(2.0))?
        .with_uniform_loss(0.05)?
        .with_uniform_wheeling(Price::from_dollars_per_mwh(2.0))?;
    println!("price-spike fleet, 3 SmartDPSS sites, {}", ring.describe());
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>14} {:>12}",
        "variant", "post-hoc $", "planned $", "coord $", "coord - plan", "xfer MWh"
    );

    for v in 0..pack.len() {
        let multi = MultiSiteEngine::from_pack(params, &pack, clock, PAPER_SEED, v, sites)?
            .with_interconnect(ring.clone())?;
        // Each mode runs the fleet in lockstep with its own dispatcher:
        // post-hoc settles greedily, planned by the flow LP, and
        // coordinated also directs the sites between frames.
        let run = |mode: DispatchMode| {
            multi.run_with(
                &mut smart_controllers(sites, params, clock),
                &mut mode.dispatcher(&ring),
            )
        };
        let posthoc = run(DispatchMode::PostHoc)?;
        let planned = run(DispatchMode::Planned)?;
        let coordinated = run(DispatchMode::Coordinated)?;

        println!(
            "{:<10} {:>12.2} {:>12.2} {:>12.2} {:>14.2} {:>12.2}",
            pack.variant(v).expect("v ranges over 0..pack.len()").0,
            posthoc.total_cost().dollars(),
            planned.total_cost().dollars(),
            coordinated.total_cost().dollars(),
            coordinated.total_cost().dollars() - planned.total_cost().dollars(),
            coordinated.energy_transferred.mwh(),
        );
    }
    Ok(())
}
