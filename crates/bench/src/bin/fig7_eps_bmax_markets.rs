//! Regenerates Fig. 7: impact of the delay-control parameter `ε`, the
//! market structure (two-timescale vs real-time-only) and the UPS size
//! `Bmax` on time-average total cost.

use dpss_bench::{figures, persist, PAPER_SEED};

fn main() {
    let runner = dpss_bench::runner_from_env_args();
    let eps = figures::fig7_epsilon_with(&runner, PAPER_SEED, &figures::FIG7_EPS_GRID);
    eps.print();
    persist(&eps, "fig7_epsilon");

    let markets = figures::fig7_markets_with(&runner, PAPER_SEED);
    markets.print();
    persist(&markets, "fig7_markets");

    let battery = figures::fig7_battery_with(&runner, PAPER_SEED, &figures::FIG7_BMAX_GRID);
    battery.print();
    persist(&battery, "fig7_battery");

    println!(
        "expected shape: cost rises with ε (delay falls); TM beats RTM; \
         larger batteries reduce curtailment (cost effect is small here: \
         the delay-tolerant backlog already stores energy the battery would)."
    );
}
