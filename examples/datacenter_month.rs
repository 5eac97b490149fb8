//! The paper's headline experiment in one binary: run SmartDPSS, the
//! offline benchmark and the Impatient baseline on the same one-month
//! trace and compare operating cost, delay and energy mix (§VI).
//!
//! ```sh
//! cargo run --release --example datacenter_month
//! ```

use smartdpss::{
    cheapest_window_bound, Engine, Impatient, OfflineOptimal, RunReport, SimParams, SmartDpss,
    SmartDpssConfig,
};

fn row(r: &RunReport) -> String {
    format!(
        "{:<12} ${:>8.2} ${:>9.2}   {:>6.1}  {:>5}   {:>6.1} {:>6.1} {:>6.1}",
        r.controller,
        r.time_average_cost().dollars(),
        r.total_cost().dollars(),
        r.average_delay_slots,
        r.max_delay_slots,
        r.energy_lt.mwh(),
        r.energy_rt.mwh(),
        r.energy_wasted.mwh(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let traces = smartdpss::traces::paper_month_traces(42)?;
    let params = SimParams::icdcs13();
    let engine = Engine::new(params, traces.clone())?;
    let clock = engine.clock();

    println!("one-month DPSS comparison (seed 42, Pgrid 2 MW, 15-min UPS)\n");
    println!(
        "{:<12} {:>9} {:>10}   {:>6}  {:>5}   {:>6} {:>6} {:>6}",
        "policy", "$/slot", "total", "delay", "max", "lt", "rt", "waste"
    );

    let mut smart = SmartDpss::new(SmartDpssConfig::icdcs13(), params, clock)?;
    println!("{}", row(&engine.run(&mut smart)?));

    let mut offline = OfflineOptimal::new(params, traces.clone())?;
    println!("{}", row(&engine.run(&mut offline)?));

    let mut impatient = Impatient::two_markets();
    println!("{}", row(&engine.run(&mut impatient)?));

    println!(
        "\nrelaxation lower bound on any policy: ${:.2} total",
        cheapest_window_bound(&traces, &params).dollars()
    );
    println!("(delay in fine slots = hours; lt/rt/waste in MWh over the month)");
    Ok(())
}
