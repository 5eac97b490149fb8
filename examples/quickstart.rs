//! Quickstart: run the SmartDPSS controller on one month of synthetic
//! paper-shaped traces and print the operating report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use smartdpss::{Engine, SimParams, SmartDpss, SmartDpssConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 31 daily frames × 24 hourly slots of demand, solar and prices,
    // deterministic in the seed.
    let traces = smartdpss::traces::paper_month_traces(42)?;
    println!(
        "inputs : {:.1} MWh demand, {:.1} MWh solar ({:.0}% penetration), \
         mean prices lt {} / rt {}",
        traces.total_demand().mwh(),
        traces.total_renewable().mwh(),
        100.0 * traces.renewable_penetration(),
        traces.mean_lt_price(),
        traces.mean_rt_price(),
    );

    // The paper's §VI-A plant (2 MW interconnect, 15-minute UPS) and the
    // default controller tuning (V = 1, ε = 0.5, two markets).
    let params = SimParams::icdcs13();
    let engine = Engine::new(params, traces)?;
    let mut controller = SmartDpss::new(SmartDpssConfig::icdcs13(), params, engine.clock())?;

    let report = engine.run(&mut controller)?;
    println!("result : {}", report.summary());
    println!(
        "         battery ops {}, peak grid draw {:.2} MW, renewable share {:.0}%",
        report.battery_ops,
        report.peak_grid_draw.mwh(), // 1-hour slots: MWh == MW
        100.0 * report.renewable_share(),
    );

    // The Theorem 2 worst-case delay bound for this tuning.
    let bounds = controller.bounds();
    println!(
        "bounds : Qmax {:.2} MWh, worst-case delay {} slots (observed max {})",
        bounds.q_max, bounds.lambda_max_slots, report.max_delay_slots,
    );
    Ok(())
}
