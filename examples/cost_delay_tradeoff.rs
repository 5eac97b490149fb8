//! The `[O(1/V), O(V)]` cost–delay trade-off of Theorem 2, on real
//! simulations: sweep the control parameter `V` and watch time-average
//! cost fall while service delay grows (the paper's Fig. 6(a)/(b)).
//!
//! ```sh
//! cargo run --release --example cost_delay_tradeoff
//! ```

use smartdpss::{Engine, SimParams, SmartDpss, SmartDpssConfig};

fn bar(len: usize) -> String {
    "#".repeat(len.min(60))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let traces = smartdpss::traces::paper_month_traces(42)?;
    let params = SimParams::icdcs13();
    let engine = Engine::new(params, traces)?;
    let clock = engine.clock();

    println!("V sweep (ε = 0.5, T = 24, Bmax = 15 min)\n");
    println!("{:>6}  {:>8}  {:>8}  cost / delay", "V", "$/slot", "delay");
    for v in [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0] {
        let config = SmartDpssConfig::icdcs13().with_v(v);
        let mut controller = SmartDpss::new(config, params, clock)?;
        let r = engine.run(&mut controller)?;
        let cost = r.time_average_cost().dollars();
        println!(
            "{v:>6}  {cost:>8.2}  {:>8.1}  {:<30} {}",
            r.average_delay_slots,
            bar((cost - 25.0).max(0.0) as usize),
            bar((r.average_delay_slots / 4.0) as usize),
        );
    }
    println!(
        "\ncost decreases toward the offline optimum as O(1/V); \
         delay grows as O(V) — pick V where the trade-off suits your SLO."
    );
    Ok(())
}
