//! Regenerates the controller ablations: printed-P5 vs derived-P5
//! objective, and paper-literal vs waste-aware P4 purchasing.

use dpss_bench::{figures, persist, PAPER_SEED};

fn main() {
    let runner = dpss_bench::runner_from_env_args();
    let table = figures::ablations_with(&runner, PAPER_SEED);
    table.print();
    persist(&table, "ablations");

    let forecast = figures::forecast_ablation_with(&runner, PAPER_SEED);
    forecast.print();
    persist(&forecast, "forecast_ablation");

    let baselines = figures::baselines_with(&runner, PAPER_SEED);
    baselines.print();
    persist(&baselines, "baselines");

    println!(
        "expected: the paper-literal P4 over-buys whenever the queue weight \
         exceeds V*p_lt and burns the surplus as waste; the P5 objective \
         variants land close to each other; oracle frame forecasts shave a \
         few percent; SmartDPSS beats both myopic baselines."
    );
}
