//! Regenerates the scenario-pack artifacts: the cross-site aggregation
//! table for one pack (default `seasonal-calendar`, 3 sites) in all
//! three dispatch modes — post-hoc, planned and coordinated — plus the
//! all-packs single-site overview and the topology sweep
//! (packs × {pooled, mesh, ring, severed}, 4 sites so the ring is a real
//! ring). CI uploads the persisted JSON.
//!
//! ```text
//! pack_sweep [--pack NAME] [--sites N] [--threads N]
//!            [--dispatch post-hoc|planned|coordinated|all]
//! ```

use std::process::ExitCode;

use dpss_bench::{packs, persist, DispatchMode, PAPER_SEED};

fn main() -> ExitCode {
    let mut pack_name = "seasonal-calendar".to_owned();
    let mut sites = 3usize;
    let mut modes: Vec<DispatchMode> = vec![
        DispatchMode::PostHoc,
        DispatchMode::Planned,
        DispatchMode::Coordinated,
    ];
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pack" => pack_name = args.next().unwrap_or_default(),
            "--sites" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => sites = n,
                    _ => {
                        eprintln!("pack_sweep: --sites needs a positive integer, got {v:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--dispatch" => {
                let v = args.next().unwrap_or_default();
                if v == "all" || v == "both" {
                    // The full roster, same as the default.
                    modes = vec![
                        DispatchMode::PostHoc,
                        DispatchMode::Planned,
                        DispatchMode::Coordinated,
                    ];
                    continue;
                }
                match DispatchMode::parse(&v) {
                    Ok(mode) => modes = vec![mode],
                    Err(message) => {
                        eprintln!("pack_sweep: {message}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => {} // --threads is consumed by runner_from_env_args
        }
    }
    let pack = match packs::lookup_builtin(&pack_name) {
        Ok(pack) => pack,
        Err(message) => {
            eprintln!("pack_sweep: {message}");
            return ExitCode::FAILURE;
        }
    };

    let runner = dpss_bench::runner_from_env_args();
    let interconnect = packs::default_interconnect(sites);
    let mut lp_counts = dpss_bench::FigureTable::new(
        "Fleet LP solve counts: warm/cold per dispatch mode",
        &dpss_bench::LP_COUNTS_COLUMNS,
    );
    for mode in modes {
        let (table, counts) =
            packs::pack_sweep_with_counts(&runner, PAPER_SEED, &pack, sites, &interconnect, mode);
        table.print();
        let artifact = match mode {
            DispatchMode::PostHoc => "pack_sweep",
            DispatchMode::Planned => "pack_sweep_planned",
            DispatchMode::Coordinated => "pack_sweep_coordinated",
        };
        persist(&table, artifact);
        if mode != DispatchMode::PostHoc {
            lp_counts.push_owned(dpss_bench::lp_counts_row(mode, &counts));
        }
    }
    if !lp_counts.rows.is_empty() {
        lp_counts.print();
        persist(&lp_counts, "pack_sweep_lp_counts");
    }

    let overview = packs::pack_overview_with(&runner, PAPER_SEED);
    overview.print();
    persist(&overview, "pack_overview");

    // Topology as a sweep axis: 4 sites so the ring is not the mesh.
    let topology = packs::topology_sweep_with(&runner, PAPER_SEED, 4);
    topology.print();
    persist(&topology, "topology_sweep");
    ExitCode::SUCCESS
}
