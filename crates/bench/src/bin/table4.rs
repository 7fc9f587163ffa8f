//! Regenerates the paper's **Table IV**: average and standard deviation of
//! per-VC NBTI-duty-cycles over random benchmark mixes (the SPLASH2/WCET
//! profile substitution), for the 4-core routers' east/west input ports and
//! the 16-core main-diagonal routers, with 2 VCs.

use nbti_noc_bench::RunOptions;
use sensorwise::tables::real_traffic_table_jobs;

fn main() {
    let opts = RunOptions::from_env();
    eprintln!("[table4] regenerating Table IV with {opts}");
    let table = real_traffic_table_jobs(
        opts.iterations,
        opts.warmup,
        opts.measure,
        opts.seed,
        opts.jobs,
    );
    println!("=== Table IV (real traffic, 2 VCs) ===");
    print!("{}", table.render());
    println!(
        "Best MD-VC gap in this table: {:.1}% (paper's Table IV best: 18.9%)",
        table.best_gap()
    );
    // The paper's stability observation: the sensor-wise std on the MD VC
    // is smaller than the rr-no-sensor std.
    let stable = table
        .rows
        .iter()
        .filter(|r| r.sw_std[r.md_vc] <= r.rr_std[r.md_vc])
        .count();
    println!(
        "Rows where sensor-wise std on the MD VC <= rr std: {}/{} (paper: all)",
        stable,
        table.rows.len()
    );
}
