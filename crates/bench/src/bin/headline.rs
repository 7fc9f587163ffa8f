//! Summarises every headline number of the paper in one run:
//!
//! * up to 26.6 % activity-factor improvement on synthetic traffic (E7),
//! * up to 18.9 % on real traffic (E7),
//! * up to 54.2 % net ten-year Vth saving vs the baseline (E5),
//! * up to 23 % cooperative gain (E6),
//! * area overhead below 4 % (E4).

use nbti_model::LongTermModel;
use nbti_noc_bench::RunOptions;
use sensorwise::analysis::{
    best_cooperative_gain, best_vth_saving, cooperative_gain_rows, vth_saving_rows,
};
use sensorwise::tables::{real_traffic_table_jobs, synthetic_table_jobs};

fn main() {
    let opts = RunOptions::from_env();
    eprintln!("[headline] running all experiments with {opts}");
    let model = LongTermModel::calibrated_45nm();

    let t2 = synthetic_table_jobs(4, opts.warmup, opts.measure, opts.jobs);
    let t3 = synthetic_table_jobs(2, opts.warmup, opts.measure, opts.jobs);
    let t4 = real_traffic_table_jobs(
        opts.iterations,
        opts.warmup,
        opts.measure,
        opts.seed,
        opts.jobs,
    );

    let synth_gap = t2.best_gap().max(t3.best_gap());
    let real_gap = t4.best_gap();

    let mut savings = vth_saving_rows(&t2, &model);
    savings.extend(vth_saving_rows(&t3, &model));
    let best_saving = best_vth_saving(&savings);

    let mut coop = cooperative_gain_rows(&t2);
    coop.extend(cooperative_gain_rows(&t3));
    let best_coop = best_cooperative_gain(&coop);

    let area = noc_area::analyze(&noc_area::AreaParams::paper_45nm());

    println!("=== Headline summary (measured vs paper) ===");
    println!(
        "synthetic activity-factor improvement : {:>6.1}%   (paper: up to 26.6%)",
        synth_gap
    );
    println!(
        "real-traffic activity-factor improv.  : {:>6.1}%   (paper: up to 18.9%)",
        real_gap
    );
    println!(
        "net 10-year Vth saving vs baseline    : {:>6.1}%   (paper: up to 54.2%)",
        best_saving
    );
    println!(
        "cooperative gain (traffic info)       : {:>6.1}%   (paper: up to 23%)",
        best_coop
    );
    println!(
        "area overhead per tile                : {:>6.2}%   (paper: below 4%)",
        area.total_overhead_percent
    );
}
