//! Builders regenerating the paper's result tables.
//!
//! * [`synthetic_table`] — Tables II (4 VCs) and III (2 VCs):
//!   *NBTI-duty-cycle (%) for all the VCs using rr-no-sensor,
//!   sensor-wise-no-traffic and sensor-wise policies*, for 4- and 16-core
//!   meshes at injection rates 0.1/0.2/0.3 flits/cycle/port, sampled on the
//!   upper-left router's east input port.
//! * [`real_traffic_table`] — Table IV: average and standard deviation of
//!   per-VC NBTI-duty-cycles over 10 random benchmark mixes (our
//!   SPLASH2/WCET profile substitution), for the 4-core routers' east/west
//!   inputs and the 16-core main-diagonal routers.
//!
//! Every builder returns structured rows plus a `render()` that prints in
//! the paper's layout, so benches, examples and EXPERIMENTS.md all share
//! the same source of truth.

use crate::experiment::{ExperimentConfig, SyntheticScenario};
use crate::parallel::{default_jobs, run_batch, ExperimentJob, TrafficSpec};
use crate::policy::PolicyKind;
use noc_sim::config::NocConfig;
use noc_sim::topology::Mesh2D;
use noc_sim::types::{Direction, NodeId};
use noc_sim::view::PortId;
use noc_traffic::app::BenchmarkMix;
use std::fmt::Write as _;

/// One row of Table II / Table III.
#[derive(Debug, Clone)]
pub struct SyntheticRow {
    /// The scenario (cores, VCs, injection rate).
    pub scenario: SyntheticScenario,
    /// Most degraded VC (by initial `Vth`) on the sampled port.
    pub md_vc: usize,
    /// Per-policy, per-VC duty cycles in percent, ordered as
    /// [`PolicyKind::TABLE_POLICIES`].
    pub duty: Vec<(PolicyKind, Vec<f64>)>,
    /// `rr-no-sensor − sensor-wise` duty gap on the most degraded VC (the
    /// paper's `Gap` column; positive means sensor-wise wins).
    pub gap: f64,
}

impl SyntheticRow {
    /// Duty cycles of one policy.
    pub fn duty_of(&self, policy: PolicyKind) -> &[f64] {
        &self
            .duty
            .iter()
            .find(|(p, _)| *p == policy)
            .expect("policy present in row")
            .1
    }
}

/// Table II (4 VCs) or Table III (2 VCs).
#[derive(Debug, Clone)]
pub struct SyntheticTable {
    /// VCs per input port.
    pub vcs: usize,
    /// One row per {core count, injection rate}.
    pub rows: Vec<SyntheticRow>,
}

/// Builds the paper's synthetic table for the given VC count.
///
/// Scenarios: {4, 16} cores × injection rates {0.1, 0.2, 0.3}; policies
/// rr-no-sensor, sensor-wise-no-traffic, sensor-wise; sampled on the east
/// input port of router 0 (upper-left), as in the paper.
pub fn synthetic_table(vcs: usize, warmup: u64, measure: u64) -> SyntheticTable {
    synthetic_table_jobs(vcs, warmup, measure, default_jobs())
}

/// [`synthetic_table`] with an explicit worker count: all
/// `scenarios × policies` experiments (18 per table) fan out through the
/// parallel engine's [`run_batch`], bit-identical for every `jobs ≥ 1`.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn synthetic_table_jobs(vcs: usize, warmup: u64, measure: u64, jobs: usize) -> SyntheticTable {
    let scenarios: Vec<SyntheticScenario> = [4usize, 16]
        .into_iter()
        .flat_map(|cores| {
            [0.1, 0.2, 0.3]
                .into_iter()
                .map(move |rate| SyntheticScenario {
                    cores,
                    vcs,
                    injection_rate: rate,
                })
        })
        .collect();
    let batch: Vec<ExperimentJob> = scenarios
        .iter()
        .flat_map(|s| {
            PolicyKind::TABLE_POLICIES
                .into_iter()
                .map(|policy| s.job(policy, warmup, measure))
        })
        .collect();
    let results = run_batch(&batch, jobs);
    let rows = scenarios
        .iter()
        .zip(results.chunks_exact(PolicyKind::TABLE_POLICIES.len()))
        .map(|(&scenario, chunk)| assemble_synthetic_row(scenario, chunk))
        .collect();
    SyntheticTable { vcs, rows }
}

/// Builds a single synthetic-table row (useful for quick looks and tests).
pub fn synthetic_row(scenario: SyntheticScenario, warmup: u64, measure: u64) -> SyntheticRow {
    let batch: Vec<ExperimentJob> = PolicyKind::TABLE_POLICIES
        .into_iter()
        .map(|policy| scenario.job(policy, warmup, measure))
        .collect();
    let results = run_batch(&batch, default_jobs());
    assemble_synthetic_row(scenario, &results)
}

/// Folds the per-policy results of one scenario (in
/// [`PolicyKind::TABLE_POLICIES`] order) into a table row.
fn assemble_synthetic_row(
    scenario: SyntheticScenario,
    results: &[crate::experiment::ExperimentResult],
) -> SyntheticRow {
    let sample = NodeId(0);
    let mut duty = Vec::new();
    let mut md_vc = 0;
    for (policy, result) in PolicyKind::TABLE_POLICIES.into_iter().zip(results) {
        let port = result.east_input(sample);
        md_vc = port.md_vc;
        duty.push((policy, port.duty_percent.clone()));
    }
    let rr = &duty[0].1;
    let sw = &duty[2].1;
    let gap = rr[md_vc] - sw[md_vc];
    SyntheticRow {
        scenario,
        md_vc,
        duty,
        gap,
    }
}

impl SyntheticTable {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "NBTI-duty-cycle (%) for all VCs — rr-no-sensor / sensor-wise-no-traffic / sensor-wise ({} VCs)",
            self.vcs
        );
        let vc_header: String = (0..self.vcs)
            .map(|v| format!("{:>7}", format!("VC{v}")))
            .collect();
        let _ = writeln!(
            s,
            "{:<16} {:>2} |{} |{} |{} | Gap (rr - sensor-wise on MD)",
            "Scenario", "MD", vc_header, vc_header, vc_header
        );
        for row in &self.rows {
            let mut line = format!("{:<16} {:>2} |", row.scenario.name(), row.md_vc);
            for (_, duties) in &row.duty {
                for d in duties {
                    let _ = write!(line, "{d:>6.1}%");
                }
                line.push_str(" |");
            }
            let rr = row.duty_of(PolicyKind::RrNoSensor)[row.md_vc];
            let sw = row.duty_of(PolicyKind::SensorWise)[row.md_vc];
            let _ = write!(line, " {rr:.1} - {sw:.1} = {:.1}%", row.gap);
            let _ = writeln!(s, "{line}");
        }
        s
    }

    /// The largest gap across rows — the paper's headline "up to X %
    /// activity factor improvement" number for this table.
    pub fn best_gap(&self) -> f64 {
        self.rows.iter().map(|r| r.gap).fold(f64::MIN, f64::max)
    }

    /// Renders the table as CSV (one column per policy × VC, plus the
    /// gap), for plotting outside Rust.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("scenario,md_vc");
        for policy in PolicyKind::TABLE_POLICIES {
            for v in 0..self.vcs {
                let _ = write!(s, ",{}_vc{v}", policy.label().replace('-', "_"));
            }
        }
        s.push_str(",gap\n");
        for row in &self.rows {
            let _ = write!(s, "{},{}", row.scenario.name(), row.md_vc);
            for (_, duties) in &row.duty {
                for d in duties {
                    let _ = write!(s, ",{d:.3}");
                }
            }
            let _ = writeln!(s, ",{:.3}", row.gap);
        }
        s
    }
}

/// One row of Table IV: a sampled router input port, averaged over the
/// benchmark-mix iterations.
#[derive(Debug, Clone)]
pub struct RealTrafficRow {
    /// Row label in the paper's format, e.g. `4c-r2-E`.
    pub label: String,
    /// The sampled port.
    pub port: PortId,
    /// Most degraded VC (constant across iterations, by construction).
    pub md_vc: usize,
    /// rr-no-sensor per-VC duty average over iterations (percent).
    pub rr_avg: Vec<f64>,
    /// rr-no-sensor per-VC duty standard deviation.
    pub rr_std: Vec<f64>,
    /// sensor-wise per-VC duty average.
    pub sw_avg: Vec<f64>,
    /// sensor-wise per-VC duty standard deviation.
    pub sw_std: Vec<f64>,
    /// Average gap `rr − sensor-wise` on the most degraded VC.
    pub gap: f64,
}

/// Table IV: real-traffic (benchmark-profile) results.
#[derive(Debug, Clone)]
pub struct RealTrafficTable {
    /// Iterations (benchmark mixes) per architecture.
    pub iterations: usize,
    /// Rows: the 4-core east/west ports and the 16-core diagonal ports.
    pub rows: Vec<RealTrafficRow>,
}

/// Builds Table IV.
///
/// For each architecture (4-core and 16-core, 2 VCs), runs `iterations`
/// random benchmark mixes. Process variation is sampled once per
/// architecture and kept constant across iterations and policies, exactly
/// as the paper does; only the benchmark mix changes per iteration.
///
/// Sampled ports: the paper's Table IV set — each 4-core router with its
/// east or west input port, and the 16-core main-diagonal routers. The
/// paper lists `16c-r15-E`, but the east input of the bottom-right corner
/// router does not exist in a 4×4 mesh; its west input is reported
/// instead (see EXPERIMENTS.md).
pub fn real_traffic_table(
    iterations: usize,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> RealTrafficTable {
    real_traffic_table_jobs(iterations, warmup, measure, seed, default_jobs())
}

/// [`real_traffic_table`] with an explicit worker count.
///
/// # Panics
///
/// Panics if `iterations` or `jobs` is zero.
pub fn real_traffic_table_jobs(
    iterations: usize,
    warmup: u64,
    measure: u64,
    seed: u64,
    jobs: usize,
) -> RealTrafficTable {
    let mut rows = Vec::new();
    // (cores, sampled ports with labels)
    let four_core: Vec<(String, PortId)> = vec![
        (
            "4c-r0-E".into(),
            PortId::router_input(NodeId(0), Direction::East),
        ),
        (
            "4c-r1-W".into(),
            PortId::router_input(NodeId(1), Direction::West),
        ),
        (
            "4c-r2-E".into(),
            PortId::router_input(NodeId(2), Direction::East),
        ),
        (
            "4c-r3-W".into(),
            PortId::router_input(NodeId(3), Direction::West),
        ),
    ];
    let sixteen_core: Vec<(String, PortId)> = vec![
        (
            "16c-r0-E".into(),
            PortId::router_input(NodeId(0), Direction::East),
        ),
        (
            "16c-r5-E".into(),
            PortId::router_input(NodeId(5), Direction::East),
        ),
        (
            "16c-r10-E".into(),
            PortId::router_input(NodeId(10), Direction::East),
        ),
        (
            "16c-r15-W".into(),
            PortId::router_input(NodeId(15), Direction::West),
        ),
    ];
    for (cores, samples) in [(4usize, four_core), (16usize, sixteen_core)] {
        rows.extend(real_traffic_rows_jobs(
            cores, 2, &samples, iterations, warmup, measure, seed, jobs,
        ));
    }
    RealTrafficTable { iterations, rows }
}

/// Builds Table IV rows for one architecture.
pub fn real_traffic_rows(
    cores: usize,
    vcs: usize,
    samples: &[(String, PortId)],
    iterations: usize,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> Vec<RealTrafficRow> {
    real_traffic_rows_jobs(
        cores,
        vcs,
        samples,
        iterations,
        warmup,
        measure,
        seed,
        default_jobs(),
    )
}

/// [`real_traffic_rows`] with an explicit worker count: the
/// `iterations × 2` experiments (rr-no-sensor and sensor-wise per
/// benchmark mix) fan out through [`run_batch`], bit-identical for every
/// `jobs ≥ 1` — the mix and injection seeds depend only on the iteration
/// index, never on scheduling.
///
/// # Panics
///
/// Panics if `iterations` or `jobs` is zero.
#[allow(clippy::too_many_arguments)]
pub fn real_traffic_rows_jobs(
    cores: usize,
    vcs: usize,
    samples: &[(String, PortId)],
    iterations: usize,
    warmup: u64,
    measure: u64,
    seed: u64,
    jobs: usize,
) -> Vec<RealTrafficRow> {
    assert!(iterations > 0, "at least one iteration required");
    let noc = NocConfig::paper_synthetic(cores, vcs);
    let mesh = Mesh2D::new(noc.cols, noc.rows);
    let pv_seed = seed ^ ((cores as u64) << 8);
    const ROW_POLICIES: [PolicyKind; 2] = [PolicyKind::RrNoSensor, PolicyKind::SensorWise];
    let batch: Vec<ExperimentJob> = (0..iterations)
        .flat_map(|iter| {
            let mix = BenchmarkMix::random(mesh.num_nodes(), seed.wrapping_add(iter as u64 * 7919));
            ROW_POLICIES.into_iter().map({
                let noc = &noc;
                move |policy| ExperimentJob {
                    cfg: ExperimentConfig::new(noc.clone(), policy)
                        .with_cycles(warmup, measure)
                        .with_pv_seed(pv_seed),
                    traffic: TrafficSpec::Mix {
                        mix: mix.clone(),
                        seed: seed.wrapping_add(iter as u64),
                    },
                }
            })
        })
        .collect();
    let results = run_batch(&batch, jobs);
    // duty[policy][sample][iteration] -> Vec<f64> per VC
    let mut duty: Vec<Vec<Vec<Vec<f64>>>> =
        vec![vec![Vec::with_capacity(iterations); samples.len()]; 2];
    let mut md: Vec<usize> = vec![0; samples.len()];
    for chunk in results.chunks_exact(ROW_POLICIES.len()) {
        for (p_idx, result) in chunk.iter().enumerate() {
            for (s_idx, (_, pid)) in samples.iter().enumerate() {
                let port = result.port(*pid).expect("sampled port exists");
                duty[p_idx][s_idx].push(port.duty_percent.clone());
                md[s_idx] = port.md_vc;
            }
        }
    }
    samples
        .iter()
        .enumerate()
        .map(|(s_idx, (label, pid))| {
            let (rr_avg, rr_std) = avg_std_per_vc(&duty[0][s_idx], vcs);
            let (sw_avg, sw_std) = avg_std_per_vc(&duty[1][s_idx], vcs);
            let gap = rr_avg[md[s_idx]] - sw_avg[md[s_idx]];
            RealTrafficRow {
                label: label.clone(),
                port: *pid,
                md_vc: md[s_idx],
                rr_avg,
                rr_std,
                sw_avg,
                sw_std,
                gap,
            }
        })
        .collect()
}

fn avg_std_per_vc(iterations: &[Vec<f64>], vcs: usize) -> (Vec<f64>, Vec<f64>) {
    let n = iterations.len() as f64;
    let mut avg = vec![0.0; vcs];
    let mut std = vec![0.0; vcs];
    for it in iterations {
        for (v, &d) in it.iter().enumerate() {
            avg[v] += d;
        }
    }
    for a in &mut avg {
        *a /= n;
    }
    for it in iterations {
        for (v, &d) in it.iter().enumerate() {
            std[v] += (d - avg[v]).powi(2);
        }
    }
    for s in &mut std {
        *s = (*s / n).sqrt();
    }
    (avg, std)
}

impl RealTrafficTable {
    /// Renders Table IV in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "NBTI-duty-cycle (%) avg/std over {} benchmark-mix iterations — rr-no-sensor vs sensor-wise (2 VCs)",
            self.iterations
        );
        let _ = writeln!(
            s,
            "{:<10} {:>2} | {:>6} {:>6}  {:>6} {:>6} | {:>6} {:>6}  {:>6} {:>6} | {:>6}",
            "Scenario",
            "MD",
            "rr-a0",
            "rr-s0",
            "rr-a1",
            "rr-s1",
            "sw-a0",
            "sw-s0",
            "sw-a1",
            "sw-s1",
            "Gap"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<10} {:>2} | {:>5.1}% {:>5.1}%  {:>5.1}% {:>5.1}% | {:>5.1}% {:>5.1}%  {:>5.1}% {:>5.1}% | {:>5.1}%",
                r.label,
                r.md_vc,
                r.rr_avg[0],
                r.rr_std[0],
                r.rr_avg[1],
                r.rr_std[1],
                r.sw_avg[0],
                r.sw_std[0],
                r.sw_avg[1],
                r.sw_std[1],
                r.gap
            );
        }
        s
    }

    /// The largest gap across rows — the paper's "up to 18.9 %" real-traffic
    /// headline.
    pub fn best_gap(&self) -> f64 {
        self.rows.iter().map(|r| r.gap).fold(f64::MIN, f64::max)
    }

    /// Renders the table as CSV, with avg and std columns per VC and
    /// policy.
    pub fn to_csv(&self) -> String {
        let vcs = self.rows.first().map(|r| r.rr_avg.len()).unwrap_or(0);
        let mut s = String::from("scenario,md_vc");
        for policy in ["rr", "sw"] {
            for v in 0..vcs {
                let _ = write!(s, ",{policy}_avg_vc{v},{policy}_std_vc{v}");
            }
        }
        s.push_str(",gap\n");
        for r in &self.rows {
            let _ = write!(s, "{},{}", r.label, r.md_vc);
            for v in 0..vcs {
                let _ = write!(s, ",{:.3},{:.3}", r.rr_avg[v], r.rr_std[v]);
            }
            for v in 0..vcs {
                let _ = write!(s, ",{:.3},{:.3}", r.sw_avg[v], r.sw_std[v]);
            }
            let _ = writeln!(s, ",{:.3}", r.gap);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_row_has_expected_shape() {
        let row = synthetic_row(
            SyntheticScenario {
                cores: 4,
                vcs: 2,
                injection_rate: 0.1,
            },
            1_000,
            6_000,
        );
        assert_eq!(row.duty.len(), 3);
        for (_, d) in &row.duty {
            assert_eq!(d.len(), 2);
            for &x in d {
                assert!((0.0..=100.0).contains(&x));
            }
        }
        assert!(row.md_vc < 2);
        assert!(
            row.gap > 0.0,
            "sensor-wise must beat rr on the MD VC, gap = {}",
            row.gap
        );
    }

    #[test]
    fn synthetic_table_renders_all_rows() {
        let table = SyntheticTable {
            vcs: 2,
            rows: vec![synthetic_row(
                SyntheticScenario {
                    cores: 4,
                    vcs: 2,
                    injection_rate: 0.2,
                },
                500,
                3_000,
            )],
        };
        let text = table.render();
        assert!(text.contains("4core-inj0.20"), "{text}");
        assert!(text.contains("Gap"), "{text}");
        assert!(table.best_gap() > -100.0);
    }

    #[test]
    fn csv_export_is_well_formed() {
        let table = SyntheticTable {
            vcs: 2,
            rows: vec![synthetic_row(
                SyntheticScenario {
                    cores: 4,
                    vcs: 2,
                    injection_rate: 0.1,
                },
                200,
                2_000,
            )],
        };
        let csv = table.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 2 + 3 * 2 + 1);
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
        assert!(row.starts_with("4core-inj0.10,"));
    }

    #[test]
    fn real_csv_export_is_well_formed() {
        let samples = vec![(
            "4c-r0-E".to_string(),
            PortId::router_input(NodeId(0), Direction::East),
        )];
        let rows = real_traffic_rows(4, 2, &samples, 2, 200, 2_000, 1);
        let table = RealTrafficTable {
            iterations: 2,
            rows,
        };
        let csv = table.to_csv();
        let header = csv.lines().next().unwrap();
        // scenario, md_vc, 2 policies × 2 VCs × (avg, std), gap.
        assert_eq!(header.split(',').count(), 2 + 2 * 2 * 2 + 1);
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn avg_std_math_is_correct() {
        let (avg, std) = avg_std_per_vc(&[vec![10.0, 0.0], vec![20.0, 0.0]], 2);
        assert_eq!(avg, vec![15.0, 0.0]);
        assert!((std[0] - 5.0).abs() < 1e-12);
        assert_eq!(std[1], 0.0);
    }

    #[test]
    fn full_real_table_builds_and_renders() {
        let table = real_traffic_table(1, 200, 2_000, 3);
        assert_eq!(table.rows.len(), 8, "4 four-core + 4 sixteen-core rows");
        let text = table.render();
        for label in ["4c-r0-E", "4c-r3-W", "16c-r5-E", "16c-r15-W"] {
            assert!(text.contains(label), "{text}");
        }
        assert!(table.best_gap().is_finite());
    }

    #[test]
    fn real_traffic_rows_are_stable_across_policies() {
        let samples = vec![(
            "4c-r0-E".to_string(),
            PortId::router_input(NodeId(0), Direction::East),
        )];
        let rows = real_traffic_rows(4, 2, &samples, 2, 500, 4_000, 42);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.md_vc < 2);
        assert_eq!(r.rr_avg.len(), 2);
        for v in r.rr_avg.iter().chain(&r.sw_avg) {
            assert!((0.0..=100.0).contains(v));
        }
    }
}
