//! Columnar time-series metrics.
//!
//! A [`MetricsSeries`] holds periodic per-port samples in
//! structure-of-arrays form: one parallel `Vec` per column, rows appended
//! in (cycle, port) order by the sampler. Columns are the quantities the
//! runtime-adaptive literature (RACE; Brandalero et al.) samples per
//! epoch: duty %, buffer occupancy, gating churn, powered-VC count and the
//! projected ΔVth of the most degraded VC.

use std::fmt::Write;

/// One sample row (the argument of [`MetricsSeries::push`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The cycle the sample was taken at (end of that cycle).
    pub cycle: u64,
    /// Index into [`MetricsSeries::port_names`].
    pub port: u32,
    /// Mean NBTI duty % across the port's VCs since measurement started.
    pub duty_percent: f64,
    /// Flits buffered in the port's VCs at sampling time.
    pub occupancy: u32,
    /// Power-gating transitions (on→off plus off→on) of the port's VCs
    /// since the previous sample.
    pub churn: u64,
    /// VCs powered at sampling time.
    pub powered_vcs: u32,
    /// Projected ten-year ΔVth of the port's most degraded VC, in mV,
    /// from the duty observed so far.
    pub delta_vth_mv: f64,
}

/// A compact columnar series of periodic per-port samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSeries {
    period: u64,
    port_names: Vec<String>,
    cycles: Vec<u64>,
    ports: Vec<u32>,
    duty_percent: Vec<f64>,
    occupancy: Vec<u32>,
    churn: Vec<u64>,
    powered_vcs: Vec<u32>,
    delta_vth_mv: Vec<f64>,
}

impl MetricsSeries {
    /// The CSV header emitted by [`MetricsSeries::to_csv`].
    pub const CSV_HEADER: &'static str =
        "cycle,port,duty_percent,occupancy,churn,powered_vcs,delta_vth_mv";

    /// An empty series sampling every `period` cycles over the named ports.
    pub fn new(period: u64, port_names: Vec<String>) -> Self {
        MetricsSeries {
            period,
            port_names,
            ..MetricsSeries::default()
        }
    }

    /// The sampling period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The port names rows refer to by index.
    pub fn port_names(&self) -> &[String] {
        &self.port_names
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// `true` when no row was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Appends one sample row.
    ///
    /// # Panics
    ///
    /// Panics if the sample's port index is out of range.
    pub fn push(&mut self, s: Sample) {
        assert!(
            (s.port as usize) < self.port_names.len(),
            "port index {} out of range ({} ports)",
            s.port,
            self.port_names.len()
        );
        self.cycles.push(s.cycle);
        self.ports.push(s.port);
        self.duty_percent.push(s.duty_percent);
        self.occupancy.push(s.occupancy);
        self.churn.push(s.churn);
        self.powered_vcs.push(s.powered_vcs);
        self.delta_vth_mv.push(s.delta_vth_mv);
    }

    /// Row `i` reassembled from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> Sample {
        Sample {
            cycle: self.cycles[i],
            port: self.ports[i],
            duty_percent: self.duty_percent[i],
            occupancy: self.occupancy[i],
            churn: self.churn[i],
            powered_vcs: self.powered_vcs[i],
            delta_vth_mv: self.delta_vth_mv[i],
        }
    }

    /// The whole series as CSV (header + one line per row).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.len() + 1));
        out.push_str(MetricsSeries::CSV_HEADER);
        out.push('\n');
        for i in 0..self.len() {
            let s = self.row(i);
            // Writing to a String cannot fail.
            let _ = writeln!(
                out,
                "{},{},{:.4},{},{},{},{:.4}",
                s.cycle,
                self.port_names[s.port as usize],
                s.duty_percent,
                s.occupancy,
                s.churn,
                s.powered_vcs,
                s.delta_vth_mv
            );
        }
        out
    }

    /// The whole series as JSONL (one object per row).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96 * self.len());
        for i in 0..self.len() {
            let s = self.row(i);
            let _ = writeln!(
                out,
                r#"{{"cycle":{},"port":"{}","duty_percent":{:.4},"occupancy":{},"churn":{},"powered_vcs":{},"delta_vth_mv":{:.4}}}"#,
                s.cycle,
                self.port_names[s.port as usize],
                s.duty_percent,
                s.occupancy,
                s.churn,
                s.powered_vcs,
                s.delta_vth_mv
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> MetricsSeries {
        let mut m = MetricsSeries::new(100, vec!["r0-E".to_string(), "r0-eject".to_string()]);
        m.push(Sample {
            cycle: 100,
            port: 0,
            duty_percent: 51.25,
            occupancy: 3,
            churn: 7,
            powered_vcs: 2,
            delta_vth_mv: 31.5,
        });
        m.push(Sample {
            cycle: 100,
            port: 1,
            duty_percent: 12.5,
            occupancy: 0,
            churn: 2,
            powered_vcs: 1,
            delta_vth_mv: 28.25,
        });
        m
    }

    #[test]
    fn push_and_row_round_trip() {
        let m = series();
        assert_eq!(m.len(), 2);
        assert_eq!(m.period(), 100);
        assert_eq!(m.row(1).port, 1);
        assert_eq!(m.row(0).churn, 7);
    }

    #[test]
    fn csv_has_header_and_port_names() {
        let csv = series().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], MetricsSeries::CSV_HEADER);
        assert_eq!(lines.len(), 3);
        assert!(
            lines[1].starts_with("100,r0-E,51.2500,3,7,2,31.5000"),
            "{csv}"
        );
        assert!(lines[2].contains("r0-eject"), "{csv}");
    }

    #[test]
    fn jsonl_emits_one_object_per_row() {
        let jsonl = series().to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(jsonl.contains(r#""port":"r0-eject""#), "{jsonl}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let mut m = MetricsSeries::new(1, vec!["r0-E".to_string()]);
        m.push(Sample {
            cycle: 1,
            port: 1,
            duty_percent: 0.0,
            occupancy: 0,
            churn: 0,
            powered_vcs: 0,
            delta_vth_mv: 0.0,
        });
    }
}
