//! Set-up repetition and the `/metrics` scrape shared by the two service
//! workloads.

use crate::report::{rounded, Report};
use crate::stats::{parse_prometheus, quantile, sorted};
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `setup` `before` times, stopping each rig before the next starts,
/// and hands the last one to `measure`. After the window `after` more
/// set-ups run, each stopped at once, so the set-up times sample the host
/// at both ends of the run. Set-up `i` gets `i` to keep its scratch space
/// apart. Only set-up itself is timed, never a stop.
///
/// These set-ups mostly wait on the server's poll periods, and one now
/// and then is lucky in how its waits line up, so `setup_s` is the first
/// quartile of their times rather than the fastest.
pub fn run_with_setups<R>(
    (before, after): (usize, usize),
    mut setup: impl FnMut(usize) -> Result<R, String>,
    stop: impl Fn(R),
    measure: impl FnOnce(&R) -> Result<Report, String>,
) -> Result<Report, String> {
    let before = before.max(1);
    let mut setup_s = Vec::new();
    let mut timed = |i: usize| -> Result<R, String> {
        let t = Instant::now();
        let rig = setup(i)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(rig)
    };
    let mut rig = timed(0)?;
    for i in 1..before {
        stop(rig);
        rig = timed(i)?;
    }
    let outcome = measure(&rig);
    stop(rig);
    let mut report = outcome?;
    for i in before..before + after {
        stop(timed(i)?);
    }
    if setup_s.len() > 1 {
        report.setup(
            quantile(&sorted(&setup_s), 0.25),
            format!(
                "first quartile of {} set-ups (ms): {}",
                setup_s.len(),
                rounded(&setup_s, 1e3)
            ),
        );
    }
    Ok(report)
}

/// Scrapes a server's Prometheus `/metrics` into `series → value`.
pub fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let r = noc_service::http::http_request(addr, "GET", "/metrics", "")?;
    Ok(parse_prometheus(&r.body))
}
