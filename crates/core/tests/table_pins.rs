//! Byte pins of the paper's synthetic tables.
//!
//! Table II (4 VCs) and Table III (2 VCs) are rendered at a horizon short
//! enough for `cargo test` (500 warm-up + 5 000 measured cycles) and their
//! text is hashed with FNV-1a. Any change to the simulator, the NBTI model,
//! the policies or the table layout that moves a single printed digit
//! changes the digest, so a speed-only change must leave both untouched.

use noc_telemetry::digest::fnv1a_64;
use sensorwise::tables::synthetic_table;

const WARMUP: u64 = 500;
const MEASURE: u64 = 5_000;

/// FNV-1a of `synthetic_table(4, 500, 5000).render()`.
const TABLE_II: u64 = 0x2797_2d69_6c9f_2bdf;
/// FNV-1a of `synthetic_table(2, 500, 5000).render()`.
const TABLE_III: u64 = 0xdf04_fbdb_9962_f68b;

fn digest_of(vcs: usize) -> u64 {
    fnv1a_64(synthetic_table(vcs, WARMUP, MEASURE).render().as_bytes())
}

#[test]
fn table_ii_renders_its_pinned_bytes() {
    let digest = digest_of(4);
    assert_eq!(digest, TABLE_II, "Table II digest {digest:#018x}");
}

#[test]
fn table_iii_renders_its_pinned_bytes() {
    let digest = digest_of(2);
    assert_eq!(digest, TABLE_III, "Table III digest {digest:#018x}");
}
