//! Recorded reference outputs of the `flow_paper` workload.
//!
//! `reference.txt` holds one line per recorded key: the paper-default
//! flow (`paper_default`, the flow set-up runs) and, per workload seed,
//! the cycle of flows that seed draws. Each line carries an FNV-1a
//! digest of the flows' result bodies and the exact counts that must
//! repeat on every run at that seed. The file is compiled into the
//! binary, so editing it rebuilds the benchmark.
//!
//! Regenerate it only when the flow's output is meant to change:
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --record-reference 100 > perfbench/reference.txt`.

use std::fmt;

const REFERENCE: &str = include_str!("../reference.txt");

/// What a set of flows must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a of the result bodies, joined by newlines, in order.
    pub digest: u64,
    /// Estimate-cache lookups, summed over the flows.
    pub lookups: u64,
    /// Estimate-cache misses, summed over the flows.
    pub misses: u64,
    /// In-band candidates, summed over the flows.
    pub candidates: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x} {} {} {}",
            self.digest, self.lookups, self.misses, self.candidates
        )
    }
}

/// The recorded fingerprint for `key`, if there is one.
///
/// # Panics
///
/// When the line for `key` is malformed: the file is part of the
/// benchmark's source.
pub fn lookup(key: &str) -> Option<Fingerprint> {
    let line = REFERENCE
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find(|line| line.split_whitespace().next() == Some(key))?;
    let fields: Vec<&str> = line.split_whitespace().skip(1).collect();
    let parse = || -> Option<Fingerprint> {
        match fields.as_slice() {
            [digest, lookups, misses, candidates] => Some(Fingerprint {
                digest: u64::from_str_radix(digest, 16).ok()?,
                lookups: lookups.parse().ok()?,
                misses: misses.parse().ok()?,
                candidates: candidates.parse().ok()?,
            }),
            _ => None,
        }
    };
    Some(parse().unwrap_or_else(|| panic!("malformed reference line: {line}")))
}
