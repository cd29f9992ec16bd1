//! Automated regression detection over ledger records.
//!
//! A *candidate* run regresses against its *baseline* when it loses more
//! accuracy, moves more bytes, or takes more wall time than the configured
//! [`Tolerances`] allow. Wall-time comparisons are inherently host-bound,
//! so they demote to warnings when the two records disagree on host
//! parallelism or when the baseline is too short to time reliably — a
//! laptop re-running a CI baseline should not "regress" by owning fewer
//! cores.

use apf_fedsim::LedgerRecord;

/// Regression thresholds. Defaults match the repo's acceptance gates:
/// accuracy may drop at most half a point, bytes may grow at most 5%, wall
/// time at most 20%.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Maximum allowed absolute drop in final accuracy (0.005 = 0.5 pt).
    pub accuracy_drop: f64,
    /// Maximum allowed relative growth in total bytes (0.05 = +5%).
    pub bytes_increase: f64,
    /// Maximum allowed relative growth in wall time (0.20 = +20%).
    pub time_increase: f64,
    /// Maximum allowed relative growth in resident memory (0.25 = +25%).
    /// Applies to the `peak_resident_bytes` metric (warn-only across hosts,
    /// like wall time — allocators and page sizes differ) and to the
    /// deterministic `steady_resident_bytes` accounting (always enforced).
    pub memory_increase: f64,
    /// Baselines shorter than this many seconds make wall-time findings
    /// warnings rather than failures (sub-second runs are timing noise).
    pub min_timed_secs: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            accuracy_drop: 0.005,
            bytes_increase: 0.05,
            time_increase: 0.20,
            memory_increase: 0.25,
            min_timed_secs: 1.0,
        }
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Out of tolerance: the check should fail.
    Fail,
    /// Out of tolerance but not trustworthy on this host: report only.
    Warn,
}

/// One out-of-tolerance comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// What was compared, e.g. `"final_accuracy"`.
    pub field: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Human-readable tolerance description.
    pub limit: String,
    /// Whether this fails the check or only warns.
    pub severity: Severity,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: baseline {:.6} -> candidate {:.6} (limit {})",
            match self.severity {
                Severity::Fail => "FAIL",
                Severity::Warn => "warn",
            },
            self.field,
            self.baseline,
            self.candidate,
            self.limit
        )
    }
}

/// Whether any finding is a hard failure.
pub fn any_failure(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Fail)
}

/// Compares `candidate` against `baseline` and returns every
/// out-of-tolerance finding (empty = clean pass).
pub fn check_records(
    baseline: &LedgerRecord,
    candidate: &LedgerRecord,
    tol: &Tolerances,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if candidate.final_accuracy < baseline.final_accuracy - tol.accuracy_drop {
        findings.push(Finding {
            field: "final_accuracy".to_owned(),
            baseline: baseline.final_accuracy,
            candidate: candidate.final_accuracy,
            limit: format!("-{} absolute", tol.accuracy_drop),
            severity: Severity::Fail,
        });
    }
    let bytes_limit = baseline.total_bytes as f64 * (1.0 + tol.bytes_increase);
    if baseline.total_bytes > 0 && candidate.total_bytes as f64 > bytes_limit {
        findings.push(Finding {
            field: "total_bytes".to_owned(),
            baseline: baseline.total_bytes as f64,
            candidate: candidate.total_bytes as f64,
            limit: format!("+{:.0}%", tol.bytes_increase * 100.0),
            severity: Severity::Fail,
        });
    }
    let time_limit = baseline.wall_secs * (1.0 + tol.time_increase);
    if baseline.wall_secs > 0.0 && candidate.wall_secs > time_limit {
        let comparable = baseline.host_parallelism == candidate.host_parallelism
            && baseline.threads == candidate.threads
            && baseline.wall_secs >= tol.min_timed_secs;
        findings.push(Finding {
            field: "wall_secs".to_owned(),
            baseline: baseline.wall_secs,
            candidate: candidate.wall_secs,
            limit: format!("+{:.0}%", tol.time_increase * 100.0),
            severity: if comparable {
                Severity::Fail
            } else {
                Severity::Warn
            },
        });
    }
    // Peak resident memory (VmHWM): host-bound like wall time, so findings
    // demote to warnings when the hosts differ. Older records without the
    // metric are simply unguarded.
    if let (Some(&bm), Some(&cm)) = (
        baseline.metrics.get("peak_resident_bytes"),
        candidate.metrics.get("peak_resident_bytes"),
    ) {
        if bm > 0.0 && cm > bm * (1.0 + tol.memory_increase) {
            let comparable = baseline.host_parallelism == candidate.host_parallelism;
            findings.push(Finding {
                field: "peak_resident_bytes".to_owned(),
                baseline: bm,
                candidate: cm,
                limit: format!("+{:.0}%", tol.memory_increase * 100.0),
                severity: if comparable {
                    Severity::Fail
                } else {
                    Severity::Warn
                },
            });
        }
    }
    // Steady-state resident accounting from the population runner is
    // deterministic byte bookkeeping, not a measurement — enforce it on any
    // host.
    if let (Some(&bm), Some(&cm)) = (
        baseline.metrics.get("steady_resident_bytes"),
        candidate.metrics.get("steady_resident_bytes"),
    ) {
        if bm > 0.0 && cm > bm * (1.0 + tol.memory_increase) {
            findings.push(Finding {
                field: "steady_resident_bytes".to_owned(),
                baseline: bm,
                candidate: cm,
                limit: format!("+{:.0}%", tol.memory_increase * 100.0),
                severity: Severity::Fail,
            });
        }
    }
    findings
}

/// Finds the baseline for `candidate` in `records`: the latest record
/// *before* `candidate_index` with the same config digest. A record with no
/// digest (a run not built from a spec) has no baseline.
pub fn find_baseline(records: &[LedgerRecord], candidate_index: usize) -> Option<usize> {
    let digest = &records.get(candidate_index)?.config_digest;
    if digest.is_empty() {
        return None;
    }
    records[..candidate_index]
        .iter()
        .rposition(|r| &r.config_digest == digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(accuracy: f64, bytes: u64, wall: f64) -> LedgerRecord {
        LedgerRecord {
            name: "t".to_owned(),
            config_digest: "d".to_owned(),
            final_accuracy: accuracy,
            total_bytes: bytes,
            wall_secs: wall,
            threads: 2,
            host_parallelism: 4,
            ..LedgerRecord::default()
        }
    }

    #[test]
    fn identical_records_pass() {
        let r = record(0.8, 1000, 10.0);
        assert!(check_records(&r, &r, &Tolerances::default()).is_empty());
    }

    #[test]
    fn within_tolerance_passes() {
        let base = record(0.80, 1000, 10.0);
        let cand = record(0.797, 1040, 11.5);
        assert!(check_records(&base, &cand, &Tolerances::default()).is_empty());
    }

    #[test]
    fn each_axis_fails_beyond_tolerance() {
        let base = record(0.80, 1000, 10.0);
        let tol = Tolerances::default();
        let acc = check_records(&base, &record(0.79, 1000, 10.0), &tol);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].field, "final_accuracy");
        assert_eq!(acc[0].severity, Severity::Fail);
        let bytes = check_records(&base, &record(0.80, 1100, 10.0), &tol);
        assert_eq!(bytes[0].field, "total_bytes");
        let time = check_records(&base, &record(0.80, 1000, 13.0), &tol);
        assert_eq!(time[0].field, "wall_secs");
        assert_eq!(time[0].severity, Severity::Fail);
        assert!(any_failure(&time));
    }

    #[test]
    fn wall_time_is_warn_only_across_hosts_or_subsecond_baselines() {
        let base = record(0.8, 1000, 10.0);
        let mut cand = record(0.8, 1000, 20.0);
        cand.host_parallelism = 8;
        let f = check_records(&base, &cand, &Tolerances::default());
        assert_eq!(f[0].severity, Severity::Warn);
        assert!(!any_failure(&f));
        let fast_base = record(0.8, 1000, 0.05);
        let slow_cand = record(0.8, 1000, 0.2);
        let f = check_records(&fast_base, &slow_cand, &Tolerances::default());
        assert_eq!(f[0].severity, Severity::Warn);
    }

    #[test]
    fn baseline_lookup_matches_digest() {
        let mut a = record(0.8, 1, 1.0);
        a.config_digest = "aaa".to_owned();
        let mut b = record(0.8, 1, 1.0);
        b.config_digest = "bbb".to_owned();
        let records = vec![a.clone(), b.clone(), a.clone(), b];
        assert_eq!(find_baseline(&records, 3), Some(1));
        assert_eq!(find_baseline(&records, 2), Some(0));
        assert_eq!(find_baseline(&records, 1), None);
        assert_eq!(find_baseline(&records, 0), None);
        // Runs built by hand carry no digest and pair with nothing.
        let mut c = record(0.8, 1, 1.0);
        c.config_digest = String::new();
        assert_eq!(find_baseline(&[c.clone(), c], 1), None);
    }

    #[test]
    fn peak_memory_fails_same_host_warns_cross_host() {
        let mut base = record(0.8, 1000, 10.0);
        base.metrics.insert("peak_resident_bytes".to_owned(), 100e6);
        let mut cand = record(0.8, 1000, 10.0);
        cand.metrics.insert("peak_resident_bytes".to_owned(), 200e6);
        let f = check_records(&base, &cand, &Tolerances::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].field, "peak_resident_bytes");
        assert_eq!(f[0].severity, Severity::Fail);
        cand.host_parallelism = 16;
        let f = check_records(&base, &cand, &Tolerances::default());
        assert_eq!(f[0].severity, Severity::Warn, "cross-host memory warns");
        // Within tolerance: silent.
        cand.host_parallelism = base.host_parallelism;
        cand.metrics.insert("peak_resident_bytes".to_owned(), 110e6);
        assert!(check_records(&base, &cand, &Tolerances::default()).is_empty());
        // Records without the metric are unguarded, not failing.
        cand.metrics.remove("peak_resident_bytes");
        assert!(check_records(&base, &cand, &Tolerances::default()).is_empty());
    }

    #[test]
    fn steady_resident_is_enforced_cross_host() {
        let mut base = record(0.8, 1000, 10.0);
        base.metrics
            .insert("steady_resident_bytes".to_owned(), 50e6);
        let mut cand = record(0.8, 1000, 10.0);
        cand.host_parallelism = 64;
        cand.metrics
            .insert("steady_resident_bytes".to_owned(), 80e6);
        let f = check_records(&base, &cand, &Tolerances::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].field, "steady_resident_bytes");
        assert_eq!(f[0].severity, Severity::Fail, "deterministic accounting");
    }
}
