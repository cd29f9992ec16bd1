//! Automated regression detection over ledger records and kernel-bench
//! JSON.
//!
//! A *candidate* run regresses against its *baseline* when it loses more
//! accuracy, moves more bytes, or takes more wall time than the configured
//! [`Tolerances`] allow. Wall-time comparisons are inherently host-bound,
//! so they demote to warnings when the two records disagree on host
//! parallelism or when the baseline is too short to time reliably — a
//! laptop re-running a CI baseline should not "regress" by owning fewer
//! cores.
//!
//! The same tolerance logic covers `BENCH_kernels.json` (the kernel
//! micro-bench baseline committed at the repo root) via
//! [`check_bench_json`], which `scripts/bench_check.sh` and the
//! `ledger-report bench-diff` subcommand drive.

use apf_fedsim::json::{self, Value};
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
/// *before* `candidate_index` with the same config digest.
pub fn find_baseline(records: &[LedgerRecord], candidate_index: usize) -> Option<usize> {
    let digest = &records.get(candidate_index)?.config_digest;
    records[..candidate_index]
        .iter()
        .rposition(|r| &r.config_digest == digest)
}

/// One `{threads, metric -> value}` row from `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Pool size of the row.
    pub threads: u64,
    /// Whether the producing host could run this many threads undisturbed
    /// (serial, or `threads < host_parallelism`). Unreliable baseline rows
    /// are noise and are skipped by [`check_bench_json`]. Absent means
    /// reliable — baselines predate the field.
    pub reliable: bool,
    /// Matmul throughput, GFLOP/s (higher is better).
    pub matmul_gflops: f64,
    /// Conv2d throughput, GFLOP/s (higher is better).
    pub conv2d_gflops: f64,
    /// LeNet-5 conv1 forward at the training batch size, GFLOP/s. This and
    /// the three rows below are 0 in baselines that predate them, which
    /// skips their check.
    pub conv1_fwd_gflops: f64,
    /// LeNet-5 conv1 parameter gradients (weight gradient + bias sums),
    /// GFLOP/s.
    pub conv1_wgrad_gflops: f64,
    /// LeNet-5 conv2 parameter gradients, GFLOP/s.
    pub conv2_wgrad_gflops: f64,
    /// LeNet-5 conv2 whole backward pass (parameter and input gradients),
    /// GFLOP/s.
    pub conv2_bwd_gflops: f64,
    /// Mean federated round wall time, ms (lower is better).
    pub round_ms: f64,
}

/// One freeze-ratio row of the masked-compute sweep (all lower-is-better
/// step/aggregation times, in milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedRow {
    /// Percentage of scalars frozen in the synthetic mask.
    pub frozen_pct: u64,
    /// Skip-frozen SGD (momentum) step time, ms.
    pub sgd_step_ms: f64,
    /// Skip-frozen Adam step time, ms.
    pub adam_step_ms: f64,
    /// Run-driven 4-client sparse aggregation time, ms.
    pub agg_ms: f64,
}

/// One registered-population row of the population-runner sweep.
///
/// The load-bearing column is `steady_resident_bytes`: across rows it must
/// stay (nearly) flat as `registered` grows — resident memory scales with
/// the sampled cohort, not the registered population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationRow {
    /// Registered population size.
    pub registered: u64,
    /// Clients sampled per round.
    pub cohort: u64,
    /// Same convention as [`BenchRow::reliable`]: timing rows produced
    /// above the host's parallelism are noise.
    pub reliable: bool,
    /// Mean wall time per round, ms (lower is better; host-bound).
    pub round_ms: f64,
    /// Deterministic steady-state resident bytes (registry + shells + slab
    /// free lists + shared-manager dormant state).
    pub steady_resident_bytes: f64,
    /// Slab-store misses during post-warm-up rounds (must stay 0: the
    /// zero-alloc steady-state contract).
    pub slab_misses_steady: u64,
}

/// The parsed shape of `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Host's available parallelism when the file was produced.
    pub host_parallelism: u64,
    /// Per-thread-count results.
    pub rows: Vec<BenchRow>,
    /// Masked-compute sweep rows (empty for baselines that predate them).
    pub masked: Vec<MaskedRow>,
    /// Population-runner sweep rows (empty for baselines that predate
    /// them).
    pub population: Vec<PopulationRow>,
}

/// Parses `BENCH_kernels.json` text.
///
/// # Errors
/// Returns a description on malformed JSON or a missing `results` array.
pub fn parse_bench_json(text: &str) -> Result<BenchDoc, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let rows = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("no results array")?
        .iter()
        .map(|r| {
            let num = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            BenchRow {
                threads: r.get("threads").and_then(Value::as_u64).unwrap_or(0),
                reliable: r.get("reliable").and_then(Value::as_bool).unwrap_or(true),
                matmul_gflops: num("matmul_gflops"),
                conv2d_gflops: num("conv2d_gflops"),
                conv1_fwd_gflops: num("conv1_fwd_gflops"),
                conv1_wgrad_gflops: num("conv1_wgrad_gflops"),
                conv2_wgrad_gflops: num("conv2_wgrad_gflops"),
                conv2_bwd_gflops: num("conv2_bwd_gflops"),
                round_ms: num("round_ms"),
            }
        })
        .collect();
    let masked = doc
        .get("masked")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            let num = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            MaskedRow {
                frozen_pct: r.get("frozen_pct").and_then(Value::as_u64).unwrap_or(0),
                sgd_step_ms: num("sgd_step_ms"),
                adam_step_ms: num("adam_step_ms"),
                agg_ms: num("agg_ms"),
            }
        })
        .collect();
    let population = doc
        .get("population")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            let num = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let int = |k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
            PopulationRow {
                registered: int("registered"),
                cohort: int("cohort"),
                reliable: r.get("reliable").and_then(Value::as_bool).unwrap_or(true),
                round_ms: num("round_ms"),
                steady_resident_bytes: num("steady_resident_bytes"),
                slab_misses_steady: int("slab_misses_steady"),
            }
        })
        .collect();
    Ok(BenchDoc {
        host_parallelism: doc
            .get("host_parallelism")
            .and_then(Value::as_u64)
            .unwrap_or(1),
        rows,
        masked,
        population,
    })
}

/// Compares candidate kernel-bench output against the committed baseline.
///
/// Throughputs may drop and round time may grow by at most
/// `tol.time_increase` (relative). All findings are warnings when the two
/// documents disagree on `host_parallelism` — absolute kernel numbers are
/// not comparable across machines.
///
/// # Errors
/// Propagates parse failures of either document.
pub fn check_bench_json(
    baseline_text: &str,
    candidate_text: &str,
    tol: &Tolerances,
) -> Result<Vec<Finding>, String> {
    let baseline = parse_bench_json(baseline_text)?;
    let candidate = parse_bench_json(candidate_text)?;
    let comparable = baseline.host_parallelism == candidate.host_parallelism;
    let severity = if comparable {
        Severity::Fail
    } else {
        Severity::Warn
    };
    let mut findings = Vec::new();
    for base_row in &baseline.rows {
        if !base_row.reliable {
            // The baseline host could not actually run this many threads;
            // its numbers are noise, not a contract.
            continue;
        }
        let Some(cand_row) = candidate
            .rows
            .iter()
            .find(|r| r.threads == base_row.threads)
        else {
            findings.push(Finding {
                field: format!("results[threads={}]", base_row.threads),
                baseline: base_row.threads as f64,
                candidate: f64::NAN,
                limit: "row present".to_owned(),
                severity: Severity::Fail,
            });
            continue;
        };
        if !cand_row.reliable {
            // The candidate host could not actually run this many threads
            // either (e.g. the check moved to a smaller machine); its
            // numbers are noise, so comparing them would only add noise.
            continue;
        }
        let t = base_row.threads;
        // Higher-is-better throughputs: candidate must reach
        // baseline / (1 + tol).
        for (name, base, cand) in [
            (
                "matmul_gflops",
                base_row.matmul_gflops,
                cand_row.matmul_gflops,
            ),
            (
                "conv2d_gflops",
                base_row.conv2d_gflops,
                cand_row.conv2d_gflops,
            ),
            (
                "conv1_fwd_gflops",
                base_row.conv1_fwd_gflops,
                cand_row.conv1_fwd_gflops,
            ),
            (
                "conv1_wgrad_gflops",
                base_row.conv1_wgrad_gflops,
                cand_row.conv1_wgrad_gflops,
            ),
            (
                "conv2_wgrad_gflops",
                base_row.conv2_wgrad_gflops,
                cand_row.conv2_wgrad_gflops,
            ),
            (
                "conv2_bwd_gflops",
                base_row.conv2_bwd_gflops,
                cand_row.conv2_bwd_gflops,
            ),
        ] {
            if base > 0.0 && cand < base / (1.0 + tol.time_increase) {
                findings.push(Finding {
                    field: format!("{name}_t{t}"),
                    baseline: base,
                    candidate: cand,
                    limit: format!(
                        "-{:.0}%",
                        tol.time_increase / (1.0 + tol.time_increase) * 100.0
                    ),
                    severity,
                });
            }
        }
        // Lower-is-better round time.
        if base_row.round_ms > 0.0
            && cand_row.round_ms > base_row.round_ms * (1.0 + tol.time_increase)
        {
            findings.push(Finding {
                field: format!("round_ms_t{t}"),
                baseline: base_row.round_ms,
                candidate: cand_row.round_ms,
                limit: format!("+{:.0}%", tol.time_increase * 100.0),
                severity,
            });
        }
    }
    for base_row in &baseline.masked {
        let f = base_row.frozen_pct;
        let Some(cand_row) = candidate.masked.iter().find(|r| r.frozen_pct == f) else {
            findings.push(Finding {
                field: format!("masked[frozen_pct={f}]"),
                baseline: f as f64,
                candidate: f64::NAN,
                limit: "row present".to_owned(),
                severity: Severity::Fail,
            });
            continue;
        };
        // All masked metrics are lower-is-better times — but they are
        // sub-millisecond on this sweep, and wall-time noise on a loaded
        // single-core host routinely exceeds the kernel tolerance even
        // while throughput in the same run is *up*. The failure mode this
        // gate exists for is losing the word-skip entirely, a 10–50× jump
        // at high frozen ratios — so only a doubling is a hard failure;
        // drifts beyond the normal tolerance surface as warnings.
        const MASKED_FAIL_INCREASE: f64 = 1.0;
        for (name, base, cand) in [
            ("sgd_step_ms", base_row.sgd_step_ms, cand_row.sgd_step_ms),
            ("adam_step_ms", base_row.adam_step_ms, cand_row.adam_step_ms),
            ("agg_ms", base_row.agg_ms, cand_row.agg_ms),
        ] {
            if base > 0.0 && cand > base * (1.0 + MASKED_FAIL_INCREASE) {
                findings.push(Finding {
                    field: format!("{name}_f{f}"),
                    baseline: base,
                    candidate: cand,
                    limit: format!("+{:.0}%", MASKED_FAIL_INCREASE * 100.0),
                    severity,
                });
            } else if base > 0.0 && cand > base * (1.0 + tol.time_increase) {
                findings.push(Finding {
                    field: format!("{name}_f{f}"),
                    baseline: base,
                    candidate: cand,
                    limit: format!("+{:.0}%", tol.time_increase * 100.0),
                    severity: Severity::Warn,
                });
            }
        }
    }
    for base_row in &baseline.population {
        let key = (base_row.registered, base_row.cohort);
        let Some(cand_row) = candidate
            .population
            .iter()
            .find(|r| (r.registered, r.cohort) == key)
        else {
            findings.push(Finding {
                field: format!("population[registered={}]", base_row.registered),
                baseline: base_row.registered as f64,
                candidate: f64::NAN,
                limit: "row present".to_owned(),
                severity: Severity::Fail,
            });
            continue;
        };
        // Steady resident bytes and slab misses are deterministic
        // accounting, enforced on any host; round time is host-bound.
        if base_row.steady_resident_bytes > 0.0
            && cand_row.steady_resident_bytes
                > base_row.steady_resident_bytes * (1.0 + tol.memory_increase)
        {
            findings.push(Finding {
                field: format!("steady_resident_bytes_r{}", base_row.registered),
                baseline: base_row.steady_resident_bytes,
                candidate: cand_row.steady_resident_bytes,
                limit: format!("+{:.0}%", tol.memory_increase * 100.0),
                severity: Severity::Fail,
            });
        }
        if base_row.slab_misses_steady == 0 && cand_row.slab_misses_steady > 0 {
            findings.push(Finding {
                field: format!("slab_misses_steady_r{}", base_row.registered),
                baseline: 0.0,
                candidate: cand_row.slab_misses_steady as f64,
                limit: "0 (zero-alloc steady state)".to_owned(),
                severity: Severity::Fail,
            });
        }
        if base_row.reliable
            && cand_row.reliable
            && base_row.round_ms > 0.0
            && cand_row.round_ms > base_row.round_ms * (1.0 + tol.time_increase)
        {
            findings.push(Finding {
                field: format!("pop_round_ms_r{}", base_row.registered),
                baseline: base_row.round_ms,
                candidate: cand_row.round_ms,
                limit: format!("+{:.0}%", tol.time_increase * 100.0),
                severity,
            });
        }
    }
    Ok(findings)
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
    }

    fn bench_doc(host: u64, gflops: f64, round_ms: f64) -> String {
        format!(
            "{{\"host_parallelism\": {host}, \"results\": [\
             {{\"threads\": 1, \"matmul_gflops\": {gflops}, \
               \"conv2d_gflops\": {gflops}, \"round_ms\": {round_ms}}}]}}"
        )
    }

    #[test]
    fn bench_json_within_tolerance_passes() {
        let base = bench_doc(4, 10.0, 100.0);
        let cand = bench_doc(4, 9.0, 110.0);
        let f = check_bench_json(&base, &cand, &Tolerances::default()).unwrap();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bench_json_regression_fails_same_host_warns_cross_host() {
        let base = bench_doc(4, 10.0, 100.0);
        let cand = bench_doc(4, 5.0, 200.0);
        let f = check_bench_json(&base, &cand, &Tolerances::default()).unwrap();
        assert!(any_failure(&f));
        assert!(f.iter().any(|x| x.field == "matmul_gflops_t1"));
        assert!(f.iter().any(|x| x.field == "round_ms_t1"));
        let cand_other_host = bench_doc(8, 5.0, 200.0);
        let f = check_bench_json(&base, &cand_other_host, &Tolerances::default()).unwrap();
        assert!(!f.is_empty());
        assert!(!any_failure(&f), "{f:?}");
    }

    #[test]
    fn lenet_conv_rows_are_gated_once_the_baseline_has_them() {
        let doc = |wgrad: f64| {
            format!(
                "{{\"host_parallelism\": 2, \"results\": [{{\"threads\": 1, \
                 \"matmul_gflops\": 10.0, \"conv2d_gflops\": 10.0, \
                 \"conv1_fwd_gflops\": 10.0, \"conv1_wgrad_gflops\": {wgrad}, \
                 \"conv2_wgrad_gflops\": 10.0, \"conv2_bwd_gflops\": {wgrad}, \
                 \"round_ms\": 100.0}}]}}"
            )
        };
        let f = check_bench_json(&doc(10.0), &doc(5.0), &Tolerances::default()).unwrap();
        assert!(any_failure(&f));
        let fields: Vec<&str> = f.iter().map(|x| x.field.as_str()).collect();
        assert_eq!(fields, ["conv1_wgrad_gflops_t1", "conv2_bwd_gflops_t1"]);
        // A baseline that predates the rows gates nothing on them.
        let old = bench_doc(2, 10.0, 100.0);
        let f = check_bench_json(&old, &doc(0.1), &Tolerances::default()).unwrap();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bench_json_missing_row_fails() {
        let base = bench_doc(4, 10.0, 100.0);
        let cand = "{\"host_parallelism\": 4, \"results\": []}";
        let f = check_bench_json(&base, cand, &Tolerances::default()).unwrap();
        assert!(any_failure(&f));
    }

    #[test]
    fn unreliable_baseline_rows_are_skipped() {
        // A threads=2 row the single-core baseline host could not really
        // run: no finding even when the candidate is slower, or missing.
        let base = "{\"host_parallelism\": 1, \"results\": [\
            {\"threads\": 1, \"matmul_gflops\": 10.0, \"conv2d_gflops\": 10.0, \"round_ms\": 100.0},\
            {\"threads\": 2, \"reliable\": false, \"matmul_gflops\": 20.0, \"conv2d_gflops\": 20.0, \"round_ms\": 50.0}]}";
        let cand = "{\"host_parallelism\": 1, \"results\": [\
            {\"threads\": 1, \"matmul_gflops\": 10.0, \"conv2d_gflops\": 10.0, \"round_ms\": 100.0}]}";
        let f = check_bench_json(base, cand, &Tolerances::default()).unwrap();
        assert!(f.is_empty(), "{f:?}");
        // But a reliable baseline row still enforces its contract.
        let f = check_bench_json(cand, base, &Tolerances::default()).unwrap();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unreliable_candidate_rows_are_skipped() {
        // The candidate host could not really run threads=2 either: its
        // (terrible) numbers are noise, not a regression.
        let base = "{\"host_parallelism\": 2, \"results\": [\
            {\"threads\": 1, \"matmul_gflops\": 10.0, \"conv2d_gflops\": 10.0, \"round_ms\": 100.0},\
            {\"threads\": 2, \"matmul_gflops\": 20.0, \"conv2d_gflops\": 20.0, \"round_ms\": 50.0}]}";
        let cand = "{\"host_parallelism\": 2, \"results\": [\
            {\"threads\": 1, \"matmul_gflops\": 10.0, \"conv2d_gflops\": 10.0, \"round_ms\": 100.0},\
            {\"threads\": 2, \"reliable\": false, \"matmul_gflops\": 1.0, \"conv2d_gflops\": 1.0, \"round_ms\": 500.0}]}";
        let f = check_bench_json(base, cand, &Tolerances::default()).unwrap();
        assert!(f.is_empty(), "{f:?}");
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

    fn pop_doc(resident: f64, misses: u64, round_ms: f64) -> String {
        format!(
            "{{\"host_parallelism\": 1, \"results\": [], \"population\": [\
             {{\"registered\": 100000, \"cohort\": 256, \"round_ms\": {round_ms}, \
               \"steady_resident_bytes\": {resident}, \"slab_misses_steady\": {misses}}}]}}"
        )
    }

    #[test]
    fn population_rows_guard_memory_and_slab_misses() {
        let base = pop_doc(10e6, 0, 100.0);
        let tol = Tolerances::default();
        assert!(check_bench_json(&base, &pop_doc(11e6, 0, 105.0), &tol)
            .unwrap()
            .is_empty());
        // Memory growth beyond tolerance: hard failure (deterministic).
        let f = check_bench_json(&base, &pop_doc(20e6, 0, 100.0), &tol).unwrap();
        assert!(any_failure(&f));
        assert!(f.iter().any(|x| x.field == "steady_resident_bytes_r100000"));
        // Any steady-state slab miss against a clean baseline: hard failure.
        let f = check_bench_json(&base, &pop_doc(10e6, 3, 100.0), &tol).unwrap();
        assert!(any_failure(&f));
        assert!(f.iter().any(|x| x.field == "slab_misses_steady_r100000"));
        // Round-time drift on the same host: failure like other kernels.
        let f = check_bench_json(&base, &pop_doc(10e6, 0, 200.0), &tol).unwrap();
        assert!(f.iter().any(|x| x.field == "pop_round_ms_r100000"));
        // Missing row: failure.
        let f = check_bench_json(
            &base,
            "{\"host_parallelism\": 1, \"results\": [], \"population\": []}",
            &tol,
        )
        .unwrap();
        assert!(any_failure(&f));
        // Baselines that predate the sweep impose nothing.
        let old = "{\"host_parallelism\": 1, \"results\": []}";
        assert!(check_bench_json(old, &pop_doc(10e6, 0, 100.0), &tol)
            .unwrap()
            .is_empty());
    }

    fn masked_doc(sgd: f64, adam: f64, agg: f64) -> String {
        format!(
            "{{\"host_parallelism\": 1, \"results\": [], \"masked\": [\
             {{\"frozen_pct\": 90, \"sgd_step_ms\": {sgd}, \
               \"adam_step_ms\": {adam}, \"agg_ms\": {agg}}}]}}"
        )
    }

    #[test]
    fn masked_rows_regress_on_slowdown_and_missing_rows() {
        let base = masked_doc(1.0, 2.0, 0.5);
        let f =
            check_bench_json(&base, &masked_doc(1.1, 2.2, 0.55), &Tolerances::default()).unwrap();
        assert!(f.is_empty(), "{f:?}");
        // Between the kernel tolerance and a doubling: warn-only (ambient
        // noise on sub-millisecond timings), never a hard failure.
        let f =
            check_bench_json(&base, &masked_doc(1.5, 2.0, 0.5), &Tolerances::default()).unwrap();
        assert!(!any_failure(&f));
        assert!(f
            .iter()
            .any(|x| x.field == "sgd_step_ms_f90" && x.severity == Severity::Warn));
        // Past a doubling: hard failure.
        let f =
            check_bench_json(&base, &masked_doc(2.5, 2.0, 0.5), &Tolerances::default()).unwrap();
        assert!(any_failure(&f));
        assert!(f.iter().any(|x| x.field == "sgd_step_ms_f90"));
        let f = check_bench_json(
            &base,
            "{\"host_parallelism\": 1, \"results\": [], \"masked\": []}",
            &Tolerances::default(),
        )
        .unwrap();
        assert!(any_failure(&f));
    }
}
