//! Merging `apf-prof` folded profiles from the processes of one
//! distributed run.
//!
//! Each process (`apf-server`, every `apf-client`) writes its own folded
//! file with a header stamping the [`TraceContext`] it ran under:
//!
//! ```text
//! # apf-prof run=00000000deadbeef role=client:2 pid=4242 passes=180 interval_us=1000
//! # alloc fedsim::local_train 12 49152
//! round;local_train;sgd_step 118
//! ```
//!
//! [`merge`] validates that every file came from the same run (matching
//! non-zero run ids), prefixes each process's stacks with its role
//! (`server`, `client:N`) as a synthetic root frame, and sums counts —
//! producing one `flamegraph.pl`-ready document where the first split is
//! by process. Files without a role stamp (standalone sim runs) keep
//! their stacks unprefixed.
//!
//! [`TraceContext`]: apf_trace::TraceContext

use std::collections::BTreeMap;

use apf_fedsim::json::Value;

/// One parsed folded-profile file.
#[derive(Debug, Clone)]
pub struct ProfFile {
    /// Where it was read from (for error messages).
    pub path: String,
    /// Run id stamped by the emitting process (0 = unstamped).
    pub run_id: u64,
    /// Role stamp: `"server"`, `"client:N"`, or `""` when the process had
    /// none (rendered `-` in the header).
    pub role: String,
    /// Emitting process id.
    pub pid: u64,
    /// Sampler passes behind the counts.
    pub passes: u64,
    /// Sampling interval the counts are denominated in.
    pub interval_us: u64,
    /// `;`-joined frame stacks with sample counts.
    pub stacks: Vec<(String, u64)>,
    /// Allocation sites: `(frame, alloc count, bytes)`.
    pub allocs: Vec<(String, u64, u64)>,
}

impl ProfFile {
    /// Parses the folded text of one profile file.
    ///
    /// # Errors
    /// Rejects text without the `# apf-prof` header and malformed stack or
    /// header lines; unknown `#` comments are skipped.
    pub fn parse(path: &str, text: &str) -> Result<ProfFile, String> {
        let mut header = None;
        let mut stacks = Vec::new();
        let mut allocs = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# apf-prof ") {
                header = Some(parse_header(path, rest)?);
            } else if let Some(rest) = line.strip_prefix("# alloc ") {
                let mut it = rest.split_whitespace();
                let (Some(frame), Some(count), Some(bytes), None) =
                    (it.next(), it.next(), it.next(), it.next())
                else {
                    return Err(format!("{path}: malformed alloc line: {line}"));
                };
                let count = count
                    .parse()
                    .map_err(|_| format!("{path}: bad alloc count: {line}"))?;
                let bytes = bytes
                    .parse()
                    .map_err(|_| format!("{path}: bad alloc bytes: {line}"))?;
                allocs.push((frame.to_owned(), count, bytes));
            } else if line.starts_with('#') {
                // Future comment kinds pass through silently.
            } else {
                let (stack, count) = line
                    .rsplit_once(' ')
                    .ok_or_else(|| format!("{path}: malformed stack line: {line}"))?;
                let count = count
                    .parse()
                    .map_err(|_| format!("{path}: bad sample count: {line}"))?;
                stacks.push((stack.to_owned(), count));
            }
        }
        let (run_id, role, pid, passes, interval_us) =
            header.ok_or_else(|| format!("{path}: missing `# apf-prof` header"))?;
        Ok(ProfFile {
            path: path.to_owned(),
            run_id,
            role,
            pid,
            passes,
            interval_us,
            stacks,
            allocs,
        })
    }

    /// Reads and parses the profile at `path`.
    ///
    /// # Errors
    /// Propagates IO and [`ProfFile::parse`] failures.
    pub fn load(path: &str) -> Result<ProfFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ProfFile::parse(path, &text)
    }
}

/// Parses the `key=value` fields of a `# apf-prof` header.
#[allow(clippy::type_complexity)]
fn parse_header(path: &str, rest: &str) -> Result<(u64, String, u64, u64, u64), String> {
    let mut run_id = None;
    let mut role = None;
    let mut pid = 0;
    let mut passes = 0;
    let mut interval_us = 0;
    for field in rest.split_whitespace() {
        let Some((k, v)) = field.split_once('=') else {
            continue;
        };
        match k {
            "run" => {
                run_id = Some(
                    u64::from_str_radix(v, 16)
                        .map_err(|_| format!("{path}: bad run id {v:?} in header"))?,
                );
            }
            "role" => {
                role = Some(if v == "-" {
                    String::new()
                } else {
                    v.to_owned()
                })
            }
            "pid" => pid = v.parse().unwrap_or(0),
            "passes" => passes = v.parse().unwrap_or(0),
            "interval_us" => interval_us = v.parse().unwrap_or(0),
            _ => {}
        }
    }
    match (run_id, role) {
        (Some(run_id), Some(role)) => Ok((run_id, role, pid, passes, interval_us)),
        _ => Err(format!("{path}: header missing run= or role=")),
    }
}

// Public because `merge` returns it.
/// The cross-process merge of one run's profiles.
#[derive(Debug, Default)]
pub struct MergedProfile {
    /// The common run id (0 when every input was unstamped).
    pub run_id: u64,
    /// Input files merged.
    pub files: usize,
    /// Summed sampler passes.
    pub passes: u64,
    /// Role-prefixed folded stacks with summed counts.
    pub stacks: BTreeMap<String, u64>,
    /// Role-prefixed allocation sites: `frame -> (count, bytes)`.
    pub allocs: BTreeMap<String, (u64, u64)>,
}

/// Merges per-process profiles into one run-wide flamegraph document.
///
/// Every stamped file must carry the same run id (an unstamped `run=0`
/// file — e.g. a standalone sim — may join only other unstamped files:
/// silently mixing runs would produce a graph of nothing in particular).
/// Each file's stacks gain its role as a synthetic root frame, so the
/// merged flamegraph splits by process first.
///
/// # Errors
/// Returns an error on an empty input or a run-id mismatch.
pub fn merge(files: &[ProfFile]) -> Result<MergedProfile, String> {
    let Some(first) = files.first() else {
        return Err("no profile files to merge".to_owned());
    };
    let mut merged = MergedProfile {
        run_id: first.run_id,
        files: files.len(),
        ..MergedProfile::default()
    };
    for f in files {
        if f.run_id != merged.run_id {
            return Err(format!(
                "run id mismatch: {} has run={:016x}, {} has run={:016x} — profiles are from different runs",
                first.path, first.run_id, f.path, f.run_id
            ));
        }
        let prefix = if f.role.is_empty() {
            String::new()
        } else {
            format!("{};", f.role)
        };
        merged.passes += f.passes;
        for (stack, count) in &f.stacks {
            *merged.stacks.entry(format!("{prefix}{stack}")).or_insert(0) += count;
        }
        for (frame, count, bytes) in &f.allocs {
            let e = merged
                .allocs
                .entry(format!("{prefix}{frame}"))
                .or_insert((0, 0));
            e.0 += count;
            e.1 += bytes;
        }
    }
    Ok(merged)
}

impl MergedProfile {
    /// Total samples across all stacks.
    pub fn total_samples(&self) -> u64 {
        self.stacks.values().sum()
    }

    /// Per-frame self time: each stack's count lands on its leaf frame.
    /// Sorted by count descending, then name.
    pub fn self_time(&self) -> Vec<(String, u64)> {
        let mut per: BTreeMap<&str, u64> = BTreeMap::new();
        for (stack, count) in &self.stacks {
            let leaf = stack.rsplit(';').next().unwrap_or(stack);
            *per.entry(leaf).or_insert(0) += count;
        }
        let mut out: Vec<(String, u64)> = per
            .into_iter()
            .map(|(name, c)| (name.to_owned(), c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Whether any stack contains `frame` as a whole frame component.
    pub fn contains_frame(&self, frame: &str) -> bool {
        self.stacks
            .keys()
            .any(|stack| stack.split(';').any(|f| f == frame))
    }

    /// The merged document in `flamegraph.pl` folded format, with the
    /// run-wide header and alloc comments the per-process files carry.
    pub fn render_folded(&self) -> String {
        let mut out = String::with_capacity(64 + self.stacks.len() * 48);
        out.push_str(&format!(
            "# apf-prof run={:016x} role=merged pid=0 passes={} interval_us=0\n",
            self.run_id, self.passes
        ));
        for (frame, (count, bytes)) in &self.allocs {
            out.push_str(&format!("# alloc {frame} {count} {bytes}\n"));
        }
        for (stack, count) in &self.stacks {
            out.push_str(&format!("{stack} {count}\n"));
        }
        out
    }

    /// The merge as a JSON document (`--json` mode of `trace-report flame`).
    pub fn to_json(&self) -> Value {
        let obj_pair = |pairs: Vec<(&str, Value)>| {
            Value::Obj(
                pairs
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect::<BTreeMap<String, Value>>(),
            )
        };
        obj_pair(vec![
            ("run", Value::Str(format!("{:016x}", self.run_id))),
            ("files", Value::from_u64(self.files as u64)),
            ("passes", Value::from_u64(self.passes)),
            ("total_samples", Value::from_u64(self.total_samples())),
            (
                "stacks",
                Value::Arr(
                    self.stacks
                        .iter()
                        .map(|(stack, count)| {
                            obj_pair(vec![
                                ("stack", Value::Str(stack.clone())),
                                ("samples", Value::from_u64(*count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "self_time",
                Value::Arr(
                    self.self_time()
                        .into_iter()
                        .map(|(frame, count)| {
                            obj_pair(vec![
                                ("frame", Value::Str(frame)),
                                ("samples", Value::from_u64(count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "allocs",
                Value::Arr(
                    self.allocs
                        .iter()
                        .map(|(frame, (count, bytes))| {
                            obj_pair(vec![
                                ("frame", Value::Str(frame.clone())),
                                ("count", Value::from_u64(*count)),
                                ("bytes", Value::from_u64(*bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVER: &str =
        "# apf-prof run=00000000deadbeef role=server pid=10 passes=100 interval_us=1000\n\
        # alloc aggregate 3 4096\n\
        round;aggregate 40\n\
        round 10\n";
    const CLIENT: &str =
        "# apf-prof run=00000000deadbeef role=client:2 pid=11 passes=90 interval_us=1000\n\
        round;local_train 80\n";

    #[test]
    fn parse_reads_header_stacks_and_allocs() {
        let f = ProfFile::parse("s.folded", SERVER).unwrap();
        assert_eq!(f.run_id, 0xdead_beef);
        assert_eq!(f.role, "server");
        assert_eq!(f.pid, 10);
        assert_eq!(f.passes, 100);
        assert_eq!(f.interval_us, 1000);
        assert_eq!(f.stacks.len(), 2);
        assert_eq!(f.allocs, vec![("aggregate".to_owned(), 3, 4096)]);
    }

    #[test]
    fn parse_rejects_headerless_and_malformed_text() {
        assert!(ProfFile::parse("x", "round;train 5\n").is_err());
        assert!(ProfFile::parse("x", "# apf-prof run=zz role=-\n").is_err());
        let bad_stack = "# apf-prof run=1 role=-\nno_count_here\n";
        assert!(ProfFile::parse("x", bad_stack).is_err());
    }

    #[test]
    fn merge_prefixes_roles_and_sums_counts() {
        let files = [
            ProfFile::parse("s.folded", SERVER).unwrap(),
            ProfFile::parse("c.folded", CLIENT).unwrap(),
        ];
        let m = merge(&files).unwrap();
        assert_eq!(m.run_id, 0xdead_beef);
        assert_eq!(m.passes, 190);
        assert_eq!(m.stacks["server;round;aggregate"], 40);
        assert_eq!(m.stacks["client:2;round;local_train"], 80);
        assert_eq!(m.allocs["server;aggregate"], (3, 4096));
        assert!(m.contains_frame("local_train"));
        assert!(m.contains_frame("aggregate"));
        assert!(!m.contains_frame("train")); // whole-frame match only
                                             // Leaf self-time: local_train dominates.
        assert_eq!(m.self_time()[0], ("local_train".to_owned(), 80));
    }

    #[test]
    fn merge_rejects_mixed_runs() {
        let other = SERVER.replace("deadbeef", "deadbee0");
        let files = [
            ProfFile::parse("a", SERVER).unwrap(),
            ProfFile::parse("b", &other).unwrap(),
        ];
        let err = merge(&files).unwrap_err();
        assert!(err.contains("run id mismatch"), "{err}");
    }

    #[test]
    fn unstamped_standalone_profile_stays_unprefixed() {
        let solo = "# apf-prof run=0000000000000000 role=- pid=1 passes=5 interval_us=1000\n\
            round;local_train 5\n";
        let m = merge(&[ProfFile::parse("solo", solo).unwrap()]).unwrap();
        assert_eq!(m.stacks["round;local_train"], 5);
        let folded = m.render_folded();
        assert!(folded.starts_with("# apf-prof run=0000000000000000 role=merged"));
        assert!(folded.contains("round;local_train 5\n"));
    }
}
