//! Prometheus text exposition (version 0.0.4) rendering of the `apf-trace`
//! metrics registry, plus a small validating parser used by the integration
//! tests to prove the rendered output is well-formed.
//!
//! Counters render with the conventional `_total` suffix, gauges as plain
//! samples, histograms as cumulative `_bucket{le="..."}` series closed by
//! `le="+Inf"` plus `_sum` and `_count` — exactly the shape
//! `histogram_quantile()` expects. Metric names from the registry use dots
//! (`fedsim.bytes_up`); `sanitize_name` maps them onto the Prometheus
//! grammar (`fedsim_bytes_up`).

use apf_trace::metrics::Snapshot;

/// Maps an arbitrary registry name onto the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` by replacing every other character with `_`
/// (and prefixing `_` if the first character is a digit).
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || c.is_ascii_digit();
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn fmt_value(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_owned()
    } else if x == f64::INFINITY {
        "+Inf".to_owned()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{x}")
    }
}

/// Renders a metrics [`Snapshot`] in Prometheus text exposition format.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(256);
    for (name, value) in &snap.counters {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n}_total counter\n"));
        out.push_str(&format!("{n}_total {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n"));
        out.push_str(&format!("{n} {}\n", fmt_value(*value)));
    }
    for (name, bounds, buckets, count, sum) in &snap.histograms {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cum = 0u64;
        for (i, c) in buckets.iter().enumerate() {
            cum += c;
            let le = if i < bounds.len() {
                fmt_value(bounds[i])
            } else {
                "+Inf".to_owned()
            };
            out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!("{n}_sum {}\n", fmt_value(*sum)));
        out.push_str(&format!("{n}_count {count}\n"));
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_total`/`_bucket` suffix).
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`NaN`, `+Inf`, `-Inf` included).
    pub value: f64,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse().map_err(|_| format!("bad value {s:?}")),
    }
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("label without '=': {part:?}"))?;
        if !valid_name(k) {
            return Err(format!("bad label name {k:?}"));
        }
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted label value {v:?}"))?;
        labels.push((k.to_owned(), v.to_owned()));
    }
    Ok(labels)
}

/// Parses (and thereby validates) Prometheus text exposition output.
///
/// Accepts the subset [`render`] produces — `# TYPE` / `# HELP` comments and
/// `name{labels} value` samples — and rejects anything malformed: an invalid
/// metric or label name, a missing value, an unparsable float, or a `TYPE`
/// comment with an unknown type keyword.
///
/// # Errors
/// Returns a description including the offending line.
pub fn parse_text(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            if let Some("TYPE") = words.next() {
                let name = words.next().ok_or(format!("TYPE without name: {line:?}"))?;
                if !valid_name(name) {
                    return Err(format!("bad metric name in {line:?}"));
                }
                match words.next() {
                    Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                    other => return Err(format!("bad TYPE {other:?} in {line:?}")),
                }
            }
            continue;
        }
        // Sample: name[{labels}] value [timestamp]
        let (head, tail) = match line.find('{') {
            Some(open) => {
                let close = line[open..]
                    .find('}')
                    .map(|i| open + i)
                    .ok_or_else(|| format!("unclosed labels in {line:?}"))?;
                (
                    (&line[..open], parse_labels(&line[open + 1..close])?),
                    line[close + 1..].trim(),
                )
            }
            None => {
                let (name, rest) = line
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("sample without value: {line:?}"))?;
                ((name, Vec::new()), rest.trim())
            }
        };
        let (name, labels) = head;
        if !valid_name(name) {
            return Err(format!("bad metric name {name:?} in {line:?}"));
        }
        let value_str = tail
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("sample without value: {line:?}"))?;
        samples.push(Sample {
            name: name.to_owned(),
            labels,
            value: parse_value(value_str)?,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Snapshot {
        Snapshot {
            counters: vec![("fedsim.bytes_up".to_owned(), 42)],
            gauges: vec![("fedsim.frozen_ratio".to_owned(), 0.25)],
            histograms: vec![(
                "apf.freeze_period".to_owned(),
                vec![1.0, 4.0],
                vec![2, 1, 3],
                6,
                33.0,
            )],
        }
    }

    #[test]
    fn render_parses_back() {
        let text = render(&snap());
        let samples = parse_text(&text).unwrap();
        let get = |n: &str| samples.iter().find(|s| s.name == n).cloned().unwrap();
        assert_eq!(get("fedsim_bytes_up_total").value, 42.0);
        assert_eq!(get("fedsim_frozen_ratio").value, 0.25);
        assert_eq!(get("apf_freeze_period_sum").value, 33.0);
        assert_eq!(get("apf_freeze_period_count").value, 6.0);
        // Buckets are cumulative and close with +Inf.
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "apf_freeze_period_bucket")
            .collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].labels, vec![("le".to_owned(), "1".to_owned())]);
        assert_eq!(buckets[0].value, 2.0);
        assert_eq!(buckets[1].value, 3.0);
        assert_eq!(
            buckets[2].labels,
            vec![("le".to_owned(), "+Inf".to_owned())]
        );
        assert_eq!(buckets[2].value, 6.0);
    }

    #[test]
    fn sanitize_maps_onto_grammar() {
        assert_eq!(sanitize_name("fedsim.bytes_up"), "fedsim_bytes_up");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("7layers"), "_7layers");
        assert!(valid_name(&sanitize_name("9.9/x")));
    }

    #[test]
    fn parser_rejects_malformed() {
        for bad in [
            "metric",                  // no value
            "1bad 3",                  // invalid name
            "m{le=\"x\" 3",            // unclosed labels
            "m{le=x} 3",               // unquoted label value
            "m notanumber",            // bad value
            "# TYPE m notametrictype", // bad TYPE keyword
        ] {
            assert!(parse_text(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_accepts_special_values() {
        let s = parse_text("m NaN\nn +Inf\no -Inf\n").unwrap();
        assert!(s[0].value.is_nan());
        assert_eq!(s[1].value, f64::INFINITY);
        assert_eq!(s[2].value, f64::NEG_INFINITY);
    }
}
