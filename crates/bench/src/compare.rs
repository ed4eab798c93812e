//! Regression comparison for the committed `BENCH_*.json` baselines.
//!
//! CI cannot reproduce the absolute wall-clock numbers of the machine
//! that produced a committed baseline, so `bench-compare` diffs only the
//! *scale-invariant ratio* metrics each experiment publishes — speedups
//! and delivery ratios — which hold across host speeds and across the
//! smoke/full scale split (the smoke sweeps include at least one scale
//! from the full sweep, so rows pair up by key):
//!
//! | file | row key | metric |
//! |---|---|---|
//! | `BENCH_e10_overload.json` | `label` | `delivered / baseline_delivered` |
//! | `BENCH_e11_cq.json` | `subscribers` | `speedup` |
//! | `BENCH_e12_compaction.json` | `segments` | `speedup` |
//!
//! A pair regresses when the fresh value drops below
//! `baseline × (1 − tolerance)`; improvements never fail. The default
//! tolerance of 0.5 is deliberately loose — it catches a collapsed
//! speedup (a 30x becoming 3x), not jitter. Override it with the
//! `BENCH_COMPARE_TOLERANCE` environment variable; to *waive* a genuine
//! change, re-run the full experiment binary and commit the regenerated
//! baseline (see `EXPERIMENTS.md`).
//!
//! The extraction is a hand-rolled scan, not a JSON parser: every
//! experiment binary writes one result object per line, and this module
//! only ever reads files that those binaries wrote.

/// One baseline/fresh pair of a ratio metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// Row key (a label or a numeric scale rendered as text).
    pub key: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub fresh: f64,
}

/// The outcome of comparing one experiment file.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The baseline file name, e.g. `BENCH_e12_compaction.json`.
    pub file: String,
    /// Human name of the compared metric.
    pub metric: String,
    /// Every row key present in both files.
    pub pairs: Vec<Pair>,
    /// Messages for pairs that fell below the tolerance band.
    pub regressions: Vec<String>,
}

/// The experiment files `bench-compare` knows how to diff.
pub const BASELINE_FILES: [&str; 3] = [
    "BENCH_e10_overload.json",
    "BENCH_e11_cq.json",
    "BENCH_e12_compaction.json",
];

/// The comparison tolerance: `BENCH_COMPARE_TOLERANCE` when set and
/// parseable, else 0.5.
pub fn tolerance_from_env() -> f64 {
    std::env::var("BENCH_COMPARE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| (0.0..1.0).contains(t))
        .unwrap_or(0.5)
}

/// Compare one experiment's baseline and fresh JSON texts. `Err` means
/// the file is not one of [`BASELINE_FILES`] or the texts are not in the
/// shape its experiment binary writes.
/// Extracts one ratio metric from a result row (given the whole doc for
/// file-level fields like `baseline_delivered`).
type MetricFn = fn(&str, &str) -> Option<f64>;

pub fn compare(
    file: &str,
    baseline: &str,
    fresh: &str,
    tolerance: f64,
) -> Result<Comparison, String> {
    let (key_field, metric): (&str, MetricFn) = match file {
        "BENCH_e10_overload.json" => ("label", |row, doc| {
            let delivered = field_num(row, "delivered")?;
            let base = field_num(doc, "baseline_delivered")?;
            (base > 0.0).then(|| delivered / base)
        }),
        "BENCH_e11_cq.json" => ("subscribers", |row, _| field_num(row, "speedup")),
        "BENCH_e12_compaction.json" => ("segments", |row, _| field_num(row, "speedup")),
        other => return Err(format!("{other}: no comparison spec for this file")),
    };
    let metric_name = match file {
        "BENCH_e10_overload.json" => "delivered/baseline_delivered",
        _ => "speedup",
    };

    let base_rows =
        extract(baseline, key_field, metric).map_err(|e| format!("{file} (baseline): {e}"))?;
    let fresh_rows =
        extract(fresh, key_field, metric).map_err(|e| format!("{file} (fresh): {e}"))?;

    let mut pairs = Vec::new();
    let mut regressions = Vec::new();
    for (key, base_val) in &base_rows {
        let Some((_, fresh_val)) = fresh_rows.iter().find(|(k, _)| k == key) else {
            continue; // smoke runs cover a subset of the full sweep
        };
        pairs.push(Pair {
            key: key.clone(),
            baseline: *base_val,
            fresh: *fresh_val,
        });
        let floor = base_val * (1.0 - tolerance);
        if *fresh_val < floor {
            regressions.push(format!(
                "{file}: {key_field}={key}: {metric_name} regressed to {fresh_val:.2} \
                 (baseline {base_val:.2}, floor {floor:.2} at tolerance {tolerance})"
            ));
        }
    }
    if pairs.is_empty() {
        return Err(format!(
            "{file}: no common `{key_field}` rows between baseline and fresh run"
        ));
    }
    Ok(Comparison {
        file: file.to_string(),
        metric: metric_name.to_string(),
        pairs,
        regressions,
    })
}

/// `(key, metric)` per result row, keys kept in file order.
fn extract(
    doc: &str,
    key_field: &str,
    metric: fn(&str, &str) -> Option<f64>,
) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for row in result_rows(doc) {
        let key = field_text(row, key_field)
            .ok_or_else(|| format!("result row without `{key_field}`: {row}"))?;
        let value =
            metric(row, doc).ok_or_else(|| format!("result row without the metric: {row}"))?;
        out.push((key, value));
    }
    if out.is_empty() {
        return Err("no result rows found".to_string());
    }
    Ok(out)
}

/// The lines of the `"results": [...]` array that hold one object each.
fn result_rows(doc: &str) -> impl Iterator<Item = &str> {
    doc.lines()
        .skip_while(|l| !l.contains("\"results\""))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{'))
}

/// The raw text of `"name": <value>` in `obj` up to the next `,` or `}`.
fn field_raw<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = &obj[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A numeric field of a one-line JSON object.
fn field_num(obj: &str, name: &str) -> Option<f64> {
    field_raw(obj, name)?.parse::<f64>().ok()
}

/// A field rendered as comparison-key text: strings lose their quotes,
/// numbers stay as written.
fn field_text(obj: &str, name: &str) -> Option<String> {
    Some(field_raw(obj, name)?.trim_matches('"').to_string())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;

    fn e12_doc(speedup_at_107: f64) -> String {
        format!(
            "{{\n  \"experiment\": \"E12\",\n  \"results\": [\n    \
             {{\"segments\": 27, \"uncompacted_s\": 0.01, \"compacted_s\": 0.01, \"speedup\": 1.10}},\n    \
             {{\"segments\": 107, \"uncompacted_s\": 0.30, \"compacted_s\": 0.01, \"speedup\": {speedup_at_107:.2}}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn equal_runs_are_clean() {
        let doc = e12_doc(30.0);
        let c = compare("BENCH_e12_compaction.json", &doc, &doc, 0.5).unwrap();
        assert_eq!(c.pairs.len(), 2);
        assert!(c.regressions.is_empty(), "{:?}", c.regressions);
    }

    #[test]
    fn injected_regression_is_caught() {
        // Negative test: a collapsed speedup (30x -> 1x) must fail even at
        // the loose default tolerance.
        let base = e12_doc(30.0);
        let fresh = e12_doc(1.0);
        let c = compare("BENCH_e12_compaction.json", &base, &fresh, 0.5).unwrap();
        assert_eq!(c.regressions.len(), 1, "{:?}", c.regressions);
        assert!(
            c.regressions[0].contains("segments=107"),
            "{}",
            c.regressions[0]
        );
        // Improvements never fail.
        let c = compare("BENCH_e12_compaction.json", &fresh, &base, 0.5).unwrap();
        assert!(c.regressions.is_empty());
    }

    #[test]
    fn smoke_subset_pairs_by_key() {
        let base = e12_doc(30.0);
        // A smoke run that measured only the 107-segment scale.
        let fresh = "{\n  \"results\": [\n    {\"segments\": 107, \"speedup\": 28.00}\n  ]\n}\n";
        let c = compare("BENCH_e12_compaction.json", &base, fresh, 0.5).unwrap();
        assert_eq!(c.pairs.len(), 1);
        assert_eq!(c.pairs[0].key, "107");
        assert!(c.regressions.is_empty());
    }

    #[test]
    fn e10_uses_the_delivery_ratio() {
        let doc = |delivered: u64| {
            format!(
                "{{\n  \"experiment\": \"E10\",\n  \"baseline_delivered\": 4320,\n  \"results\": [\n    \
                 {{\"label\": \"block\", \"delivered\": {delivered}, \"shed\": 0}}\n  ]\n}}\n"
            )
        };
        let c = compare("BENCH_e10_overload.json", &doc(2880), &doc(2880), 0.5).unwrap();
        assert!((c.pairs[0].baseline - 2880.0 / 4320.0).abs() < 1e-9);
        assert!(c.regressions.is_empty());
        let c = compare("BENCH_e10_overload.json", &doc(2880), &doc(100), 0.5).unwrap();
        assert_eq!(c.regressions.len(), 1);
    }

    #[test]
    fn malformed_and_disjoint_inputs_error() {
        assert!(compare("BENCH_unknown.json", "{}", "{}", 0.5).is_err());
        assert!(compare("BENCH_e12_compaction.json", "not json", "also not", 0.5).is_err());
        let a = "{\n  \"results\": [\n    {\"segments\": 1, \"speedup\": 2.0}\n  ]\n}\n";
        let b = "{\n  \"results\": [\n    {\"segments\": 9, \"speedup\": 2.0}\n  ]\n}\n";
        assert!(compare("BENCH_e12_compaction.json", a, b, 0.5).is_err());
    }
}
