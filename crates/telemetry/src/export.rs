//! Exporters: Prometheus text-exposition format and JSON, plus a small
//! exposition-format parser used to round-trip-test the scrape server.
//!
//! Both writers are hand-rolled (the build environment cannot pull
//! serde), deterministic — metrics render in sorted name order — and
//! defensive about floats: a non-finite gauge renders as `NaN`/`+Inf`
//! in Prometheus (which allows them) and as `null` in JSON (which does
//! not). Histograms additionally export interpolated p50/p90/p99
//! estimates (see [`crate::HistogramSnapshot::quantile`]) as untyped
//! `{name}_p50`… samples in Prometheus and as `"p50"`… fields in JSON.

#[cfg(test)]
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{Registry, Snapshot};

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf".to_owned() } else { "-Inf".to_owned() }
    } else {
        format!("{v}")
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a `# HELP` text per the exposition format: backslash and
/// newline only (`# HELP` text is not quoted, so `"` stays literal).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
fn unescape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Escapes a label *value* per the exposition format: backslash,
/// double-quote and newline. The workspace's only generated labels are
/// numeric `le` bounds, but the writer escapes unconditionally so a
/// future label can never corrupt the document.
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders `registry` in Prometheus text-exposition format: `# HELP` /
/// `# TYPE` comments followed by samples; histograms expand into
/// cumulative `_bucket{le="…"}` series plus `_sum`, `_count` and
/// untyped interpolated `_p50`/`_p90`/`_p99` quantile estimates.
pub(crate) fn to_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, help, snap) in registry.snapshot() {
        if !help.is_empty() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&help));
        }
        match snap {
            Snapshot::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            Snapshot::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", prom_f64(v));
            }
            Snapshot::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(&h.counts) {
                    cumulative += count;
                    let le = escape_label_value(&bound.to_string());
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                cumulative += h.counts.last().copied().unwrap_or(0);
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
                let _ = writeln!(out, "{name}_p50 {}", prom_f64(h.p50()));
                let _ = writeln!(out, "{name}_p90 {}", prom_f64(h.p90()));
                let _ = writeln!(out, "{name}_p99 {}", prom_f64(h.p99()));
            }
        }
    }
    out
}

/// Renders `registry` as one JSON object keyed by metric name:
///
/// ```json
/// {
///   "clue_core_lookups_total": {"type": "counter", "value": 12},
///   "clue_cache_hit_ratio": {"type": "gauge", "value": 0.9},
///   "clue_core_memory_references": {
///     "type": "histogram",
///     "buckets": [{"le": 1, "count": 10}, {"le": "+Inf", "count": 2}],
///     "sum": 34, "count": 12, "p50": 1, "p90": 1, "p99": 1
///   }
/// }
/// ```
pub(crate) fn to_json(registry: &Registry) -> String {
    let snapshot = registry.snapshot();
    let mut out = String::from("{\n");
    for (i, (name, _help, snap)) in snapshot.iter().enumerate() {
        let _ = write!(out, "  \"{name}\": ");
        match snap {
            Snapshot::Counter(v) => {
                let _ = write!(out, "{{\"type\": \"counter\", \"value\": {v}}}");
            }
            Snapshot::Gauge(v) => {
                let _ = write!(out, "{{\"type\": \"gauge\", \"value\": {}}}", json_f64(*v));
            }
            Snapshot::Histogram(h) => {
                let _ = write!(out, "{{\"type\": \"histogram\", \"buckets\": [");
                for (j, (bound, count)) in h.bounds.iter().zip(&h.counts).enumerate() {
                    if j > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "{{\"le\": {bound}, \"count\": {count}}}");
                }
                let overflow = h.counts.last().copied().unwrap_or(0);
                if !h.bounds.is_empty() {
                    let _ = write!(out, ", ");
                }
                let _ = write!(out, "{{\"le\": \"+Inf\", \"count\": {overflow}}}");
                let _ = write!(
                    out,
                    "], \"sum\": {}, \"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    h.sum,
                    h.count,
                    json_f64(h.p50()),
                    json_f64(h.p90()),
                    json_f64(h.p99())
                );
            }
        }
        if i + 1 < snapshot.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push('}');
    out.push('\n');
    out
}

/// A parsed Prometheus text-exposition document — the verification side
/// of the exporter, used to round-trip what the scrape server serves.
#[derive(Debug, Default, Clone, PartialEq)]
#[cfg(test)]
pub(crate) struct PromDocument {
    /// `# HELP` texts by metric family name, unescaped.
    pub(crate) helps: BTreeMap<String, String>,
    /// `# TYPE` declarations by metric family name.
    pub(crate) types: BTreeMap<String, String>,
    /// Sample values keyed by full series id (`name` or
    /// `name{labels}`, labels verbatim as rendered).
    pub(crate) samples: BTreeMap<String, f64>,
}

#[cfg(test)]
impl PromDocument {
    /// The value of the series `id` (`name` or `name{labels}`).
    pub(crate) fn sample(&self, id: &str) -> Option<f64> {
        self.samples.get(id).copied()
    }
}

#[cfg(test)]
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name.chars().skip(1).all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
fn parse_prom_value(s: &str) -> Result<f64, String> {
    match s {
        "NaN" => Ok(f64::NAN),
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        other => other.parse::<f64>().map_err(|_| format!("bad sample value {other:?}")),
    }
}

/// Parses Prometheus text-exposition format into a [`PromDocument`],
/// validating enough structure for conformance tests: `# HELP` /
/// `# TYPE` comment grammar, metric-name syntax, balanced label braces
/// and numeric sample values (including `NaN` / `±Inf`).
#[cfg(test)]
pub(crate) fn parse_prometheus(text: &str) -> Result<PromDocument, String> {
    let mut doc = PromDocument::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let (name, help) = rest
                    .split_once(' ')
                    .map(|(n, h)| (n, h.to_owned()))
                    .unwrap_or((rest, String::new()));
                if !valid_metric_name(name) {
                    return Err(err(format!("bad HELP metric name {name:?}")));
                }
                doc.helps.insert(name.to_owned(), unescape_help(&help));
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(format!("TYPE without a kind: {line:?}")))?;
                if !valid_metric_name(name) {
                    return Err(err(format!("bad TYPE metric name {name:?}")));
                }
                match kind {
                    "counter" | "gauge" | "histogram" | "summary" | "untyped" => {}
                    other => return Err(err(format!("unknown TYPE kind {other:?}"))),
                }
                doc.types.insert(name.to_owned(), kind.to_owned());
            }
            // Other comments are legal and ignored.
            continue;
        }
        // Sample line: `name value` or `name{labels} value`.
        let (series, value) = if let Some(brace) = line.find('{') {
            let close = line.rfind('}').ok_or_else(|| err("unbalanced label braces".into()))?;
            if close < brace {
                return Err(err("unbalanced label braces".into()));
            }
            let name = &line[..brace];
            if !valid_metric_name(name) {
                return Err(err(format!("bad metric name {name:?}")));
            }
            (&line[..=close], line[close + 1..].trim())
        } else {
            let (name, v) = line
                .split_once(' ')
                .ok_or_else(|| err(format!("sample without a value: {line:?}")))?;
            if !valid_metric_name(name) {
                return Err(err(format!("bad metric name {name:?}")));
            }
            (name, v.trim())
        };
        let value = parse_prom_value(value).map_err(err)?;
        doc.samples.insert(series.to_owned(), value);
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        let c = reg.counter("clue_core_lookups_total", "Total lookups");
        c.add(12);
        let g = reg.gauge("clue_cache_hit_ratio", "Cache hit ratio");
        g.set(0.75);
        let h = reg.histogram("clue_core_memory_references", "Accesses per lookup", &[1, 4]);
        h.observe(1);
        h.observe(1);
        h.observe(3);
        h.observe(9);
        reg
    }

    #[test]
    fn prometheus_golden() {
        let got = to_prometheus(&sample_registry());
        // Quantiles for counts [2, 1, 1] of 4: p50 lands in bucket
        // (0, 1] at full fraction → 1; p90/p99 land in the overflow,
        // which reports the highest finite bound → 4.
        let want = "\
# HELP clue_cache_hit_ratio Cache hit ratio
# TYPE clue_cache_hit_ratio gauge
clue_cache_hit_ratio 0.75
# HELP clue_core_lookups_total Total lookups
# TYPE clue_core_lookups_total counter
clue_core_lookups_total 12
# HELP clue_core_memory_references Accesses per lookup
# TYPE clue_core_memory_references histogram
clue_core_memory_references_bucket{le=\"1\"} 2
clue_core_memory_references_bucket{le=\"4\"} 3
clue_core_memory_references_bucket{le=\"+Inf\"} 4
clue_core_memory_references_sum 14
clue_core_memory_references_count 4
clue_core_memory_references_p50 1
clue_core_memory_references_p90 4
clue_core_memory_references_p99 4
";
        assert_eq!(got, want);
    }

    #[test]
    fn json_golden() {
        let got = to_json(&sample_registry());
        let want = "\
{
  \"clue_cache_hit_ratio\": {\"type\": \"gauge\", \"value\": 0.75},
  \"clue_core_lookups_total\": {\"type\": \"counter\", \"value\": 12},
  \"clue_core_memory_references\": {\"type\": \"histogram\", \"buckets\": [{\"le\": 1, \"count\": 2}, {\"le\": 4, \"count\": 1}, {\"le\": \"+Inf\", \"count\": 1}], \"sum\": 14, \"count\": 4, \"p50\": 1, \"p90\": 4, \"p99\": 4}
}
";
        assert_eq!(got, want);
    }

    #[test]
    fn non_finite_gauges_render_safely() {
        let reg = Registry::new();
        reg.gauge("clue_test_nan", "").set(f64::NAN);
        reg.gauge("clue_test_inf", "").set(f64::INFINITY);
        let prom = to_prometheus(&reg);
        assert!(prom.contains("clue_test_nan NaN"));
        assert!(prom.contains("clue_test_inf +Inf"));
        let json = to_json(&reg);
        assert!(json.contains("\"clue_test_nan\": {\"type\": \"gauge\", \"value\": null}"));
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        let reg = Registry::new();
        assert_eq!(to_prometheus(&reg), "");
        assert_eq!(to_json(&reg), "{\n}\n");
    }

    #[test]
    fn help_text_is_escaped() {
        let reg = Registry::new();
        reg.counter("clue_test_total", "line one\nback\\slash");
        let prom = to_prometheus(&reg);
        assert!(
            prom.contains("# HELP clue_test_total line one\\nback\\\\slash"),
            "HELP must escape newline and backslash, got:\n{prom}"
        );
        assert_eq!(prom.matches('\n').count(), 3, "escaped HELP stays on one line");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b\nc"), "a\\\\b\\nc");
    }

    #[test]
    fn help_escaping_round_trips() {
        for help in ["plain", "line one\nline two", "back\\slash", "\\n literal\n\\real"] {
            assert_eq!(unescape_help(&escape_help(help)), help);
        }
    }

    #[test]
    fn parser_round_trips_the_exporter() {
        let reg = sample_registry();
        let doc = parse_prometheus(&reg.to_prometheus()).expect("exporter output must parse");
        assert_eq!(doc.types["clue_core_lookups_total"], "counter");
        assert_eq!(doc.types["clue_cache_hit_ratio"], "gauge");
        assert_eq!(doc.types["clue_core_memory_references"], "histogram");
        assert_eq!(doc.helps["clue_core_lookups_total"], "Total lookups");
        assert_eq!(doc.sample("clue_core_lookups_total"), Some(12.0));
        assert_eq!(doc.sample("clue_cache_hit_ratio"), Some(0.75));
        assert_eq!(
            doc.sample("clue_core_memory_references_bucket{le=\"+Inf\"}"),
            Some(4.0),
            "cumulative +Inf bucket equals the count"
        );
        assert_eq!(doc.sample("clue_core_memory_references_count"), Some(4.0));
        assert_eq!(doc.sample("clue_core_memory_references_p99"), Some(4.0));
    }

    #[test]
    fn parser_accepts_non_finite_values() {
        let doc = parse_prometheus("m_nan NaN\nm_pos +Inf\nm_neg -Inf\n").unwrap();
        assert!(doc.sample("m_nan").unwrap().is_nan());
        assert_eq!(doc.sample("m_pos"), Some(f64::INFINITY));
        assert_eq!(doc.sample("m_neg"), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn parser_unescapes_help() {
        let doc = parse_prometheus("# HELP m two\\nlines and a back\\\\slash\nm 1\n").unwrap();
        assert_eq!(doc.helps["m"], "two\nlines and a back\\slash");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("3bad_name 1\n").is_err(), "bad metric name");
        assert!(parse_prometheus("m{le=\"1\" 2\n").is_err(), "unbalanced braces");
        assert!(parse_prometheus("m not_a_number\n").is_err(), "bad value");
        assert!(parse_prometheus("# TYPE m frobnicator\n").is_err(), "unknown type");
        assert!(parse_prometheus("lonely_name_no_value\n").is_err(), "missing value");
    }

    #[test]
    fn histogram_bucket_counts_are_cumulative_per_le_semantics() {
        let reg = Registry::new();
        let h = reg.histogram("clue_test_h", "", &[1, 2, 4]);
        for v in [1, 2, 2, 3, 5] {
            h.observe(v);
        }
        let doc = parse_prometheus(&reg.to_prometheus()).unwrap();
        assert_eq!(doc.sample("clue_test_h_bucket{le=\"1\"}"), Some(1.0));
        assert_eq!(doc.sample("clue_test_h_bucket{le=\"2\"}"), Some(3.0));
        assert_eq!(doc.sample("clue_test_h_bucket{le=\"4\"}"), Some(4.0));
        assert_eq!(doc.sample("clue_test_h_bucket{le=\"+Inf\"}"), Some(5.0));
        assert_eq!(doc.sample("clue_test_h_sum"), Some(13.0));
    }
}
