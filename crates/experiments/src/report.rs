//! `experiments report` — the flight recorder.
//!
//! Turns a flushed metrics stream (the `--metrics` output of any run mode,
//! including `experiments check` and fault-soak runs) into a
//! human-readable Markdown report: per-subflow rate trajectories,
//! fairness over time, the MPCC decision breakdown, drop/RTO/fault
//! counters, and a check-violation summary.
//!
//! The parser is hand-rolled (the flat JSONL the
//! [`mpcc_telemetry::MetricsPipeline`] writes — no serde anywhere in the
//! tree) and strict: an empty stream or any unparsable row is an error,
//! so CI can smoke-run a report and trust a zero exit code.

use mpcc_metrics::{jain_index, sparkline};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Glyph budget for inline trajectory sparklines.
const SPARK_WIDTH: usize = 48;

/// One parsed metrics row.
#[derive(Debug, Default)]
struct Row {
    t_ns: u64,
    run: u64,
    scope: String,
    nums: Vec<(String, f64)>,
    strs: Vec<(String, String)>,
}

impl Row {
    fn num(&self, k: &str) -> Option<f64> {
        self.nums.iter().find(|(n, _)| n == k).map(|&(_, v)| v)
    }

    fn count(&self, k: &str) -> u64 {
        self.num(k).unwrap_or(0.0) as u64
    }

    fn label(&self, k: &str) -> Option<&str> {
        self.strs
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses one flat-JSONL row: `{"t_ns":N,"run":R,"scope":"…",…}` with
/// number or simple-string values (the pipeline never emits nesting or
/// escaped quotes).
fn parse_jsonl_row(line: &str) -> Result<Row, String> {
    let body = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("row is not a JSON object")?;
    let mut row = Row::default();
    let mut rest = body;
    while let Some(open) = rest.find('"') {
        let after_key = &rest[open + 1..];
        let close = after_key.find('"').ok_or("unterminated key")?;
        let key = &after_key[..close];
        let after = after_key[close + 1..]
            .strip_prefix(':')
            .ok_or("missing ':' after key")?;
        if let Some(s) = after.strip_prefix('"') {
            let end = s.find('"').ok_or("unterminated string value")?;
            let val = &s[..end];
            if key == "scope" {
                row.scope = val.to_string();
            } else {
                row.strs.push((key.to_string(), val.to_string()));
            }
            rest = &s[end + 1..];
        } else {
            let end = after.find([',', '}']).unwrap_or(after.len());
            let val: f64 = after[..end]
                .parse()
                .map_err(|_| format!("bad number for {key:?}"))?;
            // `"NaN"`/`"inf"` parse as f64 but poison every downstream
            // aggregate (means, Jain index, sparkline minima), so a
            // non-finite value is a malformed stream, not data.
            if !val.is_finite() {
                return Err(format!("non-finite value for {key:?}"));
            }
            match key {
                "t_ns" => row.t_ns = val as u64,
                "run" => row.run = val as u64,
                _ => row.nums.push((key.to_string(), val)),
            }
            rest = &after[end..];
        }
    }
    if row.scope.is_empty() {
        return Err("row has no scope".into());
    }
    Ok(row)
}

/// Parses a whole metrics document, one JSONL row per line.
///
/// Beyond per-row syntax, the stream-level shape is validated: within one
/// run the bin timestamps must never go backwards. Every writer — the
/// single-run pipeline, batch appends, and the sharded keyed merge — emits
/// bins in time order per run (equal timestamps are normal, one per scope;
/// a restart at a new run id is normal for batch files), so a backwards
/// step means a corrupted or mis-merged stream and the aggregates built
/// from it would silently mix bins.
fn parse(doc: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut last_t: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = parse_jsonl_row(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let last = last_t.entry(row.run).or_insert(0);
        if row.t_ns < *last {
            return Err(format!(
                "line {}: bin timestamp went backwards within run {} \
                 ({} ns after {} ns) — corrupted or mis-merged stream",
                i + 1,
                row.run,
                row.t_ns,
                *last,
            ));
        }
        *last = row.t_ns;
        rows.push(row);
    }
    Ok(rows)
}

/// Per-subflow aggregates across all bins of one run.
#[derive(Default)]
struct SubAgg {
    /// (bin end, goodput Mbps) trajectory.
    goodput: Vec<f64>,
    acked_bytes: u64,
    sends: u64,
    reinjections: u64,
    sack_losses: u64,
    rtos: u64,
    /// Per-bin RTT p50s (µs), for the run-level median of medians.
    rtt_p50s: Vec<f64>,
    rtt_p99_max: f64,
}

#[derive(Default)]
struct LinkAgg {
    enq_bytes: u64,
    drop_overflow: u64,
    drop_random: u64,
    drop_burst: u64,
    drop_outage: u64,
    reordered: u64,
    duplicated: u64,
    queue_bytes_max: u64,
}

/// Everything the report needs about one run of the stream.
#[derive(Default)]
struct RunAgg {
    span_ns: u64,
    bin_ns: u64,
    subflows: BTreeMap<(u64, u64), SubAgg>,
    /// bin end → (conn → goodput Mbps), for fairness-over-time.
    conn_goodput: BTreeMap<u64, BTreeMap<u64, f64>>,
    /// MPCC decision counters (mi_started, act_*, pick_*, …), summed.
    decisions: BTreeMap<String, u64>,
    mi_goodput_avgs: Vec<f64>,
    mi_loss_avgs: Vec<f64>,
    links: BTreeMap<u64, LinkAgg>,
    checks: BTreeMap<String, u64>,
}

fn aggregate(rows: &[Row]) -> BTreeMap<u64, RunAgg> {
    let mut runs: BTreeMap<u64, RunAgg> = BTreeMap::new();
    for row in rows {
        let agg = runs.entry(row.run).or_default();
        agg.span_ns = agg.span_ns.max(row.t_ns);
        if row.t_ns > 0 {
            agg.bin_ns = if agg.bin_ns == 0 {
                row.t_ns
            } else {
                agg.bin_ns.min(row.t_ns)
            };
        }
        match row.scope.as_str() {
            "subflow" => {
                let key = (row.count("conn"), row.count("subflow"));
                let goodput = row.num("goodput_mbps").unwrap_or(0.0);
                let sub = agg.subflows.entry(key).or_default();
                sub.goodput.push(goodput);
                sub.acked_bytes += row.count("acked_bytes");
                sub.sends += row.count("sends");
                sub.reinjections += row.count("reinjections");
                sub.sack_losses += row.count("sack_losses");
                sub.rtos += row.count("rtos");
                if let Some(p50) = row.num("rtt_p50_us") {
                    sub.rtt_p50s.push(p50);
                }
                if let Some(p99) = row.num("rtt_p99_us") {
                    sub.rtt_p99_max = sub.rtt_p99_max.max(p99);
                }
                *agg.conn_goodput
                    .entry(row.t_ns)
                    .or_default()
                    .entry(key.0)
                    .or_insert(0.0) += goodput;
            }
            "conn" => {
                for (k, v) in &row.nums {
                    match k.as_str() {
                        "conn" => {}
                        "mi_goodput_mbps_avg" => agg.mi_goodput_avgs.push(*v),
                        "mi_loss_rate_avg" => agg.mi_loss_avgs.push(*v),
                        _ => *agg.decisions.entry(k.clone()).or_insert(0) += *v as u64,
                    }
                }
            }
            "link" => {
                let link = agg.links.entry(row.count("link")).or_default();
                link.enq_bytes += row.count("enq_bytes");
                link.drop_overflow += row.count("drop_overflow");
                link.drop_random += row.count("drop_random");
                link.drop_burst += row.count("drop_burst");
                link.drop_outage += row.count("drop_outage");
                link.reordered += row.count("reordered");
                link.duplicated += row.count("duplicated");
                link.queue_bytes_max = link.queue_bytes_max.max(row.count("queue_bytes_max"));
            }
            "check" => {
                let name = row.label("invariant").unwrap_or("?").to_string();
                *agg.checks.entry(name).or_insert(0) += row.count("count");
            }
            _ => {}
        }
    }
    runs
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Renders the Markdown report for the metrics stream at `path`. Errors
/// (unreadable file, empty stream, malformed row) are returned as text so
/// the CLI can exit nonzero — `experiments report` must never print a
/// hollow report for a broken stream.
pub fn render(path: &Path) -> Result<String, String> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rows = parse(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    if rows.is_empty() {
        return Err(format!("{}: empty metrics stream", path.display()));
    }
    let runs = aggregate(&rows);

    let mut out = String::new();
    let _ = writeln!(out, "# MPCC flight report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "- source: `{}` ({} rows, {} run{})",
        path.display(),
        rows.len(),
        runs.len(),
        if runs.len() == 1 { "" } else { "s" },
    );
    for (run, agg) in &runs {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "## Run {run} — {:.0} s span, {:.3} s bins",
            agg.span_ns as f64 / 1e9,
            agg.bin_ns.max(1) as f64 / 1e9,
        );

        let _ = writeln!(out);
        let _ = writeln!(out, "### Subflow rate trajectories (goodput, Mbps)");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| conn | subflow | bins | mean | min | max | trajectory |"
        );
        let _ = writeln!(
            out,
            "|-----:|--------:|-----:|-----:|----:|----:|:-----------|"
        );
        for (&(conn, subflow), sub) in &agg.subflows {
            let min = sub.goodput.iter().copied().fold(f64::INFINITY, f64::min);
            let max = sub.goodput.iter().copied().fold(0.0, f64::max);
            let _ = writeln!(
                out,
                "| {conn} | {subflow} | {} | {:.2} | {:.2} | {:.2} | `{}` |",
                sub.goodput.len(),
                mean(&sub.goodput),
                min,
                max,
                sparkline(&sub.goodput, SPARK_WIDTH),
            );
        }

        // Fairness over time: Jain's index over per-connection goodput,
        // one point per bin (only meaningful with 2+ connections).
        let jains: Vec<f64> = agg
            .conn_goodput
            .values()
            .filter(|per_conn| per_conn.len() > 1)
            .map(|per_conn| {
                let v: Vec<f64> = per_conn.values().copied().collect();
                jain_index(&v)
            })
            .collect();
        if !jains.is_empty() {
            let worst = jains.iter().copied().fold(f64::INFINITY, f64::min);
            let _ = writeln!(out);
            let _ = writeln!(out, "### Fairness over time (Jain index per bin)");
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "mean {:.4}, worst bin {:.4}: `{}`",
                mean(&jains),
                worst,
                sparkline(&jains, SPARK_WIDTH),
            );
        }

        if !agg.decisions.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "### MPCC decisions");
            let _ = writeln!(out);
            let _ = writeln!(out, "| counter | total |");
            let _ = writeln!(out, "|:--------|------:|");
            for (k, v) in &agg.decisions {
                let _ = writeln!(out, "| {k} | {v} |");
            }
            if !agg.mi_goodput_avgs.is_empty() {
                let _ = writeln!(
                    out,
                    "\nMI-measured goodput avg {:.2} Mbps, loss rate avg {:.4}",
                    mean(&agg.mi_goodput_avgs),
                    mean(&agg.mi_loss_avgs),
                );
            }
        }

        let _ = writeln!(out);
        let _ = writeln!(out, "### Losses, recovery and faults");
        let _ = writeln!(out);
        let (mut sack, mut rtos, mut reinj) = (0, 0, 0);
        for sub in agg.subflows.values() {
            sack += sub.sack_losses;
            rtos += sub.rtos;
            reinj += sub.reinjections;
        }
        let _ = writeln!(
            out,
            "subflow totals: {sack} SACK losses, {rtos} RTOs, {reinj} reinjections"
        );
        if !agg.links.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "| link | MB thru | overflow | random | burst | outage | reorder | dup | max queue B |"
            );
            let _ = writeln!(
                out,
                "|-----:|--------:|---------:|-------:|------:|-------:|--------:|----:|------------:|"
            );
            for (link, l) in &agg.links {
                let _ = writeln!(
                    out,
                    "| {link} | {:.1} | {} | {} | {} | {} | {} | {} | {} |",
                    l.enq_bytes as f64 / 1e6,
                    l.drop_overflow,
                    l.drop_random,
                    l.drop_burst,
                    l.drop_outage,
                    l.reordered,
                    l.duplicated,
                    l.queue_bytes_max,
                );
            }
        }

        // RTT summary per subflow (median of per-bin p50s, worst p99).
        let any_rtt = agg.subflows.values().any(|s| !s.rtt_p50s.is_empty());
        if any_rtt {
            let _ = writeln!(out);
            let _ = writeln!(out, "### RTT (µs)");
            let _ = writeln!(out);
            let _ = writeln!(out, "| conn | subflow | median bin p50 | worst bin p99 |");
            let _ = writeln!(out, "|-----:|--------:|---------------:|--------------:|");
            for (&(conn, subflow), sub) in &agg.subflows {
                if sub.rtt_p50s.is_empty() {
                    continue;
                }
                let mut p50s = sub.rtt_p50s.clone();
                // The parser rejects non-finite values, but keep the sort
                // total anyway: a report renderer must never panic.
                p50s.sort_by(f64::total_cmp);
                let _ = writeln!(
                    out,
                    "| {conn} | {subflow} | {:.0} | {:.0} |",
                    p50s[p50s.len() / 2],
                    sub.rtt_p99_max,
                );
            }
        }

        let _ = writeln!(out);
        let _ = writeln!(out, "### Check violations");
        let _ = writeln!(out);
        if agg.checks.is_empty() {
            let _ = writeln!(out, "none");
        } else {
            let _ = writeln!(out, "| invariant | count |");
            let _ = writeln!(out, "|:----------|------:|");
            for (k, v) in &agg.checks {
                let _ = writeln!(out, "| {k} | {v} |");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_rows_parse() {
        let row = parse_jsonl_row(
            "{\"t_ns\":1000000000,\"run\":3,\"scope\":\"subflow\",\"conn\":1,\
             \"subflow\":0,\"acks\":2,\"goodput_mbps\":0.024}",
        )
        .unwrap();
        assert_eq!(row.t_ns, 1_000_000_000);
        assert_eq!(row.run, 3);
        assert_eq!(row.scope, "subflow");
        assert_eq!(row.count("acks"), 2);
        assert_eq!(row.num("goodput_mbps"), Some(0.024));
        let check = parse_jsonl_row(
            "{\"t_ns\":5,\"run\":0,\"scope\":\"check\",\"invariant\":\"x\",\"count\":2}",
        )
        .unwrap();
        assert_eq!(check.label("invariant"), Some("x"));
        assert!(parse_jsonl_row("not json").is_err());
        assert!(parse_jsonl_row("{\"t_ns\":oops,\"scope\":\"x\"}").is_err());
    }

    #[test]
    fn non_finite_values_are_malformed_not_data() {
        // A NaN/inf goodput would otherwise poison the Jain index, the
        // per-subflow mean, and the sparkline minimum for the whole run.
        for bad in ["NaN", "inf", "-inf", "Infinity"] {
            let line = format!(
                "{{\"t_ns\":1000000000,\"run\":0,\"scope\":\"subflow\",\
                 \"conn\":0,\"subflow\":0,\"goodput_mbps\":{bad}}}"
            );
            let err = parse_jsonl_row(&line).unwrap_err();
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
        // And the whole-document path reports it as a malformed stream.
        let doc = "{\"t_ns\":1000000000,\"run\":0,\"scope\":\"subflow\",\
                   \"conn\":0,\"subflow\":0,\"goodput_mbps\":NaN}\n";
        let err = parse(doc).unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("non-finite"),
            "{err}"
        );
    }

    #[test]
    fn backwards_bin_timestamps_are_rejected_per_run() {
        // Equal timestamps (several scopes per bin) and a fresh run
        // restarting at an earlier time are both legal shapes.
        let ok = "\
{\"t_ns\":1000000000,\"run\":0,\"scope\":\"subflow\",\"conn\":0,\"subflow\":0,\"goodput_mbps\":1.0}
{\"t_ns\":1000000000,\"run\":0,\"scope\":\"link\",\"link\":0,\"enq_bytes\":1}
{\"t_ns\":2000000000,\"run\":0,\"scope\":\"subflow\",\"conn\":0,\"subflow\":0,\"goodput_mbps\":1.0}
{\"t_ns\":1000000000,\"run\":1,\"scope\":\"subflow\",\"conn\":0,\"subflow\":0,\"goodput_mbps\":1.0}
";
        assert_eq!(parse(ok).unwrap().len(), 4);

        // A backwards step within one run is a corrupted stream.
        let bad = "\
{\"t_ns\":2000000000,\"run\":0,\"scope\":\"subflow\",\"conn\":0,\"subflow\":0,\"goodput_mbps\":1.0}
{\"t_ns\":1000000000,\"run\":0,\"scope\":\"subflow\",\"conn\":0,\"subflow\":0,\"goodput_mbps\":1.0}
";
        let err = parse(bad).unwrap_err();
        assert!(err.contains("line 2") && err.contains("backwards"), "{err}");
    }

    #[test]
    fn report_renders_and_rejects_bad_input() {
        let dir = std::env::temp_dir().join(format!("mpcc-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Two conns over two bins, one link, one violation.
        let doc = "\
{\"t_ns\":1000000000,\"run\":0,\"scope\":\"subflow\",\"conn\":0,\"subflow\":0,\"acked_bytes\":125000,\"goodput_mbps\":1.0,\"sack_losses\":1,\"rtos\":0,\"rtt_count\":4,\"rtt_p50_us\":20000.0,\"rtt_p99_us\":30000.0}
{\"t_ns\":1000000000,\"run\":0,\"scope\":\"subflow\",\"conn\":1,\"subflow\":0,\"acked_bytes\":375000,\"goodput_mbps\":3.0}
{\"t_ns\":1000000000,\"run\":0,\"scope\":\"conn\",\"conn\":0,\"mi_started\":2,\"mi_completed\":1,\"act_decided\":1,\"mi_goodput_mbps_avg\":1.5,\"mi_loss_rate_avg\":0.01}
{\"t_ns\":1000000000,\"run\":0,\"scope\":\"link\",\"link\":0,\"enq_bytes\":500000,\"drop_overflow\":2,\"queue_bytes_max\":9000}
{\"t_ns\":1000000000,\"run\":0,\"scope\":\"check\",\"invariant\":\"demo\",\"count\":2}
{\"t_ns\":2000000000,\"run\":0,\"scope\":\"subflow\",\"conn\":0,\"subflow\":0,\"goodput_mbps\":2.0}
{\"t_ns\":2000000000,\"run\":0,\"scope\":\"subflow\",\"conn\":1,\"subflow\":0,\"goodput_mbps\":2.0}
";
        let path = dir.join("metrics.jsonl");
        std::fs::write(&path, doc).unwrap();
        let md = render(&path).unwrap();
        assert!(md.contains("# MPCC flight report"), "{md}");
        assert!(md.contains("## Run 0 — 2 s span, 1.000 s bins"), "{md}");
        assert!(md.contains("| 0 | 0 | 2 | 1.50 | 1.00 | 2.00 |"), "{md}");
        assert!(md.contains("Fairness over time"), "{md}");
        // Bin 1 is 1.0 vs 3.0 (jain 0.8), bin 2 perfectly fair.
        assert!(md.contains("worst bin 0.8000"), "{md}");
        assert!(md.contains("| act_decided | 1 |"), "{md}");
        assert!(md.contains("1 SACK losses"), "{md}");
        assert!(md.contains("| demo | 2 |"), "{md}");
        assert!(md.contains("| 0 | 0 | 20000 | 30000 |"), "{md}");

        // Empty and malformed streams are errors, not hollow reports.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(render(&empty).unwrap_err().contains("empty"));
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"t_ns\":1}\ngarbage\n").unwrap();
        assert!(render(&bad).is_err());
        assert!(render(&dir.join("missing.jsonl")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
