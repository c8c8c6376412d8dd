//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-ingest|ip-mixed|durable-sharded> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates the workload's input from the seed, runs episodes of it for
//! about `--seconds` seconds, checks every episode against the oracle and
//! prints each metric by name with its unit.  The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.  A run record (host fingerprint,
//! seed, fsync policy, input characterisation, every metric) and, when
//! tracing, the spans with their self times are written under `--out`
//! (default `.perfbench_out`), which also holds the temporary stores.
//! The exit code is 1 when any check failed, 2 on bad arguments.
//! `perfbench --list-metrics` prints the metric catalogue.
//!
//! The engine is driven only through public calls into `hier::matrix`,
//! `hier::sharded`, `hier::persist`, `graphblas::reader` and
//! `graphblas::algo`, each timed from outside.  The paper-ingest and
//! ip-mixed loads run on this one thread; durable-sharded adds the
//! engine's one shard worker.

mod harness;
mod host;
mod input;
mod metrics;
mod oracle;
mod workloads;

use harness::{beyond, Recorder};
use host::{json_str, Fingerprint};
use metrics::{InputFacts, Metric, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Sizes, Workload, FSYNC};

const USAGE: &str = "usage: perfbench --workload <paper-ingest|ip-mixed|durable-sharded> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
       perfbench --list-metrics";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".perfbench_out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// One finished run: the recorder, every computed metric and the facts
/// the run record carries.
struct Report {
    rec: Recorder,
    metrics: std::collections::BTreeMap<&'static str, metrics::Value>,
    spans: std::collections::BTreeMap<&'static str, harness::SpanTotals>,
    episodes: usize,
    facts: InputFacts,
}

impl Report {
    fn correct(&self) -> bool {
        self.rec.failed == 0 && self.metrics.values().all(|m| m.v.is_finite())
    }

    /// The result line: `table` decides which metrics it carries.
    fn result_json(&self, table: &[Metric]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.rec.attempted.max(1),
            self.rec.failed
        );
        for (i, m) in table.iter().enumerate() {
            let v = self.metrics[m.name].v;
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                if v.is_finite() { v } else { 0.0 },
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn run(args: &Args, sizes: &Sizes) -> Report {
    let mut rec = Recorder::new();
    let summary = workloads::run(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
        &args.out,
        sizes,
        &mut rec,
    );
    let facts = InputFacts {
        gen_s: summary.gen_s,
        distinct_share: summary.oracle.distinct_share(),
        max_out_degree: summary.oracle.max_out_degree(),
        max_in_degree: summary.oracle.max_in_degree(),
    };
    let spans = rec.tr.totals();
    let metrics = metrics::compute(&rec, &facts, &spans);
    Report {
        rec,
        metrics,
        spans,
        episodes: summary.episodes,
        facts,
    }
}

/// Human-readable lines: every metric with its unit, the number of samples
/// behind it and, for a p99, how many samples lie beyond it.
fn print_metrics(r: &Report) {
    for (title, table) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("# {title} metrics");
        for m in table {
            let value = r.metrics[m.name];
            let mut line = format!("{:<38} {:>18} {}", m.name, value.v, m.unit);
            match value.n {
                Some(n) if m.name.contains("p99") => {
                    let _ = write!(line, "  (n={n}, beyond p99: {})", beyond(n, 0.99));
                }
                Some(n) => {
                    let _ = write!(line, "  (n={n})");
                }
                None => {}
            }
            println!("{line}");
        }
    }
    let ratio = r.rec.failed as f64 / r.rec.attempted.max(1) as f64;
    println!("{:<38} {:>18} -", "op_failure_ratio", ratio);
    if !r.spans.is_empty() {
        println!("# span self times (traced episodes)");
        for (name, t) in &r.spans {
            println!(
                "{:<38} count={:<8} total_ms={:<14.3} self_ms={:.3}",
                name,
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            );
        }
    }
    for f in &r.rec.failures {
        println!("FAILED {f}");
    }
}

fn run_record(args: &Args, r: &Report, host: &Fingerprint) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"episodes\": {}, ",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        r.episodes
    );
    let fsync = match args.workload {
        Workload::DurableSharded => FSYNC.label(),
        _ => format!("{} (closing checkpoint only)", FSYNC.label()),
    };
    let _ = write!(
        s,
        "\"fsync_policy\": {}, \"host\": {{\"available_parallelism\": {}, \"cpu_model\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}}}, ",
        json_str(&fsync),
        host.parallelism,
        json_str(&host.cpu_model),
        json_str(&host.loadavg_start),
        json_str(&host.loadavg_end)
    );
    let _ = write!(
        s,
        "\"workload_facts\": {{\"gen_s\": {}, \"distinct_share\": {}, \"max_out_degree\": {}, \"max_in_degree\": {}}}, ",
        r.facts.gen_s, r.facts.distinct_share, r.facts.max_out_degree, r.facts.max_in_degree
    );
    let _ = write!(
        s,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], ",
        r.correct(),
        r.rec.attempted,
        r.rec.failed,
        r.rec
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Per-episode values show drift within the run.
    let episodes: Vec<String> = r
        .rec
        .ep
        .iter()
        .map(|(name, v)| {
            let vals: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("\"{name}\": [{}]", vals.join(", "))
        })
        .collect();
    let _ = write!(
        s,
        "\"per_episode\": {{{}}}, \"metrics\": {{",
        episodes.join(", ")
    );
    for (i, m) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
        let value = r.metrics[m.name];
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
            if i == 0 { "" } else { ", " },
            m.name,
            if value.v.is_finite() { value.v } else { 0.0 },
            m.unit,
            value.n.map_or("null".into(), |n| n.to_string())
        );
    }
    s.push_str("}}");
    s
}

fn trace_file(r: &Report) -> String {
    let mut s = String::from("{\"self_times\": {");
    for (i, (name, t)) in r.spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
            if i == 0 { "" } else { ", " },
            name,
            t.count,
            t.total_us,
            t.self_us
        );
    }
    s.push_str("}, \"counter_snapshots\": [");
    for (i, (label, counters)) in r.rec.snapshots.iter().enumerate() {
        let body: Vec<String> = counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = write!(
            s,
            "{}{{\"at\": {}, {}}}",
            if i == 0 { "" } else { ", " },
            json_str(label),
            body.join(", ")
        );
    }
    s.push_str("], \"spans\": ");
    s.push_str(&r.rec.tr.spans_json());
    s.push('}');
    s
}

/// The metric catalogue, one JSON object per line.
fn list_metrics() {
    for (kind, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for m in table {
            println!(
                "{{\"kind\": \"{kind}\", \"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"why\": {}}}",
                m.name,
                m.unit,
                metrics::better(m.name),
                json_str(m.why)
            );
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--list-metrics") {
        list_metrics();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut host = Fingerprint::capture();
    let report = run(&args, &Sizes::full());
    host.finish();

    println!(
        "# perfbench workload={} seed={} seconds={} trace={} episodes={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.episodes
    );
    print_metrics(&report);
    let record = run_record(&args, &report, &host);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut written = std::fs::write(args.out.join(format!("run-{stem}.json")), &record);
    if args.trace {
        written = written.and(std::fs::write(
            args.out.join(format!("trace-{stem}.json")),
            trace_file(&report),
        ));
    }
    if let Err(e) = written {
        eprintln!("perfbench: writing the run record: {e}");
    }
    println!("# run record: {record}");
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.result_json(table));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(w: Workload, trace: bool, out: &std::path::Path) -> Args {
        Args {
            workload: w,
            seed: 11,
            seconds: 1,
            trace,
            out: out.to_path_buf(),
        }
    }

    /// A short run of each workload, traced and untraced, passes its
    /// oracle and yields every metric of both tables.
    #[test]
    fn short_runs_print_every_metric() {
        let out = std::env::temp_dir().join(format!("perfbench-selftest-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        for w in Workload::ALL {
            for trace in [false, true] {
                let a = args(w, trace, &out);
                let r = run(&a, &Sizes::tiny());
                assert!(r.correct(), "{}: {:?}", w.name(), r.rec.failures);
                assert!(r.episodes >= 2);
                let table = if trace { PER_LAYER } else { END_TO_END };
                let line = r.result_json(table);
                for m in table {
                    let entry = format!("\"{}\": {{\"value\": ", m.name);
                    assert!(line.contains(&entry), "{} missing from {line}", m.name);
                    assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
                }
                for m in END_TO_END {
                    assert!(r.metrics[m.name].v > 0.0, "{} is 0 on {}", m.name, w.name());
                }
                if trace {
                    assert!(r.spans.contains_key("bench.episode"));
                    assert!(r.metrics["self_share.bench"].v > 0.0);
                }
            }
        }
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn arguments_parse() {
        let a = parse_args(
            [
                "--workload",
                "ip-mixed",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::IpMixed, 3, 10, true)
        );
        assert!(parse_args(["--workload", "nope"].into_iter().map(String::from)).is_err());
        assert!(parse_args(["--seed", "3"].into_iter().map(String::from)).is_err());
    }
}
