//! The admission benchmark.
//!
//! ```text
//! admitbench --workload <commit-small|commit-large|emp-mixed> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! Starts a `ccpi-server` in a child process on loopback TCP, sets it up
//! and warms it up, drives the workload for `--seconds` (one closed-loop
//! writer, one open-loop reader at 200 reads/s), then checks every
//! verdict and the recovered store against a serial twin. With `--trace
//! 0` it prints the end-to-end metrics; with `--trace 1` it repeats the
//! run with client spans and a traced twin replay and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object. Any failed correctness check exits non-zero without it.
//!
//! Run it from the repository root; scratch stores live under
//! `.bench_runs/` there and are removed after each run, and a traced
//! run writes its spans to `.bench_runs/traces/`.

mod load;
mod server;
mod stats;
mod trace;
mod twin;
mod workload;

use load::{Reader, ReaderRun, Writer, WriterRun};
use server::{ServerProcess, ServerReport};
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Spans;
use twin::{Layers, Replay};
use workload::Workload;

/// Set-ups per untraced phase; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Reads the reader makes while warming up.
const WARMUP_READS: usize = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        _ => Options::parse(&args).and_then(|o| bench(&o)),
    };
    if let Err(e) = result {
        eprintln!("admitbench: {e}");
        std::process::exit(1);
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    wrong_expectation: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_workload(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse().map_err(|_| format!("bad {name} {v:?}"))
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let seconds: f64 = parse_num(args, "--seconds")?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(Options {
            workload: parse_workload(args)?,
            seed: parse_num(args, "--seed")?,
            seconds,
            trace: match flag(args, "--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(t) => return Err(format!("bad --trace {t:?}")),
            },
            wrong_expectation: args.iter().any(|a| a == "--wrong-expectation"),
        })
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--dir").ok_or("missing --dir")?;
    server::child_main(
        parse_workload(args)?,
        parse_num(args, "--seed")?,
        Path::new(dir),
    )
}

/// A scratch directory removed (with everything in it) when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One timed phase: set-up, load, and the twin check.
struct Phase {
    setup_s: Vec<f64>,
    /// Updates per submit.
    batch: usize,
    writer: WriterRun,
    reader: ReaderRun,
    /// From the start of the timed phase to its last ack.
    elapsed_s: f64,
    server: ServerReport,
    layers: Layers,
    digest: u64,
    /// When the timed phase started.
    start: Instant,
}

impl Phase {
    fn admit_ms(&self) -> Vec<f64> {
        self.writer.samples.iter().map(|s| s.ms).collect()
    }

    /// Acknowledged updates per second of the timed phase.
    fn admit_per_s(&self) -> f64 {
        (self.writer.samples.len() * self.batch) as f64 / self.elapsed_s
    }

    fn attempted(&self) -> u64 {
        (self.writer.samples.len() + self.reader.latencies_ms.len()) as u64
    }

    fn failed(&self) -> u64 {
        self.reader.failed
    }
}

/// Sets the server up (`setup_reps` times, keeping the last), runs the
/// timed phase, stops the server and checks everything it answered.
fn phase(o: &Options, runs: &Path, setup_reps: usize, traced: bool) -> Result<Phase, String> {
    let w = o.workload;
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut live = None;
    for rep in 0..setup_reps {
        let dir = ScratchDir(runs.join(format!("server-{rep}")));
        let start = Instant::now();
        let server = ServerProcess::start(w, o.seed, &dir.0)?;
        let mut writer = Writer::connect(server.addr, w, o.seed);
        let mut reader = Reader::connect(server.addr, w);
        writer.warm_up(w.warmup_submits())?;
        reader.warm_up(WARMUP_READS)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 == setup_reps {
            live = Some((dir, server, writer, reader));
        } else {
            drop((writer, reader));
            server.stop()?;
        }
    }
    let (dir, server, mut writer, mut reader) = live.ok_or("no set-up ran")?;

    let start = Instant::now();
    let until = start + Duration::from_secs_f64(o.seconds);
    let (writer_run, reader_run) = std::thread::scope(|s| {
        let reading = s.spawn(|| load::run_reader(&mut reader, start, until, traced));
        let written = load::run_writer(&mut writer, start, until, traced);
        let read = reading.join().map_err(|_| "reader panicked".to_string());
        (written, read.and_then(|r| r))
    });
    let (writer_run, reader_run) = (writer_run?, reader_run?);
    let elapsed_s = writer_run
        .samples
        .last()
        .ok_or("no submit completed")?
        .done_s;
    drop(reader);
    let report = server.stop()?;

    // The twin replays each request as one commit group, which is exact
    // only if the server grouped them the same way.
    let updates: usize = writer.log.iter().map(|r| r.updates.len()).sum();
    if report.groups != writer.log.len() as u64 || report.submitted != updates as u64 {
        return Err(format!(
            "server ran {} commit groups of {} updates for {} requests of {updates}",
            report.groups,
            report.submitted,
            writer.log.len()
        ));
    }
    let twin_dir = ScratchDir(runs.join("twin"));
    let replay = Replay {
        traced,
        wrong_expectation: o.wrong_expectation,
    };
    let layers = twin::check(w, o.seed, &writer.log, &dir.0, &twin_dir.0, &replay)?;
    Ok(Phase {
        setup_s,
        batch: w.batch(),
        elapsed_s,
        writer: writer_run,
        reader: reader_run,
        server: report,
        layers,
        digest: writer.digest,
        start,
    })
}

fn bench(o: &Options) -> Result<(), String> {
    let base = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_runs");
    let runs = ScratchDir(base.join(format!(
        "{}-{}-{}",
        o.workload.name(),
        o.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&runs.0).map_err(|e| format!("create {}: {e}", runs.0.display()))?;

    let result = measure(o, &runs.0, &base);
    drop(runs);
    std::fs::remove_dir(&base).ok(); // only if nothing else is left
    result
}

fn measure(o: &Options, runs: &Path, base: &Path) -> Result<(), String> {
    let plain = phase(o, runs, SETUP_REPS, false)?;
    let mut metrics = Vec::new();
    let (attempted, failed);
    if o.trace {
        let traced = phase(o, runs, 1, true)?;
        layer_metrics(&plain, &traced, &mut metrics);
        attempted = plain.attempted() + traced.attempted();
        failed = plain.failed() + traced.failed();
        let traces = base.join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
        let mut spans = Spans::default();
        spans.append(traced.writer.spans);
        spans.append(traced.reader.spans);
        spans.append(traced.layers.spans);
        let path = traces.join(format!("{}-{}.tsv", o.workload.name(), o.seed));
        spans
            .write(&path, traced.start)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    } else {
        end_to_end_metrics(&plain, &mut metrics)?;
        attempted = plain.attempted();
        failed = plain.failed();
    }

    println!(
        "admitbench workload={} seed={} seconds={} trace={} stream_digest={:016x}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        plain.digest
    );
    let mut json = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        println!("{name:<36} {value:>16.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    Ok(())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end_metrics(p: &Phase, m: &mut Metrics) -> Result<(), String> {
    let mut read = p.reader.latencies_ms.clone();
    let mut setup = p.setup_s.clone();
    let read_p50 = quantile(&mut read, 0.50).ok_or("no read in the timed phase")?;
    m.push(("admit_per_s", p.admit_per_s(), "updates/s"));
    m.push(("read_p50_ms", read_p50, "ms"));
    m.push((
        "ok_frac",
        1.0 - p.failed() as f64 / p.attempted() as f64,
        "fraction",
    ));
    m.push(("setup_s", median(&mut setup), "s"));
    m.push(("peak_rss_mb", p.server.peak_rss_kib as f64 / 1024.0, "MiB"));
    Ok(())
}

fn layer_metrics(plain: &Phase, t: &Phase, m: &mut Metrics) {
    let l = &t.layers;
    let n = l.updates.max(1) as f64;
    let mut group = l.spans.durations_us("durable.process_updates_grouped");
    let mut publish = l.spans.durations_us("storage.publish");
    let mut local = l.local_test_us.clone();
    let pct = |xs: &mut Vec<f64>, q: f64| quantile(xs, q).unwrap_or(0.0);
    m.push(("durable.group_us.p50", pct(&mut group, 0.50), "us"));
    m.push(("durable.group_us.p99", pct(&mut group, 0.99), "us"));
    let durable_self = l.spans.self_us("durable.process_updates_grouped");
    m.push((
        "durable.self_us_per_update",
        durable_self.iter().sum::<f64>() / n,
        "us",
    ));
    m.push(("durable.wal_bytes_per_update", l.wal_bytes as f64 / n, "B"));
    m.push(("durable.recover_ms", l.recover_ms, "ms"));
    m.push(("storage.publish_us.p50", pct(&mut publish, 0.50), "us"));
    m.push(("storage.publish_us.p99", pct(&mut publish, 0.99), "us"));
    m.push(("storage.apply_pinned_us", l.apply_pinned_us, "us"));
    m.push(("storage.apply_unpinned_us", l.apply_unpinned_us, "us"));
    m.push(("manager.check_us_per_update", l.stage_total_us / n, "us"));
    m.push((
        "manager.settled_before_stage4_frac",
        l.settled_before_stage4 as f64 / l.outcomes.max(1) as f64,
        "fraction",
    ));
    m.push(("manager.full_checks", l.full_checks as f64, "count"));
    m.push((
        "manager.unknown_frac",
        l.unknown_updates as f64 / n,
        "fraction",
    ));
    m.push(("pipeline.subsumption_us", l.subsumption_us / n, "us"));
    m.push(("pipeline.prefilter_us", l.prefilter_us / n, "us"));
    m.push(("rewrite.pretest_us", l.pretest_us / n, "us"));
    m.push(("rewrite.independence_us", l.independence_us / n, "us"));
    m.push((
        "localtest.local_test_us",
        local.iter().sum::<f64>() / n,
        "us",
    ));
    m.push(("localtest.local_test_us.p99", pct(&mut local, 0.99), "us"));
    m.push(("datalog.stage4_us", l.stage4_us / n, "us"));
    m.push((
        "datalog.delta_tuples_joined",
        l.delta_tuples_joined as f64,
        "count",
    ));
    // Nearest-rank quantiles over the whole untraced timed phase. The
    // submit median sits between update kinds of very different cost on
    // `emp-mixed` and the tails vary with the host, so none of these
    // holds an end-to-end bound.
    let mut admit = plain.admit_ms();
    let mut read = plain.reader.latencies_ms.clone();
    m.push(("client.admit_p50_ms", pct(&mut admit, 0.50), "ms"));
    m.push(("client.admit_p99_ms", pct(&mut admit, 0.99), "ms"));
    m.push(("client.read_p99_ms", pct(&mut read, 0.99), "ms"));
    m.push(("loadgen.read_late_ms", t.reader.max_late_ms, "ms"));
    m.push((
        "loadgen.failed_frac",
        t.failed() as f64 / t.attempted() as f64,
        "fraction",
    ));
    m.push((
        "trace.overhead_frac",
        1.0 - t.admit_per_s() / plain.admit_per_s(),
        "fraction",
    ));
}
