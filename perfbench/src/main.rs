//! End-to-end and per-layer benchmark of `vmplace serve`.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve_mix|resolve_repair|exact_milp|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Builds the release `vmplace` binary from the repository, serves each
//! workload on it over loopback TCP, drives it from closed-loop clients,
//! checks every answer, and prints every metric by name and unit. The
//! last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is non-zero on any failed request or wrong answer.
//! See `perfbench/README.md` for the metrics, workloads and layers.

mod check;
mod layers;
mod load;
mod server;
mod stats;
mod workload;

use check::{Checker, Digest};
use load::{run_phase, ConnRun, SpanLog, StopRule, Ticker};
use server::{ServerProc, Stats};
use stats::{mean, median, percentile, windowed_rates};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vmplace_model::AllocRequest;
use vmplace_net::wire::PROTOCOL_V2;
use vmplace_net::Client;
use workload::{us, Workload, CONNECTIONS, NAMES};

/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Pings timed on the idle server for `net.ping_rtt_us`.
const PINGS: usize = 200;
/// Fewest latency samples per timed phase, so that at least ten lie
/// beyond the reported p99.
const MIN_SAMPLES: usize = 1000;
/// Longest a timed phase may overrun `--seconds` to reach `MIN_SAMPLES`.
const OVERRUN_LIMIT: Duration = Duration::from_secs(60);
/// The timed phase is cut into windows this long; `throughput_rps` and
/// `cpu_ms_per_req` are medians over them, so that a burst of load from
/// elsewhere on the host moves a few windows, not the figure.
const WINDOW: Duration = Duration::from_secs(1);

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("mean_min_yield", "yield"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 31] = [
    ("net.ping_rtt_us", "us"),
    ("net.client_submit_us", "us"),
    ("net.client_recv_us", "us"),
    ("net.encode_req_us", "us"),
    ("net.decode_req_us", "us"),
    ("net.encode_resp_us", "us"),
    ("net.decode_resp_us", "us"),
    ("net.req_bytes", "bytes"),
    ("net.resp_bytes", "bytes"),
    ("net.responses_dropped", "count"),
    ("service.process_us", "us"),
    ("service.repair_us", "us"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.repair.accept_ratio", "ratio"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.engine.probes", "count"),
    ("service.unattributed_us", "us"),
    ("core.solve_us", "us"),
    ("core.probes_per_solve", "count"),
    ("lp.build_us", "us"),
    ("lp.milp_us", "us"),
    ("lp.nodes", "count"),
    ("lp.simplex_iterations", "count"),
    ("lp.refactorisations", "count"),
    ("lp.eta_folds", "count"),
    ("lp.warm_reuse_ratio", "ratio"),
    ("lp.us_per_iteration", "us"),
    ("model.apply_delta_us", "us"),
    ("model.evaluate_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Counters that repeat exactly for a given seed and build.
const GATE_COUNTERS: [(&str, &str); 5] = [
    ("probes", "service.engine.probes"),
    ("simplex_iterations", "service.lp.simplex_iterations"),
    ("refactorisations", "service.lp.refactorisations"),
    ("cache_hits", "service.cache.hits"),
    ("repair_accepts", "service.repair.accepted"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && workload::workload(&args.workload).is_none() {
        return Err(format!(
            "--workload wants one of {} or all, got `{}`",
            NAMES.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Where the machine and the build stand, printed beside the numbers.
struct Host {
    nproc: usize,
    effective: usize,
    loadavg: f64,
    commit: String,
}

impl Host {
    fn probe(root: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            effective: vmplace_obs::host::effective_parallelism(),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0.0),
            commit: commit(root).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// A run on fewer than two cores, or on a machine already busier
    /// than its cores, is flagged rather than silently published.
    fn flagged(&self) -> bool {
        self.effective < 2 || self.loadavg > self.nproc as f64
    }
}

/// The checked-out commit, read from `.git` without running git.
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

/// One workload's results.
struct Outcome {
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// Violations keyed by the request they concern, so one bad request
/// counts once however many checks it fails.
#[derive(Default)]
struct Violations {
    requests: BTreeSet<(&'static str, usize, u64)>,
    messages: Vec<String>,
}

impl Violations {
    fn add(&mut self, phase: &'static str, conn: usize, id: u64, message: String) {
        self.requests.insert((phase, conn, id));
        self.messages.push(format!("{phase}: {message}"));
    }
}

/// Checks every answer of a phase and counts its transport errors.
fn check_phase(
    phase: &'static str,
    runs: &[ConnRun],
    passes: &[Vec<Vec<AllocRequest>>],
    violations: &mut Violations,
) -> (u64, u64) {
    let mut checker = Checker::default();
    let (mut sent, mut answered) = (0, 0);
    for (conn, run) in runs.iter().enumerate() {
        for r in &run.records {
            let request = &passes[conn][r.pass][r.index];
            if let Err(e) = checker.observe(conn, request, &r.response) {
                violations.add(phase, conn, request.id, format!("connection {conn}: {e}"));
            }
        }
        answered += run.records.len() as u64;
        sent += run.records.len() as u64;
        if let Some(e) = &run.error {
            // The request in flight when the transport failed.
            sent += 1;
            violations.add(phase, conn, u64::MAX, e.clone());
        }
    }
    (sent, answered)
}

fn latencies_ms(runs: &[ConnRun]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.records.iter().map(|x| x.latency.as_secs_f64() * 1e3))
        .collect()
}

fn answered(runs: &[ConnRun]) -> usize {
    runs.iter().map(|r| r.records.len()).sum()
}

/// Starts the server `SETUP_REPS` times, timing spawn → listening →
/// handshake and one ping per connection; keeps the last one running.
fn set_up(bin: &Path, w: &Workload) -> Result<(ServerProc, Vec<Client>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    loop {
        let t0 = Instant::now();
        let server = ServerProc::spawn(bin, &w.server_args())?;
        let mut clients = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let mut c = Client::connect_with(server.addr.as_str(), PROTOCOL_V2)
                .map_err(|e| format!("connect: {e}"))?;
            c.ping("setup").map_err(|e| format!("ping: {e}"))?;
            clients.push(c);
        }
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == SETUP_REPS {
            if let Some(c) = clients.iter().find(|c| c.wire_version() != PROTOCOL_V2) {
                return Err(format!("server negotiated wire v{}", c.wire_version()));
            }
            return Ok((server, clients, times));
        }
        drop(clients);
        server.shutdown()?;
    }
}

/// Runs one workload: set-up, gate passes, the timed phase (and with
/// `traced`, a traced phase and the in-process layer replays), checks.
fn run_workload(
    w: &Workload,
    args: &Args,
    bin: &Path,
    host: &Host,
    span_dir: &Path,
) -> Result<Outcome, String> {
    let (server, mut clients, setups) = set_up(bin, w)?;
    let mut violations = Violations::default();

    let mut ping_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        clients[0].ping("rtt").map_err(|e| format!("ping: {e}"))?;
        ping_us.push(us(t0.elapsed()));
    }

    // Gate passes: warm-up, answer digest, deterministic counters.
    let mut passes: Vec<Vec<Vec<AllocRequest>>> = (0..CONNECTIONS)
        .map(|c| {
            (0..w.gate_passes)
                .map(|p| w.pass(args.seed, c, p))
                .collect()
        })
        .collect();
    let before_gate = Stats::fetch(&mut clients[0])?;
    let gate_order = w.gate_passes;
    let (gate, gate_wall) = run_phase(
        &mut clients,
        &passes,
        &|| Box::new(0..gate_order),
        None,
        None,
        None,
    );
    let after_gate = Stats::fetch(&mut clients[0])?;
    let mut digest = Digest::default();
    gate.iter()
        .flat_map(|r| &r.records)
        .for_each(|r| digest.add(&r.response));
    let gate_counters: Vec<(&str, u64)> = GATE_COUNTERS
        .iter()
        .map(|&(k, c)| {
            (
                k,
                after_gate.counter(c).saturating_sub(before_gate.counter(c)),
            )
        })
        .collect();

    // Timed passes: enough distinct traffic for twice the expected run,
    // cycled if the server is faster still.
    let pass_len = w.trace.requests * CONNECTIONS;
    let rate = answered(&gate) as f64 / gate_wall.as_secs_f64().max(1e-3);
    let timed_passes =
        ((2.0 * rate * args.seconds as f64 / pass_len as f64).ceil() as usize).clamp(2, 2000);
    for (c, conn_passes) in passes.iter_mut().enumerate() {
        conn_passes.extend((0..timed_passes).map(|p| w.pass(args.seed, c, w.gate_passes + p)));
    }
    let first = w.gate_passes;
    let total = first + timed_passes;
    let timed_order =
        move || -> Box<dyn Iterator<Item = usize>> { Box::new((first..total).cycle()) };
    // A traced run splits its time between an untraced and a traced
    // phase, so it lasts about as long as an untraced run.
    let phase = if args.trace {
        Duration::from_secs(args.seconds).div_f64(2.0)
    } else {
        Duration::from_secs(args.seconds)
    };
    let stop_rule = || {
        let now = Instant::now();
        StopRule {
            deadline: now + phase,
            min_records: MIN_SAMPLES.div_ceil(CONNECTIONS),
            hard_limit: now + phase + OVERRUN_LIMIT,
        }
    };

    let mut cuts: Vec<(Instant, Duration)> = Vec::new();
    let mut cpu_error = None;
    let mut tick = |t: Instant| match server.cpu_time() {
        Ok(cpu) => cuts.push((t, cpu)),
        Err(e) => cpu_error = Some(e),
    };
    let (timed, wall) = run_phase(
        &mut clients,
        &passes,
        &timed_order,
        Some(stop_rule()),
        None,
        Some(Ticker {
            every: WINDOW,
            tick: &mut tick,
        }),
    );
    if let Some(e) = cpu_error {
        return Err(e);
    }
    let after_timed = Stats::fetch(&mut clients[0])?;

    let traced = if args.trace {
        let epoch = Instant::now();
        let (runs, traced_wall) = run_phase(
            &mut clients,
            &passes,
            &timed_order,
            Some(stop_rule()),
            Some(epoch),
            None,
        );
        let after_traced = Stats::fetch(&mut clients[0])?;
        Some((epoch, runs, traced_wall, after_traced))
    } else {
        None
    };
    let peak_rss_mb = server.peak_rss_mb()?;
    let io_backend = server.io_backend.clone();
    drop(clients);
    server.shutdown()?;

    // Checks, off the timed path.
    let (mut attempted, mut answered_total) = (0, 0);
    let mut phases: Vec<(&'static str, &[ConnRun])> = vec![("gate", &gate), ("timed", &timed)];
    if let Some((_, runs, _, _)) = &traced {
        phases.push(("traced", runs));
    }
    for (phase, runs) in phases {
        let (sent, ok) = check_phase(phase, runs, &passes, &mut violations);
        attempted += sent;
        answered_total += ok;
    }

    let lat = latencies_ms(&timed);
    let p50 = percentile(&lat, 0.5).ok_or("too few latency samples for p50")?;
    let p99 = percentile(&lat, 0.99).ok_or_else(|| {
        format!(
            "{} latency samples: too few for ten beyond p99 (raise --seconds)",
            lat.len()
        )
    })?;
    let whole_rps = answered(&timed) as f64 / wall.as_secs_f64();
    let t0 = cuts[0].0;
    let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let cut_secs: Vec<(f64, f64)> = cuts
        .iter()
        .map(|&(t, cpu)| (since(t), cpu.as_secs_f64()))
        .collect();
    let done: Vec<f64> = timed
        .iter()
        .flat_map(|r| &r.records)
        .map(|r| since(r.done))
        .collect();
    let (throughput, cpu_ms) = windowed_rates(&cut_secs, &done, WINDOW.as_secs_f64() / 2.0);
    let yields: Vec<f64> = gate
        .iter()
        .flat_map(|r| &r.records)
        .filter_map(|r| r.response.min_yield())
        .collect();
    let end_to_end = vec![
        ("latency_p50_ms", p50),
        ("latency_p99_ms", p99),
        ("throughput_rps", throughput),
        ("cpu_ms_per_req", cpu_ms),
        ("mean_min_yield", mean(&yields)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb),
    ];

    let mut per_layer = Vec::new();
    let mut spans_path = String::new();
    let mut span_count = 0;
    if let Some((epoch, runs, traced_wall, after_traced)) = traced {
        let mut log = SpanLog::new(epoch);
        let mut layer_violations = Vec::new();
        let layer_values = layers::measure(w, &passes, &gate, &mut log, &mut layer_violations);
        for (conn, id, message) in layer_violations {
            // A layer disagreeing about a gate request fails that request.
            violations.add("gate", conn, id, message);
        }
        let value = |name: &str| -> f64 {
            layer_values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        let records = || runs.iter().flat_map(|r| &r.records);
        let delta = |c: &str| {
            after_traced
                .counter(c)
                .saturating_sub(after_timed.counter(c)) as f64
        };
        let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
        let gate_latency_us = mean(&latencies_ms(&gate)) * 1e3;
        let codec_us = value("net.encode_req_us")
            + value("net.decode_req_us")
            + value("net.encode_resp_us")
            + value("net.decode_resp_us");
        let traced_rps = answered(&runs) as f64 / traced_wall.as_secs_f64();
        per_layer.extend([
            ("net.ping_rtt_us", median(&ping_us)),
            (
                "net.client_submit_us",
                mean(&records().map(|r| us(r.submit)).collect::<Vec<_>>()),
            ),
            (
                "net.client_recv_us",
                mean(&records().map(|r| us(r.recv)).collect::<Vec<_>>()),
            ),
            (
                "net.responses_dropped",
                after_traced.counter("net.responses_dropped") as f64,
            ),
            (
                "service.cache.hit_ratio",
                ratio(delta("service.cache.hits"), delta("service.cache.misses")),
            ),
            (
                "service.repair.accept_ratio",
                ratio(
                    delta("service.repair.accepted"),
                    delta("service.repair.fallback"),
                ),
            ),
            (
                "service.queue_wait_p50_us",
                after_traced.histogram("service.queue_wait_us", "p50_us"),
            ),
            (
                "service.queue_wait_p99_us",
                after_traced.histogram("service.queue_wait_us", "p99_us"),
            ),
            ("service.engine.probes", gate_counters[0].1 as f64),
            (
                "service.unattributed_us",
                gate_latency_us - codec_us - value("service.process_us"),
            ),
            ("trace.overhead_pct", (whole_rps / traced_rps - 1.0) * 100.0),
        ]);
        per_layer.extend(layer_values.iter().copied());
        for run in runs {
            if let Some(spans) = run.spans {
                log.append(spans);
            }
        }
        span_count = log.spans.len();
        spans_path = write_spans(span_dir, w.name, args.seed, &log)?;
        per_layer.sort_by_key(|(name, _)| PER_LAYER.iter().position(|(n, _)| n == name));
    }

    // Report.
    let failed = violations.requests.len() as u64;
    for m in violations.messages.iter().take(20) {
        eprintln!("VIOLATION {}: {m}", w.name);
    }
    let counters: String = gate_counters
        .iter()
        .map(|(k, v)| format!(" {k}={v}"))
        .collect();
    println!(
        "gate {} seed={} digest={}{counters} requests={}",
        w.name,
        args.seed,
        digest.hex(),
        answered(&gate)
    );
    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"effective_parallelism\":{},\"loadavg\":{},\"flagged\":{},\"commit\":{},\
         \"server_args\":{},\"io_backend\":{},\"wire\":2,\"connections\":{CONNECTIONS},\
         \"sent\":{attempted},\"answered\":{answered_total},\"failed\":{failed},\
         \"digest\":{},\"spans\":{span_count},\"span_file\":{}}}",
        json_str(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.effective,
        host.loadavg,
        host.flagged(),
        json_str(&host.commit),
        json_str(&w.server_args().join(" ")),
        json_str(&io_backend),
        json_str(&digest.hex()),
        json_str(&spans_path),
    );
    println!("meta {meta}");
    if host.flagged() {
        println!(
            "WARNING {}: {} effective cores, load average {} — figures are not comparable",
            w.name, host.effective, host.loadavg
        );
    }
    let unit = |table: &[(&str, &'static str)], name: &str| -> &'static str {
        table
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |&(_, u)| u)
    };
    for (name, v) in &end_to_end {
        println!("metric {} {name} = {v} {}", w.name, unit(&END_TO_END, name));
    }
    for (name, v) in &per_layer {
        println!("metric {} {name} = {v} {}", w.name, unit(&PER_LAYER, name));
    }
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
    })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the span log as TSV (one span per line) and returns its path.
fn write_spans(dir: &Path, workload: &str, seed: u64, log: &SpanLog) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    let mut text = String::from("span\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (i, s) in log.spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{i}\t{parent}\t{:x}\t{}\t{}\t{}",
            s.request, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The final line: one JSON object with the run's verdict and metrics.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = server::repo_root();
    let bin = match server::build_vmplace(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Spans land beside the benchmark's own executable, in the build
    // directory.
    let span_dir: PathBuf = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-spans")))
        .unwrap_or_else(|| root.join("perfbench-spans"));
    let host = Host::probe(&root);
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };

    let (mut attempted, mut failed) = (0, 0);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for name in &names {
        let w = workload::workload(name).expect("validated workload name");
        let outcome = match run_workload(&w, &args, &bin, &host, &span_dir) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        attempted += outcome.attempted;
        failed += outcome.failed;
        let (table, values): (&[(&str, &str)], _) = if args.trace {
            (&PER_LAYER, outcome.per_layer)
        } else {
            (&END_TO_END, outcome.end_to_end)
        };
        for (metric, value) in values {
            let unit = table
                .iter()
                .find(|(n, _)| *n == metric)
                .map_or("", |&(_, u)| u);
            let key = if names.len() == 1 {
                metric.to_string()
            } else {
                format!("{name}.{metric}")
            };
            metrics.push((key, value, unit));
        }
    }
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
