//! The crowd-session benchmark binary: runs one workload and prints its
//! metrics, ending with one JSON result line.
//!
//! ```text
//! crowdtune-perfbench --workload <tla_session|notla_long|crowd_db_mix>
//!                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! crowdtune-perfbench --probes [--out <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer metrics
//! derived from the traced run's spans. `--probes` runs the layer probes
//! alone, in a process of their own at two worker threads so that the
//! parallel regions run; `run.py` merges their metrics into the traced
//! result. Worker threads come from `RAYON_NUM_THREADS`, which `run.py`
//! sets before the process starts.

mod common;
mod dbmix;
mod notla;
mod probes;
mod stats;
mod tla;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Run parameters shared by the workloads.
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    pub origin: Instant,
    /// Scratch directory for WAL directories and trace files.
    pub out: PathBuf,
}

/// Everything one workload run measured.
pub struct Measured {
    pub workload: &'static str,
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    /// Wall time of each completed session (or db session), in order,
    /// one list per closed-loop client.
    pub lanes: Vec<Vec<f64>>,
    /// Take `sessions_per_s` from the median session time rather than
    /// the summed time: for sessions alike and short (the db mix's are
    /// ~0.5 ms), where one host stall of a few ms weighs like several
    /// sessions.
    pub rate_from_median: bool,
    /// The workload's step: suggest time on the tuning workloads, one db
    /// query or upload on `crowd_db_mix`.
    pub step_ns: Vec<f64>,
    pub query_ns: Vec<f64>,
    pub upload_ns: Vec<f64>,
    /// Surrogate fits over all sessions (`RunStats::surrogate_refits`).
    pub fits: u64,
    pub fma: Vec<f64>,
    pub best_found: Option<f64>,
    /// Query-cache (hits, misses).
    pub cache: Option<(u64, u64)>,
    /// (documents scanned, documents returned) by counted queries.
    pub scanned_returned: Option<(u64, u64)>,
    pub recover_s: Option<f64>,
    /// Peak resident set once the workload finished, before the
    /// post-run checks.
    pub peak_rss_mb: f64,
    pub spans: Vec<trace::Span>,
}

impl Measured {
    pub fn new(workload: &'static str, setup_s: Vec<f64>) -> Self {
        Measured {
            workload,
            setup_s,
            attempted: 0,
            lanes: vec![Vec::new()],
            rate_from_median: false,
            step_ns: Vec::new(),
            query_ns: Vec::new(),
            upload_ns: Vec::new(),
            fits: 0,
            fma: Vec::new(),
            best_found: None,
            cache: None,
            scanned_returned: None,
            recover_s: None,
            peak_rss_mb: 0.0,
            spans: Vec::new(),
        }
    }

    pub fn sessions(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// Timed wall time: the clients' summed session time ÷ clients.
    fn wall_s(&self) -> f64 {
        self.lanes.iter().flatten().sum::<f64>() / 1e9 / self.lanes.len() as f64
    }

    /// Completed sessions per second of timed wall time, or, with
    /// `rate_from_median`, the rate of the clients at the median session
    /// time.
    fn sessions_per_s(&self) -> f64 {
        if self.rate_from_median {
            let all: Vec<f64> = self.lanes.iter().flatten().copied().collect();
            let median_ns = stats::median(&all).expect("at least one session");
            return self.lanes.len() as f64 * 1e9 / median_ns;
        }
        self.sessions() as f64 / self.wall_s()
    }
}

struct Args {
    workload: String,
    probes: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        probes: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_run"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--probes" {
            args.probes = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &RunCtx, trace: bool) -> Result<Measured, String> {
    match name {
        "tla_session" => tla::run(ctx, trace),
        "notla_long" => notla::run(ctx, trace),
        "crowd_db_mix" => dbmix::run(ctx, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Worker threads of every workload, never the machine default. At the
/// surrogate sizes here (n <= 130) a second thread made `notla_long`
/// sessions slower and the same seed's runs 30% apart.
const WORKER_THREADS: usize = 1;
/// Worker threads of the layer-probe process: two, so that every
/// parallel region (scoped threads, chunking) runs and `par.region_us`
/// times it.
const PROBE_THREADS: usize = 2;

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut u = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: getrusage(RUSAGE_SELF = 0, p) writes one `struct rusage` to
    // p. On 64-bit Linux that struct is two `timeval`s (four i64) and
    // fourteen `long`s, which is exactly `Rusage`; `u` lives across the
    // call and nothing else aliases it.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) does not fail on a valid pointer"
    );
    u.maxrss as f64 / 1024.0 // ru_maxrss is in KiB
}

fn ms(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e6).collect()
}

fn us(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e3).collect()
}

/// A metric line and its JSON entry.
struct Out {
    metrics: BTreeMap<String, (f64, String)>,
}

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Print one informational metric line: name, value, unit and samples.
fn line(name: &str, value: Option<f64>, unit: &str, samples: usize) {
    match value {
        Some(v) => println!("  {name:<28} {v:>14.6} {unit:<8} (n={samples})"),
        None => println!(
            "  {name:<28} {:>14} {unit:<8} (n={samples}, too few samples)",
            "-"
        ),
    }
}

/// End-to-end metrics of an untraced run. Every workload reports the
/// gated set; the workload-specific figures are printed beside them.
fn end_to_end(m: &Measured) -> Result<Out, String> {
    let mut out = Out {
        metrics: BTreeMap::new(),
    };
    let steps = us(&m.step_ns);
    let p50 = stats::median(&steps).ok_or("no step samples")?;
    let p90 = stats::tail_percentile(&steps, 90.0)
        .ok_or(format!("only {} step samples: p90 needs 100", steps.len()))?;
    out.put(
        "setup_s",
        stats::median(&m.setup_s).ok_or("no set-up")?,
        "s",
    );
    out.put("sessions_per_s", m.sessions_per_s(), "1/s");
    out.put("step_us.p50", p50, "us");
    out.put("step_us.p90", p90, "us");
    out.put("peak_rss_mb", m.peak_rss_mb, "MB");

    println!("workload {} (end to end, untraced)", m.workload);
    line("setup_s", stats::median(&m.setup_s), "s", m.setup_s.len());
    line(
        "sessions_per_s",
        Some(m.sessions_per_s()),
        "1/s",
        m.sessions(),
    );
    line("step_us.p50", Some(p50), "us", steps.len());
    line("step_us.p90", Some(p90), "us", steps.len());
    line("peak_rss_mb", Some(m.peak_rss_mb), "MB", 1);
    if m.workload != "crowd_db_mix" {
        let s = ms(&m.step_ns);
        line("suggest_ms.p50", stats::median(&s), "ms", s.len());
        line(
            "suggest_ms.p90",
            stats::tail_percentile(&s, 90.0),
            "ms",
            s.len(),
        );
        line("best_found", m.best_found, "sim_s", m.sessions());
    } else {
        let ops = m.query_ns.len() + m.upload_ns.len();
        line("ops_per_s", Some(ops as f64 / m.wall_s()), "1/s", ops);
        let q = us(&m.query_ns);
        line("query_us.p50", stats::median(&q), "us", q.len());
        line(
            "query_us.p99",
            stats::tail_percentile(&q, 99.0),
            "us",
            q.len(),
        );
    }
    if !m.upload_ns.is_empty() {
        let u = us(&m.upload_ns);
        line("upload_us.p50", stats::median(&u), "us", u.len());
        line(
            "upload_us.p99",
            stats::tail_percentile(&u, 99.0),
            "us",
            u.len(),
        );
    }
    if let Some(s) = m.recover_s {
        line("wal_reopen_s", Some(s), "s", 1);
    }
    line(
        "host.fma_gflops",
        stats::median(&m.fma),
        "GFLOP/s",
        m.fma.len(),
    );
    Ok(out)
}

/// Per-layer metrics: workload figures from the traced run's spans and
/// counters.
fn per_layer(untraced: &Measured, traced: &Measured) -> Out {
    let mut out = Out {
        metrics: BTreeMap::new(),
    };
    let by_name = trace::by_name(&traced.spans);
    let med_us = |name: &str| {
        by_name
            .get(name)
            .and_then(|s| stats::median(&s.durations_ns))
            .map_or(0.0, |v| v / 1e3)
    };
    out.put("apps.eval_us", med_us("apps.eval"), "us");
    let pct = trace::layer_self_pct(&traced.spans, "session");
    for layer in ["bench", "core", "db", "apps"] {
        out.put(
            &format!("self_pct.{layer}"),
            pct.get(layer).copied().unwrap_or(0.0),
            "%",
        );
    }
    let sessions = traced.sessions().max(1) as f64;
    out.put(
        "gp.fits_per_session",
        traced.fits as f64 / sessions,
        "count",
    );
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (scanned, returned) = traced.scanned_returned.unwrap_or((0, 0));
    out.put("db.scanned_per_returned", ratio(scanned, returned), "ratio");
    let (hits, misses) = traced.cache.unwrap_or((0, 0));
    out.put("db.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    let fma: Vec<f64> = untraced.fma.iter().chain(&traced.fma).copied().collect();
    out.put(
        "host.fma_gflops",
        stats::median(&fma).unwrap_or(0.0),
        "GFLOP/s",
    );
    out.put(
        "bench.trace_overhead_pct",
        100.0 * (untraced.sessions_per_s() / traced.sessions_per_s() - 1.0),
        "%",
    );

    println!("workload {} (per layer, traced run)", traced.workload);
    for (k, (v, u)) in &out.metrics {
        println!("  {k:<28} {v:>14.6} {u}");
    }
    out
}

fn main() {
    let code = match real_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let want = if args.probes {
        PROBE_THREADS
    } else {
        WORKER_THREADS
    };
    let threads = rayon::current_num_threads();
    if std::env::var("RAYON_NUM_THREADS").ok().as_deref() != Some(&want.to_string())
        || threads != want
    {
        return Err(format!(
            "this run needs RAYON_NUM_THREADS={want} (set before start); got {threads}"
        ));
    }
    let origin = Instant::now();
    if args.probes {
        let probes = probes::Probes::run(origin, &args.out)?;
        let path = args.out.join("trace-probes.jsonl");
        trace::write_jsonl(&path, &probes.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = Out {
            metrics: BTreeMap::new(),
        };
        probes.put(&mut out);
        println!("layer probes at {threads} worker threads");
        for (k, (v, u)) in &out.metrics {
            println!("  {k:<28} {v:>14.6} {u}");
        }
        println!(
            "spans: {} written to {}",
            probes.spans.len(),
            path.display()
        );
        println!("{}", out.json());
        return Ok(());
    }
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        origin,
        out: args.out.clone(),
    };
    let untraced = run_workload(&args.workload, &ctx, false)?;
    let (out, attempted) = if args.trace {
        let traced = run_workload(&args.workload, &ctx, true)?;
        let path = ctx.out.join(format!("trace-{}.jsonl", args.workload));
        trace::write_jsonl(&path, &traced.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            traced.spans.len(),
            path.display()
        );
        (per_layer(&untraced, &traced), traced.attempted)
    } else {
        (end_to_end(&untraced)?, untraced.attempted)
    };
    // Any operation that fails, and any failed check, ends the run with an
    // error before this line, so a printed result has no failures.
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {}}}",
        out.json()
    );
    Ok(())
}
