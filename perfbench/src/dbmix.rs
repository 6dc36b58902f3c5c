//! `crowd_db_mix`: two closed-loop clients replay the db traffic of crowd
//! sessions against a durable `CrowdService` (group-commit WAL) holding a
//! corpus of many problems. Each db session is what a
//! `tla_session` sends to the service: one source query, whose filter is
//! the one `CrowdSession::source_tasks` sends (`MetaDescription::
//! to_query_spec`, task ranges of the input space), then one upload per
//! evaluation of a `tla_session` budget, all at the session's target task.
//!
//! Every query result is checked against the benchmark's own evaluation
//! of the filter over its own record of the corpus and acknowledged
//! uploads (not `Filter::matches`); after the run the WAL directory is
//! reopened and must hold every acknowledged upload.

use crate::common::mix;
use crate::tla;
use crate::trace::Tracer;
use crate::{Measured, RunCtx};
use crowdtune_apps::{Application, MachineModel, Pdgeqrf};
use crowdtune_core::data::value_to_scalar;
use crowdtune_core::MetaDescription;
use crowdtune_db::{
    CrowdService, EvalOutcome, Filter, FunctionEvaluation, MachineConfig, ServiceConfig, WalConfig,
};
use crowdtune_space::{sample_uniform, Space};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Tuning problems in the corpus (split evenly between the clients).
pub const PROBLEMS: usize = 96;
/// Corpus records per problem.
pub const PER_PROBLEM: usize = 100;
/// Client threads.
pub const CLIENTS: usize = 2;
/// Uploads per db session: one per evaluation of a `tla_session`, which
/// sends one source query and then uploads each of its evaluations.
pub const UPLOADS: usize = tla::BUDGET;
/// Db sessions in each client's seeded list; a pass replays the list.
const PASS: usize = 256;

/// The benchmark's own record of one stored document: the fields its
/// filters read, and what the durability check compares.
#[derive(Debug, Clone)]
pub struct Rec {
    pub id: u64,
    pub problem: usize,
    pub m: i64,
    pub n: i64,
    pub runtime: f64,
}

/// A session's source query: the task ranges of its meta description's
/// input space, half-open [lo, hi). The benchmark both hands it to the
/// service (as the filter a `CrowdSession` sends) and evaluates it itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub m: (i64, i64),
    pub n: (i64, i64),
}

impl Spec {
    /// The filter `CrowdSession::source_tasks` sends for a meta
    /// description with these task ranges.
    pub fn filter(&self, problem: &str) -> Result<Filter, String> {
        let meta = MetaDescription::from_json(&tla::meta_json("", problem, self.m, self.n))
            .map_err(|e| e.to_string())?;
        Ok(meta.to_query_spec().filter)
    }

    /// The benchmark's own evaluation of the spec on its record.
    pub fn admits(&self, r: &Rec) -> bool {
        self.m.0 <= r.m && r.m < self.m.1 && self.n.0 <= r.n && r.n < self.n.1
    }
}

const SIZES: [i64; 8] = [2_000, 4_000, 6_000, 8_000, 10_000, 12_000, 16_000, 20_000];
const NODES: [u32; 3] = [4, 8, 16];

fn problem_name(p: usize) -> String {
    format!("PDGEQRF-{p:03}")
}

/// A task and the machine it runs on.
#[derive(Debug, Clone)]
struct Task {
    m: i64,
    n: i64,
    nodes: u32,
    node_type: &'static str,
}

fn draw_task(rng: &mut StdRng) -> Task {
    let m = SIZES[rng.gen_range(0..SIZES.len())];
    let n = SIZES[rng.gen_range(0..SIZES.len())];
    let nodes = NODES[rng.gen_range(0..NODES.len())];
    let node_type = if rng.gen_range(0..4) == 0 {
        "knl"
    } else {
        "haswell"
    };
    Task {
        m,
        n,
        nodes,
        node_type,
    }
}

/// Draw one valid record of problem `p` on `task`: a valid configuration
/// and its simulated runtime. Returns the document, the benchmark's
/// record of it (id still 0), and when the evaluation started and ended.
fn draw(
    p: usize,
    owner: &str,
    task: &Task,
    rng: &mut StdRng,
) -> (FunctionEvaluation, Rec, (Instant, Instant)) {
    let Task {
        m,
        n,
        nodes,
        node_type,
    } = *task;
    let machine = if node_type == "knl" {
        MachineModel::cori_knl(nodes)
    } else {
        MachineModel::cori_haswell(nodes)
    };
    let app = Pdgeqrf::new(m as u64, n as u64, machine);
    let space: Space = app.tuning_space();
    let point = loop {
        let x = sample_uniform(&space, 1, rng).pop().expect("one point");
        if app.validate_config(&x) {
            break x;
        }
    };
    let t0 = Instant::now();
    let runtime = app.evaluate(&point, rng).expect("valid configuration runs");
    let t1 = Instant::now();
    let mut doc = FunctionEvaluation::new(&problem_name(p), owner)
        .task("m", m)
        .task("n", n)
        .outcome(EvalOutcome::single("runtime", runtime))
        .on_machine(MachineConfig::new(
            "cori",
            node_type,
            nodes,
            if node_type == "knl" { 68 } else { 32 },
        ));
    for (param, value) in space.params().iter().zip(&point) {
        doc.tuning_parameters
            .insert(param.name.clone(), value_to_scalar(value, &param.domain));
    }
    let rec = Rec {
        id: 0,
        problem: p,
        m,
        n,
        runtime,
    };
    (doc, rec, (t0, t1))
}

/// A session's task ranges. Each range spans half of the task sizes, as
/// the `tla_session` meta description's [1000, 10000) does, so every
/// query selects a like share of its problem.
fn draw_spec(rng: &mut StdRng) -> Spec {
    let mut window = || {
        let j = rng.gen_range(0..=SIZES.len() / 2);
        let hi = SIZES
            .get(j + SIZES.len() / 2)
            .copied()
            .unwrap_or(SIZES[SIZES.len() - 1] + 1);
        (SIZES[j], hi)
    };
    Spec {
        m: window(),
        n: window(),
    }
}

fn wal_dir(ctx: &RunCtx, tag: &str) -> PathBuf {
    ctx.out.join(format!("wal-{}-{tag}", std::process::id()))
}

/// The service defaults (8 shards of 128 cached queries, group-commit
/// WAL) with the per-commit fsync and auto-compaction off. The WAL lives
/// inside the checkout, on a disk whose fsync latency swung twofold
/// between runs minutes apart, so with the fsync the run's figures were
/// the disk's weather; the layer probe `db.durable_upload_us` times the
/// default, fsynced commit instead. Without the fsync the group-commit
/// path (leader election, one write per group) still runs on every
/// upload and the reopen still replays every acknowledged record. Each
/// compaction rewrites and fsyncs the whole snapshot (0.1-0.5 s stalls
/// every 1024 records), so where compactions fell would swing the run.
fn config() -> ServiceConfig {
    ServiceConfig {
        wal: WalConfig {
            sync_every_append: false,
            compact_every: 0,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Populate a durable corpus in `dir` and reopen it (WAL open and
/// replay). Returns the service and the benchmark's record of the corpus.
fn populate(dir: &Path, seed: u64) -> Result<(CrowdService, Vec<Rec>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (svc, _) = CrowdService::open_durable(dir, config()).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xDB));
    let mut corpus = Vec::with_capacity(PROBLEMS * PER_PROBLEM);
    for p in 0..PROBLEMS {
        for _ in 0..PER_PROBLEM {
            let task = draw_task(&mut rng);
            let (doc, mut rec, _) = draw(p, "crowd", &task, &mut rng);
            rec.id = svc.insert(doc).map_err(|e| e.to_string())?;
            corpus.push(rec);
        }
    }
    drop(svc);
    let (svc, report) = CrowdService::open_durable(dir, config()).map_err(|e| e.to_string())?;
    if svc.len() != corpus.len() {
        return Err(format!(
            "reopened corpus holds {} documents, {} inserted ({report:?})",
            svc.len(),
            corpus.len()
        ));
    }
    Ok((svc, corpus))
}

/// One logged query of a client, checked at the end of its pass.
struct LoggedQuery {
    /// Position in the client's session list.
    entry: u32,
    /// The client's first `acked_before` uploads of the pass were stored
    /// when the query ran.
    acked_before: u32,
    ids_hash: u64,
    count: u32,
}

/// Order-independent hash of an id set.
fn id_hash(ids: impl Iterator<Item = u64>) -> u64 {
    ids.map(|id| mix(id, 0x1D)).fold(0u64, u64::wrapping_add)
}

/// One entry of a client's seeded session list.
struct Entry {
    problem: usize,
    spec: Spec,
    filter: Filter,
    task: Task,
    /// Seed of the session's uploads, so every pass uploads the same.
    upload_seed: u64,
}

struct ClientOut {
    session_ns: Vec<f64>,
    query_ns: Vec<f64>,
    upload_ns: Vec<f64>,
    scanned: u64,
    returned: u64,
    list: Vec<Entry>,
    /// The pass's queries and acknowledged uploads. Both are checked and
    /// cleared between passes, so what the client holds does not grow
    /// with the run.
    log: Vec<LoggedQuery>,
    acked: Vec<Rec>,
}

/// What the clients share: the service and the pass barrier.
struct Shared<'a> {
    svc: &'a CrowdService,
    /// The benchmark's record of the corpus, per problem.
    corpus: Vec<Vec<Rec>>,
    barrier: Barrier,
    /// Set by a client whose pass or retraction failed.
    abort: AtomicBool,
    /// The barrier leader's decision, after a pass, to end the run.
    stop: AtomicBool,
}

/// One db session: the source query, then the uploads.
fn db_session(
    svc: &CrowdService,
    user: &str,
    entry: usize,
    out: &mut ClientOut,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let e = &out.list[entry];
    let problem = problem_name(e.problem);
    let session_id = tracer.id();
    let t_session = Instant::now();
    let q0 = Instant::now();
    let (docs, stats) = svc.query_problem_counted(&problem, &e.filter, Some(user));
    let q1 = Instant::now();
    out.query_ns.push(q1.duration_since(q0).as_nanos() as f64);
    let id = tracer.id();
    tracer.record(id, session_id, op, "db.query", q0, q1);
    out.scanned += stats.scanned as u64;
    out.returned += docs.len() as u64;
    out.log.push(LoggedQuery {
        entry: entry as u32,
        acked_before: out.acked.len() as u32,
        ids_hash: id_hash(docs.iter().map(|d| d.id)),
        count: docs.len() as u32,
    });
    let mut rng = StdRng::seed_from_u64(e.upload_seed);
    let (p, task) = (e.problem, e.task.clone());
    for _ in 0..UPLOADS {
        let (doc, mut rec, (e0, e1)) = draw(p, user, &task, &mut rng);
        let id = tracer.id();
        tracer.record(id, session_id, op, "apps.eval", e0, e1);
        let u0 = Instant::now();
        let acked = svc.insert(doc);
        let u1 = Instant::now();
        out.upload_ns.push(u1.duration_since(u0).as_nanos() as f64);
        let id = tracer.id();
        tracer.record(id, session_id, op, "db.upload", u0, u1);
        rec.id = acked.map_err(|e| format!("upload failed: {e}"))?;
        out.acked.push(rec);
    }
    let t_end = Instant::now();
    tracer.record(session_id, 0, op, "session", t_session, t_end);
    out.session_ns
        .push(t_end.duration_since(t_session).as_nanos() as f64);
    Ok(())
}

/// Retract the client's uploads of the pass (`delete_owned`), so every
/// pass meets the same store. It runs between passes, while no
/// client is in a session, and is not part of the timed work; the trace
/// records it as `pass.retract`.
fn retract(
    svc: &CrowdService,
    user: &str,
    out: &mut ClientOut,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let r0 = Instant::now();
    let removed = svc
        .delete_owned(user, &Filter::True)
        .map_err(|e| e.to_string())?;
    let r1 = Instant::now();
    let id = tracer.id();
    tracer.record(id, 0, op, "pass.retract", r0, r1);
    if removed != out.acked.len() {
        return Err(format!(
            "retract removed {removed} documents, {} uploaded",
            out.acked.len()
        ));
    }
    out.acked.clear();
    Ok(())
}

/// Fold the WAL into a fresh snapshot once both clients have retracted,
/// so the log does not grow with the run: without it a 25 s run left a
/// million records to replay, and the reopen took over 700 MB. Untimed,
/// like the retraction; the trace records it as `pass.compact`.
fn compact(svc: &CrowdService, tracer: &mut Tracer, op: u64) -> Result<(), String> {
    let c0 = Instant::now();
    svc.compact()
        .map_err(|e| format!("compaction failed: {e}"))?;
    let c1 = Instant::now();
    let id = tracer.id();
    tracer.record(id, 0, op, "pass.compact", c0, c1);
    Ok(())
}

/// Closed loop of one client: whole passes over its seeded session list
/// until the deadline. After each pass the client checks the pass's
/// queries, then the clients meet at a barrier; the leader decides
/// whether the run ends, and if not each client retracts its uploads and
/// one of them compacts the WAL before the next pass starts.
fn client(
    shared: &Shared<'_>,
    client: usize,
    seed: u64,
    seconds: f64,
    tracer: Tracer,
) -> (Result<(), String>, ClientOut, Vec<crate::trace::Span>) {
    let mut tracer = tracer;
    let mine: Vec<usize> = (0..PROBLEMS).filter(|p| p % CLIENTS == client).collect();
    let mut list_rng = StdRng::seed_from_u64(mix(seed, 0xC1 + client as u64));
    let mut list = Vec::with_capacity(PASS);
    let mut result = Ok(());
    for _ in 0..PASS {
        let problem = mine[list_rng.gen_range(0..mine.len())];
        let spec = draw_spec(&mut list_rng);
        let task = draw_task(&mut list_rng);
        match spec.filter(&problem_name(problem)) {
            Ok(filter) => list.push(Entry {
                problem,
                spec,
                filter,
                task,
                upload_seed: list_rng.gen(),
            }),
            Err(e) => result = Err(e),
        }
    }
    let user = format!("client{client}");
    let mut out = ClientOut {
        session_ns: Vec::new(),
        query_ns: Vec::new(),
        upload_ns: Vec::new(),
        scanned: 0,
        returned: 0,
        list,
        log: Vec::new(),
        acked: Vec::new(),
    };
    if result.is_err() {
        shared.abort.store(true, Ordering::SeqCst);
    }
    shared.barrier.wait();
    let t_start = Instant::now();
    let mut op = ((client as u64) << 40) + 1;
    loop {
        if result.is_ok() && !shared.abort.load(Ordering::SeqCst) {
            for entry in 0..PASS {
                result = db_session(shared.svc, &user, entry, &mut out, &mut tracer, op);
                op += 1;
                if result.is_err() {
                    break;
                }
            }
            if result.is_ok() {
                result = check_queries(&shared.corpus, &out);
                out.log.clear();
            }
            if result.is_err() {
                shared.abort.store(true, Ordering::SeqCst);
            }
        }
        if shared.barrier.wait().is_leader() {
            let stop =
                shared.abort.load(Ordering::SeqCst) || t_start.elapsed().as_secs_f64() >= seconds;
            shared.stop.store(stop, Ordering::SeqCst);
        }
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        result = retract(shared.svc, &user, &mut out, &mut tracer, op);
        if result.is_err() {
            shared.abort.store(true, Ordering::SeqCst);
        }
        if shared.barrier.wait().is_leader() && !shared.abort.load(Ordering::SeqCst) {
            result = compact(shared.svc, &mut tracer, op);
            if result.is_err() {
                shared.abort.store(true, Ordering::SeqCst);
            }
        }
        shared.barrier.wait();
    }
    (result, out, tracer.into_spans())
}

/// Check the pass's logged queries against the benchmark's own
/// evaluation over the corpus and the client's uploads of the pass.
fn check_queries(corpus: &[Vec<Rec>], out: &ClientOut) -> Result<(), String> {
    for (k, q) in out.log.iter().enumerate() {
        let Entry { problem, spec, .. } = &out.list[q.entry as usize];
        let expected: Vec<u64> = corpus[*problem]
            .iter()
            .chain(&out.acked[..q.acked_before as usize])
            .filter(|r| r.problem == *problem && spec.admits(r))
            .map(|r| r.id)
            .collect();
        if expected.len() != q.count as usize || id_hash(expected.iter().copied()) != q.ids_hash {
            return Err(format!(
                "query {k} of the pass on problem {problem}: {} documents returned, {} expected",
                q.count,
                expected.len()
            ));
        }
    }
    Ok(())
}

pub fn run(ctx: &RunCtx, trace: bool) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for rep in 0..crate::SETUP_REPEATS {
        let dir = wal_dir(ctx, &format!("{}-{rep}", trace as u8));
        let t0 = Instant::now();
        let built = populate(&dir, ctx.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((old, _, old_dir)) = ready.replace((built.0, built.1, dir)) {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (svc, corpus, dir) = ready.expect("at least one set-up");
    let mut m = Measured::new("crowd_db_mix", setup_s);
    m.rate_from_median = true;
    m.fma.push(crate::common::fma_probe());

    let mut by_problem = vec![Vec::new(); PROBLEMS];
    for r in &corpus {
        by_problem[r.problem].push(r.clone());
    }
    let shared = Shared {
        svc: &svc,
        corpus: by_problem,
        barrier: Barrier::new(CLIENTS),
        abort: AtomicBool::new(false),
        stop: AtomicBool::new(false),
    };
    let outs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let tracer = Tracer::new(trace, ctx.origin, 1 + c as u64);
                let shared = &shared;
                s.spawn(move || client(shared, c, ctx.seed, ctx.seconds, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    m.fma.push(crate::common::fma_probe());
    m.peak_rss_mb = crate::peak_rss_mb();
    m.cache = Some(svc.cache_counts());
    let mut scanned = 0;
    let mut returned = 0;
    let mut acked = Vec::new();
    let mut lanes = Vec::new();
    for (result, out, spans) in outs {
        result?;
        m.attempted += out.session_ns.len() as u64;
        lanes.push(out.session_ns);
        m.step_ns.extend(&out.query_ns);
        m.step_ns.extend(&out.upload_ns);
        m.query_ns.extend(&out.query_ns);
        m.upload_ns.extend(&out.upload_ns);
        scanned += out.scanned;
        returned += out.returned;
        m.spans.extend(spans);
        // Durability: the last pass's uploads, not retracted, must
        // survive a reopen.
        acked.extend(out.acked);
    }
    m.scanned_returned = Some((scanned, returned));
    m.lanes = lanes;

    drop(shared);
    drop(svc);
    let t0 = Instant::now();
    let (reopened, _) = CrowdService::open_durable(&dir, config()).map_err(|e| e.to_string())?;
    m.recover_s = Some(t0.elapsed().as_secs_f64());
    for rec in &acked {
        let ok = reopened.get(rec.id).is_some_and(|d| {
            d.problem == problem_name(rec.problem)
                && d.result.output("runtime").map(f64::to_bits) == Some(rec.runtime.to_bits())
        });
        if !ok {
            return Err(format!("acknowledged upload {} lost after reopen", rec.id));
        }
    }
    if reopened.len() != corpus.len() + acked.len() {
        return Err(format!(
            "reopened service holds {} documents, expected {}",
            reopened.len(),
            corpus.len() + acked.len()
        ));
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(m: i64, n: i64) -> Rec {
        Rec {
            id: 0,
            problem: 0,
            m,
            n,
            runtime: 1.0,
        }
    }

    #[test]
    fn own_evaluation_uses_half_open_ranges() {
        let spec = Spec {
            m: (4_000, 12_000),
            n: (2_000, 10_000),
        };
        assert!(spec.admits(&rec(4_000, 2_000)));
        assert!(spec.admits(&rec(10_000, 8_000)));
        assert!(!spec.admits(&rec(12_000, 2_000)), "hi is excluded");
        assert!(!spec.admits(&rec(2_000, 2_000)));
        assert!(!spec.admits(&rec(4_000, 10_000)));
    }

    #[test]
    fn top_window_admits_the_largest_size() {
        let spec = Spec {
            m: (SIZES[4], SIZES[7] + 1),
            n: (SIZES[0], SIZES[4]),
        };
        assert!(spec.admits(&rec(20_000, 2_000)));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = draw_spec(&mut rng);
            // Every window covers half of the task sizes.
            let covered =
                |(lo, hi): (i64, i64)| SIZES.iter().filter(|&&v| lo <= v && v < hi).count();
            assert_eq!(covered(s.m), SIZES.len() / 2);
            assert_eq!(covered(s.n), SIZES.len() / 2);
        }
    }

    #[test]
    fn own_evaluation_agrees_with_the_service() {
        let svc = CrowdService::new(ServiceConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut recs = Vec::new();
        for p in 0..3 {
            for _ in 0..200 {
                let task = draw_task(&mut rng);
                let (doc, mut rec, _) = draw(p, "crowd", &task, &mut rng);
                rec.id = svc.insert(doc).expect("in-memory insert");
                recs.push(rec);
            }
        }
        let mut nonempty = 0;
        for _ in 0..40 {
            let spec = draw_spec(&mut rng);
            for p in 0..3 {
                let filter = spec
                    .filter(&problem_name(p))
                    .expect("meta description parses");
                let (docs, _) =
                    svc.query_problem_counted(&problem_name(p), &filter, Some("client0"));
                let mut got: Vec<u64> = docs.iter().map(|d| d.id).collect();
                got.sort_unstable();
                let want: Vec<u64> = recs
                    .iter()
                    .filter(|r| r.problem == p && spec.admits(r))
                    .map(|r| r.id)
                    .collect();
                assert_eq!(got, want, "spec {spec:?} on problem {p}");
                nonempty += usize::from(!want.is_empty());
            }
        }
        assert!(nonempty > 100, "the specs select documents");
    }

    #[test]
    fn id_hash_ignores_order_but_not_membership() {
        assert_eq!(
            id_hash([1, 2, 3].into_iter()),
            id_hash([3, 1, 2].into_iter())
        );
        assert_ne!(
            id_hash([1, 2, 3].into_iter()),
            id_hash([1, 2, 4].into_iter())
        );
        assert_ne!(id_hash([1, 2].into_iter()), id_hash([1, 2, 3].into_iter()));
    }
}
