//! `tla_session`: the paper's crowd-tuning session on the production
//! engine. Each session opens a `CrowdSession` on a `HistoryDb::concurrent`
//! pre-populated with crowd PDGEQRF source tasks, fetches `source_tasks`,
//! runs `tune_tla_constrained` with `Ensemble::proposed_default()`, and
//! uploads every evaluation through `CrowdSession::upload`.

use crate::common::{check_session, mix, same_history, Objective, Target};
use crate::trace::Tracer;
use crate::{Measured, RunCtx};
use crowdtune_apps::{Application, MachineModel, Pdgeqrf};
use crowdtune_core::data::value_to_scalar;
use crowdtune_core::{
    tune_tla_constrained, CrowdSession, Ensemble, SourceTask, TlaContext, TlaStrategy, TuneConfig,
    TuneResult,
};
use crowdtune_db::{EvalOutcome, FunctionEvaluation, HistoryDb, MachineConfig, ServiceConfig};
use crowdtune_space::{sample_uniform, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

/// Evaluations per session.
pub const BUDGET: usize = 10;
/// `source_tasks` drops task groups with fewer successful samples.
pub const MIN_SAMPLES: usize = 16;
/// Sessions in the seeded list a run replays.
pub const SESSIONS: usize = 128;
/// PDGEQRF problems in the crowd repository, each with its own crowd of
/// source tasks; session k tunes problem k mod SCENARIOS. One seed thus
/// draws many source corpora, and a run's cost does not hang on one.
pub const SCENARIOS: usize = 64;
/// Records of other tuning problems in the crowd repository.
const FILLER_PROBLEMS: usize = 8;
const FILLER_PER_PROBLEM: usize = 500;

/// One crowd source group: task size, node type, successful and failed
/// records, and whether the session's query should return it.
struct Group {
    m: u64,
    n: u64,
    node_type: &'static str,
    ok: usize,
    failed: usize,
    expected: bool,
}

const GROUPS: [Group; 6] = [
    // Three source tasks the session transfers from.
    Group {
        m: 6_000,
        n: 6_000,
        node_type: "haswell",
        ok: 30,
        failed: 2,
        expected: true,
    },
    Group {
        m: 8_000,
        n: 8_000,
        node_type: "haswell",
        ok: 30,
        failed: 2,
        expected: true,
    },
    Group {
        m: 9_000,
        n: 6_000,
        node_type: "haswell",
        ok: 30,
        failed: 2,
        expected: true,
    },
    // Too few samples for a source task.
    Group {
        m: 7_000,
        n: 7_000,
        node_type: "haswell",
        ok: 8,
        failed: 2,
        expected: false,
    },
    // Outside the meta description's task range [1000, 10000).
    Group {
        m: 14_000,
        n: 14_000,
        node_type: "haswell",
        ok: 40,
        failed: 2,
        expected: false,
    },
    // On KNL nodes, which the configuration space excludes.
    Group {
        m: 5_000,
        n: 5_000,
        node_type: "knl",
        ok: 40,
        failed: 2,
        expected: false,
    },
];

/// A PDGEQRF session's meta description with half-open task ranges
/// [lo, hi) for m and n.
pub fn meta_json(api_key: &str, problem: &str, m: (i64, i64), n: (i64, i64)) -> String {
    format!(
        r#"{{
        "api_key": "{api_key}",
        "tuning_problem_name": "{problem}",
        "problem_space": {{
            "input_space": [
                {{"name": "m", "type": "integer", "lower_bound": {}, "upper_bound": {}}},
                {{"name": "n", "type": "integer", "lower_bound": {}, "upper_bound": {}}}
            ],
            "parameter_space": [
                {{"name": "mb", "type": "integer", "lower_bound": 1, "upper_bound": 16}},
                {{"name": "nb", "type": "integer", "lower_bound": 1, "upper_bound": 16}},
                {{"name": "lg2npernode", "type": "integer", "lower_bound": 0, "upper_bound": 5}},
                {{"name": "p", "type": "integer", "lower_bound": 1, "upper_bound": 256}}
            ],
            "output_space": [{{"name": "runtime", "type": "real"}}]
        }},
        "configuration_space": {{
            "machine_configurations": [
                {{"machine_name": "Cori", "node_type": "haswell", "nodes_from": 1, "nodes_to": 16}}
            ]
        }},
        "machine_configuration": "cori",
        "sync_crowd_repo": "yes"
    }}"#,
        m.0, m.1, n.0, n.1
    )
}

/// The sessions' task range, half-open. It ends at the target's m = 10000,
/// so a session's own uploads never become source data and every session
/// sees the same sources.
const TASK_RANGE: (i64, i64) = (1_000, 10_000);

/// A populated crowd repository plus the session user's meta
/// description of each PDGEQRF problem.
pub struct Crowd {
    pub db: HistoryDb,
    pub metas: Vec<String>,
    /// (task group key, successful samples) the session must get back.
    pub expected: BTreeSet<(String, usize)>,
}

fn group_key(m: u64, n: u64) -> String {
    format!("{{\"m\":{m},\"n\":{n}}}")
}

fn problem_name(scenario: usize) -> String {
    format!("PDGEQRF-{scenario:02}")
}

fn record(
    problem: &str,
    app: &Pdgeqrf,
    point: &Point,
    outcome: EvalOutcome,
    node_type: &str,
) -> FunctionEvaluation {
    let space = app.tuning_space();
    let mut eval = FunctionEvaluation::new(problem, "");
    eval.task_parameters = app.task_parameters();
    for (param, value) in space.params().iter().zip(point) {
        eval.tuning_parameters
            .insert(param.name.clone(), value_to_scalar(value, &param.domain));
    }
    let cores = if node_type == "knl" { 68 } else { 32 };
    eval.outcome(outcome)
        .on_machine(MachineConfig::new("cori", node_type, 8, cores))
}

/// Build the crowd repository: for each PDGEQRF problem, three
/// contributors upload the source groups above (random valid
/// configurations, simulated runtimes); then filler records of other
/// problems.
pub fn populate(seed: u64) -> Crowd {
    let db = HistoryDb::concurrent(ServiceConfig::default());
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xC0));
    let contributors: Vec<String> = ["alice", "bob", "carol"]
        .iter()
        .map(|u| {
            db.register_user(u, &format!("{u}@crowd.org"), true, &mut rng)
                .expect("register contributor")
        })
        .collect();
    let tuner = db
        .register_user("tuner", "tuner@crowd.org", true, &mut rng)
        .expect("register session user");
    for scenario in 0..SCENARIOS {
        let problem = problem_name(scenario);
        for (g_idx, g) in GROUPS.iter().enumerate() {
            let machine = if g.node_type == "knl" {
                MachineModel::cori_knl(8)
            } else {
                MachineModel::cori_haswell(8)
            };
            let app = Pdgeqrf::new(g.m, g.n, machine);
            let space = app.tuning_space();
            let key = &contributors[g_idx % contributors.len()];
            let (mut ok, mut failed) = (0, 0);
            while ok < g.ok || failed < g.failed {
                let point = sample_uniform(&space, 1, &mut rng)
                    .pop()
                    .expect("one point");
                let outcome = if app.validate_config(&point) {
                    if ok == g.ok {
                        continue;
                    }
                    ok += 1;
                    let y = app
                        .evaluate(&point, &mut rng)
                        .expect("valid configuration runs");
                    EvalOutcome::single("runtime", y)
                } else {
                    if failed == g.failed {
                        continue;
                    }
                    failed += 1;
                    EvalOutcome::Failed {
                        reason: "invalid configuration".into(),
                    }
                };
                db.submit(key, record(&problem, &app, &point, outcome, g.node_type))
                    .expect("crowd upload");
            }
        }
    }
    for p in 0..FILLER_PROBLEMS {
        let problem = format!("crowd-app-{p:02}");
        let key = &contributors[p % contributors.len()];
        for _ in 0..FILLER_PER_PROBLEM {
            let eval = FunctionEvaluation::new(&problem, "")
                .task("size", rng.gen_range(100..20_000i64))
                .param("block", rng.gen_range(1..64i64))
                .param("threads", rng.gen_range(1..32i64))
                .outcome(EvalOutcome::single("runtime", rng.gen_range(0.5..50.0)))
                .on_machine(MachineConfig::new("cori", "haswell", 4, 32));
            db.submit(key, eval).expect("filler upload");
        }
    }
    let expected = GROUPS
        .iter()
        .filter(|g| g.expected)
        .map(|g| (group_key(g.m, g.n), g.ok))
        .collect();
    Crowd {
        metas: (0..SCENARIOS)
            .map(|s| meta_json(&tuner, &problem_name(s), TASK_RANGE, TASK_RANGE))
            .collect(),
        db,
        expected,
    }
}

/// Strategy wrapper recording a span around `propose` and `observe` of
/// the inner strategy.
struct Timed<'a> {
    inner: Box<dyn TlaStrategy>,
    tracer: &'a Mutex<Tracer>,
    parent: u64,
    op: u64,
}

impl Timed<'_> {
    fn span(&self, name: &'static str, t0: Instant, t1: Instant) {
        let mut tr = self.tracer.lock().expect("tracer lock poisoned");
        let id = tr.id();
        tr.record(id, self.parent, self.op, name, t0, t1);
    }
}

impl TlaStrategy for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64> {
        let t0 = Instant::now();
        let x = self.inner.propose(ctx, rng);
        self.span("core.propose", t0, Instant::now());
        x
    }

    fn observe(&mut self, x: &[f64], y: Option<f64>) {
        let t0 = Instant::now();
        self.inner.observe(x, y);
        self.span("core.observe", t0, Instant::now());
    }
}

/// What one session measured and produced.
pub struct SessionOut {
    pub dur_ns: f64,
    pub result: TuneResult,
    pub best: f64,
    pub suggest_ns: Vec<f64>,
    pub upload_ns: Vec<f64>,
}

/// Run one crowd-tuning session and check it.
pub fn session(
    crowd: &Crowd,
    target: &Target,
    scenario: usize,
    seed: u64,
    tracer: &Mutex<Tracer>,
    op: u64,
) -> Result<SessionOut, String> {
    let Target { app, space, .. } = target;
    let t_session = Instant::now();
    let (session_id, open_id, src_id, tune_id) = {
        let mut tr = tracer.lock().expect("tracer lock poisoned");
        (tr.id(), tr.id(), tr.id(), tr.id())
    };
    let span = |id: u64, parent: u64, name: &'static str, t0: Instant, t1: Instant| {
        tracer
            .lock()
            .expect("tracer lock poisoned")
            .record(id, parent, op, name, t0, t1);
    };

    let t0 = Instant::now();
    let crowd_session =
        CrowdSession::open(&crowd.db, &crowd.metas[scenario]).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    span(open_id, session_id, "core.open", t0, t1);

    let sources: Vec<SourceTask> = crowd_session
        .source_tasks(MIN_SAMPLES)
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    span(src_id, session_id, "db.source_tasks", t1, t2);
    let got: BTreeSet<(String, usize)> = sources
        .iter()
        .map(|s| (s.name.clone(), s.data.len()))
        .collect();
    if got != crowd.expected {
        return Err(format!(
            "source_tasks returned {got:?}, expected {:?}",
            crowd.expected
        ));
    }

    let mut strategy = Timed {
        inner: Box::new(Ensemble::proposed_default()),
        tracer,
        parent: tune_id,
        op,
    };
    let config = TuneConfig {
        budget: BUDGET,
        seed: mix(seed, 1),
        ..TuneConfig::default()
    };
    let constraint = |p: &Point| app.validate_config(p);
    let mut obj = Objective::new(app, mix(seed, 2), tracer);
    obj.parent = tune_id;
    obj.op = op;
    let mut upload_ns = Vec::with_capacity(BUDGET);
    let mut upload_err: Option<String> = None;
    let mut objective = |x: &Point| {
        let out = obj.eval(x);
        if let Ok(y) = &out {
            let eval = record(
                &crowd_session.meta.tuning_problem_name,
                app,
                x,
                EvalOutcome::single("runtime", *y),
                "haswell",
            );
            let u0 = Instant::now();
            let up = crowd_session.upload(eval);
            let u1 = Instant::now();
            upload_ns.push(u1.duration_since(u0).as_nanos() as f64);
            let id = tracer.lock().expect("tracer lock poisoned").id();
            span(id, tune_id, "db.upload", u0, u1);
            match up {
                Ok(Some(_)) => {}
                other => upload_err = Some(format!("upload not acknowledged: {other:?}")),
            }
        }
        obj.returned_at(Instant::now());
        out
    };
    let result = tune_tla_constrained(
        space,
        &mut objective,
        &sources,
        &mut strategy,
        &config,
        Some(&constraint),
    );
    let t3 = Instant::now();
    span(tune_id, session_id, "core.tune", t2, t3);
    span(session_id, 0, "session", t_session, t3);
    if let Some(e) = upload_err {
        return Err(e);
    }
    let best = check_session(target, &result, &obj.returned, BUDGET)?;
    Ok(SessionOut {
        dur_ns: t3.duration_since(t_session).as_nanos() as f64,
        result,
        best,
        suggest_ns: std::mem::take(&mut obj.suggest_ns),
        upload_ns,
    })
}

/// Run the workload: timed set-up, one untimed warm-up session, then the
/// seeded session list replayed until `ctx.seconds` have passed (and the
/// list has run at least once).
pub fn run(ctx: &RunCtx, trace: bool) -> Result<Measured, String> {
    let target = Target::new();

    let mut setup_s = Vec::new();
    let mut crowd = None;
    for rep in 0..crate::SETUP_REPEATS {
        let t0 = Instant::now();
        let c = populate(ctx.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 == crate::SETUP_REPEATS {
            crowd = Some(c);
        }
    }
    let crowd = crowd.expect("at least one set-up");

    let seeds: Vec<u64> = (0..SESSIONS as u64)
        .map(|i| mix(ctx.seed, 100 + i))
        .collect();
    let tracer = Mutex::new(Tracer::new(trace, ctx.origin, 1));
    let mut m = Measured::new("tla_session", setup_s);

    let warm = session(&crowd, &target, 0, seeds[0], &tracer, 0)?;
    // The warm-up's spans are not part of the measured run.
    let _ = std::mem::replace(
        &mut *tracer.lock().expect("tracer lock poisoned"),
        Tracer::new(trace, ctx.origin, 1),
    );
    let mut bests = vec![None; SESSIONS];
    let start = Instant::now();
    let mut i = 0usize;
    while i < SESSIONS || start.elapsed().as_secs_f64() < ctx.seconds {
        let k = i % SESSIONS;
        m.attempted += 1;
        let out = session(
            &crowd,
            &target,
            k % SCENARIOS,
            seeds[k],
            &tracer,
            i as u64 + 1,
        )?;
        if k == 0 && i == 0 && !same_history(&warm.result, &out.result) {
            return Err("same-seed re-run of session 0 gave a different history".into());
        }
        bests[k] = Some(out.best);
        m.lanes[0].push(out.dur_ns);
        m.step_ns.extend(&out.suggest_ns);
        m.upload_ns.extend(&out.upload_ns);
        m.fits += out.result.stats.surrogate_refits;
        m.fma.push(crate::common::fma_probe());
        i += 1;
    }
    m.best_found = Some(
        bests
            .iter()
            .map(|b| b.expect("every session ran"))
            .sum::<f64>()
            / SESSIONS as f64,
    );
    if let Some(svc) = crowd.db.service() {
        m.cache = Some(svc.cache_counts());
        let spec = CrowdSession::open(&crowd.db, &crowd.metas[0])
            .map_err(|e| e.to_string())?
            .meta
            .to_query_spec();
        let (hits, stats) = svc.query_problem_counted(&spec.problem, &spec.filter, Some("tuner"));
        m.scanned_returned = Some((stats.scanned as u64, hits.len() as u64));
    }
    m.peak_rss_mb = crate::peak_rss_mb();
    m.spans = tracer
        .into_inner()
        .expect("tracer lock poisoned")
        .into_spans();
    Ok(m)
}
