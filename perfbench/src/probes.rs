//! Layer probes: each times one public call of one crate on fixed inputs
//! shaped like the workloads' own (the `notla_long` surrogate at its
//! final n, the `tla_session` sources and target). They run in a
//! process of their own at two worker threads, so the parallel regions
//! of linalg, gp and the acquisition run as they would on a multi-core
//! host. The inputs do not depend on `--seed`, so a probe moves only when
//! its layer's code or the host does. Every call is a span.

use crate::common::{mix, Target};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::{notla, tla, Out};
use crowdtune_apps::Application;
use crowdtune_core::tuner::dims_of;
use crowdtune_core::{
    propose_ei_pooled_scratch, CandidatePool, CrowdSession, Dataset, Ensemble, ProposalScratch,
    SearchOptions, SourceTask, TlaContext, TlaStrategy,
};
use crowdtune_db::{CrowdService, EvalOutcome, FunctionEvaluation, ServiceConfig, WalConfig};
use crowdtune_gp::{Gp, GpConfig, Lcm, LcmConfig, TaskData};
use crowdtune_linalg::{Cholesky, Matrix};
use crowdtune_space::sample_uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::path::Path;
use std::time::Instant;

/// Fixed seed of every probe input.
const PROBE_SEED: u64 = 0x5EED_0F1A;
/// Matrix order of the matmul probe.
const MATMUL_N: usize = 256;
/// Candidates scored per proposal (the default pool: 256 uniform plus
/// 32 local at each of two scales).
const POOL: usize = 320;

/// Median wall time in nanoseconds of `reps` calls of `f`, each recorded
/// as a span named `name`.
fn timed<T>(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let parent = tr.id();
    let t_all = Instant::now();
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let t1 = Instant::now();
        ns.push(t1.duration_since(t0).as_nanos() as f64);
        let id = tr.id();
        tr.record(id, parent, 0, name, t0, t1);
    }
    tr.record(parent, 0, 0, "probe", t_all, Instant::now());
    median(&ns).expect("at least one repetition")
}

/// `n` valid configurations of the PDGEQRF target with simulated
/// runtimes, in unit coordinates.
fn samples(app: &crowdtune_apps::Pdgeqrf, n: usize, rng: &mut StdRng) -> Dataset {
    let space = app.tuning_space();
    let mut ds = Dataset::default();
    while ds.len() < n {
        let x = sample_uniform(&space, 1, rng).pop().expect("one point");
        if app.validate_config(&x) {
            let y = app.evaluate(&x, rng).expect("valid configuration runs");
            ds.push(space.to_unit(&x).expect("sampled point is in the space"), y);
        }
    }
    ds
}

pub struct Probes {
    values: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<Span>,
}

impl Probes {
    pub fn run(origin: Instant, out_dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let mut tr = Tracer::new(true, origin, 9);
        let mut v = Vec::new();
        let mut rng = StdRng::seed_from_u64(PROBE_SEED);

        let a = Matrix::from_fn(MATMUL_N, MATMUL_N, |_, _| rng.gen_range(-1.0..1.0));
        let b = Matrix::from_fn(MATMUL_N, MATMUL_N, |_, _| rng.gen_range(-1.0..1.0));
        let ns = timed(&mut tr, "linalg.matmul", 5, || a.matmul(&b));
        let flops = 2.0 * (MATMUL_N as f64).powi(3);
        v.push(("linalg.matmul_gflops", flops / ns, "GFLOP/s"));

        let n = notla::BUDGET;
        let m = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut spd = m.matmul(&m.transpose());
        for i in 0..n {
            spd[(i, i)] += n as f64;
        }
        let ns = timed(&mut tr, "linalg.cholesky", 20, || {
            Cholesky::new(&spd).expect("diagonally dominant matrix is SPD")
        });
        v.push(("linalg.chol_us", ns / 1e3, "us"));

        let ns = timed(&mut tr, "par.region", 200, || {
            (0..8usize)
                .into_par_iter()
                .map(|i| i)
                .collect::<Vec<usize>>()
        });
        v.push(("par.region_us", ns / 1e3, "us"));

        // The NoTLA surrogate at its final n.
        let Target { app, space, .. } = Target::new();
        let dims = dims_of(&space);
        let data = samples(&app, n, &mut rng);
        let mut config = GpConfig::new(dims.clone());
        config.restarts = 1;
        config.max_opt_iter = 40;
        let mut fit_rng = StdRng::seed_from_u64(mix(PROBE_SEED, 1));
        let gp = Gp::fit(&data.x, &data.y, &config, &mut fit_rng).map_err(|e| e.to_string())?;
        let ns = timed(&mut tr, "gp.fit", 3, || {
            let mut r = StdRng::seed_from_u64(mix(PROBE_SEED, 1));
            Gp::fit(&data.x, &data.y, &config, &mut r).expect("probe GP fits")
        });
        v.push(("gp.fit_ms", ns / 1e6, "ms"));

        let extra = samples(&app, 1, &mut rng);
        let mut copies: Vec<Gp> = (0..30).map(|_| gp.clone()).collect();
        let mut it = copies.iter_mut();
        let ns = timed(&mut tr, "gp.update", 30, || {
            let g = it.next().expect("one copy per repetition");
            g.update(&extra.x[0], extra.y[0]).expect("rank-1 update")
        });
        v.push(("gp.update_us", ns / 1e3, "us"));

        let cands: Vec<Vec<f64>> = (0..POOL)
            .map(|_| (0..dims.len()).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ns = timed(&mut tr, "gp.predict_batch", 20, || gp.predict_batch(&cands));
        v.push(("gp.predict_batch_us", ns / 1e3, "us"));

        let search = SearchOptions {
            cells: space.cell_counts(),
            ..SearchOptions::default()
        };
        let pool = CandidatePool::new(dims.len(), &search, &mut rng);
        let best = data.best().expect("probe data");
        let idx = data
            .y
            .iter()
            .position(|&y| y == best)
            .expect("best is in the data");
        let mut scratch = ProposalScratch::new();
        let ns = timed(&mut tr, "core.acquisition", 20, || {
            let mut r = StdRng::seed_from_u64(mix(PROBE_SEED, 2));
            propose_ei_pooled_scratch(
                &gp,
                &pool,
                Some((&data.x[idx], best)),
                &data.x,
                &[],
                &search,
                None,
                &mut r,
                &mut scratch,
            )
        });
        v.push(("core.acq_ms", ns / 1e6, "ms"));

        // The TLA session's shapes: its crowd, sources and a target at
        // the session's budget.
        let crowd = tla::populate(PROBE_SEED);
        let session = CrowdSession::open(&crowd.db, &crowd.metas[0]).map_err(|e| e.to_string())?;
        let ns = timed(&mut tr, "db.source_tasks", 3, || {
            session
                .source_tasks(tla::MIN_SAMPLES)
                .expect("probe source tasks")
        });
        v.push(("db.source_tasks_ms", ns / 1e6, "ms"));
        let sources = session
            .source_tasks(tla::MIN_SAMPLES)
            .map_err(|e| e.to_string())?;
        let src = sources[0].data.clone();
        let ns = timed(&mut tr, "gp.source_fit", 3, || {
            let mut r = StdRng::seed_from_u64(mix(PROBE_SEED, 3));
            SourceTask::fit("probe", src.clone(), &dims, &mut r).expect("source fit")
        });
        v.push(("gp.source_fit_ms", ns / 1e6, "ms"));

        let target = samples(&app, tla::BUDGET, &mut rng);
        let tasks: Vec<TaskData> = sources
            .iter()
            .map(|s| &s.data)
            .chain(std::iter::once(&target))
            .map(|d| TaskData {
                x: d.x.clone(),
                y: d.y.clone(),
            })
            .collect();
        let mut lcm_config = LcmConfig::new(dims.clone());
        lcm_config.restarts = 0;
        lcm_config.max_opt_iter = 35;
        let ns = timed(&mut tr, "gp.lcm_fit", 3, || {
            let mut r = StdRng::seed_from_u64(mix(PROBE_SEED, 4));
            Lcm::fit(&tasks, &lcm_config, &mut r).expect("probe LCM fits")
        });
        v.push(("gp.lcm_fit_ms", ns / 1e6, "ms"));

        let ctx = TlaContext {
            dims: &dims,
            sources: &sources,
            target: &target,
            search: &search,
            max_lcm_samples: crowdtune_core::TuneConfig::default().max_lcm_samples,
            valid: None,
            failed: &[],
        };
        let mut proposals = Vec::new();
        let ns = timed(&mut tr, "core.propose", 3, || {
            let mut e = Ensemble::proposed_default();
            let mut r = StdRng::seed_from_u64(mix(PROBE_SEED, 5));
            let x = e.propose(&ctx, &mut r);
            proposals.push((e, x.clone()));
            x
        });
        v.push(("core.propose_ms", ns / 1e6, "ms"));
        let mut it = proposals.into_iter();
        let ns = timed(&mut tr, "core.observe", 3, || {
            let (mut e, x) = it.next().expect("one proposal per repetition");
            e.observe(&x, Some(best));
        });
        v.push(("core.observe_us", ns / 1e3, "us"));

        let dir = out_dir.join(format!("probe-wal-{}", std::process::id()));
        write_probe_corpus(&dir)?;
        let ns = timed(&mut tr, "db.recover", 3, || {
            CrowdService::open_durable(&dir, ServiceConfig::default()).expect("probe reopen")
        });
        let _ = std::fs::remove_dir_all(&dir);
        v.push(("db.recover_s", ns / 1e9, "s"));

        let dir = out_dir.join(format!("probe-commit-{}", std::process::id()));
        let commit = durable_commit(&dir, origin);
        let _ = std::fs::remove_dir_all(&dir);
        let (upload_ns, fsyncs, batched, commit_spans) = commit?;
        let uploads = upload_ns.len() as f64;
        v.push((
            "db.durable_upload_us",
            median(&upload_ns).expect("uploads ran") / 1e3,
            "us",
        ));
        v.push(("db.fsyncs_per_upload", fsyncs as f64 / uploads, "ratio"));
        v.push((
            "db.batched_per_fsync",
            batched as f64 / (fsyncs as f64).max(1.0),
            "ratio",
        ));

        let mut spans = tr.into_spans();
        spans.extend(commit_spans);
        Ok(Probes { values: v, spans })
    }

    pub fn put(&self, out: &mut Out) {
        for (name, value, unit) in &self.values {
            out.put(name, *value, unit);
        }
    }
}

/// Uploads per client of the durable-commit probe.
const COMMIT_UPLOADS: usize = 256;

/// One durable-commit client's upload latencies (ns) and spans.
type ClientUploads = (Vec<f64>, Vec<Span>);

/// The service's default durable commit: two clients upload fixed
/// documents at once to a fresh durable `CrowdService` with the default
/// configuration (group commit, fsync per commit, acknowledged after the
/// fsync). Returns each upload's latency in nanoseconds, the fsyncs
/// issued, the records that rode on another record's fsync, and a
/// `db.durable_upload` span per upload.
fn durable_commit(dir: &Path, origin: Instant) -> Result<(Vec<f64>, u64, u64, Vec<Span>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (svc, _) =
        CrowdService::open_durable(dir, ServiceConfig::default()).map_err(|e| e.to_string())?;
    let (fsyncs0, batched0) = (svc.fsync_count(), svc.fsync_batched_count());
    let clients: Vec<Result<ClientUploads, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                let svc = &svc;
                s.spawn(move || {
                    let mut tr = Tracer::new(true, origin, 10 + c);
                    let mut rng = StdRng::seed_from_u64(mix(PROBE_SEED, 7 + c));
                    let parent = tr.id();
                    let t_all = Instant::now();
                    let mut ns = Vec::with_capacity(COMMIT_UPLOADS);
                    for _ in 0..COMMIT_UPLOADS {
                        let doc = FunctionEvaluation::new("probe-commit", &format!("client{c}"))
                            .task("m", rng.gen_range(1_000..20_000i64))
                            .param("mb", rng.gen_range(1..16i64))
                            .outcome(EvalOutcome::single("runtime", rng.gen_range(0.5..50.0)));
                        let t0 = Instant::now();
                        svc.insert(doc).map_err(|e| e.to_string())?;
                        let t1 = Instant::now();
                        ns.push(t1.duration_since(t0).as_nanos() as f64);
                        let id = tr.id();
                        tr.record(id, parent, 0, "db.durable_upload", t0, t1);
                    }
                    tr.record(parent, 0, 0, "probe", t_all, Instant::now());
                    Ok((ns, tr.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe client panicked"))
            .collect()
    });
    let fsyncs = svc.fsync_count() - fsyncs0;
    let batched = svc.fsync_batched_count() - batched0;
    let mut ns = Vec::new();
    let mut spans = Vec::new();
    for client in clients {
        let (n, s) = client?;
        ns.extend(n);
        spans.extend(s);
    }
    Ok((ns, fsyncs, batched, spans))
}

/// A durable directory holding 4096 fixed documents, for the recovery
/// probe.
fn write_probe_corpus(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let bulk = ServiceConfig {
        wal: WalConfig {
            sync_every_append: false,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    };
    let (svc, _) = CrowdService::open_durable(dir, bulk).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(mix(PROBE_SEED, 6));
    for i in 0..4096 {
        let doc = FunctionEvaluation::new(&format!("probe-{:02}", i % 32), "probe")
            .task("m", rng.gen_range(1_000..20_000i64))
            .param("mb", rng.gen_range(1..16i64))
            .outcome(EvalOutcome::single("runtime", rng.gen_range(0.5..50.0)));
        svc.insert(doc).map_err(|e| e.to_string())?;
    }
    Ok(())
}
