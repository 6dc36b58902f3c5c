//! `notla_long`: `tune_notla_constrained` on PDGEQRF with a long budget
//! and no database. It isolates the exact-GP hot path at growing n:
//! rank-1 updates, scheduled refits, warm-started L-BFGS and pooled
//! acquisition.

use crate::common::{check_session, mix, same_history, Objective, Target};
use crate::trace::Tracer;
use crate::{Measured, RunCtx};
use crowdtune_apps::Application;
use crowdtune_core::{tune_notla_constrained, TuneConfig, TuneResult};
use crowdtune_space::Point;
use std::sync::Mutex;
use std::time::Instant;

/// Evaluations per session; the surrogate ends at n = BUDGET points.
pub const BUDGET: usize = 120;
/// Space-filling samples before the first model-based proposal.
pub const N_INIT: usize = 8;
/// Sessions in the seeded list a run replays.
pub const SESSIONS: usize = 64;

struct SessionOut {
    dur_ns: f64,
    result: TuneResult,
    best: f64,
    suggest_ns: Vec<f64>,
}

fn session(
    target: &Target,
    seed: u64,
    tracer: &Mutex<Tracer>,
    op: u64,
) -> Result<SessionOut, String> {
    let Target { app, space, .. } = target;
    let t0 = Instant::now();
    let (session_id, tune_id) = {
        let mut tr = tracer.lock().expect("tracer lock poisoned");
        (tr.id(), tr.id())
    };
    let config = TuneConfig {
        budget: BUDGET,
        n_init: N_INIT,
        seed: mix(seed, 1),
        ..TuneConfig::default()
    };
    let constraint = |p: &Point| app.validate_config(p);
    let mut obj = Objective::new(app, mix(seed, 2), tracer);
    obj.parent = tune_id;
    obj.op = op;
    let mut objective = |x: &Point| {
        let out = obj.eval(x);
        obj.returned_at(Instant::now());
        out
    };
    let t1 = Instant::now();
    let result = tune_notla_constrained(space, &mut objective, &config, Some(&constraint));
    let t2 = Instant::now();
    {
        let mut tr = tracer.lock().expect("tracer lock poisoned");
        tr.record(tune_id, session_id, op, "core.tune", t1, t2);
        tr.record(session_id, 0, op, "session", t0, t2);
    }
    let best = check_session(target, &result, &obj.returned, BUDGET)?;
    Ok(SessionOut {
        dur_ns: t2.duration_since(t0).as_nanos() as f64,
        result,
        best,
        suggest_ns: std::mem::take(&mut obj.suggest_ns),
    })
}

pub fn run(ctx: &RunCtx, trace: bool) -> Result<Measured, String> {
    // Set-up is building the target: the brute-force enumeration of its
    // space that the correctness checks use, repeated.
    let mut setup_s = Vec::new();
    let mut target = None;
    for _ in 0..crate::SETUP_REPEATS {
        let t0 = Instant::now();
        let t = Target::new();
        setup_s.push(t0.elapsed().as_secs_f64());
        target = Some(t);
    }
    let target = target.expect("at least one set-up");
    let seeds: Vec<u64> = (0..SESSIONS as u64)
        .map(|i| mix(ctx.seed, 200 + i))
        .collect();
    let tracer = Mutex::new(Tracer::new(trace, ctx.origin, 1));

    // One untimed warm-up session: the first session of the list, which
    // the timed run repeats (the same-seed determinism check).
    let warm = session(&target, seeds[0], &tracer, 0)?;
    let _ = std::mem::replace(
        &mut *tracer.lock().expect("tracer lock poisoned"),
        Tracer::new(trace, ctx.origin, 1),
    );

    let mut m = Measured::new("notla_long", setup_s);
    let mut bests = vec![None; SESSIONS];
    let start = Instant::now();
    let mut i = 0usize;
    while i < SESSIONS || start.elapsed().as_secs_f64() < ctx.seconds {
        let k = i % SESSIONS;
        m.attempted += 1;
        let out = session(&target, seeds[k], &tracer, i as u64 + 1)?;
        if i == 0 && !same_history(&warm.result, &out.result) {
            return Err("same-seed re-run of session 0 gave a different history".into());
        }
        bests[k] = Some(out.best);
        m.lanes[0].push(out.dur_ns);
        m.step_ns.extend(&out.suggest_ns);
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
    m.peak_rss_mb = crate::peak_rss_mb();
    m.spans = tracer
        .into_inner()
        .expect("tracer lock poisoned")
        .into_spans();
    Ok(m)
}
