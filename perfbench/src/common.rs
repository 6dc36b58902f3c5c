//! Pieces the tuning workloads share: the target task, the seeded
//! session list, the timing objective wrapper, and the correctness
//! checks made apart from the program (brute-force optimum, history).

use crate::trace::Tracer;
use crowdtune_apps::{Application, MachineModel, Pdgeqrf};
use crowdtune_core::TuneResult;
use crowdtune_space::{Domain, Point, Space, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::Instant;

/// The paper's PDGEQRF target: m = n = 10000 on 8 Haswell nodes.
pub fn target_app() -> Pdgeqrf {
    Pdgeqrf::new(10_000, 10_000, MachineModel::cori_haswell(8))
}

/// The tuning target, its space, and the brute-force optimum of its
/// model (computed once per run).
pub struct Target {
    pub app: Pdgeqrf,
    pub space: Space,
    pub optimum: f64,
}

impl Target {
    pub fn new() -> Self {
        let app = target_app();
        let (optimum, total, valid) = brute_force_optimum(&app);
        println!("brute-force optimum {optimum:.6} s over {total} configurations ({valid} valid)");
        Target {
            space: app.tuning_space(),
            app,
            optimum,
        }
    }
}

/// SplitMix64 step: derives independent seeds from the run seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Brute-force optimum of `Pdgeqrf::model_runtime` over every
/// configuration of the tuning space. Returns (optimum, configurations
/// enumerated, configurations the model accepts).
pub fn brute_force_optimum(app: &Pdgeqrf) -> (f64, usize, usize) {
    let ranges: Vec<(i64, i64)> = app
        .tuning_space()
        .params()
        .iter()
        .map(|p| match p.domain {
            Domain::Integer { lo, hi } => (lo, hi),
            _ => panic!("PDGEQRF tuning parameters are integers"),
        })
        .collect();
    let (mut best, mut total, mut valid) = (f64::INFINITY, 0usize, 0usize);
    for mb in ranges[0].0..ranges[0].1 {
        for nb in ranges[1].0..ranges[1].1 {
            for lg2 in ranges[2].0..ranges[2].1 {
                for p in ranges[3].0..ranges[3].1 {
                    total += 1;
                    if let Ok(t) = app.model_runtime(mb, nb, lg2, p) {
                        valid += 1;
                        best = best.min(t);
                    }
                }
            }
        }
    }
    (best, total, valid)
}

fn ints(x: &[Value]) -> [i64; 4] {
    let mut out = [0i64; 4];
    for (o, v) in out.iter_mut().zip(x) {
        *o = match v {
            Value::Int(i) => *i,
            other => panic!("PDGEQRF configuration holds integers, got {other:?}"),
        };
    }
    out
}

/// Noise-free runtime of a configuration.
pub fn noiseless(app: &Pdgeqrf, x: &[Value]) -> Result<f64, String> {
    let [mb, nb, lg2, p] = ints(x);
    app.model_runtime(mb, nb, lg2, p).map_err(|e| e.to_string())
}

/// Timing objective: evaluates the simulated application, records what
/// it returned, times the gap since the previous return (the tuner's
/// suggest time: fit + acquisition), and spans the evaluation itself.
pub struct Objective<'a> {
    app: &'a Pdgeqrf,
    rng: StdRng,
    tracer: &'a Mutex<Tracer>,
    pub parent: u64,
    pub op: u64,
    last_return: Option<Instant>,
    pub returned: Vec<(Point, Result<f64, String>)>,
    pub suggest_ns: Vec<f64>,
}

impl<'a> Objective<'a> {
    pub fn new(app: &'a Pdgeqrf, noise_seed: u64, tracer: &'a Mutex<Tracer>) -> Self {
        Objective {
            app,
            rng: StdRng::seed_from_u64(noise_seed),
            tracer,
            parent: 0,
            op: 0,
            last_return: None,
            returned: Vec::new(),
            suggest_ns: Vec::new(),
        }
    }

    /// Evaluate `x`; the caller stamps the return with [`Self::returned_at`]
    /// after any upload it makes.
    pub fn eval(&mut self, x: &Point) -> Result<f64, String> {
        let t0 = Instant::now();
        if let Some(r) = self.last_return {
            self.suggest_ns.push(t0.duration_since(r).as_nanos() as f64);
        }
        let out = self
            .app
            .evaluate(x, &mut self.rng)
            .map_err(|e| e.to_string());
        let t1 = Instant::now();
        let mut tr = self.tracer.lock().expect("tracer lock poisoned");
        let id = tr.id();
        tr.record(id, self.parent, self.op, "apps.eval", t0, t1);
        drop(tr);
        self.returned.push((x.clone(), out.clone()));
        out
    }

    pub fn returned_at(&mut self, t: Instant) {
        self.last_return = Some(t);
    }
}

/// The checks every tuning session passes, computed apart from the
/// program. Returns the session's best measured runtime.
pub fn check_session(
    target: &Target,
    res: &TuneResult,
    returned: &[(Point, Result<f64, String>)],
    budget: usize,
) -> Result<f64, String> {
    let Target {
        app,
        space,
        optimum,
    } = target;
    if res.history.len() != budget {
        return Err(format!(
            "history holds {} entries, budget is {budget}",
            res.history.len()
        ));
    }
    if returned.len() != res.history.len() {
        return Err(format!(
            "objective ran {} times for {} history entries",
            returned.len(),
            res.history.len()
        ));
    }
    // Noise is log-normal with sigma = app.noise_sigma: a measured
    // runtime lies within exp(+-6 sigma) of the model runtime.
    let band = (6.0 * app.noise_sigma).exp();
    let mut best = f64::INFINITY;
    for (i, (rec, (x, y))) in res.history.iter().zip(returned).enumerate() {
        if space.validate(&rec.point).is_err() || !app.validate_config(&rec.point) {
            return Err(format!("entry {i}: invalid configuration {:?}", rec.point));
        }
        if &rec.point != x {
            return Err(format!("entry {i}: history point differs from the call"));
        }
        let (Ok(recorded), Ok(got)) = (&rec.result, y) else {
            return Err(format!("entry {i}: evaluation failed: {:?}", rec.result));
        };
        if recorded.to_bits() != got.to_bits() {
            return Err(format!("entry {i}: recorded {recorded} != returned {got}"));
        }
        let ratio = got / noiseless(app, x)?;
        if !(1.0 / band..=band).contains(&ratio) {
            return Err(format!(
                "entry {i}: runtime/model = {ratio} outside +-6 sigma"
            ));
        }
        best = best.min(*got);
    }
    let (best_point, reported) = res.best().ok_or("no successful evaluation")?;
    if reported.to_bits() != best.to_bits() {
        return Err(format!("best {reported} is not the history minimum {best}"));
    }
    let floor = noiseless(app, best_point)?;
    if floor < *optimum {
        return Err(format!(
            "best configuration's model runtime {floor} beats the brute-force optimum {optimum}"
        ));
    }
    Ok(best)
}

/// Bitwise comparison of two histories (the same-seed determinism check).
pub fn same_history(a: &TuneResult, b: &TuneResult) -> bool {
    a.history.len() == b.history.len()
        && a.history.iter().zip(&b.history).all(|(x, y)| {
            x.point == y.point
                && match (&x.result, &y.result) {
                    (Ok(p), Ok(q)) => p.to_bits() == q.to_bits(),
                    (Err(p), Err(q)) => p == q,
                    _ => false,
                }
        })
}

/// A fixed FMA loop: the host-drift reference. Returns GFLOP/s.
pub fn fma_probe() -> f64 {
    const LANES: usize = 8;
    const ITERS: usize = 250_000;
    let mut acc = [1.0f64; LANES];
    let mul = std::hint::black_box(0.999_999_9f64);
    let add = std::hint::black_box(1e-7f64);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        for a in acc.iter_mut() {
            *a = a.mul_add(mul, add);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    (2 * LANES * ITERS) as f64 / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_covers_the_whole_space() {
        let app = target_app();
        let (opt, total, valid) = brute_force_optimum(&app);
        assert_eq!(total, 15 * 15 * 5 * 255);
        assert!(valid > 0 && valid < total);
        // The optimum is attained and nothing in a coarse sweep beats it.
        for mb in [1, 4, 8, 15] {
            for p in [1, 8, 32, 128] {
                if let Ok(t) = app.model_runtime(mb, mb, 3, p) {
                    assert!(t >= opt);
                }
            }
        }
    }

    #[test]
    fn mix_spreads_seeds() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
