//! The untraced end-to-end measurement of one workload.
//!
//! Set-up (inputs, simulator construction and the cold first
//! repetition) runs [`SETUP_TRIALS`] times, each on a fresh thread so
//! the thread-local memory-system pool starts empty; the median is
//! `setup_s`. The last trial's thread then runs repetitions back to back
//! for the measured window. Only one thread simulates at any time.

use crate::workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// Set-up trials per run; `setup_s` is their median.
const SETUP_TRIALS: usize = 5;
/// Timed repetitions a run makes even when the window is shorter.
const MIN_REPS: usize = 10;

/// What one untraced run measured.
pub struct Measured {
    /// Host seconds of each set-up trial.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed repetition.
    pub rep_s: Vec<f64>,
    /// Simulated work one repetition offers.
    pub units: f64,
    /// Checked operations: every cold and every timed repetition.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// FNV-1a digest of the generated inputs.
    pub digest: u64,
}

/// FNV-1a over formatted text: a stable fingerprint of generated
/// inputs that never holds the text in memory.
pub struct Fnv(pub u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Digest of one workload's generated inputs.
    pub fn of(w: &impl Workload) -> u64 {
        let mut h = Fnv::new();
        w.describe(&mut h).expect("hashing text cannot fail");
        h.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        Ok(())
    }
}

/// The median of `xs` (which must be non-empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The fastest of `xs` (which must be non-empty). Interference on a
/// shared host only ever adds time to a deterministic repetition, so the
/// fastest one is the steady estimate of the program's own cost.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One set-up trial's result, returned from its thread.
struct Trial<O> {
    setup_s: f64,
    cold: O,
    cold_ok: bool,
    digest: u64,
    units: f64,
    reps: Vec<f64>,
    rep_failures: u64,
}

fn trial<W: Workload>(
    build: &(impl Fn() -> W + Sync),
    seconds: f64,
    timed: bool,
) -> Result<Trial<W::Output>, String> {
    let start = Instant::now();
    let mut w = build();
    let cold = w.run()?;
    let setup_s = start.elapsed().as_secs_f64();
    let cold_ok = w
        .verify(&cold)
        .map_err(|e| eprintln!("cold repetition: {e}"))
        .is_ok();

    let mut reps = Vec::new();
    let mut rep_failures = 0;
    if timed {
        let window = Instant::now();
        while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let out = black_box(w.run());
            reps.push(t.elapsed().as_secs_f64());
            let ok = match &out {
                Ok(o) => {
                    w.verify(o)
                        .map_err(|e| eprintln!("repetition: {e}"))
                        .is_ok()
                        && W::same(&cold, o)
                }
                Err(e) => {
                    eprintln!("repetition: {e}");
                    false
                }
            };
            rep_failures += u64::from(!ok);
        }
    }
    Ok(Trial {
        setup_s,
        digest: Fnv::of(&w),
        units: w.units(),
        cold,
        cold_ok,
        reps,
        rep_failures,
    })
}

/// Measures one workload: [`SETUP_TRIALS`] set-ups, then repetitions
/// for `seconds` (at least [`MIN_REPS`]). Fails only if a cold
/// repetition cannot run at all.
pub fn measure<W: Workload>(
    build: impl Fn() -> W + Sync,
    seconds: f64,
) -> Result<Measured, String> {
    let mut m = Measured {
        setup_s: Vec::new(),
        rep_s: Vec::new(),
        units: 0.0,
        attempted: 0,
        failed: 0,
        digest: 0,
    };
    let mut first: Option<W::Output> = None;
    for i in 0..SETUP_TRIALS {
        let timed = i + 1 == SETUP_TRIALS;
        let t = std::thread::scope(|s| {
            s.spawn(|| trial(&build, seconds, timed))
                .join()
                .expect("workload thread panicked")
        })?;
        let matches_first = match &first {
            None => true,
            Some(f) => W::same(f, &t.cold) && m.digest == t.digest,
        };
        if !matches_first {
            eprintln!("set-up trial {i} differs from trial 0");
        }
        m.attempted += 1 + t.reps.len() as u64;
        m.failed += u64::from(!(t.cold_ok && matches_first)) + t.rep_failures;
        m.setup_s.push(t.setup_s);
        m.digest = t.digest;
        m.units = t.units;
        m.rep_s = t.reps;
        first.get_or_insert(t.cold);
    }
    Ok(m)
}
