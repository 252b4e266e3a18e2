//! The run loop shared by every workload: set-up repeated and timed as
//! its median repetition, grid passes until the time budget is spent with
//! each cell timed on its own (and set-up repeated once more before
//! each), then (traced runs only) the layer probes and a second, traced
//! series of passes.

use std::path::PathBuf;

use crate::measure::{tail, timed, Budget, CellTimes};
use crate::metrics::Report;
use crate::spans::{self, Tracer};

/// How much work a run does. Real runs use [`Sizes::REAL`]; tests shrink
/// every dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Committed-instruction window of a `full-direct` cell.
    pub full_window: u64,
    /// Committed-instruction window of a `sweep-replay` cell.
    pub sweep_window: u64,
    /// Instructions in the `mem-synth` stream.
    pub synth_insts: u64,
    /// Seconds of set-up repetitions per run.
    pub setup_seconds: f64,
    /// Fewest set-up repetitions per run.
    pub setup_reps: usize,
    /// Fewest grid passes per series.
    pub min_passes: usize,
    /// Repetitions of each probe measurement.
    pub probe_reps: usize,
}

impl Sizes {
    /// The sizes the benchmark is defined with.
    pub const REAL: Sizes = Sizes {
        full_window: 400_000,
        sweep_window: 20_000,
        synth_insts: 200_000,
        setup_seconds: 1.0,
        setup_reps: 5,
        min_passes: 3,
        probe_reps: 3,
    };
}

/// Simulated work of one cell in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Committed instructions.
    pub insts: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// One workload of the benchmark.
pub trait Bench {
    /// A line naming the inputs; it depends on the seed only where the
    /// workload takes one.
    fn describe(&self) -> String;
    /// Grid cells per pass.
    fn cells(&self) -> usize;
    /// Build what a user pays for before the first cell. Called several
    /// times; the last call's products are the ones the passes use.
    fn setup(&mut self, t: &mut Tracer);
    /// Untimed preparation before a pass.
    fn begin_pass(&mut self) {}
    /// Run one cell (timed by the caller).
    fn run_cell(&mut self, cell: usize, t: &mut Tracer);
    /// Per-pass work after the cells, timed by the caller; `false` when
    /// the workload has none.
    fn aggregate(&mut self, _t: &mut Tracer) -> bool {
        false
    }
    /// Untimed: what each cell of the pass just run produced.
    fn end_pass(&mut self) -> Vec<Result<Counts, String>>;
    /// Distance in percentage points between the geomean of `1-port
    /// combined` / `2-port` IPC over the workload's cells and the paper's
    /// 91% headline.
    fn paper_gap_pp(&self) -> f64;
    /// Correctness verdicts on the last pass; `counts` are the first
    /// pass's cells.
    fn verify(&mut self, counts: &[Counts], report: &mut Report);
    /// The per-layer probes. `passes` is the untraced series.
    fn probe(&mut self, t: &mut Tracer, report: &mut Report, passes: &Passes);
}

/// The paper's headline: a single-ported cache with the combined
/// techniques reaches 91% of dual-ported performance.
pub const PAPER_HEADLINE_PCT: f64 = 91.0;

/// `|geomean(ratios) × 100 − 91|`.
pub fn paper_gap(ratios: &[f64]) -> f64 {
    let geomean = cpe::stats::geometric_mean(ratios.iter().copied()).unwrap_or(0.0);
    (geomean * 100.0 - PAPER_HEADLINE_PCT).abs()
}

/// One series of grid passes.
#[derive(Debug, Clone, Default)]
pub struct Passes {
    /// Every cell's samples.
    pub times: CellTimes,
    /// Per-pass aggregation samples (empty when the workload has none).
    pub aggregate: Vec<f64>,
    /// The first pass's counts, per cell.
    pub counts: Vec<Counts>,
}

impl Passes {
    /// Host seconds for one pass: each cell's best repetition plus the
    /// best aggregation.
    pub fn wall_s(&self) -> f64 {
        let aggregate = self.aggregate.iter().copied().fold(f64::INFINITY, f64::min);
        self.times.best_total()
            + if aggregate.is_finite() {
                aggregate
            } else {
                0.0
            }
    }

    fn total(&self, field: fn(&Counts) -> u64) -> f64 {
        self.counts.iter().map(field).sum::<u64>() as f64
    }

    /// Simulated instructions per host second, in millions.
    pub fn minsts_per_s(&self) -> f64 {
        self.total(|c| c.insts) / self.wall_s() / 1e6
    }

    /// Simulated cycles per host second, in millions.
    pub fn mcycles_per_s(&self) -> f64 {
        self.total(|c| c.cycles) / self.wall_s() / 1e6
    }
}

/// Every set-up repetition's time, in seconds.
#[derive(Debug, Clone, Default)]
struct Setup {
    samples: Vec<f64>,
}

impl Setup {
    fn once(&mut self, bench: &mut dyn Bench, t: &mut Tracer) {
        let (seconds, ()) = timed(|| t.span("bench", "setup", None, |t| bench.setup(t)));
        self.samples.push(seconds);
    }
}

/// Run passes until `seconds` are spent (and at least `min_passes`),
/// each after one more set-up repetition, so set-up samples the same
/// stretch of host time as the cells do. Every cell of every pass counts
/// as attempted; a cell that fails, or whose counts differ from the first
/// pass's, counts as failed.
fn run_passes(
    bench: &mut dyn Bench,
    t: &mut Tracer,
    seconds: f64,
    min_passes: usize,
    setup: &mut Setup,
    report: &mut Report,
) -> Passes {
    let cells = bench.cells();
    let mut passes = Passes {
        times: CellTimes::new(cells),
        ..Passes::default()
    };
    let budget = Budget::new(seconds, min_passes);
    let mut done = 0;
    while budget.another(done) {
        setup.once(bench, t);
        bench.begin_pass();
        t.span("bench", "pass", None, |t| {
            for cell in 0..cells {
                let (seconds, ()) =
                    timed(|| t.span("bench", "cell", Some(cell), |t| bench.run_cell(cell, t)));
                passes.times.record(cell, seconds);
            }
            let (seconds, did) = timed(|| bench.aggregate(t));
            if did {
                passes.aggregate.push(seconds);
            }
        });
        let outcomes = bench.end_pass();
        report.attempted += outcomes.len() as u64;
        for (cell, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(counts) if done == 0 => passes.counts.push(counts),
                Ok(counts) if passes.counts.get(cell) == Some(&counts) => {}
                Ok(counts) => {
                    report.failed += 1;
                    report.notes.push(format!(
                        "cell {cell}: pass {done} gave {counts:?}, not the first pass's"
                    ));
                }
                Err(message) => {
                    report.failed += 1;
                    report.notes.push(format!("cell {cell}: {message}"));
                    if done == 0 {
                        passes.counts.push(Counts {
                            insts: 0,
                            cycles: 0,
                        });
                    }
                }
            }
        }
        done += 1;
    }
    passes
}

/// Where a run keeps its scratch files and the span dump.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Run one workload and report its metrics and verdicts.
pub fn run(bench: &mut dyn Bench, seconds: f64, trace: bool, sizes: &Sizes, label: &str) -> Report {
    let mut report = Report::default();
    let mut t = Tracer::off();
    t.set_enabled(trace);

    let mut setup = Setup::default();
    let budget = Budget::new(sizes.setup_seconds, sizes.setup_reps.max(1));
    while budget.another(setup.samples.len()) {
        setup.once(bench, &mut t);
    }

    // End-to-end figures come from passes with tracing off.
    t.set_enabled(false);
    let series_s = if trace { seconds / 2.0 } else { seconds };
    let passes = run_passes(
        bench,
        &mut t,
        series_s,
        sizes.min_passes,
        &mut setup,
        &mut report,
    );
    // Set-up is short and repeated before every pass, so its median over
    // the run is steady without taking the best.
    report.set(
        "setup_s",
        crate::measure::median(&setup.samples).unwrap_or(f64::NAN),
    );
    report.set("wall_s", passes.wall_s());
    report.set("minsts_per_s", passes.minsts_per_s());
    report.set("mcycles_per_s", passes.mcycles_per_s());
    report.notes.push(format!(
        "set-up: median of {} repetitions",
        setup.samples.len()
    ));
    let totals = passes.times.pass_totals();
    let (fastest, slowest) = totals.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
        (lo.min(t), hi.max(t))
    });
    report.notes.push(format!(
        "{} cells x best of {} repetitions each; whole passes took {fastest:.4} s to {slowest:.4} s \
         (median {:.4} s), the per-cell bests sum to {:.4} s",
        bench.cells(),
        passes.times.repetitions(),
        crate::measure::median(&totals).unwrap_or(0.0),
        passes.times.best_total()
    ));

    let samples_ms: Vec<f64> = passes.times.all().iter().map(|s| s * 1e3).collect();
    if let Some(p50) = crate::measure::median(&samples_ms) {
        report.set("exec.cell_ms_p50", p50);
    }
    if let Some((percentile, value)) = tail(&samples_ms, 10) {
        report.set("exec.cell_ms_tail", value);
        report.notes.push(format!(
            "cell time over {} samples: p50 {:.3} ms, p{percentile:.1} {value:.3} ms",
            samples_ms.len(),
            report.get("exec.cell_ms_p50").unwrap_or(0.0)
        ));
    }

    if trace {
        t.set_enabled(true);
        t.span("bench", "probes", None, |t| {
            bench.probe(t, &mut report, &passes)
        });
        let traced = run_passes(
            bench,
            &mut t,
            series_s,
            sizes.min_passes,
            &mut setup,
            &mut report,
        );
        report.set(
            "trace.overhead_minsts_per_s",
            passes.minsts_per_s() - traced.minsts_per_s(),
        );
        let recorded = t.spans();
        let root = spans::root_time(recorded).max(1) as f64;
        let self_ns = spans::self_times(recorded);
        for layer in crate::LAYERS {
            let share = self_ns.get(layer).copied().unwrap_or(0) as f64 / root;
            report.set(&format!("self_share.{layer}"), share);
        }
        let path = out_dir().join(format!("spans-{label}.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, spans::to_json(recorded)));
        report.notes.push(match written {
            Ok(()) => format!("{} spans written to {}", recorded.len(), path.display()),
            Err(error) => format!("spans not written: {error}"),
        });
    }

    bench.verify(&passes.counts, &mut report);
    report.set("paper_gap_pp", bench.paper_gap_pp());
    if let Some(bytes) = cpe::peak_rss_bytes() {
        report.set("peak_rss_mib", bytes as f64 / (1024.0 * 1024.0));
    }
    report
}
