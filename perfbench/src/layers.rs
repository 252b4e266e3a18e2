//! Per-layer probes: each drives one layer through its public API on the
//! workload's own inputs, inside spans, and records what it measured.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use cpe::cpu::{Core, SimResult};
use cpe::exec::{canonical_json, CacheKey, ResultCache};
use cpe::isa::replay::RecordedTrace;
use cpe::isa::{DynInst, Emulator};
use cpe::mem::{Addr, MemSystem};
use cpe::workloads::os::OsInjector;
use cpe::workloads::synth::{SynthConfig, SyntheticTrace};
use cpe::workloads::{Scale, Workload};
use cpe::{
    profile_json, ProfileOptions, ProfiledRun, RecordedWorkload, RunSummary, SimError, Simulator,
    StallCause, RECORD_HEADROOM,
};

use crate::engine::{out_dir, Counts};
use crate::measure::{best_of, timed};
use crate::metrics::Report;
use crate::spans::Tracer;

/// The committed-path stream a cell consumes.
#[derive(Debug, Clone, Copy)]
pub enum Stream<'a> {
    /// Live functional emulation of a paper workload.
    Live(Workload, Scale),
    /// A replay of a shared recording.
    Recorded(&'a RecordedWorkload),
    /// A synthetic stream generated into memory.
    Synth(&'a [DynInst]),
}

/// Run `$body` with `$it` bound to a fresh iterator over `$stream`,
/// monomorphised per stream kind so no probe pays for dynamic dispatch.
macro_rules! with_stream {
    ($stream:expr, |$it:ident| $body:expr) => {
        match $stream {
            Stream::Live(workload, scale) => {
                let $it = workload.trace(scale);
                $body
            }
            Stream::Recorded(recorded) => {
                let $it = recorded.iter();
                $body
            }
            Stream::Synth(insts) => {
                let $it = insts.iter().copied();
                $body
            }
        }
    };
}

/// One grid cell as the probes see it.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCell<'a> {
    /// The configured simulator.
    pub sim: &'a Simulator,
    /// The stream it consumes.
    pub stream: Stream<'a>,
    /// The workload label for summaries.
    pub label: &'a str,
    /// The committed-instruction window.
    pub window: Option<u64>,
}

impl ProbeCell<'_> {
    /// The cell through the cpe-core entry point its workload uses: plain
    /// `try_run` for live emulation and synthetic streams, the profiling
    /// replay path for recordings (as a replay sweep runs its cells).
    fn run_as_workload(&self) -> Result<u64, SimError> {
        Ok(match self.stream {
            Stream::Live(workload, scale) => self.sim.try_run(workload, scale, self.window)?.cycles,
            Stream::Recorded(recorded) => {
                self.sim
                    .try_profile_recorded(recorded, self.window, ProfileOptions::default())?
                    .summary
                    .cycles
            }
            Stream::Synth(insts) => {
                self.sim
                    .try_run_trace(self.label, insts.iter().copied(), self.window)?
                    .cycles
            }
        })
    }

    /// The cell through plain `try_run_trace` on the same stream.
    fn run_plain(&self) -> Result<u64, SimError> {
        with_stream!(self.stream, |it| Ok(self
            .sim
            .try_run_trace(self.label, it, self.window)?
            .cycles))
    }
}

/// Where a workload's instructions come from before any cell sees them.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A paper program: assembled, then emulated for `count` instructions.
    Program {
        /// The workload.
        workload: Workload,
        /// Its problem size.
        scale: Scale,
        /// Instructions drained.
        count: u64,
    },
    /// The synthetic generator.
    Synth(SynthConfig),
}

impl Source {
    /// Produce the stream `reps` times through the workloads and ISA
    /// layers; returns the best time and the instruction count. For a
    /// paper program the time covers emulation only: assembly happens once,
    /// outside it (it is `full-direct`'s set-up).
    fn produce(&self, reps: usize, t: &mut Tracer) -> (f64, u64) {
        let count_of = |count: u64, _: DynInst| count + 1;
        match *self {
            Source::Program {
                workload,
                scale,
                count,
            } => {
                let program = t.span("workloads", "program", None, |_| workload.program(scale));
                let mut best = (f64::INFINITY, 0);
                for _ in 0..reps.max(1) {
                    let emulator = Emulator::new(program.clone());
                    let (seconds, produced) = t.span("isa", "emulate", None, |_| {
                        timed(|| {
                            OsInjector::new(emulator, workload.os_config())
                                .take(count as usize)
                                .map(black_box)
                                .fold(0, count_of)
                        })
                    });
                    best = (best.0.min(seconds), produced);
                }
                best
            }
            Source::Synth(config) => best_of(reps, || {
                t.span("workloads", "synthesize", None, |_| {
                    SyntheticTrace::new(config).map(black_box).fold(0, count_of)
                })
            }),
        }
    }

    fn collect(&self) -> Vec<DynInst> {
        match *self {
            Source::Program {
                workload,
                scale,
                count,
            } => workload.trace(scale).take(count as usize).collect(),
            Source::Synth(config) => SyntheticTrace::new(config).collect(),
        }
    }
}

/// Front end: emulation (or generation), CPER recording and decoding, and
/// the recording's density, over every source of the workload.
fn front_end(sources: &[Source], reps: usize, t: &mut Tracer, report: &mut Report) {
    let (mut emu_s, mut record_s, mut decode_s) = (0.0, 0.0, 0.0);
    let (mut insts, mut bytes) = (0u64, 0u64);
    for source in sources {
        let (seconds, count) = source.produce(reps, t);
        emu_s += seconds;
        insts += count;
        let stream = source.collect();
        let (seconds, recorded) = best_of(reps, || {
            t.span("isa", "record", None, |_| {
                RecordedTrace::record(stream.iter().copied(), None)
            })
        });
        record_s += seconds;
        let (seconds, _) = best_of(reps, || {
            t.span("isa", "decode", None, |_| {
                recorded.iter().map(black_box).count()
            })
        });
        decode_s += seconds;
        bytes += recorded.info().payload_bytes as u64;
    }
    let per_inst = |seconds: f64| seconds * 1e9 / insts.max(1) as f64;
    report.set("isa.emu_ns_per_inst", per_inst(emu_s));
    report.set("isa.record_ns_per_inst", per_inst(record_s));
    report.set("isa.cper_decode_ns_per_inst", per_inst(decode_s));
    report.set(
        "isa.cper_bytes_per_record",
        bytes as f64 / insts.max(1) as f64,
    );
}

/// Counts the time spent inside the wrapped stream's `next()`.
struct Timed<I> {
    inner: I,
    spent: Duration,
}

impl<I: Iterator<Item = DynInst>> Iterator for Timed<I> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        let started = Instant::now();
        let item = self.inner.next();
        self.spent += started.elapsed();
        item
    }
}

/// Run `cell`'s simulation over `stream` with a timing adapter around
/// it, through the call the workload's cells use; returns the run's
/// seconds and the seconds spent inside the stream.
fn run_timed<I: Iterator<Item = DynInst>>(cell: &ProbeCell, stream: I) -> (f64, f64) {
    let mut adapter = Timed {
        inner: stream,
        spent: Duration::ZERO,
    };
    let (seconds, _) = timed(|| match cell.stream {
        Stream::Recorded(_) => cell
            .sim
            .try_profile_trace(
                cell.label,
                adapter.by_ref(),
                cell.window,
                ProfileOptions::default(),
            )
            .map(|run| run.summary.cycles),
        _ => cell
            .sim
            .try_run_trace(cell.label, adapter.by_ref(), cell.window)
            .map(|summary| summary.cycles),
    });
    (seconds, adapter.spent.as_secs_f64())
}

/// The share of cell time spent producing instructions. Each cell runs
/// twice with a timing adapter around its stream: once over the stream it
/// really consumes, once over the same instructions from memory. The
/// adapter costs both runs alike, so the difference in time inside the
/// stream is the cost of producing it: zero within noise, and so possibly
/// a hair below zero, for a stream that already comes from memory.
fn frontend_share(cells: &[ProbeCell], t: &mut Tracer, report: &mut Report) {
    let (mut producing, mut total) = (0.0, 0.0);
    for (index, cell) in cells.iter().enumerate() {
        let take = cell
            .window
            .map_or(usize::MAX, |window| (window + RECORD_HEADROOM) as usize);
        let insts: Vec<DynInst> = with_stream!(cell.stream, |it| it.take(take).collect());
        let (seconds, live) = t.span("isa", "stream_timed", Some(index), |_| {
            with_stream!(cell.stream, |it| run_timed(cell, it))
        });
        let (_, memory) = t.span("isa", "memory_timed", Some(index), |_| {
            run_timed(cell, insts.iter().copied())
        });
        producing += live - memory;
        total += seconds;
    }
    report.set(
        "isa.frontend_share",
        producing / total.max(f64::MIN_POSITIVE),
    );
}

/// Drive `Core::try_step` from outside over every cell: host cost per
/// step, cycles per step (the cycle-skip ratio), the scheduler's event
/// peak, the simulated CPI stack and memory-side figures. Returns each
/// cell's summary, in cell order, for cross-checking against the passes.
fn cpu_steps(
    cells: &[ProbeCell],
    t: &mut Tracer,
    report: &mut Report,
) -> Vec<Result<RunSummary, String>> {
    let (mut seconds, mut steps) = (0.0, 0u64);
    let mut summaries = Vec::with_capacity(cells.len());
    for (index, cell) in cells.iter().enumerate() {
        let config = cell.sim.config();
        let limit = cell.window.unwrap_or(u64::MAX);
        let (elapsed, outcome) = t.span("cpu", "try_step", Some(index), |_| {
            timed(|| {
                with_stream!(cell.stream, |it| {
                    let mut core = Core::new(config.cpu, MemSystem::new(config.mem), it);
                    let mut taken = 0u64;
                    loop {
                        let more = core.try_step().map_err(|report| report.to_string())?;
                        taken += 1;
                        if !more || core.stats().committed.get() >= limit {
                            break;
                        }
                    }
                    Ok((
                        taken,
                        SimResult {
                            cycles: core.stats().cycles.get(),
                            committed: core.stats().committed.get(),
                            cpu: core.stats().clone(),
                            mem: core.mem().stats().clone(),
                        },
                    ))
                })
            })
        });
        seconds += elapsed;
        summaries.push(outcome.map(|(taken, result)| {
            steps += taken;
            RunSummary::new(&config.name, cell.label, result)
        }));
    }
    let ok: Vec<&RunSummary> = summaries.iter().filter_map(|s| s.as_ref().ok()).collect();
    let cycles: u64 = ok.iter().map(|s| s.cycles).sum();
    let insts: u64 = ok.iter().map(|s| s.insts).sum::<u64>().max(1);
    report.set("cpu.ns_per_step", seconds * 1e9 / steps.max(1) as f64);
    report.set("cpu.cycles_per_step", cycles as f64 / steps.max(1) as f64);
    report.set(
        "cpu.sched_events_peak",
        ok.iter()
            .map(|s| s.raw.cpu.sched_events_peak.get())
            .max()
            .unwrap_or(0) as f64,
    );
    for cause in StallCause::ALL {
        let cycles_charged: f64 = ok
            .iter()
            .map(|s| s.raw.cpu.cpi_stack.get(cause) as f64 / s.raw.cpu.commit_width.max(1) as f64)
            .sum();
        report.set(
            &format!("cpu.cpi.{}", cause.name()),
            cycles_charged / insts as f64,
        );
    }
    let mean = |field: fn(&RunSummary) -> f64| {
        ok.iter().map(|s| field(s)).sum::<f64>() / ok.len().max(1) as f64
    };
    report.set("mem.port_utilisation", mean(|s| s.port_utilisation));
    report.set(
        "mem.portless_load_fraction",
        mean(|s| s.portless_load_fraction),
    );
    report.set("mem.dcache_mpki", mean(|s| s.dcache_mpki));
    report.set(
        "mem.store_combined_fraction",
        mean(|s| s.store_combined_fraction),
    );
    report.set(
        "mem.store_stall_per_kcycle",
        mean(|s| s.store_stall_per_kcycle),
    );
    summaries
}

/// Replay `insts` into a cold memory system without the core: per cycle,
/// one fetch of the group's block, then each group member's load or
/// store. Rejected accesses are not retried. Returns the accesses made.
fn replay_into_mem(insts: &[DynInst], sim: &Simulator) -> u64 {
    let config = sim.config();
    let width = config.cpu.fetch_width.max(1) as usize;
    let block = !(config.cpu.fetch_bytes - 1);
    let mut mem = MemSystem::new(config.mem);
    let mut accesses = 0;
    for (now, group) in insts.chunks(width).enumerate() {
        let now = now as u64;
        mem.begin_cycle(now);
        black_box(mem.fetch(now, Addr::new(group[0].pc & block)));
        accesses += 1;
        for di in group {
            let Some(addr) = di.mem_addr else { continue };
            if di.inst.op.is_store() {
                black_box(mem.commit_store(now, Addr::new(addr), di.mem_bytes()));
            } else {
                black_box(mem.try_load(now, Addr::new(addr), di.mem_bytes()));
            }
            accesses += 1;
        }
        mem.end_cycle(now);
    }
    accesses
}

/// Host cost per memory-system access, from a stand-alone replay of each
/// cell's fetch, load and store addresses.
fn mem_replay(cells: &[ProbeCell], reps: usize, t: &mut Tracer, report: &mut Report) {
    let (mut seconds, mut accesses) = (0.0, 0u64);
    for (index, cell) in cells.iter().enumerate() {
        let take = cell.window.map_or(usize::MAX, |window| window as usize);
        let insts: Vec<DynInst> = with_stream!(cell.stream, |it| it.take(take).collect());
        let (elapsed, count) = best_of(reps, || {
            t.span("mem", "replay", Some(index), |_| {
                replay_into_mem(&insts, cell.sim)
            })
        });
        seconds += elapsed;
        accesses += count;
    }
    report.set("mem.ns_per_access", seconds * 1e9 / accesses.max(1) as f64);
}

/// Repetitions per side of the profile-tax comparison, whose two sides
/// differ by less than host noise on workloads that never profile.
const TAX_REPS: usize = 5;

/// The bookkeeping tax cpe-core adds to the workload's cells: the best
/// time through the entry point the workload uses, over the best time
/// through plain `try_run_trace` on the same stream.
///
/// # Errors
///
/// The first cell that fails to run.
fn profile_tax(cells: &[ProbeCell], t: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let (mut entry, mut plain) = (0.0, 0.0);
    for (index, cell) in cells.iter().enumerate() {
        let (mut best_entry, mut best_plain) = (f64::INFINITY, f64::INFINITY);
        // Interleaved, alternating which side goes first, so drift in host
        // speed and warm-up hit both sides alike.
        for rep in 0..TAX_REPS {
            for side in [rep % 2, 1 - rep % 2] {
                let (seconds, outcome) = if side == 0 {
                    t.span("core", "entry_run", Some(index), |_| {
                        timed(|| cell.run_as_workload())
                    })
                } else {
                    t.span("core", "plain_run", Some(index), |_| {
                        timed(|| cell.run_plain())
                    })
                };
                outcome.map_err(|error| error.to_string())?;
                let best = if side == 0 {
                    &mut best_entry
                } else {
                    &mut best_plain
                };
                *best = best.min(seconds);
            }
        }
        entry += best_entry;
        plain += best_plain;
    }
    report.set("core.profile_tax", entry / plain.max(f64::MIN_POSITIVE));
    Ok(())
}

/// The probes every workload runs on its own cells: front end, stream
/// share, step-driven core (cross-checked against the timed passes'
/// `counts`), and, on the `1-port combined` cells, memory replay and the
/// profile tax.
pub fn common(
    sources: &[Source],
    cells: &[ProbeCell],
    combined: &[ProbeCell],
    counts: &[Counts],
    reps: usize,
    t: &mut Tracer,
    report: &mut Report,
) {
    front_end(sources, reps, t, report);
    frontend_share(cells, t, report);
    let stepped = cpu_steps(cells, t, report);
    let mismatched = stepped
        .iter()
        .zip(counts)
        .filter(|(summary, counts)| {
            summary.as_ref().map_or(true, |s| {
                s.insts != counts.insts || s.cycles != counts.cycles
            })
        })
        .count();
    report.check(
        "step-driven cells equal timed cells",
        mismatched == 0 && stepped.len() == counts.len(),
        format!("{mismatched} of {} cells differ", stepped.len()),
    );
    mem_replay(combined, reps, t, report);
    if let Err(error) = profile_tax(combined, t, report) {
        report.check("profile tax cells run", false, error);
    }
}

/// Render each profiled run as its metrics document: host cost and size
/// per document. Returns the documents.
pub fn profile_documents(
    runs: &[(ProfiledRun, &Simulator)],
    reps: usize,
    t: &mut Tracer,
    report: &mut Report,
) -> Vec<String> {
    let mut seconds = 0.0;
    let mut documents = Vec::with_capacity(runs.len());
    for (run, sim) in runs {
        let (elapsed, document) = best_of(reps, || {
            t.span("core", "profile_json", None, |_| {
                profile_json(run, sim.config())
            })
        });
        seconds += elapsed;
        documents.push(document);
    }
    let count = documents.len().max(1) as f64;
    let bytes: usize = documents.iter().map(String::len).sum();
    report.set("core.profile_json_ms", seconds * 1e3 / count);
    report.set("core.profile_json_kb", bytes as f64 / 1024.0 / count);
    documents
}

/// Result-cache cost per document: stores into an empty cache, then warm
/// lookups of the same keys, which must return the stored bytes; a
/// failed store or a missed lookup is a failed check.
pub fn exec_cache(
    entries: &[(CacheKey, String)],
    reps: usize,
    t: &mut Tracer,
    report: &mut Report,
) {
    let dir = out_dir().join(format!("probe-cache-{}", std::process::id()));
    let outcome = cache_round_trip(entries, &dir, reps, t, report);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(error) = outcome {
        report.check("result cache round trip", false, error);
    }
}

fn cache_round_trip(
    entries: &[(CacheKey, String)],
    dir: &Path,
    reps: usize,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let cache = ResultCache::new(dir);
    let mut store_s = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let _ = std::fs::remove_dir_all(dir);
        let (seconds, stored) = t.span("exec", "cache_store", None, |_| {
            timed(|| {
                entries
                    .iter()
                    .try_for_each(|(key, document)| cache.store(key, document))
            })
        });
        stored.map_err(|error| format!("cache store failed: {error}"))?;
        store_s = store_s.min(seconds);
    }
    let (lookup_s, found) = best_of(reps, || {
        t.span("exec", "cache_lookup", None, |_| {
            entries
                .iter()
                .filter(|(key, document)| cache.lookup(key).as_deref() == Some(document.as_str()))
                .count()
        })
    });
    if found != entries.len() {
        return Err(format!(
            "warm lookups returned {found} of {} stored documents",
            entries.len()
        ));
    }
    let count = entries.len().max(1) as f64;
    report.set("exec.cache_store_ms", store_s * 1e3 / count);
    report.set("exec.cache_lookup_ms", lookup_s * 1e3 / count);
    Ok(())
}

/// Parse and canonically re-render each document: the per-cell work of a
/// sweep aggregate, for streams that have no named workload to put in a
/// sweep plan. Returns the best time in seconds.
pub fn canonical_render(documents: &[String], reps: usize, t: &mut Tracer) -> f64 {
    best_of(reps, || {
        t.span("exec", "canonical_json", None, |_| {
            documents
                .iter()
                .map(|document| canonical_json(document).map_or(0, |text| text.len()))
                .sum::<usize>()
        })
    })
    .0
}
