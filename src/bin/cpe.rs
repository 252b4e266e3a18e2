//! `cpe` — command-line front end to the simulation suite.
//!
//! ```text
//! cpe asm <file.s>                  assemble and print the listing
//! cpe trace <file.s> [-n N]         print the first N executed instructions
//! cpe trace record SOURCE [--max N] [-o FILE]
//!                                   record a stream's committed path to a
//!                                   compact replay trace (CPER format)
//! cpe trace info <file.cper>        describe a recorded replay trace
//! cpe run SOURCE [--config NAME] [--max N] [--detail] [--metrics-json FILE]
//!         [--interval N] [--ring N] [--trace-out FILE]
//!         [--trace-format chrome|konata]
//!                                   run the timing model over one stream and
//!                                   print its metrics; --detail and every
//!                                   flag after it profile the run: interval
//!                                   metrics, trace-event export, self-profile
//! cpe compare SOURCE [--max N] [--metrics-json FILE]
//!                                   run every design point, print a table
//! cpe explain <CONFIG_A> <CONFIG_B> [--workload NAME] [--scale S] [--max N]
//!                                   run both configs and rank the per-cause
//!                                   CPI deltas: where do the cycles go?
//! cpe sweep [--jobs N] [--scale S] [--max N] [--configs a,b] [--workloads x,y]
//!           [--metrics-json FILE] [--no-progress]
//!                                   record each workload once and replay it
//!                                   through every config on the parallel
//!                                   scheduler
//! cpe validate <file>... [--cpi]
//!                                   parse observability artifacts (JSON,
//!                                   Konata pipeviews, or CPER replay
//!                                   traces) and check CPI-stack
//!                                   conservation at zero tolerance; exit 2
//!                                   on any malformed or slot-leaking input
//! cpe diff <a.json> <b.json> [--tolerance PCT]
//!                                   compare two exported JSON documents
//!                                   field by field; exit 1 on regression
//! cpe workloads                     list the built-in workload suite
//! cpe configs                       list the named machine configurations
//! cpe --version                     print the version and exit
//!
//! SOURCE = <file.s> | <file.cper> | --workload NAME [--scale test|small|full]
//! ```
//!
//! Operands may come before or after the flags. Malformed numeric flags
//! and unknown flags are rejected up front, and every failure path —
//! an invalid configuration or a watchdog abort included — exits with
//! code 2 after a one-line diagnosis. `cpe diff` alone exits 1 when the
//! documents diverge beyond tolerance — distinct from 2, so CI can tell
//! a regression from a usage error.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use cpe::exec::{preset_configs, SweepPlan, SweepProgress};
use cpe::isa::replay::{parse_recorded, write_recorded, RecordedTrace, ReplayError, REPLAY_MAGIC};
use cpe::isa::{asm::assemble, DynInst, Emulator, Program};
use cpe::stats::Table;
use cpe::trace::{build_records, chrome_trace_json, konata_text, TraceHandle};
use cpe::workloads::{Scale, Workload};
use cpe::{
    check_replayable, diff_json, parse_json, profile_json, ProfileOptions, ProfiledRun, SimConfig,
    SimError, Simulator, RECORD_HEADROOM,
};

/// Every verb's stdout goes through this one writer: `println!` with
/// write errors routed to [`stdout_failed`] instead of a panic, and
/// nothing written once the reader has hung up.
macro_rules! outln {
    ($($arg:tt)*) => {
        if !stdout_closed() {
            if let Err(error) = writeln!(std::io::stdout(), $($arg)*) {
                stdout_failed(error)
            }
        }
    };
}

/// Set once a write to stdout has failed with a broken pipe.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

fn stdout_closed() -> bool {
    STDOUT_CLOSED.load(Ordering::Relaxed)
}

/// A reader that stops early (`cpe trace … | head`) is not an error:
/// later output is dropped quietly and the verb still exits with its
/// own status (so `cpe diff a b | head` keeps its verdict). Any other
/// write failure exits 2 after a one-line diagnosis, like every other
/// failure.
fn stdout_failed(error: std::io::Error) {
    if error.kind() == std::io::ErrorKind::BrokenPipe {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        return;
    }
    eprintln!("cannot write to stdout: {error}");
    std::process::exit(2);
}

/// The value flags of the verbs that take a stream SOURCE. Those of `cpe
/// run` past `--max` select the profiled path.
const RECORD_FLAGS: &[&str] = &["--workload", "--scale", "--max", "-o"];
const COMPARE_FLAGS: &[&str] = &["--workload", "--scale", "--max", "--metrics-json"];
const RUN_FLAGS: &[&str] = &[
    "--workload",
    "--scale",
    "--config",
    "--max",
    "--metrics-json",
    "--interval",
    "--ring",
    "--trace-out",
    "--trace-format",
];

/// The default configuration, the paper's combined single-port design.
/// Every verb accepts this alias as well as its report name.
const DEFAULT_CONFIG: &str = "combined_single_port";

/// Every named configuration, in `cpe configs` order: the sweep presets
/// plus the large-window stress cell.
fn all_configs() -> Vec<SimConfig> {
    let mut configs = preset_configs();
    configs.push(SimConfig::big_window());
    configs
}

/// The one config-name resolver every verb goes through.
fn config_by_name(name: &str) -> Result<SimConfig, String> {
    if name == DEFAULT_CONFIG {
        return Ok(SimConfig::combined_single_port());
    }
    all_configs()
        .into_iter()
        .find(|config| config.name == name)
        .ok_or_else(|| format!("unknown config `{name}` (see `cpe configs`)"))
}

/// The `--config NAME` flag, defaulting to the paper's design.
fn config_flag(args: &[String]) -> Result<SimConfig, String> {
    config_by_name(
        parse_flag(args, "--config")
            .as_deref()
            .unwrap_or(DEFAULT_CONFIG),
    )
}

fn workload_by_name(name: &str) -> Result<Workload, String> {
    Workload::EXTENDED
        .iter()
        .copied()
        .find(|workload| workload.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}` (see `cpe workloads`)"))
}

fn parse_scale(args: &[String]) -> Result<Scale, String> {
    match parse_flag(args, "--scale").as_deref() {
        None | Some("test") => Ok(Scale::Test),
        Some("small") => Ok(Scale::Small),
        Some("full") => Ok(Scale::Full),
        Some(other) => Err(format!("unknown scale `{other}` (test, small, full)")),
    }
}

/// A simulator for `config`; an inconsistent one is a usage error.
fn simulator(config: SimConfig) -> Result<Simulator, String> {
    Simulator::try_new(config).map_err(|error| error.to_string())
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|error| format!("cannot write `{path}`: {error}"))
}

fn load_program(path: &str) -> Result<Program, String> {
    let source =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
    assemble(&source).map_err(|error| format!("{path}: {error}"))
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|index| args.get(index + 1).cloned())
}

/// A numeric flag value; a malformed one is an error, never a silent
/// fallback to the default.
fn parse_number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match parse_flag(args, flag) {
        None => Ok(None),
        Some(text) => text.parse().map(Some).map_err(|_| {
            format!("invalid value for {flag}: `{text}` (expected a non-negative integer)")
        }),
    }
}

/// Reject flags a subcommand does not define. `value_flags` consume the
/// following argument; `switches` stand alone.
fn reject_unknown_flags(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut index = 0;
    while index < args.len() {
        let arg = args[index].as_str();
        if value_flags.contains(&arg) {
            if index + 1 >= args.len() {
                return Err(format!("{arg} needs a value"));
            }
            index += 2;
        } else if switches.contains(&arg) {
            index += 1;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`\n\n{}", usage()));
        } else {
            index += 1;
        }
    }
    Ok(())
}

fn cmd_asm(path: &str) -> Result<(), String> {
    let program = load_program(path)?;
    outln!(
        "{program}\n{} instructions ({} bytes of text), {} bytes of data, {} symbols, entry {:#x}",
        program.text.len(),
        program.text_bytes(),
        program.data.len(),
        program.symbols.len(),
        program.entry
    );
    Ok(())
}

fn cmd_trace(path: &str, count: usize) -> Result<(), String> {
    let program = load_program(path)?;
    for (index, di) in Emulator::new(program).take(count).enumerate() {
        if stdout_closed() {
            break;
        }
        let mem = di
            .mem_addr
            .map(|addr| format!("  [{addr:#x}]"))
            .unwrap_or_default();
        let taken = if di.taken { "  (taken)" } else { "" };
        outln!("{index:>6}  {:#010x}  {}{mem}{taken}", di.pc, di.inst);
    }
    Ok(())
}

fn print_summary(summary: &cpe::RunSummary) {
    outln!("{summary}");
    outln!(
        "  mispredict {:.2}%  D-MPKI {:.2}  I-MPKI {:.2}  stores combined {:.1}%  \
         store-stall/kc {:.1}",
        summary.mispredict_rate * 100.0,
        summary.dcache_mpki,
        summary.icache_mpki,
        summary.store_combined_fraction * 100.0,
        summary.store_stall_per_kcycle
    );
}

/// One instruction stream: `<file.s> | <file.cper> | --workload NAME
/// [--scale S]`.
enum Source {
    Program(Program),
    Recorded(RecordedTrace),
    Workload(Workload, Scale),
}

impl Source {
    /// A fresh pass over the stream from its start.
    fn insts(&self) -> Box<dyn Iterator<Item = DynInst> + '_> {
        match self {
            Source::Program(program) => Box::new(Emulator::new(program.clone())),
            Source::Recorded(trace) => Box::new(trace.iter()),
            Source::Workload(workload, scale) => Box::new(workload.trace(*scale)),
        }
    }
}

/// The one source resolver `run`, `compare` and `trace record` share: the
/// stream's label and its source. A CPER trace (recognised by its magic)
/// is fully validated before the first cycle, its coverage of the `max`
/// window included, so a corrupt or short one is a `file:offset`
/// diagnosis, never a partial run.
fn stream_source(
    verb: &str,
    args: &[String],
    value_flags: &[&str],
    max: Option<u64>,
) -> Result<(String, Source), String> {
    match (
        parse_flag(args, "--workload"),
        &positionals(args, value_flags)[..],
    ) {
        (Some(name), []) => {
            let source = Source::Workload(workload_by_name(&name)?, parse_scale(args)?);
            Ok((name, source))
        }
        (None, [path]) => {
            let bytes =
                std::fs::read(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
            let source = if bytes.starts_with(&REPLAY_MAGIC) {
                let trace =
                    parse_recorded(&bytes).map_err(|error| replay_diagnosis(path, &error))?;
                check_replayable(&trace, max).map_err(|error| format!("{path}: {error}"))?;
                Source::Recorded(trace)
            } else {
                Source::Program(load_program(path)?)
            };
            Ok((path.to_string(), source))
        }
        _ => Err(format!(
            "{verb} needs one of <file.s>, <file.cper> or --workload NAME\n\n{}",
            usage()
        )),
    }
}

/// `cpe run`: time one stream and print its metrics. A plain run takes
/// the direct path; `--detail`, `--metrics-json` and the interval, ring
/// and trace-export flags take the profiled path instead (identical
/// timing, richer output).
fn cmd_run(args: &[String]) -> Result<(), String> {
    let max = parse_number(args, "--max")?;
    let (label, source) = stream_source("run", args, RUN_FLAGS, max)?;
    let sim = simulator(config_flag(args)?)?;
    let detail = args.iter().any(|arg| arg == "--detail");
    if !detail && !args.iter().any(|arg| RUN_FLAGS[4..].contains(&&arg[..])) {
        let summary = sim
            .try_run_trace(&label, source.insts(), max)
            .map_err(|error| format!("{label}: {error}"))?;
        print_summary(&summary);
        return Ok(());
    }
    let trace_out = parse_flag(args, "--trace-out");
    let trace_format = parse_flag(args, "--trace-format").unwrap_or_else(|| "chrome".to_string());
    if !["chrome", "konata"].contains(&trace_format.as_str()) {
        return Err(format!(
            "unknown trace format `{trace_format}` (chrome, konata)"
        ));
    }
    // An export reads the event ring, so it attaches one by default.
    let ring = if trace_out.is_some() {
        ProfileOptions::CAPTURE_RING
    } else {
        ProfileOptions::default().ring_capacity
    };
    let options = ProfileOptions {
        interval: parse_number(args, "--interval")?.unwrap_or(ProfileOptions::default().interval),
        ring_capacity: parse_number(args, "--ring")?.unwrap_or(ring),
    };
    let run = sim
        .try_profile_trace(&label, source.insts(), max, options)
        .map_err(|error| format!("{label}: {error}"))?;
    if detail {
        outln!("{}", cpe::detailed_report(&run.summary));
    } else {
        print_summary(&run.summary);
    }
    outln!(
        "epochs: {} × {} cycles",
        run.series.epochs.len(),
        run.series.interval
    );
    outln!("  {}", run.series.ipc_series());
    outln!("  {}", run.series.port_utilisation_series());
    if let Some(path) = trace_out {
        export_events(&run, &path, &trace_format)?;
    }
    if let Some(path) = parse_flag(args, "--metrics-json") {
        write_file(&path, &profile_json(&run, sim.config()))?;
        outln!("wrote metrics to {path}");
    }
    outln!("{}", run.self_profile.one_liner());
    Ok(())
}

/// Write a profiled run's retained event window to `path`: as a Chrome
/// `trace_event` document or as per-instruction lifecycles in the Konata
/// pipeline-viewer format.
fn export_events(run: &ProfiledRun, path: &str, format: &str) -> Result<(), String> {
    let (rendered, count, what) = match format {
        "chrome" => (
            chrome_trace_json(&run.events),
            run.events.len(),
            "trace events",
        ),
        _ => {
            let records = build_records(&run.events);
            let text = konata_text(&records);
            (text, records.len(), "instruction lifecycle(s)")
        }
    };
    write_file(path, &rendered)?;
    outln!("wrote {count} {what} to {path} ({format})");
    if !TraceHandle::CAPTURE {
        outln!("note: built without the `trace` feature — no events were captured");
    } else if let Some(ring) = run.self_profile.ring.filter(|ring| ring.dropped > 0) {
        outln!(
            "note: ring dropped {} event(s); the export covers the newest \
             window (grow it with --ring)",
            ring.dropped
        );
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let max = parse_number(args, "--max")?;
    let (label, source) = stream_source("compare", args, COMPARE_FLAGS, max)?;
    let metrics_json = parse_flag(args, "--metrics-json");
    let mut table = Table::new(["config", "IPC", "cycles", "port util %", "portless loads %"]);
    let mut profiles: Vec<(SimConfig, ProfiledRun)> = Vec::new();
    let at = |error: SimError| format!("{label}: {error}");
    for config in all_configs() {
        let sim = simulator(config)?;
        // The profiled and plain paths produce identical summaries; the
        // sweep only pays for profiling when it will export the series.
        let summary = if metrics_json.is_some() {
            let run = sim
                .try_profile_trace(&label, source.insts(), max, ProfileOptions::default())
                .map_err(at)?;
            let summary = run.summary.clone();
            profiles.push((sim.config().clone(), run));
            summary
        } else {
            sim.try_run_trace(&label, source.insts(), max).map_err(at)?
        };
        table.row([
            summary.config.clone(),
            format!("{:.3}", summary.ipc),
            summary.cycles.to_string(),
            format!("{:.1}", summary.port_utilisation * 100.0),
            format!("{:.1}", summary.portless_load_fraction * 100.0),
        ]);
    }
    outln!("{table}");
    if let Some(out) = metrics_json {
        let runs: Vec<String> = profiles
            .iter()
            .map(|(config, run)| profile_json(run, config))
            .collect();
        write_file(
            &out,
            &format!(
                "{{\"schema\":{},\"runs\":[{}]}}",
                cpe::METRICS_SCHEMA,
                runs.join(",")
            ),
        )?;
        outln!("wrote metrics for {} configs to {out}", runs.len());
    }
    Ok(())
}

/// Positional (non-flag) arguments, skipping the operands of value flags.
fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut index = 0;
    while index < args.len() {
        let arg = args[index].as_str();
        if value_flags.contains(&arg) {
            index += 2;
        } else if arg.starts_with('-') {
            index += 1;
        } else {
            out.push(&args[index]);
            index += 1;
        }
    }
    out
}

/// `cpe explain A B`: run both configurations on the same workload and
/// rank the per-cause CPI deltas. The CPI stacks conserve commit slots,
/// so the table accounts for the whole performance gap — on a port-bound
/// workload the `dcache_port_conflict` row is the headline.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let names = positionals(args, &["--workload", "--scale", "--max"]);
    let [a_name, b_name] = names[..] else {
        return Err(format!(
            "explain needs exactly two config names (see `cpe configs`)\n\n{}",
            usage()
        ));
    };
    let a_config = config_by_name(a_name)?;
    let b_config = config_by_name(b_name)?;
    let workload_name = parse_flag(args, "--workload").unwrap_or_else(|| "compress".to_string());
    let workload = workload_by_name(&workload_name)?;
    let scale = parse_scale(args)?;
    let max = Some(parse_number(args, "--max")?.unwrap_or(20_000));
    let run = |config| {
        simulator(config)?
            .try_run(workload, scale, max)
            .map_err(|error| format!("{workload_name}: {error}"))
    };
    let (a, b) = (run(a_config)?, run(b_config)?);
    outln!("{}", cpe::explain_report(&a, &b));
    Ok(())
}

/// `file:offset:` diagnosis for a malformed replay trace — pointing at
/// the exact byte when the error carries one (truncation, bad flags, bad
/// dictionary index).
fn replay_diagnosis(path: &str, error: &ReplayError) -> String {
    match error.offset() {
        Some(offset) => format!("{path}:{offset}: {error}"),
        None => format!("{path}: {error}"),
    }
}

/// `cpe trace record`: run a stream functionally and save its committed
/// path as a compact CPER replay trace. With `--max N` the recording
/// keeps the same headroom past the window the replay backend records,
/// so replaying it reproduces a direct `--max N` run exactly.
fn cmd_trace_record(args: &[String]) -> Result<(), String> {
    let max = parse_number::<u64>(args, "--max")?;
    let (name, source) = stream_source("trace record", args, RECORD_FLAGS, max)?;
    let out = match (parse_flag(args, "-o"), &source) {
        (Some(out), _) => out,
        (None, Source::Workload(..)) => format!("{name}.cper"),
        (None, Source::Program(_)) => {
            let out = std::path::Path::new(&name).with_extension("cper");
            out.display().to_string()
        }
        (None, Source::Recorded(_)) => {
            return Err(format!(
                "trace record of `{name}` needs -o FILE (the default would overwrite it)"
            ))
        }
    };
    let cap = max.map(|max| max.saturating_add(RECORD_HEADROOM));
    let trace = RecordedTrace::record(source.insts(), cap);
    let file =
        std::fs::File::create(&out).map_err(|error| format!("cannot create `{out}`: {error}"))?;
    let bytes = write_recorded(std::io::BufWriter::new(file), &trace)
        .map_err(|error| format!("cannot write `{out}`: {error}"))?;
    let info = trace.info();
    outln!(
        "recorded {} instruction(s) of {name} to {out}: {bytes} bytes \
         ({:.2} bytes/record, {} dict entries{})",
        info.records,
        info.bytes_per_record(),
        info.dict_entries,
        if info.complete {
            ", complete run"
        } else {
            ", capped"
        }
    );
    Ok(())
}

/// `cpe trace info`: parse and fully validate a CPER replay trace, then
/// describe it.
fn cmd_trace_info(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
    let trace = parse_recorded(&bytes).map_err(|error| replay_diagnosis(path, &error))?;
    let info = trace.info();
    let window = match info.window {
        Some(cap) => format!("recording cap {cap}"),
        None => "uncapped".to_string(),
    };
    outln!(
        "{path}: CPER replay trace, {} record(s) ({}), {}, {} dict entries, \
         {} payload bytes ({:.2} bytes/record)",
        info.records,
        if info.complete {
            "complete run"
        } else {
            "capped"
        },
        window,
        info.dict_entries,
        info.payload_bytes,
        info.bytes_per_record()
    );
    Ok(())
}

/// Split a `--configs`/`--workloads` comma list, resolving each name.
fn parse_names<T>(
    text: &str,
    resolve: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    text.split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(resolve)
        .collect()
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let jobs: usize = parse_number(args, "--jobs")?.unwrap_or(0);
    let scale = parse_scale(args)?;
    let max = Some(parse_number(args, "--max")?.unwrap_or(20_000));
    let mut plan = SweepPlan::standard(scale, max);
    if let Some(text) = parse_flag(args, "--configs") {
        plan.configs = parse_names(&text, config_by_name)?;
    }
    if let Some(text) = parse_flag(args, "--workloads") {
        plan.workloads = parse_names(&text, workload_by_name)?;
    }
    // The whole grid is validated here, before any cell is scheduled: a
    // bad configuration is a usage error (exit 2), not N failed cells.
    plan.validate().map_err(|error| error.to_string())?;
    let progress = (!args.iter().any(|arg| arg == "--no-progress"))
        .then(|| SweepProgress::auto(plan.jobs().len()));
    let results = SweepPlan::run_all(&[plan], jobs, progress.as_ref())
        .map_err(|error| error.to_string())?
        .remove(0);
    outln!("{}", results.ipc_table());
    if let Some(out) = parse_flag(args, "--metrics-json") {
        write_file(&out, &results.aggregate_json())?;
        eprintln!("wrote sweep metrics to {out}");
    }
    // The timing footer is observability, not output: it goes to stderr
    // so stdout stays byte-identical across worker counts.
    eprintln!("{}", results.stats);
    if results.stats.failed > 0 {
        return Err(format!("{} cell(s) failed", results.stats.failed));
    }
    Ok(())
}

/// `cpe validate FILE...`: parse observability artifacts — Konata
/// pipeviews (by their `Kanata` header or a `.kanata` suffix)
/// structurally, anything else as one JSON document. Any malformed input
/// is a hard error; JSON documents that embed `cpi_stack` objects are
/// additionally checked for exact commit-slot conservation, and `--cpi`
/// makes the *absence* of a stack an error too.
fn cmd_validate(args: &[String]) -> Result<(), String> {
    let cpi_flag = args.iter().any(|arg| arg == "--cpi");
    let paths: Vec<&String> = args.iter().filter(|arg| !arg.starts_with('-')).collect();
    if paths.is_empty() {
        return Err(format!("validate needs at least one FILE\n\n{}", usage()));
    }
    for path in paths {
        let bytes =
            std::fs::read(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
        // Recorded replay traces are binary; recognise them by magic
        // before any text decoding, and validate every record eagerly so
        // truncation is diagnosed with its exact byte offset.
        if bytes.starts_with(&REPLAY_MAGIC) {
            let trace = parse_recorded(&bytes).map_err(|error| replay_diagnosis(path, &error))?;
            let info = trace.info();
            outln!(
                "{path}: ok (CPER replay trace, {} record(s), {} dict entries)",
                info.records,
                info.dict_entries
            );
            continue;
        }
        let contents =
            String::from_utf8(bytes).map_err(|error| format!("{path}: not UTF-8 text: {error}"))?;
        if contents.starts_with("Kanata\t") || path.ends_with(".kanata") {
            let summary = cpe::trace::validate_konata(&contents)
                .map_err(|error| format!("{path}: {error}"))?;
            outln!(
                "{path}: ok (Konata pipeview, {} instruction(s), {} retired, last cycle {})",
                summary.instructions,
                summary.retired,
                summary.last_cycle
            );
        } else {
            let doc = parse_json(&contents).map_err(|error| format!("{path}: {error}"))?;
            if cpi_flag || contents.contains("\"cpi_stack\"") {
                let checked =
                    cpe::validate_cpi_stacks(&doc).map_err(|error| format!("{path}: {error}"))?;
                if cpi_flag && checked == 0 {
                    return Err(format!(
                        "{path}: --cpi given but the document has no cpi_stack object"
                    ));
                }
                outln!("{path}: ok ({checked} CPI stack(s) conserve commit slots)");
            } else {
                outln!("{path}: ok");
            }
        }
    }
    Ok(())
}

/// Compare two exported JSON documents. `Ok(true)` means clean (exit 0);
/// `Ok(false)` means they diverge beyond tolerance (exit 1).
fn cmd_diff(a_path: &str, b_path: &str, tolerance_pct: f64) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|error| format!("cannot read `{path}`: {error}"))
    };
    let a = read(a_path)?;
    let b = read(b_path)?;
    let report = diff_json(&a, &b, tolerance_pct / 100.0)
        .map_err(|error| format!("{a_path} vs {b_path}: {error}"))?;
    if report.is_clean() {
        outln!(
            "{a_path} and {b_path} match: {} leaves within {tolerance_pct}% tolerance",
            report.compared
        );
        Ok(true)
    } else {
        outln!("{a_path} -> {b_path}:");
        outln!("{report}");
        outln!("{} diverging leaves", report.entries.len());
        Ok(false)
    }
}

fn cmd_workloads() {
    let mut table = Table::new(["name", "description", "test-scale dyn. insts"]);
    for workload in Workload::EXTENDED {
        table.row([
            workload.name().to_string(),
            workload.description().to_string(),
            workload.trace(Scale::Test).count().to_string(),
        ]);
    }
    outln!("{table}");
}

fn cmd_configs() {
    let mut table = Table::new(["name", "summary"]);
    for config in all_configs() {
        table.row([config.name.clone(), config.to_string()]);
    }
    outln!("{table}");
}

fn usage() -> &'static str {
    "usage:\n  cpe asm <file.s>\n  cpe trace <file.s> [-n N]\n  \
     cpe trace record SOURCE [--max N] [-o FILE]\n  cpe trace info <file.cper>\n  \
     cpe run SOURCE [--config NAME] [--max N] [--detail] [--metrics-json FILE]\n          \
     [--interval N] [--ring N] [--trace-out FILE] [--trace-format chrome|konata]\n  \
     cpe compare SOURCE [--max N] [--metrics-json FILE]\n  \
     cpe explain <CONFIG_A> <CONFIG_B> [--workload NAME] [--scale S] [--max N]\n  \
     cpe sweep [--jobs N] [--scale test|small|full] [--max N] [--configs a,b]\n            \
     [--workloads x,y] [--metrics-json FILE] [--no-progress]\n  \
     cpe validate <file.json|file.kanata|file.cper>... [--cpi]\n  \
     cpe diff <a.json> <b.json> [--tolerance PCT]\n  cpe workloads\n  cpe configs\n  \
     cpe --version\n\
     SOURCE = <file.s> | <file.cper> | --workload NAME [--scale test|small|full]"
}

/// The file operands of `verb` (skipping flags and their values, so they
/// may come before or after the flags), exactly `N` of them.
fn operands<'a, const N: usize>(
    verb: &str,
    args: &'a [String],
    value_flags: &[&str],
) -> Result<[&'a String; N], String> {
    positionals(args, value_flags)
        .try_into()
        .map_err(|_| format!("{verb} needs {N} FILE operand(s)\n\n{}", usage()))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    // Most commands exit 0 on success; `diff` alone maps a clean compare
    // to 0 and a beyond-tolerance divergence to 1.
    let done = |result: Result<(), String>| result.map(|()| ExitCode::SUCCESS);
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("--version" | "-V") => {
            outln!("cpe {}", env!("CARGO_PKG_VERSION"));
            Ok(ExitCode::SUCCESS)
        }
        Some("asm") => {
            reject_unknown_flags(rest, &[], &[])?;
            let [path] = operands("asm", rest, &[])?;
            done(cmd_asm(path))
        }
        Some("trace") if args.get(1).map(String::as_str) == Some("record") => {
            reject_unknown_flags(&args[2..], RECORD_FLAGS, &[])?;
            done(cmd_trace_record(&args[2..]))
        }
        Some("trace") if args.get(1).map(String::as_str) == Some("info") => {
            reject_unknown_flags(&args[2..], &[], &[])?;
            let [path] = operands("trace info", &args[2..], &[])?;
            done(cmd_trace_info(path))
        }
        Some("trace") => {
            reject_unknown_flags(rest, &["-n"], &[])?;
            let [path] = operands("trace", rest, &["-n"])?;
            done(cmd_trace(path, parse_number(rest, "-n")?.unwrap_or(50)))
        }
        Some("run") => {
            reject_unknown_flags(rest, RUN_FLAGS, &["--detail"])?;
            done(cmd_run(rest))
        }
        Some("compare") => {
            reject_unknown_flags(rest, COMPARE_FLAGS, &[])?;
            done(cmd_compare(rest))
        }
        Some("explain") => {
            reject_unknown_flags(rest, &["--workload", "--scale", "--max"], &[])?;
            done(cmd_explain(rest))
        }
        Some("sweep") => {
            reject_unknown_flags(
                rest,
                &[
                    "--jobs",
                    "--scale",
                    "--max",
                    "--configs",
                    "--workloads",
                    "--metrics-json",
                ],
                &["--no-progress"],
            )?;
            done(cmd_sweep(rest))
        }
        Some("validate") if args.len() >= 2 => {
            reject_unknown_flags(rest, &[], &["--cpi"])?;
            done(cmd_validate(rest))
        }
        Some("diff") => {
            reject_unknown_flags(rest, &["--tolerance"], &[])?;
            let [a, b] = operands("diff", rest, &["--tolerance"])?;
            let tolerance = match parse_flag(rest, "--tolerance") {
                None => 5.0,
                Some(text) => match text.parse::<f64>() {
                    Ok(value) if value >= 0.0 && value.is_finite() => value,
                    _ => {
                        return Err(format!(
                            "invalid value for --tolerance: `{text}` \
                             (expected a non-negative percentage)"
                        ))
                    }
                },
            };
            if cmd_diff(a, b, tolerance)? {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(1))
            }
        }
        Some("workloads") => {
            reject_unknown_flags(rest, &[], &[])?;
            cmd_workloads();
            Ok(ExitCode::SUCCESS)
        }
        Some("configs") => {
            reject_unknown_flags(rest, &[], &[])?;
            cmd_configs();
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage().to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
