//! `cpe` — command-line front end to the simulation suite.
//!
//! ```text
//! cpe asm <file.s>                  assemble and print the listing
//! cpe trace <file.s> [-n N]         print the first N executed instructions
//! cpe trace record (<file.s> | --workload NAME [--scale S]) [--max N] [-o FILE]
//!                                   record a program's or workload's
//!                                   committed path to a compact replay
//!                                   trace (CPER format)
//! cpe trace info <file.cper>        describe a recorded replay trace
//! cpe run (<file.s> | <file.cper>) [--config NAME] [--max N] [--detail]
//!         [--metrics-json FILE]
//!                                   run the timing model over a program or
//!                                   a recorded trace, print the metrics
//! cpe profile --workload NAME [--config NAME] [--scale S] [--max N]
//!             [--interval N] [--ring N] [--trace-out FILE]
//!             [--trace-format chrome|jsonl] [--metrics-json FILE]
//!                                   instrumented run: interval metrics,
//!                                   trace-event capture, self-profile
//! cpe compare <file.s> [--max N] [--metrics-json FILE]
//!                                   run every design point, print a table
//! cpe explain <CONFIG_A> <CONFIG_B> [--workload NAME] [--scale S] [--max N]
//!                                   run both configs and rank the per-cause
//!                                   CPI deltas: where do the cycles go?
//! cpe pipeview --workload NAME [--config NAME] [--scale S] [--max N]
//!              [--ring N] [-o FILE]
//!                                   per-instruction pipeline view of the
//!                                   newest retained window, Konata format
//! cpe sweep [--jobs N] [--scale S] [--max N] [--configs a,b] [--workloads x,y]
//!           [--backend direct|replay] [--no-cache] [--cache-dir DIR]
//!           [--metrics-json FILE] [--no-progress]
//!                                   run the config × workload grid through the
//!                                   parallel scheduler and result cache
//! cpe validate <file>... [--jsonl] [--cpi]
//!                                   parse observability artifacts (JSON,
//!                                   JSONL, Konata pipeviews, or CPER
//!                                   replay traces) and check CPI-stack
//!                                   conservation at zero tolerance; exit 2
//!                                   on any malformed or slot-leaking input
//! cpe cache stats|clear [--cache-dir DIR]
//!                                   inspect or empty the result cache
//! cpe diff <a.json> <b.json> [--tolerance PCT]
//!                                   compare two exported JSON documents
//!                                   field by field; exit 1 on regression
//! cpe workloads                     list the built-in workload suite
//! cpe configs                       list the named machine configurations
//! cpe --version                     print the version and exit
//! ```
//!
//! Malformed numeric flags and unknown flags are rejected up front, and
//! every failure path exits with code 2 after a one-line diagnosis.
//! `cpe diff` alone exits 1 when the documents diverge beyond tolerance —
//! distinct from 2, so CI can tell a regression from a usage error.

use std::process::ExitCode;

use cpe::exec::{preset_configs, ResultCache, SweepPlan, SweepProgress, DEFAULT_CACHE_DIR};
use cpe::isa::replay::{parse_recorded, write_recorded, RecordedTrace, ReplayError, REPLAY_MAGIC};
use cpe::isa::{asm::assemble, DynInst, Emulator, Program};
use cpe::stats::Table;
use cpe::trace::{build_records, chrome_trace_json, jsonl_record, konata_text, TraceHandle};
use cpe::workloads::{Scale, Workload};
use cpe::{
    check_replayable, diff_json, parse_json, profile_json, BackendKind, ProfileOptions,
    ProfiledRun, SimConfig, Simulator, RECORD_HEADROOM,
};

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
    print!("{program}");
    println!(
        "\n{} instructions ({} bytes of text), {} bytes of data, {} symbols, entry {:#x}",
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
        let mem = di
            .mem_addr
            .map(|addr| format!("  [{addr:#x}]"))
            .unwrap_or_default();
        let taken = if di.taken { "  (taken)" } else { "" };
        println!("{index:>6}  {:#010x}  {}{mem}{taken}", di.pc, di.inst);
    }
    Ok(())
}

fn print_summary(summary: &cpe::RunSummary) {
    println!("{summary}");
    println!(
        "  mispredict {:.2}%  D-MPKI {:.2}  I-MPKI {:.2}  stores combined {:.1}%  \
         store-stall/kc {:.1}",
        summary.mispredict_rate * 100.0,
        summary.dcache_mpki,
        summary.icache_mpki,
        summary.store_combined_fraction * 100.0,
        summary.store_stall_per_kcycle
    );
}

/// `cpe run`: time a program, or a CPER trace recognised by its magic.
/// A trace is fully validated before the first cycle, so a corrupt one
/// is a `file:offset` diagnosis, never a partial run.
fn cmd_run(
    path: &str,
    config: SimConfig,
    max: Option<u64>,
    detail: bool,
    metrics_json: Option<String>,
) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
    if bytes.starts_with(&REPLAY_MAGIC) {
        let trace = parse_recorded(&bytes).map_err(|error| replay_diagnosis(path, &error))?;
        check_replayable(&trace, max).map_err(|error| format!("{path}: {error}"))?;
        time_stream(config, path, trace.iter(), max, detail, metrics_json)
    } else {
        let program = Emulator::new(load_program(path)?);
        time_stream(config, path, program, max, detail, metrics_json)
    }
}

fn time_stream(
    config: SimConfig,
    path: &str,
    trace: impl Iterator<Item = DynInst>,
    max: Option<u64>,
    detail: bool,
    metrics_json: Option<String>,
) -> Result<(), String> {
    let sim = Simulator::new(config);
    // Plain runs keep the direct path; --detail and --metrics-json go
    // through the profiling driver (identical timing, richer output).
    if detail || metrics_json.is_some() {
        let run = sim
            .try_profile_trace(path, trace, max, ProfileOptions::default())
            .map_err(|error| format!("{path}: {error}"))?;
        if let Some(out) = &metrics_json {
            write_file(out, &profile_json(&run, sim.config()))?;
        }
        if detail {
            println!("{}", cpe::detailed_report(&run.summary));
            println!("{}", run.self_profile.one_liner());
        } else {
            print_summary(&run.summary);
        }
    } else {
        let summary = sim
            .try_run_trace(path, trace, max)
            .map_err(|error| format!("{path}: {error}"))?;
        print_summary(&summary);
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let workload_name = parse_flag(args, "--workload")
        .ok_or_else(|| format!("profile needs --workload NAME\n\n{}", usage()))?;
    let workload = workload_by_name(&workload_name)?;
    let scale = parse_scale(args)?;
    let config = config_flag(args)?;
    let max = parse_number(args, "--max")?;
    let options = ProfileOptions {
        interval: parse_number(args, "--interval")?.unwrap_or(ProfileOptions::default().interval),
        ring_capacity: parse_number(args, "--ring")?.unwrap_or(ProfileOptions::CAPTURE_RING),
    };
    let trace_format = parse_flag(args, "--trace-format").unwrap_or_else(|| "chrome".to_string());
    if trace_format != "chrome" && trace_format != "jsonl" {
        return Err(format!(
            "unknown trace format `{trace_format}` (chrome, jsonl)"
        ));
    }

    let sim = Simulator::new(config);
    let run = sim
        .try_profile(workload, scale, max, options)
        .map_err(|error| format!("{workload_name}: {error}"))?;
    print_summary(&run.summary);
    println!(
        "epochs: {} × {} cycles",
        run.series.epochs.len(),
        run.series.interval
    );
    println!("  {}", run.series.ipc_series());
    println!("  {}", run.series.port_utilisation_series());

    if let Some(path) = parse_flag(args, "--trace-out") {
        let rendered = match trace_format.as_str() {
            "chrome" => chrome_trace_json(&run.events),
            _ => {
                let mut lines: Vec<String> = run.events.iter().map(jsonl_record).collect();
                lines.push(String::new()); // trailing newline
                lines.join("\n")
            }
        };
        write_file(&path, &rendered)?;
        println!(
            "wrote {} trace events to {path} ({trace_format})",
            run.events.len()
        );
        if !TraceHandle::CAPTURE {
            println!("note: built without the `trace` feature — no events were captured");
        }
    }
    if let Some(path) = parse_flag(args, "--metrics-json") {
        write_file(&path, &profile_json(&run, sim.config()))?;
        println!("wrote metrics to {path}");
    }
    println!("{}", run.self_profile.one_liner());
    Ok(())
}

fn cmd_compare(path: &str, max: Option<u64>, metrics_json: Option<String>) -> Result<(), String> {
    let program = load_program(path)?;
    let mut table = Table::new(["config", "IPC", "cycles", "port util %", "portless loads %"]);
    let mut profiles: Vec<(SimConfig, ProfiledRun)> = Vec::new();
    for config in all_configs() {
        let name = config.name.clone();
        let sim = Simulator::new(config);
        // The profiled and plain paths produce identical summaries; the
        // sweep only pays for profiling when it will export the series.
        let summary = if metrics_json.is_some() {
            let run = sim
                .try_profile_trace(
                    path,
                    Emulator::new(program.clone()),
                    max,
                    ProfileOptions::default(),
                )
                .map_err(|error| format!("{path}: {error}"))?;
            let summary = run.summary.clone();
            profiles.push((sim.config().clone(), run));
            summary
        } else {
            sim.run_trace(path, Emulator::new(program.clone()), max)
        };
        table.row([
            name,
            format!("{:.3}", summary.ipc),
            summary.cycles.to_string(),
            format!("{:.1}", summary.port_utilisation * 100.0),
            format!("{:.1}", summary.portless_load_fraction * 100.0),
        ]);
    }
    println!("{table}");
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
        println!("wrote metrics for {} configs to {out}", runs.len());
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
    let a = Simulator::new(a_config).run(workload, scale, max);
    let b = Simulator::new(b_config).run(workload, scale, max);
    println!("{}", cpe::explain_report(&a, &b));
    Ok(())
}

/// `cpe pipeview`: profile a workload with event capture on and render
/// the retained window as per-instruction lifecycles in the Konata
/// pipeline-viewer text format.
fn cmd_pipeview(args: &[String]) -> Result<(), String> {
    let workload_name = parse_flag(args, "--workload")
        .ok_or_else(|| format!("pipeview needs --workload NAME\n\n{}", usage()))?;
    let workload = workload_by_name(&workload_name)?;
    let scale = parse_scale(args)?;
    let config = config_flag(args)?;
    let max = parse_number(args, "--max")?;
    let options = ProfileOptions {
        ring_capacity: parse_number(args, "--ring")?.unwrap_or(ProfileOptions::CAPTURE_RING),
        ..ProfileOptions::default()
    };
    let out = parse_flag(args, "-o").unwrap_or_else(|| "pipeview.kanata".to_string());
    let sim = Simulator::new(config);
    let run = sim
        .try_profile(workload, scale, max, options)
        .map_err(|error| format!("{workload_name}: {error}"))?;
    let records = build_records(&run.events);
    write_file(&out, &konata_text(&records))?;
    println!(
        "wrote {} instruction lifecycle(s) to {out} \
         (Konata format: https://github.com/shioyadan/Konata)",
        records.len()
    );
    if !TraceHandle::CAPTURE {
        println!("note: built without the `trace` feature — no events were captured");
    } else if let Some(ring) = &run.self_profile.ring {
        if ring.dropped > 0 {
            println!(
                "note: ring dropped {} event(s); the view covers the newest \
                 window (grow it with --ring)",
                ring.dropped
            );
        }
    }
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

/// `cpe trace record`: run a program or a workload functionally and save
/// its committed path as a compact CPER replay trace. With `--max N` the
/// recording keeps the same headroom past the window the replay backend
/// records, so replaying it reproduces a direct `--max N` run exactly.
fn cmd_trace_record(args: &[String]) -> Result<(), String> {
    let cap = parse_number::<u64>(args, "--max")?.map(|max| max.saturating_add(RECORD_HEADROOM));
    let sources = (
        parse_flag(args, "--workload"),
        &positionals(args, &["--workload", "--scale", "--max", "-o"])[..],
    );
    let (name, trace, default_out) = match sources {
        (Some(name), []) => {
            let workload = workload_by_name(&name)?;
            let trace = RecordedTrace::record(workload.trace(parse_scale(args)?), cap);
            let out = format!("{name}.cper");
            (name, trace, out)
        }
        (None, [path]) => {
            let trace = RecordedTrace::record(Emulator::new(load_program(path)?), cap);
            let out = std::path::Path::new(path).with_extension("cper");
            (path.to_string(), trace, out.display().to_string())
        }
        _ => {
            return Err(format!(
                "trace record needs a <file.s> or --workload NAME\n\n{}",
                usage()
            ))
        }
    };
    let out = parse_flag(args, "-o").unwrap_or(default_out);
    let file =
        std::fs::File::create(&out).map_err(|error| format!("cannot create `{out}`: {error}"))?;
    let bytes = write_recorded(std::io::BufWriter::new(file), &trace)
        .map_err(|error| format!("cannot write `{out}`: {error}"))?;
    let info = trace.info();
    println!(
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
    println!(
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

fn open_cache(args: &[String]) -> Option<ResultCache> {
    if args.iter().any(|arg| arg == "--no-cache") {
        None
    } else {
        let dir = parse_flag(args, "--cache-dir").unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
        Some(ResultCache::new(dir))
    }
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
    if let Some(name) = parse_flag(args, "--backend") {
        plan.backend = BackendKind::from_name(&name)
            .ok_or_else(|| format!("unknown backend `{name}` (direct, replay)"))?;
    }
    // The whole grid is validated here, before any cell is scheduled: a
    // bad configuration is a usage error (exit 2), not N failed cells.
    plan.validate().map_err(|error| error.to_string())?;
    let cache = open_cache(args);
    let progress = (!args.iter().any(|arg| arg == "--no-progress"))
        .then(|| SweepProgress::auto(plan.jobs().len()));
    let results = plan
        .run_with_progress(jobs, cache.as_ref(), progress.as_ref())
        .map_err(|error| error.to_string())?;
    println!("{}", results.ipc_table());
    if let Some(out) = parse_flag(args, "--metrics-json") {
        write_file(&out, &results.aggregate_json())?;
        eprintln!("wrote sweep metrics to {out}");
    }
    // The cache/timing footer is observability, not output: it goes to
    // stderr so stdout stays byte-identical across cache states.
    eprintln!("{}", results.stats);
    if results.stats.failed > 0 {
        return Err(format!("{} cell(s) failed", results.stats.failed));
    }
    Ok(())
}

/// `cpe validate FILE...`: parse observability artifacts — JSONL event
/// traces (by `--jsonl` or a `.jsonl` suffix) line by line, Konata
/// pipeviews (by their `Kanata` header or a `.kanata` suffix)
/// structurally, anything else as one JSON document. Any malformed input
/// is a hard error; JSON documents that embed `cpi_stack` objects are
/// additionally checked for exact commit-slot conservation, and `--cpi`
/// makes the *absence* of a stack an error too.
fn cmd_validate(args: &[String]) -> Result<(), String> {
    let jsonl_flag = args.iter().any(|arg| arg == "--jsonl");
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
            println!(
                "{path}: ok (CPER replay trace, {} record(s), {} dict entries)",
                info.records, info.dict_entries
            );
            continue;
        }
        let contents =
            String::from_utf8(bytes).map_err(|error| format!("{path}: not UTF-8 text: {error}"))?;
        if jsonl_flag || path.ends_with(".jsonl") {
            let mut lines = 0usize;
            for (index, line) in contents.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                parse_json(line).map_err(|error| format!("{path}:{}: {error}", index + 1))?;
                lines += 1;
            }
            println!("{path}: ok ({lines} event line(s))");
        } else if contents.starts_with("Kanata\t") || path.ends_with(".kanata") {
            let summary = cpe::trace::validate_konata(&contents)
                .map_err(|error| format!("{path}: {error}"))?;
            println!(
                "{path}: ok (Konata pipeview, {} instruction(s), {} retired, last cycle {})",
                summary.instructions, summary.retired, summary.last_cycle
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
                println!("{path}: ok ({checked} CPI stack(s) conserve commit slots)");
            } else {
                println!("{path}: ok");
            }
        }
    }
    Ok(())
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let dir = parse_flag(args, "--cache-dir").unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
    let cache = ResultCache::new(&dir);
    match args.first().map(String::as_str) {
        Some("stats") => {
            println!("{} ({})", cache.stats(), dir);
            Ok(())
        }
        Some("clear") => {
            let removed = cache
                .clear()
                .map_err(|error| format!("cannot clear `{dir}`: {error}"))?;
            println!("removed {removed} cached result(s) from {dir}");
            Ok(())
        }
        _ => Err(format!(
            "cache needs a subcommand: stats, clear\n\n{}",
            usage()
        )),
    }
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
        println!(
            "{a_path} and {b_path} match: {} leaves within {tolerance_pct}% tolerance",
            report.compared
        );
        Ok(true)
    } else {
        println!("{a_path} -> {b_path}:");
        println!("{report}");
        println!("{} diverging leaves", report.entries.len());
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
    println!("{table}");
}

fn cmd_configs() {
    let mut table = Table::new(["name", "summary"]);
    for config in all_configs() {
        table.row([config.name.clone(), config.to_string()]);
    }
    println!("{table}");
}

fn usage() -> &'static str {
    "usage:\n  cpe asm <file.s>\n  cpe trace <file.s> [-n N]\n  \
     cpe trace record (<file.s> | --workload NAME [--scale S]) [--max N] [-o FILE]\n  \
     cpe trace info <file.cper>\n  cpe run (<file.s> | <file.cper>) \
     [--config NAME] [--max N] [--detail] [--metrics-json FILE]\n  cpe profile \
     --workload NAME [--config NAME] [--scale test|small|full] [--max N]\n              \
     [--interval N] [--ring N] [--trace-out FILE] [--trace-format chrome|jsonl]\n              \
     [--metrics-json FILE]\n  cpe compare <file.s> [--max N] [--metrics-json FILE]\n  \
     cpe explain <CONFIG_A> <CONFIG_B> [--workload NAME] [--scale S] [--max N]\n  \
     cpe pipeview --workload NAME [--config NAME] [--scale S] [--max N]\n               \
     [--ring N] [-o FILE]\n  \
     cpe sweep [--jobs N] [--scale test|small|full] [--max N] [--configs a,b]\n            \
     [--workloads x,y] [--backend direct|replay] [--no-cache] [--cache-dir DIR]\n            \
     [--metrics-json FILE] [--no-progress]\n  \
     cpe validate <file.json|file.jsonl|file.kanata>... [--jsonl] [--cpi]\n  \
     cpe cache stats|clear [--cache-dir DIR]\n  \
     cpe diff <a.json> <b.json> [--tolerance PCT]\n  cpe workloads\n  cpe configs\n  \
     cpe --version"
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    // Most commands exit 0 on success; `diff` alone maps a clean compare
    // to 0 and a beyond-tolerance divergence to 1.
    let done = |result: Result<(), String>| result.map(|()| ExitCode::SUCCESS);
    match args.first().map(String::as_str) {
        Some("--version" | "-V") => {
            println!("cpe {}", env!("CARGO_PKG_VERSION"));
            Ok(ExitCode::SUCCESS)
        }
        Some("asm") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &[], &[])?;
            done(cmd_asm(&args[1]))
        }
        Some("trace") if args.get(1).map(String::as_str) == Some("record") => {
            reject_unknown_flags(&args[2..], &["--workload", "--scale", "--max", "-o"], &[])?;
            done(cmd_trace_record(&args[2..]))
        }
        Some("trace") if args.get(1).map(String::as_str) == Some("info") => {
            reject_unknown_flags(&args[2..], &[], &[])?;
            let path = args
                .get(2)
                .ok_or_else(|| format!("trace info needs a FILE\n\n{}", usage()))?;
            done(cmd_trace_info(path))
        }
        Some("trace") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &["-n"], &[])?;
            let count = parse_number(args, "-n")?.unwrap_or(50);
            done(cmd_trace(&args[1], count))
        }
        Some("run") if args.len() >= 2 => {
            reject_unknown_flags(
                &args[1..],
                &["--config", "--max", "--metrics-json"],
                &["--detail"],
            )?;
            let max = parse_number(args, "--max")?;
            let detail = args.iter().any(|arg| arg == "--detail");
            done(cmd_run(
                &args[1],
                config_flag(args)?,
                max,
                detail,
                parse_flag(args, "--metrics-json"),
            ))
        }
        Some("profile") => {
            reject_unknown_flags(
                &args[1..],
                &[
                    "--workload",
                    "--config",
                    "--scale",
                    "--max",
                    "--interval",
                    "--ring",
                    "--trace-out",
                    "--trace-format",
                    "--metrics-json",
                ],
                &[],
            )?;
            done(cmd_profile(args))
        }
        Some("compare") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &["--max", "--metrics-json"], &[])?;
            let max = parse_number(args, "--max")?;
            done(cmd_compare(
                &args[1],
                max,
                parse_flag(args, "--metrics-json"),
            ))
        }
        Some("explain") => {
            reject_unknown_flags(&args[1..], &["--workload", "--scale", "--max"], &[])?;
            done(cmd_explain(&args[1..]))
        }
        Some("pipeview") => {
            reject_unknown_flags(
                &args[1..],
                &["--workload", "--config", "--scale", "--max", "--ring", "-o"],
                &[],
            )?;
            done(cmd_pipeview(&args[1..]))
        }
        Some("sweep") => {
            reject_unknown_flags(
                &args[1..],
                &[
                    "--jobs",
                    "--scale",
                    "--max",
                    "--configs",
                    "--workloads",
                    "--backend",
                    "--cache-dir",
                    "--metrics-json",
                ],
                &["--no-cache", "--no-progress"],
            )?;
            done(cmd_sweep(args))
        }
        Some("validate") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &[], &["--jsonl", "--cpi"])?;
            done(cmd_validate(&args[1..]))
        }
        Some("cache") => {
            reject_unknown_flags(&args[1..], &["--cache-dir"], &[])?;
            done(cmd_cache(&args[1..]))
        }
        Some("diff") if args.len() >= 3 => {
            reject_unknown_flags(&args[3..], &["--tolerance"], &[])?;
            let tolerance = match parse_flag(args, "--tolerance") {
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
            if cmd_diff(&args[1], &args[2], tolerance)? {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(1))
            }
        }
        Some("workloads") => {
            reject_unknown_flags(&args[1..], &[], &[])?;
            cmd_workloads();
            Ok(ExitCode::SUCCESS)
        }
        Some("configs") => {
            reject_unknown_flags(&args[1..], &[], &[])?;
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
