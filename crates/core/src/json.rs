//! Machine-readable exports, hand-assembled.
//!
//! The workspace carries no serialization dependency, and everything
//! exported here is a closed set of numbers, booleans and short labels —
//! so the JSON is written out directly. Two documents are produced:
//!
//! * [`profile_json`] — the `--metrics-json` artifact: the full
//!   [`SimConfig`] (making the file self-describing), the end-of-run
//!   [`RunSummary`], every raw scalar counter, the per-epoch
//!   [`MetricsSeries`](crate::MetricsSeries), and the [`SelfProfile`];
//! * [`config_json`] — the embedded configuration object, also useful on
//!   its own.

use cpe_cpu::{CpuConfig, CpuStats, DirPredictorKind, FuSpec, SimResult, StallCause};
use cpe_mem::{
    CacheGeometry, Latencies, LineBufferConfig, MemConfig, PortConfig, StoreBufferConfig,
    TlbConfig, WritePolicy,
};
use cpe_stats::{Histogram, Log2Histogram};

use crate::config::SimConfig;
use crate::metrics::RunSummary;
use crate::observe::{EpochMetrics, ProfiledRun, SelfProfile};

/// Version tag stamped into every exported document, bumped whenever the
/// shape changes incompatibly.
///
/// Schema 2 added the `distributions` object (per-path load-latency,
/// store-commit-latency and residency histograms plus occupancy
/// distributions), the summary's latency percentiles, and the per-epoch
/// `load_latency_p50`/`load_latency_p95` fields.
///
/// Schema 3 added the `cpi_stack` commit-slot accounting object — which
/// carries its own conservation contract (`total == commit_slots ==
/// cycles × commit_width`) so a validator needs nothing else — and the
/// per-epoch `cpi_slots` breakdown.
pub const METRICS_SCHEMA: u32 = 3;

/// Escape a string for a JSON literal.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite float, or `null` (JSON has no NaN/Infinity).
pub(crate) fn num(value: f64) -> String {
    if value.is_finite() {
        // Shortest round-trip representation; always a valid JSON number
        // for finite input.
        let text = format!("{value}");
        if text.contains('.') || text.contains('e') || text.contains('-') {
            text
        } else {
            // Keep integral floats recognisably floating ("2" -> "2.0").
            format!("{text}.0")
        }
    } else {
        "null".to_string()
    }
}

/// An optional integer (percentile of an empty distribution), or `null`.
fn opt(value: Option<u64>) -> String {
    match value {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// A [`Log2Histogram`] as `{count, mean, max, p50, p90, p95, p99,
/// buckets}`, where `buckets` lists only the non-empty `[lo, hi, count]`
/// ranges.
fn log2hist_json(hist: &Log2Histogram) -> String {
    let buckets: Vec<String> = hist
        .iter_buckets()
        .map(|(lo, hi, count)| format!("[{lo},{hi},{count}]"))
        .collect();
    format!(
        "{{\"count\":{},\"mean\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\
         \"buckets\":[{}]}}",
        hist.total(),
        num(hist.mean()),
        hist.max_seen(),
        opt(hist.p50()),
        opt(hist.p90()),
        opt(hist.p95()),
        opt(hist.p99()),
        buckets.join(",")
    )
}

/// A dense [`Histogram`] as `{count, mean, max, overflow, counts}`, where
/// `counts` lists only the non-empty `[value, count]` pairs.
fn dense_hist_json(hist: &Histogram) -> String {
    let counts: Vec<String> = hist
        .iter()
        .filter(|&(_, count)| count > 0)
        .map(|(value, count)| format!("[{value},{count}]"))
        .collect();
    format!(
        "{{\"count\":{},\"mean\":{},\"max\":{},\"overflow\":{},\"counts\":[{}]}}",
        hist.total(),
        num(hist.mean()),
        hist.max_seen(),
        hist.overflow(),
        counts.join(",")
    )
}

/// The run's latency and occupancy distributions as one object.
fn distributions_json(summary: &RunSummary) -> String {
    let mem = &summary.raw.mem;
    let cpu = &summary.raw.cpu;
    let paths: Vec<String> = mem
        .load_latency_paths()
        .iter()
        .map(|(name, hist)| format!("\"{name}\":{}", log2hist_json(hist)))
        .collect();
    format!(
        "{{\"load_latency\":{},\"load_latency_paths\":{{{}}},\"store_commit_latency\":{},\
         \"mshr_residency\":{},\"occupancy\":{{\"rob\":{},\"lsq\":{},\"mshr\":{},\
         \"store_buffer\":{},\"port_queue\":{}}}}}",
        log2hist_json(&mem.load_latency),
        paths.join(","),
        log2hist_json(&mem.store_commit_latency),
        log2hist_json(&mem.mshr_residency),
        dense_hist_json(&cpu.rob_occupancy),
        dense_hist_json(&cpu.lsq_occupancy),
        dense_hist_json(&mem.mshr_occupancy),
        dense_hist_json(&mem.store_buffer_occupancy),
        dense_hist_json(&mem.port_queue_depth)
    )
}

/// The commit-slot accounting stack as one self-contained object: the
/// conservation inputs (`commit_width`, `commit_slots`) ride along so
/// `cpe validate` can check `total == commit_slots == sum(causes)`
/// without consulting any other part of the document.
fn cpi_stack_json(cpu: &CpuStats) -> String {
    let causes: Vec<String> = cpu
        .cpi_stack
        .iter()
        .map(|(cause, slots)| format!("\"{}\":{slots}", cause.name()))
        .collect();
    format!(
        "{{\"commit_width\":{},\"commit_slots\":{},\"total\":{},\"causes\":{{{}}}}}",
        cpu.commit_width,
        cpu.cycles.get() * cpu.commit_width,
        cpu.cpi_stack.total(),
        causes.join(",")
    )
}

/// `"replacement":"lru"` is a fixed fact of the modelled machine, kept
/// so every document names its replacement policy.
fn cache_json(cache: &CacheGeometry) -> String {
    format!(
        "{{\"capacity_bytes\":{},\"ways\":{},\"line_bytes\":{},\"replacement\":\"lru\"}}",
        cache.capacity_bytes, cache.ways, cache.line_bytes
    )
}

fn ports_json(ports: &PortConfig) -> String {
    format!(
        "{{\"count\":{},\"width_bytes\":{},\"load_combining\":{},\"banks\":{}}}",
        ports.count, ports.width_bytes, ports.load_combining, ports.banks
    )
}

fn line_buffers_json(lb: &LineBufferConfig) -> String {
    format!(
        "{{\"entries\":{},\"width_bytes\":{}}}",
        lb.entries, lb.width_bytes
    )
}

fn store_buffer_json(sb: &StoreBufferConfig) -> String {
    format!(
        "{{\"entries\":{},\"combining\":{}}}",
        sb.entries, sb.combining
    )
}

fn latencies_json(lat: &Latencies) -> String {
    format!(
        "{{\"l1_hit\":{},\"line_buffer_hit\":{},\"store_forward\":{},\"l2_hit\":{},\
         \"dram\":{},\"fill_interval\":{}}}",
        lat.l1_hit, lat.line_buffer_hit, lat.store_forward, lat.l2_hit, lat.dram, lat.fill_interval
    )
}

fn tlb_json(tlb: &TlbConfig) -> String {
    format!(
        "{{\"entries\":{},\"page_bytes\":{},\"miss_penalty\":{}}}",
        tlb.entries, tlb.page_bytes, tlb.miss_penalty
    )
}

fn mem_json(mem: &MemConfig) -> String {
    let write_policy = match mem.write_policy {
        WritePolicy::WritebackAllocate => "writeback_allocate",
        WritePolicy::WriteThroughNoAllocate => "write_through_no_allocate",
    };
    format!(
        "{{\"dcache\":{},\"icache\":{},\"l2\":{},\"ports\":{},\"line_buffers\":{},\
         \"store_buffer\":{},\"mshrs\":{},\"latencies\":{},\"dtlb\":{},\"itlb\":{},\
         \"next_line_prefetch\":{},\"victim_cache\":{},\"write_policy\":\"{}\"}}",
        cache_json(&mem.dcache),
        cache_json(&mem.icache),
        cache_json(&mem.l2),
        ports_json(&mem.ports),
        line_buffers_json(&mem.line_buffers),
        store_buffer_json(&mem.store_buffer),
        mem.mshrs,
        latencies_json(&mem.latencies),
        tlb_json(&mem.dtlb),
        tlb_json(&mem.itlb),
        mem.next_line_prefetch,
        mem.victim_cache,
        write_policy
    )
}

fn predictor_json(kind: &DirPredictorKind) -> String {
    match kind {
        DirPredictorKind::Btfn => "{\"kind\":\"btfn\"}".to_string(),
        DirPredictorKind::Bimodal { entries } => {
            format!("{{\"kind\":\"bimodal\",\"entries\":{entries}}}")
        }
        DirPredictorKind::Gshare {
            entries,
            history_bits,
        } => {
            format!("{{\"kind\":\"gshare\",\"entries\":{entries},\"history_bits\":{history_bits}}}")
        }
        DirPredictorKind::Local {
            history_entries,
            history_bits,
        } => format!(
            "{{\"kind\":\"local\",\"history_entries\":{history_entries},\
             \"history_bits\":{history_bits}}}"
        ),
    }
}

fn fu_spec_json(spec: &FuSpec) -> String {
    format!(
        "{{\"count\":{},\"latency\":{},\"pipelined\":{}}}",
        spec.count, spec.latency, spec.pipelined
    )
}

/// `"disambiguation":"perfect"` is a fixed fact of the modelled machine
/// (loads order only behind overlapping stores), kept so every document
/// names its memory-ordering policy.
fn cpu_json(cpu: &CpuConfig) -> String {
    format!(
        "{{\"fetch_width\":{},\"dispatch_width\":{},\"issue_width\":{},\"commit_width\":{},\
         \"rob_entries\":{},\"load_queue\":{},\"store_queue\":{},\"fetch_bytes\":{},\
         \"predictor\":{},\"btb_entries\":{},\"ras_entries\":{},\"mispredict_penalty\":{},\
         \"misfetch_penalty\":{},\"trap_penalty\":{},\
         \"fu\":{{\"int_alu\":{},\"int_mul\":{},\"int_div\":{},\"fp_add\":{},\"fp_mul\":{},\
         \"fp_div\":{},\"agu\":{}}},\
         \"disambiguation\":\"perfect\",\"lsq_forward_latency\":{},\"wrong_path_fetch\":{},\
         \"watchdog_cycles\":{}}}",
        cpu.fetch_width,
        cpu.dispatch_width,
        cpu.issue_width,
        cpu.commit_width,
        cpu.rob_entries,
        cpu.load_queue,
        cpu.store_queue,
        cpu.fetch_bytes,
        predictor_json(&cpu.predictor),
        cpu.btb_entries,
        cpu.ras_entries,
        cpu.mispredict_penalty,
        cpu.misfetch_penalty,
        cpu.trap_penalty,
        fu_spec_json(&cpu.fu.int_alu),
        fu_spec_json(&cpu.fu.int_mul),
        fu_spec_json(&cpu.fu.int_div),
        fu_spec_json(&cpu.fu.fp_add),
        fu_spec_json(&cpu.fu.fp_mul),
        fu_spec_json(&cpu.fu.fp_div),
        fu_spec_json(&cpu.fu.agu),
        cpu.lsq_forward_latency,
        cpu.wrong_path_fetch,
        cpu.watchdog_cycles
    )
}

/// The full [`SimConfig`] as one JSON object, so exported results are
/// self-describing.
pub fn config_json(config: &SimConfig) -> String {
    format!(
        "{{\"name\":\"{}\",\"cpu\":{},\"mem\":{}}}",
        escape(&config.name),
        cpu_json(&config.cpu),
        mem_json(&config.mem)
    )
}

/// The end-of-run [`RunSummary`] as one JSON object.
pub fn summary_json(summary: &RunSummary) -> String {
    format!(
        "{{\"config\":\"{}\",\"workload\":\"{}\",\"cycles\":{},\"insts\":{},\"ipc\":{},\
         \"kernel_fraction\":{},\"user_ipc\":{},\"kernel_ipc\":{},\"loads_per_kinst\":{},\
         \"stores_per_kinst\":{},\"dcache_mpki\":{},\"icache_mpki\":{},\"port_utilisation\":{},\
         \"portless_load_fraction\":{},\"store_combined_fraction\":{},\"mispredict_rate\":{},\
         \"store_stall_per_kcycle\":{},\"bank_conflicts_per_kinst\":{},\"prefetch_accuracy\":{},\
         \"victim_hits_per_kinst\":{},\"load_latency_p50\":{},\"load_latency_p95\":{},\
         \"load_latency_p99\":{}}}",
        escape(&summary.config),
        escape(&summary.workload),
        summary.cycles,
        summary.insts,
        num(summary.ipc),
        num(summary.kernel_fraction),
        num(summary.user_ipc),
        num(summary.kernel_ipc),
        num(summary.loads_per_kinst),
        num(summary.stores_per_kinst),
        num(summary.dcache_mpki),
        num(summary.icache_mpki),
        num(summary.port_utilisation),
        num(summary.portless_load_fraction),
        num(summary.store_combined_fraction),
        num(summary.mispredict_rate),
        num(summary.store_stall_per_kcycle),
        num(summary.bank_conflicts_per_kinst),
        num(summary.prefetch_accuracy),
        num(summary.victim_hits_per_kinst),
        opt(summary.load_latency_p50),
        opt(summary.load_latency_p95),
        opt(summary.load_latency_p99)
    )
}

fn epoch_json(epoch: &EpochMetrics) -> String {
    let cpi: Vec<String> = StallCause::ALL
        .iter()
        .zip(epoch.cpi_slots.iter())
        .map(|(cause, slots)| format!("\"{}\":{slots}", cause.name()))
        .collect();
    format!(
        "{{\"start_cycle\":{},\"end_cycle\":{},\"insts\":{},\"loads\":{},\"stores\":{},\
         \"dcache_misses\":{},\"ipc\":{},\"port_utilisation\":{},\"portless_load_fraction\":{},\
         \"dcache_mpki\":{},\"store_combine_rate\":{},\"load_latency_p50\":{},\
         \"load_latency_p95\":{},\"cpi_slots\":{{{}}}}}",
        epoch.start_cycle,
        epoch.end_cycle,
        epoch.insts,
        epoch.loads,
        epoch.stores,
        epoch.dcache_misses,
        num(epoch.ipc),
        num(epoch.port_utilisation),
        num(epoch.portless_load_fraction),
        num(epoch.dcache_mpki),
        num(epoch.store_combine_rate),
        opt(epoch.load_latency_p50),
        opt(epoch.load_latency_p95),
        cpi.join(",")
    )
}

fn self_profile_json(profile: &SelfProfile) -> String {
    let ring = match &profile.ring {
        Some(ring) => format!(
            "{{\"emitted\":{},\"dropped\":{},\"peak\":{},\"capacity\":{},\"len\":{}}}",
            ring.emitted, ring.dropped, ring.peak, ring.capacity, ring.len
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"wall_seconds\":{},\"cycles\":{},\"insts\":{},\"cycles_per_sec\":{},\
         \"capture_enabled\":{},\"ring\":{}}}",
        num(profile.wall_seconds),
        profile.cycles,
        profile.insts,
        num(profile.cycles_per_sec),
        profile.capture_enabled,
        ring
    )
}

/// Every scalar counter of the run, keyed by field name:
/// `{"cpu":{…},"mem":{…}}` (both halves have a `loads` and a `stores`).
fn counters_json(raw: &SimResult) -> String {
    let object = |counters: Vec<(&str, u64)>| {
        let members: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!("{{{}}}", members.join(","))
    };
    format!(
        "{{\"cpu\":{},\"mem\":{}}}",
        object(raw.cpu.counters()),
        object(raw.mem.counters())
    )
}

/// The complete `--metrics-json` document for one profiled run.
pub fn profile_json(run: &ProfiledRun, config: &SimConfig) -> String {
    let epochs: Vec<String> = run.series.epochs.iter().map(epoch_json).collect();
    format!(
        "{{\"schema\":{},\"config\":{},\"summary\":{},\"distributions\":{},\"cpi_stack\":{},\
         \"counters\":{},\"epoch_interval\":{},\"epochs\":[{}],\"self_profile\":{}}}",
        METRICS_SCHEMA,
        config_json(config),
        summary_json(&run.summary),
        distributions_json(&run.summary),
        cpi_stack_json(&run.summary.raw.cpu),
        counters_json(&run.summary.raw),
        run.series.interval,
        epochs.join(","),
        self_profile_json(&run.self_profile)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ProfileOptions;
    use crate::simulator::Simulator;
    use cpe_workloads::{Scale, Workload};

    /// Structural JSON check without a parser: balanced braces/brackets
    /// outside strings, properly terminated strings.
    fn assert_balanced(text: &str) {
        let mut depth = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_string {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => in_string = false,
                    _ => escaped = false,
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "bracket underflow in {text}");
        }
        assert_eq!(depth, 0, "unbalanced in {text}");
        assert!(!in_string, "unterminated string in {text}");
    }

    #[test]
    fn config_json_names_every_section() {
        let text = config_json(&SimConfig::combined_single_port());
        assert_balanced(&text);
        for key in [
            "\"name\":\"1-port combined\"",
            "\"cpu\":",
            "\"mem\":",
            "\"ports\":",
            "\"load_combining\":true",
            "\"store_buffer\":",
            "\"line_buffers\":",
            "\"predictor\":",
            "\"latencies\":",
            "\"write_policy\":\"writeback_allocate\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn predictor_variants_serialize() {
        for (kind, expect) in [
            (DirPredictorKind::Btfn, "\"kind\":\"btfn\""),
            (
                DirPredictorKind::Bimodal { entries: 512 },
                "\"entries\":512",
            ),
            (
                DirPredictorKind::Gshare {
                    entries: 1024,
                    history_bits: 8,
                },
                "\"history_bits\":8",
            ),
            (
                DirPredictorKind::Local {
                    history_entries: 256,
                    history_bits: 6,
                },
                "\"history_entries\":256",
            ),
        ] {
            let text = predictor_json(&kind);
            assert_balanced(&text);
            assert!(text.contains(expect), "{text}");
        }
    }

    #[test]
    fn numbers_guard_non_finite_values() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.0), "2.0");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(-1.5), "-1.5");
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn full_profile_document_is_sound_and_self_describing() {
        let sim =
            Simulator::try_new(SimConfig::combined_single_port()).expect("the config validates");
        let run = sim
            .try_profile(
                Workload::Sort,
                Scale::Test,
                Some(5_000),
                ProfileOptions::default(),
            )
            .expect("run completes");
        let text = profile_json(&run, sim.config());
        assert_balanced(&text);
        assert!(text.starts_with("{\"schema\":3,"));
        // Self-describing: the config rides inside the document.
        assert!(text.contains("\"config\":{\"name\":\"1-port combined\""));
        assert!(text.contains("\"epochs\":["));
        assert!(text.contains("\"self_profile\":{"));
        assert!(text.contains(&format!("\"cycles\":{}", run.summary.cycles)));
        // The CPI stack rides along with its conservation inputs, and the
        // stated total matches cycles × commit_width exactly.
        let width = run.summary.raw.cpu.commit_width;
        let slots = run.summary.cycles * width;
        assert!(
            text.contains(&format!(
                "\"cpi_stack\":{{\"commit_width\":{width},\"commit_slots\":{slots},\
                 \"total\":{slots},\"causes\":{{\"base\":"
            )),
            "{text}"
        );
        assert!(text.contains("\"dcache_port_conflict\":"), "{text}");
        assert!(text.contains("\"cpi_slots\":{\"base\":"), "{text}");
    }

    #[test]
    fn profile_document_carries_per_path_latency_distributions() {
        let sim =
            Simulator::try_new(SimConfig::combined_single_port()).expect("the config validates");
        let run = sim
            .try_profile(
                Workload::Compress,
                Scale::Test,
                Some(5_000),
                ProfileOptions::default(),
            )
            .expect("run completes");
        let text = profile_json(&run, sim.config());
        assert_balanced(&text);
        assert!(
            text.contains("\"distributions\":{\"load_latency\":{"),
            "{text}"
        );
        for path in [
            "\"l1_port_hit\":{",
            "\"line_buffer\":{",
            "\"store_forward\":{",
            "\"combined\":{",
            "\"mshr_merge\":{",
            "\"miss\":{",
        ] {
            assert!(text.contains(path), "missing path {path}");
        }
        for key in [
            "\"p50\":",
            "\"p95\":",
            "\"p99\":",
            "\"buckets\":[",
            "\"store_commit_latency\":{",
            "\"mshr_residency\":{",
            "\"occupancy\":{\"rob\":{",
            "\"lsq\":{",
            "\"store_buffer\":{",
            "\"port_queue\":{",
            "\"load_latency_p50\":",
            "\"load_latency_p95\":",
        ] {
            assert!(text.contains(key), "missing {key}");
        }
        // The run issued loads, so the aggregate distribution must carry
        // concrete percentiles, not nulls.
        let dist_start = text.find("\"distributions\":").unwrap();
        let dist = &text[dist_start..];
        assert!(run.summary.raw.mem.loads.get() > 0);
        assert!(!dist[..200].contains("\"p50\":null"), "{}", &dist[..200]);
    }

    #[test]
    fn histogram_serializers_handle_empty_and_loaded_forms() {
        let empty = Log2Histogram::new();
        let text = log2hist_json(&empty);
        assert_balanced(&text);
        assert!(text.contains("\"count\":0"));
        assert!(text.contains("\"p50\":null"));
        assert!(text.contains("\"buckets\":[]"));
        assert!(!text.contains("NaN"), "{text}");

        let mut hist = Log2Histogram::new();
        for v in [1, 2, 3, 100] {
            hist.record(v);
        }
        let text = log2hist_json(&hist);
        assert_balanced(&text);
        assert!(text.contains("\"count\":4"));
        assert!(text.contains("\"p50\":2"));
        assert!(text.contains("\"max\":100"));

        let mut dense = Histogram::new(4);
        dense.record(1);
        dense.record(1);
        dense.record(9); // overflows
        let text = dense_hist_json(&dense);
        assert_balanced(&text);
        assert!(text.contains("\"counts\":[[1,2]]"), "{text}");
        assert!(text.contains("\"overflow\":1"), "{text}");
    }
}
