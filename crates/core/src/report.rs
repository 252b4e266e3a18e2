//! Full-detail textual reports for a single run.

use cpe_stats::{percent, Table};

use crate::metrics::RunSummary;

/// Two-decimal percentage with the same non-finite guard as
/// [`percent`] — a `0/0` ratio renders as `"-"`, never `"NaN%"`.
fn percent2(fraction: f64) -> String {
    if fraction.is_finite() {
        format!("{:.2}%", fraction * 100.0)
    } else {
        "-".to_string()
    }
}

/// Render a multi-section report covering every counter group of a run:
/// the headline metrics, where loads were served, store-path behaviour,
/// pipeline friction, and the per-cycle distributions as ASCII charts.
///
/// This is what `cpe run --detail` prints; it is also convenient in test
/// failure messages.
pub fn detailed_report(summary: &RunSummary) -> String {
    let cpu = &summary.raw.cpu;
    let mem = &summary.raw.mem;
    let mut out = String::new();
    let section = |out: &mut String, title: &str| {
        out.push_str(&format!("\n### {title}\n\n"));
    };

    out.push_str(&format!(
        "# {} on `{}`\n\n{} instructions in {} cycles — IPC {:.3}\n",
        summary.workload, summary.config, summary.insts, summary.cycles, summary.ipc
    ));

    section(&mut out, "headline");
    let mut t = Table::new(["metric", "value"]);
    t.row(["IPC", &format!("{:.3}", summary.ipc)])
        .row([
            "user / kernel IPC",
            &format!("{:.3} / {:.3}", summary.user_ipc, summary.kernel_ipc),
        ])
        .row([
            "kernel instruction share",
            &percent(summary.kernel_fraction),
        ])
        .row([
            "loads / stores per ki",
            &format!(
                "{:.0} / {:.0}",
                summary.loads_per_kinst, summary.stores_per_kinst
            ),
        ])
        .row([
            "D-MPKI / I-MPKI",
            &format!("{:.2} / {:.2}", summary.dcache_mpki, summary.icache_mpki),
        ])
        .row(["branch mispredict rate", &percent2(summary.mispredict_rate)]);
    out.push_str(&t.to_markdown());

    section(&mut out, "CPI stack");
    let width = cpu.commit_width.max(1);
    let total_slots = cpu.cpi_stack.total();
    let slot_cpi = |slots: u64| {
        if summary.insts == 0 {
            "-".to_string()
        } else {
            format!("{:.4}", slots as f64 / width as f64 / summary.insts as f64)
        }
    };
    let mut t = Table::new(["cause", "slots", "% of slots", "CPI"]);
    for (cause, slots) in cpu.cpi_stack.iter() {
        t.row([
            cause.name().to_string(),
            slots.to_string(),
            // 0/0 renders "-" on an empty run.
            percent2(slots as f64 / total_slots as f64),
            slot_cpi(slots),
        ]);
    }
    let total_share = if total_slots == 0 { f64::NAN } else { 1.0 };
    t.row([
        "total".to_string(),
        total_slots.to_string(),
        percent2(total_share),
        slot_cpi(total_slots),
    ]);
    out.push_str(&t.to_markdown());

    section(&mut out, "load sourcing");
    let loads = mem.loads.get().max(1) as f64;
    let mut t = Table::new(["source", "count", "% of loads"]);
    for (label, count) in [
        ("L1 port hit", mem.load_l1_hits.get()),
        ("line buffer (portless)", mem.load_lb_hits.get()),
        ("combined access (portless)", mem.load_combined.get()),
        (
            "store-buffer forward (portless)",
            mem.load_sb_forwards.get(),
        ),
        ("merged into outstanding miss", mem.load_miss_merged.get()),
        ("new miss", mem.load_misses.get()),
        ("LSQ forward (never left the core)", cpu.lsq_forwards.get()),
    ] {
        t.row([
            label.to_string(),
            count.to_string(),
            format!("{:.1}", count as f64 * 100.0 / loads),
        ]);
    }
    out.push_str(&t.to_markdown());

    section(&mut out, "store path");
    let mut t = Table::new(["metric", "value"]);
    t.row(["stores accepted", &mem.stores.get().to_string()])
        .row([
            "write-combined",
            &format!(
                "{} ({})",
                mem.store_combined.get(),
                percent(summary.store_combined_fraction)
            ),
        ])
        .row([
            "drained through idle slots",
            &mem.store_drains.get().to_string(),
        ])
        .row([
            "commit stalls / kilocycle",
            &format!("{:.1}", summary.store_stall_per_kcycle),
        ])
        .row(["write-throughs", &mem.write_throughs.get().to_string()]);
    out.push_str(&t.to_markdown());

    section(&mut out, "ports and hierarchy");
    let mut t = Table::new(["metric", "value"]);
    t.row(["port utilisation", &percent(summary.port_utilisation)])
        .row([
            "bank conflicts / ki",
            &format!("{:.2}", summary.bank_conflicts_per_kinst),
        ])
        .row([
            "L2 hits / misses",
            &format!("{} / {}", mem.l2_hits.get(), mem.l2_misses.get()),
        ])
        .row(["writebacks", &mem.writebacks.get().to_string()])
        .row([
            "prefetches (useful)",
            &format!("{} ({})", mem.prefetches.get(), mem.prefetch_useful.get()),
        ])
        .row(["victim-cache hits", &mem.victim_hits.get().to_string()]);
    out.push_str(&t.to_markdown());

    section(&mut out, "pipeline friction");
    let mut t = Table::new(["event", "count"]);
    t.row([
        "fetch stalls: redirect cycles",
        &cpu.fetch_redirect_stall_cycles.get().to_string(),
    ])
    .row([
        "fetch stalls: icache cycles",
        &cpu.fetch_icache_stall_cycles.get().to_string(),
    ])
    .row([
        "dispatch halts: ROB full",
        &cpu.dispatch_rob_full.get().to_string(),
    ])
    .row([
        "dispatch halts: LQ/SQ full",
        &cpu.dispatch_lsq_full.get().to_string(),
    ])
    .row([
        "load ordering stalls",
        &cpu.lsq_order_stalls.get().to_string(),
    ])
    .row(["load retries: no port", &mem.load_no_port.get().to_string()])
    .row([
        "load retries: MSHRs full",
        &mem.load_mshr_full.get().to_string(),
    ])
    .row([
        "misfetches / indirect mispredicts",
        &format!(
            "{} / {}",
            cpu.misfetches.get(),
            cpu.indirect_mispredicts.get()
        ),
    ]);
    out.push_str(&t.to_markdown());

    section(&mut out, "load latency by path");
    let pct = |value: Option<u64>| value.map_or_else(|| "-".to_string(), |v| v.to_string());
    let mut t = Table::new(["path", "n", "mean", "p50", "p95", "p99", "max"]);
    let all_loads = mem.load_latency();
    let mut latency_rows = vec![("all loads", &all_loads)];
    latency_rows.extend(mem.load_latency_paths());
    latency_rows.push(("store commit wait", &mem.store_commit_latency));
    latency_rows.push(("MSHR residency", &mem.mshr_residency));
    for (label, hist) in latency_rows {
        t.row([
            label.to_string(),
            hist.total().to_string(),
            format!("{:.1}", hist.mean()),
            pct(hist.p50()),
            pct(hist.p95()),
            pct(hist.p99()),
            hist.max_seen().to_string(),
        ]);
    }
    out.push_str(&t.to_markdown());

    section(&mut out, "occupancy");
    let mut t = Table::new(["structure", "mean", "max"]);
    for (label, hist) in [
        ("ROB entries", &cpu.rob_occupancy),
        ("LSQ entries", &cpu.lsq_occupancy),
        ("MSHRs", &mem.mshr_occupancy),
        ("store-buffer entries", &mem.store_buffer_occupancy),
        ("port requests denied per cycle", &mem.port_queue_depth),
    ] {
        t.row([
            label.to_string(),
            format!("{:.2}", hist.mean()),
            hist.max_seen().to_string(),
        ]);
    }
    out.push_str(&t.to_markdown());

    section(&mut out, "port slots used per cycle");
    out.push_str(&mem.slots_per_cycle.to_ascii_chart(40));
    section(&mut out, "commits per cycle");
    out.push_str(&cpu.commits_per_cycle.to_ascii_chart(40));

    out
}

/// Compare two runs' CPI stacks cause by cause — the payload of
/// `cpe explain`. Every commit slot of each run is attributed to exactly
/// one cause, so the per-cause CPI deltas account for the *entire* gap
/// between the two machines; rows are ranked by delta magnitude, so the
/// first rows name where the gap comes from.
pub fn explain_report(a: &RunSummary, b: &RunSummary) -> String {
    let cause_cpi = |summary: &RunSummary, slots: u64| {
        if summary.insts == 0 {
            f64::NAN
        } else {
            slots as f64 / summary.raw.cpu.commit_width.max(1) as f64 / summary.insts as f64
        }
    };
    let fmt = |value: f64| {
        if value.is_finite() {
            format!("{value:.4}")
        } else {
            "-".to_string()
        }
    };
    let fmt_delta = |value: f64| {
        if value.is_finite() {
            format!("{value:+.4}")
        } else {
            "-".to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "# CPI stack comparison on {}\n\n\
         a = `{}`: IPC {:.3} over {} insts in {} cycles\n\
         b = `{}`: IPC {:.3} over {} insts in {} cycles\n\n",
        a.workload, a.config, a.ipc, a.insts, a.cycles, b.config, b.ipc, b.insts, b.cycles
    ));
    let mut rows: Vec<(&str, f64, f64, f64)> = a
        .raw
        .cpu
        .cpi_stack
        .iter()
        .map(|(cause, slots_a)| {
            let cpi_a = cause_cpi(a, slots_a);
            let cpi_b = cause_cpi(b, b.raw.cpu.cpi_stack.get(cause));
            (cause.name(), cpi_a, cpi_b, cpi_b - cpi_a)
        })
        .collect();
    rows.sort_by(|x, y| {
        y.3.abs()
            .partial_cmp(&x.3.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut t = Table::new(["cause", "CPI a", "CPI b", "delta (b-a)"]);
    for (name, cpi_a, cpi_b, delta) in rows {
        t.row([name.to_string(), fmt(cpi_a), fmt(cpi_b), fmt_delta(delta)]);
    }
    let total_a = cause_cpi(a, a.raw.cpu.cpi_stack.total());
    let total_b = cause_cpi(b, b.raw.cpu.cpi_stack.total());
    t.row([
        "total".to_string(),
        fmt(total_a),
        fmt(total_b),
        fmt_delta(total_b - total_a),
    ]);
    out.push_str(&t.to_markdown());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use cpe_workloads::{Scale, Workload};

    /// One Test-scale run of `workload` on `config`.
    fn run(config: SimConfig, workload: Workload, max_insts: Option<u64>) -> RunSummary {
        Simulator::try_new(config)
            .expect("the config validates")
            .try_run(workload, Scale::Test, max_insts)
            .expect("the run completes")
    }

    #[test]
    fn report_covers_every_section() {
        let summary = run(
            SimConfig::combined_single_port(),
            Workload::Compress,
            Some(10_000),
        );
        let report = detailed_report(&summary);
        for heading in [
            "### headline",
            "### CPI stack",
            "### load sourcing",
            "### store path",
            "### ports and hierarchy",
            "### pipeline friction",
            "### load latency by path",
            "### occupancy",
            "### port slots used per cycle",
            "### commits per cycle",
        ] {
            assert!(report.contains(heading), "missing {heading}:\n{report}");
        }
        assert!(report.contains("IPC"));
        assert!(report.contains('#'), "charts render bars");
        // The latency table distinguishes serving paths and carries real
        // percentiles for the run's loads.
        assert!(report.contains("all loads"), "{report}");
        assert!(report.contains("l1_port_hit"), "{report}");
        assert!(report.contains("MSHR residency"), "{report}");
        assert!(report.contains("LSQ entries"), "{report}");
        // The CPI stack names every cause and closes with its total.
        assert!(report.contains("dcache_port_conflict"), "{report}");
        assert!(report.contains("fetch_starved"), "{report}");
        assert!(report.contains("100.00%"), "{report}");
    }

    #[test]
    fn explain_ranks_causes_by_cpi_delta() {
        let max = Some(10_000);
        let a = run(SimConfig::naive_single_port(), Workload::Compress, max);
        let b = run(SimConfig::dual_port(), Workload::Compress, max);
        let report = explain_report(&a, &b);
        assert!(report.contains("a = `1-port naive`"), "{report}");
        assert!(report.contains("b = `2-port`"), "{report}");
        assert!(report.contains("dcache_port_conflict"), "{report}");
        assert!(report.contains("delta (b-a)"), "{report}");
        assert!(report.contains("total"), "{report}");
        assert!(!report.contains("NaN"), "{report}");
        // The single-ported machine pays a port-conflict CPI component the
        // dual-ported one all but avoids, so the row's delta is negative.
        let conflict_row = report
            .lines()
            .find(|l| l.contains("dcache_port_conflict"))
            .expect("conflict row present");
        assert!(conflict_row.contains("-0."), "{conflict_row}");
    }

    #[test]
    fn explain_survives_empty_runs() {
        let sim = Simulator::try_new(SimConfig::naive_single_port()).expect("the config validates");
        let a = sim
            .try_run_trace("empty", std::iter::empty(), None)
            .expect("the run completes");
        let b = sim
            .try_run_trace("empty", std::iter::empty(), None)
            .expect("the run completes");
        let report = explain_report(&a, &b);
        assert!(!report.contains("NaN"), "{report}");
        assert!(!report.contains("inf"), "{report}");
    }

    #[test]
    fn zero_instruction_trace_renders_without_nan() {
        // A run that commits nothing: every rate in the report has a zero
        // denominator somewhere upstream. No row may render NaN or inf.
        let summary = Simulator::try_new(SimConfig::naive_single_port())
            .expect("the config validates")
            .try_run_trace("empty", std::iter::empty(), None)
            .expect("the run completes");
        assert_eq!(summary.insts, 0);
        assert_eq!(summary.raw.mem.loads.get(), 0);
        assert_eq!(summary.raw.mem.stores.get(), 0);
        let report = detailed_report(&summary);
        assert!(!report.contains("NaN"), "{report}");
        assert!(!report.contains("inf"), "{report}");
        // The one-line Display form must survive the same run.
        let line = summary.to_string();
        assert!(!line.contains("NaN"), "{line}");
    }

    #[test]
    fn report_is_plain_printable_text() {
        let summary = run(SimConfig::dual_port(), Workload::Sort, Some(5_000));
        let report = detailed_report(&summary);
        assert!(report.lines().count() > 40);
        assert!(!report.contains('\t'), "tables are space-aligned");
    }
}
