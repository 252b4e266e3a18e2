//! End-user tests of the `cpe` command-line tool, driving the real
//! binary through `std::process`.

use std::io::Write;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn cpe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpe"))
}

fn write_program(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("prog.s");
    let mut file = std::fs::File::create(&path).unwrap();
    write!(
        file,
        ".data\nv: .quad 4, 3, 2, 1\n.text\nmain: la t0, v\n li t1, 4\n li a0, 0\n\
         loop: ld t2, 0(t0)\n add a0, a0, t2\n addi t0, t0, 8\n addi t1, t1, -1\n\
         bnez t1, loop\n halt\n"
    )
    .unwrap();
    path
}

/// A fresh directory per call: tests run in parallel, and a shared one
/// lets one test rewrite `prog.s` while another is reading it.
fn tempdir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cpe-cli-test-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let output = cpe().output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn usage_covers_every_subcommand() {
    let output = cpe().output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    let verbs = [
        "asm",
        "trace",
        "run",
        "profile",
        "compare",
        "explain",
        "pipeview",
        "bench",
        "sweep",
        "validate",
        "cache",
        "diff",
        "workloads",
        "configs",
    ];
    for verb in verbs {
        assert!(
            stderr.contains(&format!("cpe {verb} ")) || stderr.contains(&format!("cpe {verb}\n")),
            "usage missing `cpe {verb}`: {stderr}"
        );
    }
    assert!(stderr.contains("cpe --version"), "{stderr}");
    // Every usage line names one of the verbs above (or `--version`).
    for line in stderr
        .lines()
        .filter(|line| line.trim_start().starts_with("cpe "))
    {
        let word = line.split_whitespace().nth(1).unwrap_or_default();
        assert!(
            verbs.contains(&word) || word == "--version",
            "usage lists an unexpected verb: {line}"
        );
    }
}

#[test]
fn removed_verbs_and_sweep_flags_are_unknown() {
    for verb in ["worker", "status", "fuzz-fabric", "serve"] {
        let output = cpe().args([verb, "--no-cache"]).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{verb}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.starts_with("usage:"), "{verb}: {stderr}");
        assert!(!stderr.contains(&format!("cpe {verb}")), "{verb}: {stderr}");
    }
    for flag in [
        "--coordinator",
        "--lease-ms",
        "--heartbeat-ms",
        "--fabric-log",
        "--fabric-trace",
        "--fabric-metrics",
    ] {
        let output = cpe()
            .args(["sweep", "--no-cache", "--max", "100", flag, "1"])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{flag}: no cell ran");
    }
    let output = cpe().args(["bench", "--jobs", "2"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag `--jobs`"), "{stderr}");
}

#[test]
fn version_flag_prints_the_crate_version() {
    for flag in ["--version", "-V"] {
        let output = cpe().arg(flag).output().unwrap();
        assert!(output.status.success(), "{flag}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(
            stdout.trim(),
            format!("cpe {}", env!("CARGO_PKG_VERSION")),
            "{flag}: {stdout}"
        );
    }
}

#[test]
fn asm_lists_the_program() {
    let dir = tempdir();
    let program = write_program(&dir);
    let output = cpe().arg("asm").arg(&program).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("main:"), "{stdout}");
    assert!(
        stdout.contains("ld x7, 0(x5)") || stdout.contains("ld "),
        "{stdout}"
    );
    assert!(stdout.contains("instructions"), "{stdout}");
}

#[test]
fn asm_reports_errors_with_line_numbers() {
    let dir = tempdir();
    let path = dir.join("broken.s");
    std::fs::write(&path, "main: nop\n frobnicate a0\n").unwrap();
    let output = cpe().arg("asm").arg(&path).output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

#[test]
fn run_prints_metrics_and_detail() {
    let dir = tempdir();
    let program = write_program(&dir);
    let output = cpe()
        .args(["run"])
        .arg(&program)
        .args(["--config", "2-port"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("IPC"), "{stdout}");

    let detailed = cpe()
        .args(["run"])
        .arg(&program)
        .args(["--detail"])
        .output()
        .unwrap();
    assert!(detailed.status.success());
    let stdout = String::from_utf8_lossy(&detailed.stdout);
    assert!(stdout.contains("### load sourcing"), "{stdout}");
    assert!(stdout.contains("### pipeline friction"), "{stdout}");
}

#[test]
fn unknown_config_is_a_clean_error() {
    let dir = tempdir();
    let program = write_program(&dir);
    let output = cpe()
        .args(["run"])
        .arg(&program)
        .args(["--config", "definitely-not-a-config"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown config"), "{stderr}");
}

/// Record `prog.s` to `prog.cper` next to it.
fn record_program(program: &std::path::Path) -> std::path::PathBuf {
    let recorded = cpe()
        .args(["trace", "record"])
        .arg(program)
        .output()
        .unwrap();
    assert!(
        recorded.status.success(),
        "{}",
        String::from_utf8_lossy(&recorded.stderr)
    );
    let trace = program.with_extension("cper");
    assert!(trace.exists());
    trace
}

#[test]
fn record_then_replay_matches_run() {
    let dir = tempdir();
    let program = write_program(&dir);
    let trace = record_program(&program);

    let direct = cpe().args(["run"]).arg(&program).output().unwrap();
    let replayed = cpe().args(["run"]).arg(&trace).output().unwrap();
    assert!(replayed.status.success());
    let direct_out = String::from_utf8_lossy(&direct.stdout);
    let replayed_out = String::from_utf8_lossy(&replayed.stdout);
    // Both report the same IPC/cycles (the label differs).
    let tail = |s: &str| s.split(':').nth(1).map(str::to_string);
    assert_eq!(
        tail(direct_out.lines().next().unwrap()),
        tail(replayed_out.lines().next().unwrap()),
        "direct: {direct_out}\nreplayed: {replayed_out}"
    );
}

#[test]
fn workloads_and_configs_listings() {
    let workloads = cpe().arg("workloads").output().unwrap();
    assert!(workloads.status.success());
    let stdout = String::from_utf8_lossy(&workloads.stdout);
    for name in [
        "compress", "mpeg", "db", "fft", "sort", "pmake", "matmul", "vm",
    ] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }

    let configs = cpe().arg("configs").output().unwrap();
    assert!(configs.status.success());
    let stdout = String::from_utf8_lossy(&configs.stdout);
    for name in ["1-port naive", "2-port", "1-port combined"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn replay_of_a_corrupt_trace_names_the_record_and_exits_2() {
    let dir = tempdir();
    let program = write_program(&dir);
    let trace = record_program(&program);

    // Set an undefined flag bit in the first record: the diagnosis names
    // the file and the record's byte offset, before any cycle runs.
    let mut bytes = std::fs::read(&trace).unwrap();
    let dict_len = u32::from_le_bytes(bytes[25..29].try_into().unwrap()) as usize;
    let first_record = 29 + 8 * dict_len + 8;
    bytes[first_record] |= 0x80;
    std::fs::write(&trace, &bytes).unwrap();

    let output = cpe().args(["run"]).arg(&trace).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let expected = format!("{}:{first_record}: undefined flag bits", trace.display());
    assert!(stderr.contains(&expected), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_capped_recording_is_not_replayed_past_its_window() {
    let dir = tempdir();
    let trace = dir.join("sort.cper");
    let recorded = cpe()
        .args(["trace", "record", "--workload", "sort"])
        .args(["--max", "1000", "-o"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(recorded.status.success());

    let inside = cpe()
        .args(["run"])
        .arg(&trace)
        .args(["--max", "1000"])
        .output()
        .unwrap();
    assert!(
        inside.status.success(),
        "{}",
        String::from_utf8_lossy(&inside.stderr)
    );
    for past in [vec![], vec!["--max", "1001"]] {
        let output = cpe()
            .args(["run"])
            .arg(&trace)
            .args(&past)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{past:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("can time at most 1000"), "{stderr}");
    }
}

#[test]
fn hostile_cper_headers_exit_2_not_abort() {
    let dir = tempdir();
    // Magic, format 1, 0 records, complete, no window, then dict_len.
    let mut header = b"CPER\x01\x00\x00\x00".to_vec();
    header.extend_from_slice(&0u64.to_le_bytes());
    header.push(1);
    header.extend_from_slice(&u64::MAX.to_le_bytes());
    let mut huge_dict = header.clone();
    huge_dict.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut huge_payload = header;
    huge_payload.extend_from_slice(&0u32.to_le_bytes());
    huge_payload.extend_from_slice(&u64::MAX.to_le_bytes());
    for (name, bytes) in [("dict.cper", huge_dict), ("payload.cper", huge_payload)] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        for verb in [&["validate"][..], &["trace", "info"], &["run"]] {
            let output = cpe().args(verb).arg(&path).output().unwrap();
            assert_eq!(output.status.code(), Some(2), "{verb:?} {name}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains("truncated at byte offset"), "{stderr}");
        }
    }
}

#[test]
fn malformed_numeric_flags_are_rejected() {
    let dir = tempdir();
    let program = write_program(&dir);
    for (sub, flag) in [("run", "--max"), ("compare", "--max"), ("trace", "-n")] {
        let output = cpe()
            .arg(sub)
            .arg(&program)
            .args([flag, "not-a-number"])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{sub} {flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("invalid value for {flag}")),
            "{sub}: {stderr}"
        );
    }
}

#[test]
fn unknown_flags_are_rejected() {
    let dir = tempdir();
    let program = write_program(&dir);
    let output = cpe()
        .args(["run"])
        .arg(&program)
        .args(["--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn run_metrics_json_is_self_describing() {
    let dir = tempdir();
    let program = write_program(&dir);
    let metrics = dir.join("run-metrics.json");
    let output = cpe()
        .args(["run"])
        .arg(&program)
        .args(["--config", "1-port combined", "--metrics-json"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("IPC"), "{stdout}");

    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"schema\":3"), "{doc}");
    // The document embeds the full machine configuration it was run on.
    assert!(doc.contains("\"config\""), "{doc}");
    assert!(doc.contains("\"name\":\"1-port combined\""), "{doc}");
    assert!(doc.contains("\"summary\""), "{doc}");
    assert!(doc.contains("\"epochs\""), "{doc}");
    assert!(doc.contains("\"self_profile\""), "{doc}");
    assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
    assert!(!doc.contains("NaN"), "{doc}");
}

#[test]
fn profile_emits_epochs_trace_and_metrics() {
    let dir = tempdir();
    let trace = dir.join("profile-trace.json");
    let metrics = dir.join("profile-metrics.json");
    let output = cpe()
        .args(["profile", "--workload", "compress", "--max", "3000"])
        .args(["--interval", "250"])
        .args(["--trace-out"])
        .arg(&trace)
        .args(["--metrics-json"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("epochs:"), "{stdout}");
    assert!(stdout.contains("ipc"), "{stdout}");
    assert!(stdout.contains("self-profile:"), "{stdout}");

    // The Chrome trace document loads in about:tracing: an object with a
    // traceEvents array of "M"/"X" records, braces balanced.
    let chrome = std::fs::read_to_string(&trace).unwrap();
    assert!(chrome.trim_start().starts_with('{'), "{chrome}");
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"M\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    assert_eq!(
        chrome.matches('{').count(),
        chrome.matches('}').count(),
        "balanced braces"
    );

    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"epoch_interval\":250"), "{doc}");
    assert!(doc.contains("\"epochs\""), "{doc}");
}

#[test]
fn profile_requires_a_workload() {
    let output = cpe().arg("profile").output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--workload"), "{stderr}");
}

#[test]
fn profile_metrics_json_carries_latency_distributions() {
    let dir = tempdir();
    let metrics = dir.join("profile-dists.json");
    let output = cpe()
        .args(["profile", "--workload", "sort", "--max", "5000"])
        .args(["--metrics-json"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"distributions\""), "{doc}");
    for path in [
        "l1_port_hit",
        "line_buffer",
        "store_forward",
        "combined",
        "mshr_merge",
        "miss",
    ] {
        assert!(
            doc.contains(&format!("\"{path}\"")),
            "missing {path}: {doc}"
        );
    }
    for field in ["\"p50\"", "\"p95\"", "\"p99\"", "\"occupancy\""] {
        assert!(doc.contains(field), "missing {field}: {doc}");
    }
    // A run with loads must report a real aggregate p50, not null.
    let aggregate = doc.split("\"load_latency\":").nth(1).unwrap();
    let p50 = aggregate.split("\"p50\":").nth(1).unwrap();
    assert!(!p50.starts_with("null"), "{doc}");
}

#[test]
fn bench_writes_a_report_with_wall_time_and_throughput() {
    let dir = tempdir();
    let out = dir.join("BENCH_cli.json");
    let output = cpe()
        .args(["bench", "--name", "cli", "--max", "2000", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("wall s"), "{stdout}");
    assert!(stdout.contains("wrote "), "{stdout}");

    let doc = std::fs::read_to_string(&out).unwrap();
    assert!(doc.contains("\"kind\":\"bench\""), "{doc}");
    assert!(doc.contains("\"wall_seconds\""), "{doc}");
    assert!(doc.contains("\"cycles_per_sec\""), "{doc}");
    for workload in ["compress", "mpeg", "db", "fft", "sort", "pmake"] {
        assert!(doc.contains(&format!("\"{workload}\"")), "{doc}");
    }
}

#[test]
fn diff_of_identical_files_exits_zero() {
    let dir = tempdir();
    let metrics = dir.join("diff-self.json");
    let run = cpe()
        .args(["profile", "--workload", "fft", "--max", "3000"])
        .args(["--metrics-json"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(run.status.success());

    let output = cpe()
        .arg("diff")
        .arg(&metrics)
        .arg(&metrics)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("match"), "{stdout}");
}

#[test]
fn diff_flags_divergent_port_counts_with_exit_one() {
    let dir = tempdir();
    let naive = dir.join("diff-naive.json");
    let quad = dir.join("diff-quad.json");
    for (config, path) in [("1-port naive", &naive), ("4-port", &quad)] {
        let run = cpe()
            .args(["profile", "--workload", "sort", "--max", "5000"])
            .args(["--config", config, "--metrics-json"])
            .arg(path)
            .output()
            .unwrap();
        assert!(run.status.success(), "{config}");
    }

    let output = cpe().arg("diff").arg(&naive).arg(&quad).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("tolerance"), "{stdout}");
    assert!(stdout.contains("ports.count"), "{stdout}");
    assert!(stdout.contains("diverging leaves"), "{stdout}");

    // A sky-high tolerance ignores numeric drift but still flags the
    // config-name strings, so the gate stays non-zero.
    let loose = cpe()
        .args(["diff"])
        .arg(&naive)
        .arg(&quad)
        .args(["--tolerance", "1000"])
        .output()
        .unwrap();
    assert_eq!(loose.status.code(), Some(1));
}

#[test]
fn diff_rejects_malformed_tolerance_and_missing_files() {
    let dir = tempdir();
    let metrics = dir.join("diff-usage.json");
    std::fs::write(&metrics, "{\"x\":1}").unwrap();

    let bad_tol = cpe()
        .args(["diff"])
        .arg(&metrics)
        .arg(&metrics)
        .args(["--tolerance", "-3"])
        .output()
        .unwrap();
    assert_eq!(bad_tol.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad_tol.stderr);
    assert!(stderr.contains("--tolerance"), "{stderr}");

    let missing = cpe()
        .args(["diff", "/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(2));
}

#[test]
fn sweep_reruns_from_cache_with_byte_identical_output() {
    let dir = tempdir().join("sweep-cache");
    std::fs::create_dir_all(&dir).unwrap();
    let cache_dir = dir.join("cache");
    let sweep = |jobs: &str, out: &std::path::Path| {
        cpe()
            .args(["sweep", "--jobs", jobs, "--max", "2000"])
            .args(["--configs", "1-port,2-port", "--workloads", "compress,sort"])
            .args(["--cache-dir"])
            .arg(&cache_dir)
            .args(["--metrics-json"])
            .arg(out)
            .output()
            .unwrap()
    };

    let first_json = dir.join("sweep1.json");
    let first = sweep("2", &first_json);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("workload (IPC)"), "{stdout}");
    assert!(stdout.contains("geomean"), "{stdout}");
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("4 miss(es)"), "{stderr}");

    // Second run at a different worker count: pure cache hits, and both
    // stdout and the metrics document are byte-identical.
    let second_json = dir.join("sweep2.json");
    let second = sweep("4", &second_json);
    assert!(second.status.success());
    assert_eq!(first.stdout, second.stdout, "stdout must not vary");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("hit rate 100.0%"), "{stderr}");
    assert_eq!(
        std::fs::read(&first_json).unwrap(),
        std::fs::read(&second_json).unwrap(),
        "sweep metrics must not vary"
    );
    let doc = std::fs::read_to_string(&first_json).unwrap();
    assert!(doc.contains("\"kind\":\"sweep\""), "{doc}");
    assert!(doc.contains("\"summary\""), "{doc}");

    // The cache subcommands see and clear the same directory.
    let stats = cpe()
        .args(["cache", "stats", "--cache-dir"])
        .arg(&cache_dir)
        .output()
        .unwrap();
    assert!(stats.status.success());
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("4 entries"), "{stdout}");

    let clear = cpe()
        .args(["cache", "clear", "--cache-dir"])
        .arg(&cache_dir)
        .output()
        .unwrap();
    assert!(clear.status.success());
    let stdout = String::from_utf8_lossy(&clear.stdout);
    assert!(stdout.contains("removed 4"), "{stdout}");

    let stats = cpe()
        .args(["cache", "stats", "--cache-dir"])
        .arg(&cache_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("0 entries"), "{stdout}");
}

#[test]
fn sweep_rejects_a_bad_grid_before_running() {
    let output = cpe()
        .args(["sweep", "--configs", "no-such-config", "--no-cache"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown config"), "{stderr}");
}

#[test]
fn deeply_nested_json_is_a_user_error_not_an_abort() {
    let dir = tempdir();
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let shallow = dir.join("shallow.json");
    std::fs::write(&shallow, "{\"x\":1}").unwrap();
    for args in [
        vec!["validate".into(), deep.clone()],
        vec!["diff".into(), deep.clone(), shallow.clone()],
        vec!["diff".into(), shallow.clone(), deep.clone()],
    ] {
        let output = cpe().args(&args as &[std::path::PathBuf]).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("nesting deeper than"), "{stderr}");
    }
}

#[test]
fn out_of_range_numbers_are_a_user_error_not_a_match() {
    let dir = tempdir();
    let huge = dir.join("huge.json");
    std::fs::write(&huge, "{\"x\":1e999}").unwrap();
    let five = dir.join("five.json");
    std::fs::write(&five, "{\"x\":5}").unwrap();
    let negative = dir.join("negative.json");
    std::fs::write(&negative, "{\"x\":-1e999}").unwrap();
    for args in [
        vec![
            "diff".into(),
            huge.clone(),
            five.clone(),
            "--tolerance".into(),
            "0".into(),
        ],
        vec![
            "diff".into(),
            huge.clone(),
            negative.clone(),
            "--tolerance".into(),
            "0".into(),
        ],
        vec!["validate".into(), huge.clone()],
    ] {
        let output = cpe().args(&args as &[std::path::PathBuf]).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("number out of range"), "{args:?}: {stderr}");
    }
}

#[test]
fn diff_lines_carry_the_direction_of_change() {
    let dir = tempdir();
    let two = dir.join("two.json");
    std::fs::write(&two, "{\"x\":2}").unwrap();
    let one = dir.join("one.json");
    std::fs::write(&one, "{\"x\":1}").unwrap();
    let output = cpe().arg("diff").arg(&two).arg(&one).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("x: 2 -> 1 (-50.00%)"), "{stdout}");
}

#[test]
fn trace_prints_executed_instructions() {
    let dir = tempdir();
    let program = write_program(&dir);
    let output = cpe()
        .args(["trace"])
        .arg(&program)
        .args(["-n", "5"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout.lines().count(), 5, "{stdout}");
    assert!(stdout.contains("0x00001000"), "{stdout}");
}
