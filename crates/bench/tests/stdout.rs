//! `reproduce` prints its whole transcript through one writer: a failed
//! write to stdout is a one-line error, not a panic.

#[test]
#[cfg(target_os = "linux")]
fn a_failing_stdout_exits_2_with_one_line() {
    // `reproduce T1 > /dev/full`: T1 runs no grid, and every write
    // fails with "no space".
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("T1")
        .stdout(full)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("cannot write to stdout: "), "{stderr}");
}
