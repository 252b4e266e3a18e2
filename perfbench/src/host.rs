//! The host-noise column: CPU steal time and load average, read at the
//! start and end of a run, so a noisy run can be explained.

/// One reading of `/proc/stat` and `/proc/loadavg`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostReading {
    /// Steal ticks of the aggregate `cpu` line.
    pub steal: u64,
    /// All ticks of the aggregate `cpu` line (user through steal).
    pub total: u64,
    /// The 1, 5 and 15 minute load averages.
    pub loadavg: String,
}

/// Read the host counters (`None` where `/proc` is unavailable).
pub fn read() -> Option<HostReading> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let loadavg = std::fs::read_to_string("/proc/loadavg").ok()?;
    parse(&stat, &loadavg)
}

fn parse(stat: &str, loadavg: &str) -> Option<HostReading> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|field| field.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let steal = *ticks.get(7)?;
    let total = ticks.iter().take(8).sum();
    let loadavg = loadavg
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ");
    Some(HostReading {
        steal,
        total,
        loadavg,
    })
}

/// The one-line noise column for a run between two readings.
pub fn describe(start: Option<&HostReading>, end: Option<&HostReading>) -> String {
    match (start, end) {
        (Some(start), Some(end)) => {
            let ticks = end.total.saturating_sub(start.total).max(1);
            let steal = end.steal.saturating_sub(start.steal);
            format!(
                "steal {:.2}% of CPU ticks ({steal} ticks); loadavg {} at start, {} at end",
                steal as f64 * 100.0 / ticks as f64,
                start.loadavg,
                end.loadavg
            )
        }
        _ => "unavailable (no /proc)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_field_and_shares_are_of_the_delta() {
        let start = parse(
            "cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3\n",
            "0.50 0.40 0.30 1/100 42\n",
        )
        .expect("parses");
        assert_eq!(start.steal, 40);
        assert_eq!(start.total, 1000);
        assert_eq!(start.loadavg, "0.50 0.40 0.30");
        let end = HostReading {
            steal: 50,
            total: 2000,
            loadavg: "1.00 0.50 0.30".to_string(),
        };
        let line = describe(Some(&start), Some(&end));
        assert!(
            line.starts_with("steal 1.00% of CPU ticks (10 ticks)"),
            "{line}"
        );
        assert_eq!(describe(None, Some(&end)), "unavailable (no /proc)");
    }
}
