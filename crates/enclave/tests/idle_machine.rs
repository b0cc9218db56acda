//! The host memory an idle default machine takes. A test binary of its
//! own, so no sibling test allocates while it reads the process's RSS.

use eleos_enclave::machine::{MachineConfig, SgxMachine};

/// Resident set size of this process in KiB, where `/proc` has it.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_default_machine_takes_at_most_4_mib_until_it_is_used() {
    let Some(before) = rss_kib() else {
        eprintln!("no /proc/self/status: skipped");
        return;
    };
    let m = SgxMachine::new(MachineConfig::default());
    let after = rss_kib().expect("VmRSS");
    let grown = after.saturating_sub(before);
    eprintln!(
        "default machine ({} EPC frames, {} MiB untrusted): +{grown} KiB RSS",
        m.epc.frame_count(),
        m.untrusted.size() >> 20
    );
    assert!(grown <= 4 << 10, "an idle default machine took {grown} KiB");
}
