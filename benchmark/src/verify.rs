//! Output checks shared by the timed and the traced run.

use soc_sim::{RunReport, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Operations attempted and failed so far. An operation is one rep, one
/// bootstrap-only run or one kernel batch; a failure is a fingerprint
/// mismatch, a conservation or overlay-invariant violation, or a panic.
#[derive(Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Ops {
    /// Count one operation and its check result.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }

    /// Count `n` operations that cannot fail a check (pure timing batches).
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// `Ok` when `ok`, otherwise the error `why` describes.
pub fn check(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Run a scenario, converting a panic into an error.
pub fn run_caught(sc: &Scenario) -> Result<RunReport, String> {
    catch_unwind(AssertUnwindSafe(|| sc.run())).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        format!("panicked: {msg}")
    })
}

/// The runner's own conservation invariant: no task is counted twice.
pub fn conservation(r: &RunReport) -> Result<(), String> {
    let ok =
        r.finished + r.failed + r.killed <= r.generated && r.local_finished <= r.local_generated;
    check(ok, || {
        format!(
            "task conservation: finished {} + failed {} + killed {} > generated {} \
             (local {} of {})",
            r.finished, r.failed, r.killed, r.generated, r.local_finished, r.local_generated
        )
    })
}

/// A repeated run must be bitwise the run it repeats.
pub fn same_fingerprint(r: &RunReport, reference: &str) -> Result<(), String> {
    check(r.fingerprint() == reference, || {
        "fingerprint differs from the warm-up rep's".to_string()
    })
}
