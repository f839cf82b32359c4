//! Fault injection — the service's crash-test dummies.
//!
//! A [`FaultPlan`] maps job ids to [`Fault`]s; workers consult it right
//! before executing a job. Faults are injected *authentically*: a
//! [`Fault::PanicMidReplay`] replays under a real observer ([`PanicAt`])
//! that panics from inside the replay's instruction hook — the same
//! unwind path a genuine analysis bug would take — rather than
//! short-circuiting before any work happens. The fault-injection test
//! suite uses this to prove the pool's containment story: a poisoned job
//! becomes a structured failure, its worker is replaced, and the queue
//! keeps draining.
//!
//! All fault panics carry [`FAULT_PREFIX`] in their payload so the test
//! suite's panic hook (see [`quiet_fault_panics`]) can suppress the noise
//! of *expected* panics while letting real ones print.

use faros_emu::cpu::{CpuHooks, InsnCtx};
use faros_kernel::event::KernelEvents;
use std::collections::HashMap;
use std::panic;
use std::sync::{Mutex, Once};
use std::time::Duration;

/// Marker carried by every injected panic payload.
pub const FAULT_PREFIX: &str = "faros-service fault:";

/// A fault to inject into one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic from inside the replay's instruction hook after this many
    /// instructions — exercises `catch_unwind` + worker replacement.
    PanicMidReplay(u64),
    /// Truncate the report JSON before publishing — exercises server-side
    /// report validation (`FailureKind::CorruptReport`).
    CorruptReport,
    /// Sleep this long mid-job — exercises the deadline supervisor
    /// (`FailureKind::DeadlineExceeded`, stalled worker replaced).
    Stall(Duration),
}

/// Job-id-keyed fault schedule, shared between the test and the pool.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Mutex<HashMap<u64, Fault>>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `fault` for job `id`.
    pub fn set(&self, id: u64, fault: Fault) {
        self.faults.lock().expect("fault plan poisoned").insert(id, fault);
    }

    /// The fault scheduled for job `id`, if any.
    pub fn get(&self, id: u64) -> Option<Fault> {
        self.faults.lock().expect("fault plan poisoned").get(&id).copied()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.lock().expect("fault plan poisoned").len()
    }

    /// Returns `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An observer that panics after `after` instruction dispatches — the
/// authentic mid-replay crash.
#[derive(Debug)]
pub struct PanicAt {
    after: u64,
    seen: u64,
}

impl PanicAt {
    /// Panics once `after` instructions have been dispatched.
    pub fn new(after: u64) -> PanicAt {
        PanicAt { after, seen: 0 }
    }
}

impl CpuHooks for PanicAt {
    fn on_insn(&mut self, _ctx: &InsnCtx) {
        self.seen += 1;
        if self.seen >= self.after {
            panic!("{FAULT_PREFIX} injected panic at insn {}", self.seen);
        }
    }
}
impl KernelEvents for PanicAt {}

/// Returns `true` when a panic payload is an injected fault (its message
/// starts with [`FAULT_PREFIX`]).
pub fn is_fault_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload_message(payload).contains(FAULT_PREFIX)
}

/// Extracts the human-readable message from a panic payload.
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Installs (once, process-wide) a panic hook that silences *injected*
/// fault panics — identified by [`FAULT_PREFIX`] — and defers to the
/// previous hook for everything else. Fault-injection tests call this so
/// expected panics don't spray backtraces over the test output while real
/// bugs still print.
pub fn quiet_fault_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !is_fault_payload(info.payload()) {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stores_and_returns_faults() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        plan.set(3, Fault::CorruptReport);
        plan.set(7, Fault::Stall(Duration::from_millis(50)));
        assert_eq!(plan.get(3), Some(Fault::CorruptReport));
        assert_eq!(plan.get(7), Some(Fault::Stall(Duration::from_millis(50))));
        assert_eq!(plan.get(4), None);
        assert_eq!(plan.len(), 2);
    }

    fn dummy_ctx() -> InsnCtx {
        use faros_emu::isa::Reg;
        InsnCtx {
            vaddr: 0x1000,
            code_phys: [0; faros_emu::encode::MAX_INSTR_LEN],
            len: 2,
            instr: faros_emu::isa::Instr::MovRR { dst: Reg::Eax, src: Reg::Ebx },
            asid: faros_emu::mmu::Asid(1),
            retired: 0,
        }
    }

    #[test]
    fn panic_at_panics_with_fault_prefix() {
        quiet_fault_panics();
        let result = panic::catch_unwind(|| {
            let mut p = PanicAt::new(2);
            let ctx = dummy_ctx();
            p.on_insn(&ctx);
            p.on_insn(&ctx);
        });
        let payload = result.expect_err("must panic on the second insn");
        assert!(is_fault_payload(payload.as_ref()));
        assert!(payload_message(payload.as_ref()).contains("injected panic at insn 2"));
    }
}
