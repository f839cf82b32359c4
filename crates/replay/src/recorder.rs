//! The `trace-recorder` plugin: whole-system structured tracing.
//!
//! Subscribes to every CPU hook and kernel event of a replay and turns them
//! into [`TraceEvent`]s in a shared flight-recorder ring, timestamped on the
//! machine's virtual clock (instructions retired + idle boosts) so two
//! replays of the same recording export byte-identical traces. Alongside the
//! trace it keeps a metrics registry: instructions, context switches,
//! syscalls (total and per service, registered lazily), module loads, and
//! the other kernel-event counts. Instructions are counted, never traced
//! one by one: at one event per instruction even short scenarios would
//! flush everything else out of the ring and slow the hot path.

use crate::plugin::Plugin;
use faros_emu::cpu::{CpuHooks, InsnCtx};
use faros_kernel::event::{ByteRange, CopyRun, KernelEvents};
use faros_kernel::module::ModuleInfo;
use faros_kernel::net::FlowTuple;
use faros_kernel::nt::{NtStatus, Sysno};
use faros_kernel::process::ProcessInfo;
use faros_kernel::{Pid, Tid};
use faros_obs::metrics::{CounterId, MetricsRegistry, MetricsSnapshot};
use faros_obs::trace::{RecorderHandle, TraceCategory, TraceEvent};
use std::collections::HashMap;

fn range_len(ranges: &[ByteRange]) -> u64 {
    ranges.iter().map(|r| r.len as u64).sum()
}

/// A [`Plugin`] that records the replay's story (see module docs).
#[derive(Debug)]
pub struct TraceRecorder {
    recorder: RecorderHandle,
    metrics: MetricsRegistry,
    /// Virtual clock: max of the last `InsnCtx::retired` and the last
    /// `tick` from the machine (which includes idle boosts).
    now: u64,
    /// Threads with an open syscall span. Parked syscalls exit with
    /// `Pending` (closing the span) and fire a *second* exit on completion
    /// with no matching enter; without this map that second exit would emit
    /// an unbalanced `E` event.
    open_syscall: HashMap<(u32, u32), Sysno>,
    ctr_instructions: CounterId,
    ctr_context_switches: CounterId,
    ctr_syscalls: CounterId,
    ctr_modules: CounterId,
    ctr_processes: CounterId,
    ctr_threads: CounterId,
    ctr_net_rx_bytes: CounterId,
    ctr_net_tx_bytes: CounterId,
    ctr_file_read_bytes: CounterId,
    ctr_file_write_bytes: CounterId,
    ctr_guest_copy_bytes: CounterId,
    per_sysno: HashMap<Sysno, CounterId>,
}

impl TraceRecorder {
    /// The plugin name, as reported by [`Plugin::name`].
    pub const NAME: &'static str = "trace-recorder";

    /// Creates a recorder appending into the given (possibly shared) ring.
    pub fn new(recorder: RecorderHandle) -> TraceRecorder {
        let mut metrics = MetricsRegistry::new();
        TraceRecorder {
            now: 0,
            open_syscall: HashMap::new(),
            ctr_instructions: metrics.counter("cpu.instructions"),
            ctr_context_switches: metrics.counter("sched.context_switches"),
            ctr_syscalls: metrics.counter("syscalls.total"),
            ctr_modules: metrics.counter("os.modules_loaded"),
            ctr_processes: metrics.counter("os.processes_created"),
            ctr_threads: metrics.counter("os.threads_created"),
            ctr_net_rx_bytes: metrics.counter("net.rx_bytes"),
            ctr_net_tx_bytes: metrics.counter("net.tx_bytes"),
            ctr_file_read_bytes: metrics.counter("file.read_bytes"),
            ctr_file_write_bytes: metrics.counter("file.write_bytes"),
            ctr_guest_copy_bytes: metrics.counter("os.guest_copy_bytes"),
            per_sysno: HashMap::new(),
            metrics,
            recorder,
        }
    }

    /// The shared ring this recorder appends into.
    pub fn recorder(&self) -> &RecorderHandle {
        &self.recorder
    }

    /// Snapshot of the recorder's counters (sorted, deterministic).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn count_sysno(&mut self, sysno: Sysno) {
        let id = match self.per_sysno.get(&sysno) {
            Some(&id) => id,
            None => {
                let id = self.metrics.counter(&format!("syscall.{}", sysno.name()));
                self.per_sysno.insert(sysno, id);
                id
            }
        };
        self.metrics.inc(id);
    }
}

impl CpuHooks for TraceRecorder {
    fn on_insn(&mut self, ctx: &InsnCtx) {
        // `retired` counts instructions *before* this one; stay monotone
        // with ticks the machine already reported.
        self.now = self.now.max(ctx.retired);
        self.metrics.inc(self.ctr_instructions);
    }
}

impl KernelEvents for TraceRecorder {
    fn tick(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    fn context_switch(&mut self, from: Option<(Pid, Tid)>, to: (Pid, Tid)) {
        self.metrics.inc(self.ctr_context_switches);
        let (pid, tid) = (to.0 .0, to.1 .0);
        let mut ev =
            TraceEvent::instant(self.now, pid, tid, TraceCategory::Sched, "context_switch");
        if let Some((fp, ft)) = from {
            ev = ev.arg("from", format!("{}:{}", fp.0, ft.0));
        }
        self.recorder.record(ev);
    }

    fn syscall_enter(&mut self, pid: Pid, tid: Tid, sysno: Sysno, _args: &[u32; 5]) {
        self.metrics.inc(self.ctr_syscalls);
        self.count_sysno(sysno);
        self.open_syscall.insert((pid.0, tid.0), sysno);
        self.recorder
            .record(TraceEvent::begin(self.now, pid.0, tid.0, TraceCategory::Syscall, sysno.name()));
    }

    fn syscall_exit(&mut self, pid: Pid, tid: Tid, sysno: Sysno, status: NtStatus) {
        let status = format!("{status:?}");
        if self.open_syscall.remove(&(pid.0, tid.0)).is_some() {
            self.recorder.record(
                TraceEvent::end(self.now, pid.0, tid.0, TraceCategory::Syscall, sysno.name())
                    .arg("status", status),
            );
        } else {
            // Completion of a parked syscall: the span already closed with
            // `Pending`, so a second `E` would unbalance the track.
            self.recorder.record(
                TraceEvent::instant(self.now, pid.0, tid.0, TraceCategory::Syscall, sysno.name())
                    .arg("status", status)
                    .arg("completion", "parked"),
            );
        }
    }

    fn process_created(&mut self, info: &ProcessInfo) {
        self.metrics.inc(self.ctr_processes);
        self.recorder.record(TraceEvent::process_name(info.pid.0, &info.name));
        let mut ev = TraceEvent::instant(
            self.now,
            info.pid.0,
            0,
            TraceCategory::Process,
            "process_created",
        )
        .arg("name", &info.name)
        .arg("cr3", format!("{:#010x}", info.cr3));
        if let Some(parent) = info.parent {
            ev = ev.arg("parent", parent.0.to_string());
        }
        self.recorder.record(ev);
    }

    fn process_exited(&mut self, pid: Pid, name: &str) {
        self.recorder.record(
            TraceEvent::instant(self.now, pid.0, 0, TraceCategory::Process, "process_exited")
                .arg("name", name),
        );
    }

    fn thread_created(&mut self, pid: Pid, tid: Tid) {
        self.metrics.inc(self.ctr_threads);
        self.recorder.record(TraceEvent::instant(
            self.now,
            pid.0,
            tid.0,
            TraceCategory::Process,
            "thread_created",
        ));
    }

    fn thread_exited(&mut self, pid: Pid, tid: Tid) {
        self.recorder.record(TraceEvent::instant(
            self.now,
            pid.0,
            tid.0,
            TraceCategory::Process,
            "thread_exited",
        ));
    }

    fn module_loaded(&mut self, pid: Option<Pid>, module: &ModuleInfo, export_table: &[ByteRange]) {
        self.metrics.inc(self.ctr_modules);
        self.recorder.record(
            TraceEvent::instant(
                self.now,
                pid.map_or(0, |p| p.0),
                0,
                TraceCategory::Module,
                "module_loaded",
            )
            .arg("module", &module.name)
            .arg("base", format!("{:#010x}", module.base))
            .arg("export_bytes", range_len(export_table).to_string()),
        );
    }

    fn net_rx(&mut self, pid: Pid, flow: &FlowTuple, dst: &[ByteRange]) {
        self.metrics.add(self.ctr_net_rx_bytes, range_len(dst));
        self.recorder.record(
            TraceEvent::instant(self.now, pid.0, 0, TraceCategory::Net, "net_rx")
                .arg("flow", flow.to_string())
                .arg("bytes", range_len(dst).to_string()),
        );
    }

    fn net_tx(&mut self, pid: Pid, flow: &FlowTuple, src: &[ByteRange]) {
        self.metrics.add(self.ctr_net_tx_bytes, range_len(src));
        self.recorder.record(
            TraceEvent::instant(self.now, pid.0, 0, TraceCategory::Net, "net_tx")
                .arg("flow", flow.to_string())
                .arg("bytes", range_len(src).to_string()),
        );
    }

    fn file_read(&mut self, pid: Pid, path: &str, version: u32, dst: &[ByteRange]) {
        self.metrics.add(self.ctr_file_read_bytes, range_len(dst));
        self.recorder.record(
            TraceEvent::instant(self.now, pid.0, 0, TraceCategory::File, "file_read")
                .arg("path", path)
                .arg("version", version.to_string())
                .arg("bytes", range_len(dst).to_string()),
        );
    }

    fn file_write(&mut self, pid: Pid, path: &str, version: u32, src: &[ByteRange]) {
        self.metrics.add(self.ctr_file_write_bytes, range_len(src));
        self.recorder.record(
            TraceEvent::instant(self.now, pid.0, 0, TraceCategory::File, "file_write")
                .arg("path", path)
                .arg("version", version.to_string())
                .arg("bytes", range_len(src).to_string()),
        );
    }

    fn guest_copy(&mut self, src_pid: Pid, dst_pid: Pid, runs: &[CopyRun]) {
        let bytes: u64 = runs.iter().map(|r| r.len as u64).sum();
        self.metrics.add(self.ctr_guest_copy_bytes, bytes);
        self.recorder.record(
            TraceEvent::instant(self.now, dst_pid.0, 0, TraceCategory::Taint, "guest_copy")
                .arg("src_pid", src_pid.0.to_string())
                .arg("bytes", bytes.to_string()),
        );
    }

    fn console_output(&mut self, pid: Pid, text: &str) {
        self.recorder.record(
            TraceEvent::instant(self.now, pid.0, 0, TraceCategory::Process, "console_output")
                .arg("text", text),
        );
    }
}

impl Plugin for TraceRecorder {
    fn name(&self) -> &str {
        TraceRecorder::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_obs::trace::TracePhase;

    fn recorder() -> TraceRecorder {
        TraceRecorder::new(RecorderHandle::new(64))
    }

    #[test]
    fn syscall_spans_pair_up() {
        let mut r = recorder();
        r.tick(100);
        r.syscall_enter(Pid(4), Tid(5), Sysno::NtReadFile, &[0; 5]);
        r.tick(150);
        r.syscall_exit(Pid(4), Tid(5), Sysno::NtReadFile, NtStatus::Success);
        let phases: Vec<TracePhase> =
            r.recorder().with(|rec| rec.events().map(|e| e.phase).collect());
        assert_eq!(phases, vec![TracePhase::Begin, TracePhase::End]);
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("syscalls.total"), Some(1));
        assert_eq!(snap.counter("syscall.NtReadFile"), Some(1));
    }

    #[test]
    fn parked_completion_becomes_instant_not_unbalanced_end() {
        let mut r = recorder();
        r.syscall_enter(Pid(1), Tid(1), Sysno::NtSocketRecv, &[0; 5]);
        r.syscall_exit(Pid(1), Tid(1), Sysno::NtSocketRecv, NtStatus::Pending);
        // Completion after park: exit with no matching enter.
        r.syscall_exit(Pid(1), Tid(1), Sysno::NtSocketRecv, NtStatus::Success);
        let phases: Vec<TracePhase> =
            r.recorder().with(|rec| rec.events().map(|e| e.phase).collect());
        assert_eq!(phases, vec![TracePhase::Begin, TracePhase::End, TracePhase::Instant]);
        assert_eq!(r.metrics_snapshot().counter("syscalls.total"), Some(1), "one logical call");
    }

    #[test]
    fn clock_is_monotone_across_tick_and_insn() {
        let mut r = recorder();
        r.tick(500); // idle boost pushed the clock past retirement
        let ctx = InsnCtx {
            vaddr: 0x1000,
            code_phys: [0; faros_emu::encode::MAX_INSTR_LEN],
            len: 1,
            instr: faros_emu::isa::Instr::Nop,
            asid: faros_emu::mmu::Asid(0),
            retired: 10,
        };
        r.on_insn(&ctx);
        assert_eq!(r.now, 500, "an older retired count must not rewind the clock");
        r.context_switch(None, (Pid(2), Tid(3)));
        let ts = r.recorder().with(|rec| rec.events().last().unwrap().ts);
        assert_eq!(ts, 500);
    }

    #[test]
    fn instructions_are_counted_not_traced() {
        let mut r = recorder();
        let ctx = InsnCtx {
            vaddr: 0,
            code_phys: [0; faros_emu::encode::MAX_INSTR_LEN],
            len: 1,
            instr: faros_emu::isa::Instr::Nop,
            asid: faros_emu::mmu::Asid(0),
            retired: 0,
        };
        r.on_insn(&ctx);
        assert!(r.recorder().is_empty(), "no per-insn events");
        assert_eq!(r.metrics_snapshot().counter("cpu.instructions"), Some(1));
    }
}
