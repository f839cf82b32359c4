//! The plugin architecture — PANDA's plugin system, reproduced.
//!
//! A [`Plugin`] receives every CPU hook and kernel event of a run. The
//! [`PluginManager`] stacks plugins and fans events out in registration
//! order, exactly like PANDA dispatches registered callbacks; it is itself
//! an `Observer`, so it plugs straight into `Machine::run`.
//!
//! The manager also doubles as the dispatch-cost profiler: it always counts
//! dispatches per plugin, and with
//! [`PluginManager::enable_dispatch_profiling`] additionally attributes
//! wall-clock per plugin (opt-in, because timing every hot-path hook costs
//! two clock reads per dispatch).

use faros_emu::cpu::{CpuHooks, InsnCtx, ShadowLoc};
use faros_emu::isa::{Reg, Width};
use faros_kernel::event::{ByteRange, CopyRun, KernelEvents};
use faros_kernel::module::ModuleInfo;
use faros_kernel::net::FlowTuple;
use faros_kernel::nt::{NtStatus, Sysno};
use faros_kernel::process::ProcessInfo;
use faros_kernel::{Pid, Tid};
use faros_obs::metrics::{MetricsRegistry, MetricsSnapshot};
use std::any::Any;
use std::fmt;
use std::time::Instant;

/// A named analysis plugin. All callbacks are inherited from
/// [`CpuHooks`] and [`KernelEvents`] with no-op defaults. The [`Any`]
/// supertrait lets [`PluginManager::take_as`] hand a plugin back as its
/// concrete type so results can be read out after a run.
pub trait Plugin: CpuHooks + KernelEvents + Any {
    /// The plugin's name (for reports and the plugin list).
    fn name(&self) -> &str;
}

/// Per-plugin dispatch accounting (see [`PluginManager::dispatch_costs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PluginCost {
    /// The plugin's name.
    pub name: String,
    /// Callbacks delivered to this plugin.
    pub dispatches: u64,
    /// Wall-clock spent inside this plugin's callbacks; stays zero unless
    /// [`PluginManager::enable_dispatch_profiling`] was called.
    /// Human-facing only — never part of deterministic snapshots.
    pub wall_ns: u64,
}

/// Stacks plugins and dispatches every event to each of them in order.
///
/// # Examples
///
/// ```
/// use faros_replay::plugin::{Plugin, PluginManager};
/// use faros_emu::cpu::CpuHooks;
/// use faros_kernel::event::KernelEvents;
///
/// struct Counter(u64);
/// impl CpuHooks for Counter {
///     fn on_insn(&mut self, _ctx: &faros_emu::cpu::InsnCtx) { self.0 += 1; }
/// }
/// impl KernelEvents for Counter {}
/// impl Plugin for Counter {
///     fn name(&self) -> &str { "insn-counter" }
/// }
///
/// let mut manager = PluginManager::new();
/// manager.register(Box::new(Counter(0)));
/// assert_eq!(manager.plugin_names(), vec!["insn-counter"]);
/// ```
#[derive(Default)]
pub struct PluginManager {
    plugins: Vec<Box<dyn Plugin>>,
    /// `cost_idx[i]` is the `costs` slot of `plugins[i]`. Cost entries are
    /// never removed (they outlive `take`), so the indirection keeps the
    /// hot-path lookup O(1) without tying the two vectors' lengths.
    cost_idx: Vec<usize>,
    costs: Vec<PluginCost>,
    profile_wall: bool,
}

impl fmt::Debug for PluginManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PluginManager")
            .field("plugins", &self.plugin_names())
            .field("profile_wall", &self.profile_wall)
            .finish()
    }
}

impl PluginManager {
    /// Creates an empty manager.
    pub fn new() -> PluginManager {
        PluginManager::default()
    }

    /// Registers a plugin at the end of the dispatch order.
    pub fn register(&mut self, plugin: Box<dyn Plugin>) {
        self.cost_idx.push(self.costs.len());
        self.costs.push(PluginCost {
            name: plugin.name().to_string(),
            dispatches: 0,
            wall_ns: 0,
        });
        self.plugins.push(plugin);
    }

    /// Names of registered plugins, in dispatch order.
    pub fn plugin_names(&self) -> Vec<&str> {
        self.plugins.iter().map(|p| p.name()).collect()
    }

    /// Takes a plugin out by name, returned as its concrete type — the
    /// post-run result-extraction path. Its dispatch-cost entry survives in
    /// [`PluginManager::dispatch_costs`].
    ///
    /// Returns `None` (leaving the manager untouched) when no plugin has
    /// that name or the named plugin is not a `T`.
    pub fn take_as<T: Plugin>(&mut self, name: &str) -> Option<Box<T>> {
        let idx = self.plugins.iter().position(|p| p.name() == name)?;
        // Check the type before removing so a mismatch is non-destructive.
        if !<dyn Any>::is::<T>(self.plugins[idx].as_ref()) {
            return None;
        }
        self.cost_idx.remove(idx);
        let boxed: Box<dyn Any> = self.plugins.remove(idx);
        Some(boxed.downcast::<T>().expect("type checked above"))
    }

    /// Starts attributing wall-clock to each plugin dispatch. Off by
    /// default: it adds two clock reads to every callback, which is real
    /// money on `on_insn`.
    pub fn enable_dispatch_profiling(&mut self) {
        self.profile_wall = true;
    }

    /// Per-plugin dispatch accounting, in registration order (entries
    /// outlive [`PluginManager::take_as`]).
    pub fn dispatch_costs(&self) -> &[PluginCost] {
        &self.costs
    }

    /// Deterministic dispatch counters (`plugin.<name>.dispatches`) as a
    /// mergeable snapshot. Wall-clock is deliberately excluded: snapshots
    /// feed golden fixtures and replay-identity checks.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = MetricsRegistry::new();
        for cost in &self.costs {
            let id = m.counter(format!("plugin.{}.dispatches", cost.name));
            m.add(id, cost.dispatches);
        }
        m.snapshot()
    }
}

/// Fans one callback out to every plugin, keeping the per-plugin dispatch
/// count (and, when profiling, wall-clock) in lockstep.
macro_rules! fan {
    ($self:ident, $method:ident ( $($arg:expr),* )) => {
        if $self.profile_wall {
            for (p, &ci) in $self.plugins.iter_mut().zip(&$self.cost_idx) {
                let t0 = Instant::now();
                p.$method($($arg),*);
                let cost = &mut $self.costs[ci];
                cost.dispatches += 1;
                cost.wall_ns += t0.elapsed().as_nanos() as u64;
            }
        } else {
            for (p, &ci) in $self.plugins.iter_mut().zip(&$self.cost_idx) {
                p.$method($($arg),*);
                $self.costs[ci].dispatches += 1;
            }
        }
    };
}

impl CpuHooks for PluginManager {
    fn on_insn(&mut self, ctx: &InsnCtx) {
        fan!(self, on_insn(ctx));
    }
    fn flow_copy(&mut self, dst: Reg, src: Reg) {
        fan!(self, flow_copy(dst, src));
    }
    fn flow_union(&mut self, dst: Reg, srcs: &[Reg], keep_dst: bool) {
        fan!(self, flow_union(dst, srcs, keep_dst));
    }
    fn flow_delete(&mut self, dst: Reg) {
        fan!(self, flow_delete(dst));
    }
    fn flow_addr_dep(&mut self, dst: Reg, addr_srcs: &[Reg]) {
        fan!(self, flow_addr_dep(dst, addr_srcs));
    }
    fn flow_addr_dep_bytes(&mut self, phys: &[u32], addr_srcs: &[Reg]) {
        fan!(self, flow_addr_dep_bytes(phys, addr_srcs));
    }
    fn flow_load(&mut self, dst: Reg, phys: &[u32]) {
        fan!(self, flow_load(dst, phys));
    }
    fn flow_store(&mut self, phys: &[u32], src: Reg) {
        fan!(self, flow_store(phys, src));
    }
    fn flow_delete_mem(&mut self, phys: &[u32]) {
        fan!(self, flow_delete_mem(phys));
    }
    fn on_load(&mut self, ctx: &InsnCtx, vaddr: u32, phys: &[u32], width: Width, dst: Reg) {
        fan!(self, on_load(ctx, vaddr, phys, width, dst));
    }
    fn on_control(&mut self, ctx: &InsnCtx, target: u32, target_src: Option<ShadowLoc>) {
        fan!(self, on_control(ctx, target, target_src));
    }
    fn on_branch(&mut self, ctx: &InsnCtx, taken: bool) {
        fan!(self, on_branch(ctx, taken));
    }
    fn flow_flags(&mut self, srcs: &[Reg]) {
        fan!(self, flow_flags(srcs));
    }
}

impl KernelEvents for PluginManager {
    fn syscall_enter(&mut self, pid: Pid, tid: Tid, sysno: Sysno, args: &[u32; 5]) {
        fan!(self, syscall_enter(pid, tid, sysno, args));
    }
    fn syscall_exit(&mut self, pid: Pid, tid: Tid, sysno: Sysno, status: NtStatus) {
        fan!(self, syscall_exit(pid, tid, sysno, status));
    }
    fn process_created(&mut self, info: &ProcessInfo) {
        fan!(self, process_created(info));
    }
    fn process_exited(&mut self, pid: Pid, name: &str) {
        fan!(self, process_exited(pid, name));
    }
    fn thread_created(&mut self, pid: Pid, tid: Tid) {
        fan!(self, thread_created(pid, tid));
    }
    fn thread_exited(&mut self, pid: Pid, tid: Tid) {
        fan!(self, thread_exited(pid, tid));
    }
    fn module_loaded(&mut self, pid: Option<Pid>, module: &ModuleInfo, export_table: &[ByteRange]) {
        fan!(self, module_loaded(pid, module, export_table));
    }
    fn net_rx(&mut self, pid: Pid, flow: &FlowTuple, dst: &[ByteRange]) {
        fan!(self, net_rx(pid, flow, dst));
    }
    fn net_tx(&mut self, pid: Pid, flow: &FlowTuple, src: &[ByteRange]) {
        fan!(self, net_tx(pid, flow, src));
    }
    fn file_read(&mut self, pid: Pid, path: &str, version: u32, dst: &[ByteRange]) {
        fan!(self, file_read(pid, path, version, dst));
    }
    fn file_write(&mut self, pid: Pid, path: &str, version: u32, src: &[ByteRange]) {
        fan!(self, file_write(pid, path, version, src));
    }
    fn guest_copy(&mut self, src_pid: Pid, dst_pid: Pid, runs: &[CopyRun]) {
        fan!(self, guest_copy(src_pid, dst_pid, runs));
    }
    fn kernel_write(&mut self, pid: Pid, dst: &[ByteRange]) {
        fan!(self, kernel_write(pid, dst));
    }
    fn context_switch(&mut self, from: Option<(Pid, Tid)>, to: (Pid, Tid)) {
        fan!(self, context_switch(from, to));
    }
    fn console_output(&mut self, pid: Pid, text: &str) {
        fan!(self, console_output(pid, text));
    }
    fn tick(&mut self, now: u64) {
        fan!(self, tick(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tally {
        name: String,
        insns: u64,
        syscalls: u64,
    }
    impl CpuHooks for Tally {
        fn on_insn(&mut self, _ctx: &InsnCtx) {
            self.insns += 1;
        }
    }
    impl KernelEvents for Tally {
        fn syscall_enter(&mut self, _p: Pid, _t: Tid, _s: Sysno, _a: &[u32; 5]) {
            self.syscalls += 1;
        }
    }
    impl Plugin for Tally {
        fn name(&self) -> &str {
            &self.name
        }
    }

    #[test]
    fn dispatch_reaches_all_plugins() {
        let mut mgr = PluginManager::new();
        mgr.register(Box::new(Tally { name: "a".into(), insns: 0, syscalls: 0 }));
        mgr.register(Box::new(Tally { name: "b".into(), insns: 0, syscalls: 0 }));
        assert_eq!(mgr.plugin_names(), ["a", "b"]);
        mgr.syscall_enter(Pid(1), Tid(1), Sysno::NtClose, &[0; 5]);
        mgr.syscall_enter(Pid(1), Tid(1), Sysno::NtClose, &[0; 5]);
        for name in ["a", "b"] {
            let p = mgr.take_as::<Tally>(name).unwrap();
            assert_eq!(p.syscalls, 2, "{name} saw both events");
        }
        assert!(mgr.plugin_names().is_empty());
    }

    struct Other(String);
    impl CpuHooks for Other {}
    impl KernelEvents for Other {}
    impl Plugin for Other {
        fn name(&self) -> &str {
            &self.0
        }
    }

    #[test]
    fn take_as_type_mismatch_is_non_destructive() {
        let mut mgr = PluginManager::new();
        mgr.register(Box::new(Other("o".into())));
        assert!(mgr.take_as::<Tally>("o").is_none());
        assert_eq!(mgr.plugin_names(), ["o"], "mismatched take_as leaves the plugin in place");
        assert!(mgr.take_as::<Other>("o").is_some());
        assert!(mgr.take_as::<Other>("o").is_none());
    }

    #[test]
    fn dispatch_costs_count_and_survive_take() {
        let mut mgr = PluginManager::new();
        mgr.register(Box::new(Tally { name: "a".into(), insns: 0, syscalls: 0 }));
        mgr.register(Box::new(Tally { name: "b".into(), insns: 0, syscalls: 0 }));
        mgr.syscall_enter(Pid(1), Tid(1), Sysno::NtClose, &[0; 5]);
        mgr.tick(7);
        let _ = mgr.take_as::<Tally>("a");
        // "b" keeps receiving events at the right slot after the removal.
        mgr.context_switch(None, (Pid(1), Tid(1)));
        let costs = mgr.dispatch_costs();
        assert_eq!(costs.len(), 2, "cost entries outlive take");
        assert_eq!((costs[0].name.as_str(), costs[0].dispatches), ("a", 2));
        assert_eq!((costs[1].name.as_str(), costs[1].dispatches), ("b", 3));
        assert_eq!(costs[0].wall_ns, 0, "wall profiling is opt-in");

        let snap = mgr.metrics_snapshot();
        assert_eq!(snap.counter("plugin.a.dispatches"), Some(2));
        assert_eq!(snap.counter("plugin.b.dispatches"), Some(3));
    }

    #[test]
    fn wall_profiling_attributes_time_when_enabled() {
        let mut mgr = PluginManager::new();
        mgr.register(Box::new(Tally { name: "a".into(), insns: 0, syscalls: 0 }));
        mgr.enable_dispatch_profiling();
        for _ in 0..100 {
            mgr.syscall_enter(Pid(1), Tid(1), Sysno::NtClose, &[0; 5]);
        }
        assert!(mgr.dispatch_costs()[0].wall_ns > 0);
    }
}
