//! Per-process bookkeeping shared by the replay observers.
//!
//! FAROS reads process and module state from the emulator's OSI layer
//! rather than tracking it itself. The observers here do the same through
//! one map: [`PerProcess`] keeps each process's pid, image name and loaded
//! modules, as the kernel's `process_created` / `module_loaded` events
//! report them, next to whatever the observer records about the process.

use faros_kernel::module::ModuleInfo;
use faros_kernel::process::ProcessInfo;
use faros_kernel::Pid;
use std::collections::BTreeMap;

/// What one observer recorded about one process.
#[derive(Debug, Clone, Default)]
pub struct ProcessRecord<T> {
    /// The process id.
    pub pid: Pid,
    /// Image name (e.g. `notepad.exe`).
    pub name: String,
    /// Modules the kernel loaded into the process, in load order.
    pub modules: Vec<ModuleInfo>,
    /// The observer's own findings about the process.
    pub seen: T,
}

/// Per-process records, ordered by pid. A process gets a record the first
/// time an event names it.
#[derive(Debug, Clone, Default)]
pub struct PerProcess<T> {
    procs: BTreeMap<Pid, ProcessRecord<T>>,
}

impl<T: Default> PerProcess<T> {
    /// The findings for `pid`, created empty on first use.
    pub fn entry(&mut self, pid: Pid) -> &mut T {
        &mut self.record(pid).seen
    }

    fn record(&mut self, pid: Pid) -> &mut ProcessRecord<T> {
        self.procs.entry(pid).or_insert_with(|| ProcessRecord {
            pid,
            name: String::new(),
            modules: Vec::new(),
            seen: T::default(),
        })
    }

    /// Records a new process's image name
    /// ([`KernelEvents::process_created`](faros_kernel::event::KernelEvents::process_created)).
    pub fn process_created(&mut self, info: &ProcessInfo) {
        self.record(info.pid).name = info.name.clone();
    }

    /// Appends a loaded module to its process
    /// ([`KernelEvents::module_loaded`](faros_kernel::event::KernelEvents::module_loaded)).
    /// Kernel/boot modules (`pid` is `None`) are not per-process images;
    /// the analysis layer treats kernel space separately.
    pub fn module_loaded(&mut self, pid: Option<Pid>, module: &ModuleInfo) {
        if let Some(pid) = pid {
            self.record(pid).modules.push(module.clone());
        }
    }

    /// Consumes the map, returning the records ordered by pid.
    pub fn into_records(self) -> Vec<ProcessRecord<T>> {
        self.procs.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_modules_are_not_attributed_to_processes() {
        let mut procs = PerProcess::<u32>::default();
        let m = ModuleInfo {
            name: "ntdll.fdl".into(),
            base: 0x8000_0000,
            entry: 0,
            export_table_va: 0x8001_0000,
            exports: vec![],
        };
        procs.module_loaded(None, &m);
        assert!(procs.clone().into_records().is_empty());
        procs.module_loaded(Some(Pid(3)), &m);
        let records = procs.into_records();
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].pid, records[0].modules.len()), (Pid(3), 1));
    }

    #[test]
    fn records_carry_the_process_name_and_findings() {
        let mut procs = PerProcess::<u32>::default();
        *procs.entry(Pid(2)) += 5;
        procs.process_created(&ProcessInfo {
            pid: Pid(1),
            cr3: 0x2000,
            name: "a.exe".into(),
            parent: None,
        });
        let records = procs.into_records();
        assert_eq!(records.iter().map(|r| r.pid).collect::<Vec<_>>(), [Pid(1), Pid(2)]);
        assert_eq!((records[0].name.as_str(), records[0].seen), ("a.exe", 0));
        assert_eq!(records[1].seen, 5);
    }
}
