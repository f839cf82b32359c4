//! The system-service implementations.
//!
//! ## Calling convention
//!
//! `EAX` = service number ([`Sysno`]); arguments in `EBX ECX EDX ESI EDI`;
//! the `NTSTATUS` returns in `EAX`. Services with output values take a guest
//! pointer argument and write through it (a pointer of 0 means "don't
//! care"). Strings are `(ptr, len)` pairs.
//!
//! | service | args |
//! |---|---|
//! | `NtCreateFile` | `path_ptr, path_len, _flags, out_handle_ptr` |
//! | `NtOpenFile` | `path_ptr, path_len, out_handle_ptr` |
//! | `NtReadFile` | `h, buf_ptr, len, out_read_ptr` |
//! | `NtWriteFile` | `h, buf_ptr, len, out_written_ptr` |
//! | `NtClose` | `h` |
//! | `NtDeleteFile` | `path_ptr, path_len` |
//! | `NtQueryInformationFile` | `h, out_ptr` (writes `size, version`) |
//! | `NtSetInformationFile` | `h, new_offset` (seek) |
//! | `NtQueryDirectoryFile` | `prefix_ptr, prefix_len, out_buf_ptr, out_cap` |
//! | `NtCreateSection` | `file_h, out_handle_ptr` |
//! | `NtOpenSection` | `path_ptr, path_len, out_handle_ptr` |
//! | `NtMapViewOfSection` | `section_h, va, perms_bits` |
//! | `NtUnmapViewOfSection` | `proc_h, va` |
//! | `NtCreateUserProcess` | `path_ptr, path_len, flags(bit0=suspended), out_handle_ptr` |
//! | `NtOpenProcess` | `pid, out_handle_ptr` |
//! | `NtTerminateProcess` | `h_or_CURRENT, exit_code` |
//! | `NtSuspendThread`/`NtResumeThread` | `thread_h` |
//! | `NtCreateThreadEx` | `proc_h, start_va, arg, flags(bit0=suspended), out_handle_ptr` |
//! | `NtGetContextThread`/`NtSetContextThread` | `thread_h, ctx_ptr` (10 × u32: regs, eip, eflags) |
//! | `NtAllocateVirtualMemory` | `proc_h, size, perms_bits, out_base_ptr` |
//! | `NtProtectVirtualMemory` | `proc_h, va, size, perms_bits` |
//! | `NtFreeVirtualMemory` | `proc_h, va` |
//! | `NtWriteVirtualMemory` | `proc_h, dst_va, src_ptr, len` |
//! | `NtReadVirtualMemory` | `proc_h, src_va, dst_ptr, len` |
//! | `NtQueryVirtualMemory` | `proc_h, va, out_ptr` (writes `base,size,perms,kind`) |
//! | `NtQueryInformationProcess` | `proc_h, out_ptr` (writes `pid,parent,alive`) |
//! | `NtSocketCreate` | `out_handle_ptr` |
//! | `NtSocketConnect` | `h, ip_be, port` |
//! | `NtSocketSend` | `h, buf_ptr, len, out_sent_ptr` |
//! | `NtSocketRecv` | `h, buf_ptr, len, out_recvd_ptr` (blocking) |
//! | `NtDelayExecution` | `ticks` |
//! | `NtQuerySystemTime` | `out_ptr` |
//! | `NtDisplayString` | `ptr, len` |
//!
//! `perms_bits`: bit0 = R, bit1 = W, bit2 = X (matching the FDL section
//! encoding).

use crate::event::Observer;
use crate::handle::{Handle, HandleObject, Pid, Tid};
use crate::machine::Machine;
use crate::net::RecvOutcome;
use crate::nt::{NtStatus, Sysno, CURRENT_PROCESS, CURRENT_THREAD};
use crate::process::{BlockReason, RegionKind, ThreadState};
use faros_emu::cpu::CpuContext;
use faros_emu::isa::Reg;
use faros_emu::mem::PAGE_SIZE;
use faros_emu::mmu::{Access, Perms};

fn perms_from_bits(bits: u32) -> Perms {
    let mut p = Perms::NONE;
    if bits & 1 != 0 {
        p = p.union(Perms::R);
    }
    if bits & 2 != 0 {
        p = p.union(Perms::W);
    }
    if bits & 4 != 0 {
        p = p.union(Perms::X);
    }
    p
}

fn perms_to_bits(p: Perms) -> u32 {
    (p.contains(Perms::R) as u32)
        | ((p.contains(Perms::W) as u32) << 1)
        | ((p.contains(Perms::X) as u32) << 2)
}

impl Machine {
    /// Services one syscall for `(pid, tid)`.
    ///
    /// Returns `true` when the service completed (status in `EAX`) and
    /// `false` when the thread parked (the scheduler will retry with
    /// `retried = true` once the thread wakes).
    pub(crate) fn service_syscall<O: Observer + ?Sized>(
        &mut self,
        pid: Pid,
        tid: Tid,
        sysno: Sysno,
        args: [u32; 5],
        retried: bool,
        obs: &mut O,
    ) -> bool {
        if !retried {
            obs.syscall_enter(pid, tid, sysno, &args);
        }
        let outcome = self.dispatch(pid, tid, sysno, args, retried, obs);
        match outcome {
            Some(status) => {
                self.cpu.set_reg(Reg::Eax, status as u32);
                obs.syscall_exit(pid, tid, sysno, status);
                true
            }
            None => {
                if !retried {
                    obs.syscall_exit(pid, tid, sysno, NtStatus::Pending);
                }
                false
            }
        }
    }

    fn dispatch<O: Observer + ?Sized>(
        &mut self,
        pid: Pid,
        tid: Tid,
        sysno: Sysno,
        a: [u32; 5],
        retried: bool,
        obs: &mut O,
    ) -> Option<NtStatus> {
        use Sysno::*;
        Some(match sysno {
            // --- files ---
            NtCreateFile => self.sys_create_file(pid, a, obs),
            NtOpenFile => self.sys_open_file(pid, a, obs),
            NtReadFile => self.sys_read_file(pid, a, obs),
            NtWriteFile => self.sys_write_file(pid, a, obs),
            NtClose => self.sys_close(pid, a),
            NtDeleteFile => self.sys_delete_file(pid, a),
            NtQueryInformationFile => self.sys_query_info_file(pid, a, obs),
            NtSetInformationFile => self.sys_set_info_file(pid, a),
            NtQueryDirectoryFile => self.sys_query_directory(pid, a, obs),
            NtCreateSection => self.sys_create_section(pid, a, obs),
            NtOpenSection => self.sys_open_section(pid, a, obs),
            NtMapViewOfSection => self.sys_map_view(pid, a, obs),
            NtUnmapViewOfSection => self.sys_unmap_view(pid, a),
            NtQueryAttributesFile => self.sys_query_attributes(pid, a),
            NtQueryFullAttributesFile => self.sys_query_attributes(pid, a),
            NtFlushBuffersFile | NtLockFile | NtUnlockFile | NtReadFileScatter
            | NtWriteFileGather | NtDeviceIoControlFile | NtFsControlFile
            | NtQueryVolumeInformationFile | NtSetVolumeInformationFile | NtQueryEaFile
            | NtSetEaFile => NtStatus::Success,

            // --- process / memory / thread ---
            NtCreateUserProcess => self.sys_create_process(pid, a, obs),
            NtOpenProcess => self.sys_open_process(pid, a, obs),
            NtTerminateProcess => self.sys_terminate_process(pid, a, obs),
            NtSuspendThread => self.sys_suspend_thread(pid, a),
            NtResumeThread => self.sys_resume_thread(pid, a),
            NtCreateThreadEx => self.sys_create_thread(pid, a, obs),
            NtGetContextThread => self.sys_get_context(pid, tid, a, obs),
            NtSetContextThread => self.sys_set_context(pid, tid, a),
            NtAllocateVirtualMemory => self.sys_alloc_vm(pid, a, obs),
            NtProtectVirtualMemory => self.sys_protect_vm(pid, a),
            NtFreeVirtualMemory => self.sys_free_vm(pid, a),
            NtWriteVirtualMemory => self.sys_write_vm(pid, a, obs),
            NtReadVirtualMemory => self.sys_read_vm(pid, a, obs),
            NtQueryVirtualMemory => self.sys_query_vm(pid, a, obs),
            NtQueryInformationProcess => self.sys_query_process(pid, a, obs),

            // --- sockets ---
            NtSocketCreate => self.sys_socket_create(pid, a, obs),
            NtSocketConnect => self.sys_socket_connect(pid, a),
            NtSocketBind => self.sys_socket_bind(pid, a),
            NtSocketListen => self.sys_socket_listen(pid, a),
            NtSocketAccept => return self.sys_socket_accept(pid, tid, a, obs),
            NtSocketSend => self.sys_socket_send(pid, a, obs),
            NtSocketRecv => return self.sys_socket_recv(pid, tid, a, obs),

            // --- misc ---
            NtDelayExecution => return self.sys_sleep(pid, tid, a, retried),
            NtQuerySystemTime => self.sys_query_time(pid, a, obs),
            NtDisplayString => self.sys_display_string(pid, a, obs),
            NtYieldExecution => NtStatus::Success,
            LdrLoadDll => self.sys_load_library(pid, a, obs),
        })
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    fn out_u32s<O: Observer + ?Sized>(&mut self, pid: Pid, ptr: u32, vals: &[u32], obs: &mut O) -> NtStatus {
        if ptr == 0 {
            return NtStatus::Success;
        }
        let mut bytes = Vec::with_capacity(vals.len() * 4);
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        match self.write_guest(pid, ptr, &bytes) {
            Ok(runs) => {
                obs.kernel_write(pid, &runs);
                NtStatus::Success
            }
            Err(_) => NtStatus::AccessViolation,
        }
    }

    fn resolve_process(&self, caller: Pid, handle: u32) -> Result<Pid, NtStatus> {
        if handle == CURRENT_PROCESS {
            return Ok(caller);
        }
        let proc = self.procs.get(&caller).ok_or(NtStatus::InvalidHandle)?;
        match proc.handles.get(Handle(handle)) {
            Some(HandleObject::Process(pid)) => Ok(*pid),
            _ => Err(NtStatus::InvalidHandle),
        }
    }

    fn resolve_thread(&self, caller: Pid, caller_tid: Tid, handle: u32) -> Result<(Pid, Tid), NtStatus> {
        if handle == CURRENT_THREAD {
            return Ok((caller, caller_tid));
        }
        let proc = self.procs.get(&caller).ok_or(NtStatus::InvalidHandle)?;
        match proc.handles.get(Handle(handle)) {
            Some(HandleObject::Thread(pid, tid)) => Ok((*pid, *tid)),
            _ => Err(NtStatus::InvalidHandle),
        }
    }

    fn read_path(&self, pid: Pid, ptr: u32, len: u32) -> Result<String, NtStatus> {
        if len == 0 || len > 1024 {
            return Err(NtStatus::InvalidParameter);
        }
        self.read_guest_str(pid, ptr, len).map_err(|_| NtStatus::AccessViolation)
    }

    // ------------------------------------------------------------------
    // files
    // ------------------------------------------------------------------

    fn sys_create_file<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let Ok(path) = self.read_path(pid, a[0], a[1]) else {
            return NtStatus::AccessViolation;
        };
        if !self.fs.exists(&path) {
            self.fs.create(&path, Vec::new()).expect("checked absent");
        }
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        let h = proc.handles.insert(HandleObject::File { path, offset: 0 });
        self.out_u32s(pid, a[3], &[h.0], obs)
    }

    fn sys_open_file<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let Ok(path) = self.read_path(pid, a[0], a[1]) else {
            return NtStatus::AccessViolation;
        };
        if !self.fs.exists(&path) {
            return NtStatus::ObjectNameNotFound;
        }
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        let h = proc.handles.insert(HandleObject::File { path, offset: 0 });
        self.out_u32s(pid, a[2], &[h.0], obs)
    }

    fn sys_read_file<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let (path, offset) = {
            let proc = self.procs.get(&pid).expect("caller exists");
            match proc.handles.get(Handle(a[0])) {
                Some(HandleObject::File { path, offset }) => (path.clone(), *offset),
                _ => return NtStatus::InvalidHandle,
            }
        };
        let Ok(data) = self.fs.read(&path, offset, a[2] as usize) else {
            return NtStatus::ObjectNameNotFound;
        };
        let version = self.fs.version(&path).unwrap_or(1);
        if data.is_empty() {
            let _ = self.out_u32s(pid, a[3], &[0], obs);
            return NtStatus::EndOfFile;
        }
        let runs = match self.write_guest(pid, a[1], &data) {
            Ok(r) => r,
            Err(_) => return NtStatus::AccessViolation,
        };
        obs.file_read(pid, &path, version, &runs);
        if let Some(HandleObject::File { offset, .. }) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.handles.get_mut(Handle(a[0])))
        {
            *offset += data.len() as u32;
        }
        self.out_u32s(pid, a[3], &[data.len() as u32], obs)
    }

    fn sys_write_file<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let (path, offset) = {
            let proc = self.procs.get(&pid).expect("caller exists");
            match proc.handles.get(Handle(a[0])) {
                Some(HandleObject::File { path, offset }) => (path.clone(), *offset),
                _ => return NtStatus::InvalidHandle,
            }
        };
        let Ok(bytes) = self.read_guest(pid, a[1], a[2]) else {
            return NtStatus::AccessViolation;
        };
        let src_runs = self
            .phys_runs(pid, a[1], a[2], Access::Read)
            .expect("read_guest just succeeded");
        let Ok(version) = self.fs.write(&path, offset, &bytes) else {
            return NtStatus::ObjectNameNotFound;
        };
        obs.file_write(pid, &path, version, &src_runs);
        if let Some(HandleObject::File { offset, .. }) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.handles.get_mut(Handle(a[0])))
        {
            *offset += bytes.len() as u32;
        }
        self.out_u32s(pid, a[3], &[bytes.len() as u32], obs)
    }

    fn sys_close(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let tick = self.ticks();
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        let conn = match proc.handles.get(Handle(a[0])) {
            Some(HandleObject::Socket { conn, .. }) => *conn,
            Some(_) => None,
            None => return NtStatus::InvalidHandle,
        };
        proc.handles.close(Handle(a[0]));
        if let Some(c) = conn {
            self.net.close(c, tick);
        }
        NtStatus::Success
    }

    fn sys_delete_file(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let Ok(path) = self.read_path(pid, a[0], a[1]) else {
            return NtStatus::AccessViolation;
        };
        match self.fs.delete(&path) {
            Ok(()) => NtStatus::Success,
            Err(_) => NtStatus::ObjectNameNotFound,
        }
    }

    fn sys_query_info_file<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let path = {
            let proc = self.procs.get(&pid).expect("caller exists");
            match proc.handles.get(Handle(a[0])) {
                Some(HandleObject::File { path, .. }) => path.clone(),
                _ => return NtStatus::InvalidHandle,
            }
        };
        match self.fs.info(&path) {
            Ok(info) => self.out_u32s(pid, a[1], &[info.size, info.version], obs),
            Err(_) => NtStatus::ObjectNameNotFound,
        }
    }

    fn sys_set_info_file(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        match proc.handles.get_mut(Handle(a[0])) {
            Some(HandleObject::File { offset, .. }) => {
                *offset = a[1];
                NtStatus::Success
            }
            _ => NtStatus::InvalidHandle,
        }
    }

    fn sys_query_directory<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let Ok(prefix) = self.read_path(pid, a[0], a[1]) else {
            return NtStatus::AccessViolation;
        };
        let listing = self.fs.list(&prefix).join("\n");
        let mut bytes = listing.into_bytes();
        bytes.truncate(a[3] as usize);
        match self.write_guest(pid, a[2], &bytes) {
            Ok(runs) => {
                obs.kernel_write(pid, &runs);
                NtStatus::Success
            }
            Err(_) => NtStatus::AccessViolation,
        }
    }

    fn sys_create_section<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let path = {
            let proc = self.procs.get(&pid).expect("caller exists");
            match proc.handles.get(Handle(a[0])) {
                Some(HandleObject::File { path, .. }) => path.clone(),
                _ => return NtStatus::InvalidHandle,
            }
        };
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        let h = proc.handles.insert(HandleObject::Section { path });
        self.out_u32s(pid, a[1], &[h.0], obs)
    }

    fn sys_open_section<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let Ok(path) = self.read_path(pid, a[0], a[1]) else {
            return NtStatus::AccessViolation;
        };
        if !self.fs.exists(&path) {
            return NtStatus::ObjectNameNotFound;
        }
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        let h = proc.handles.insert(HandleObject::Section { path });
        self.out_u32s(pid, a[2], &[h.0], obs)
    }

    fn sys_map_view<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let path = {
            let proc = self.procs.get(&pid).expect("caller exists");
            match proc.handles.get(Handle(a[0])) {
                Some(HandleObject::Section { path }) => path.clone(),
                _ => return NtStatus::InvalidHandle,
            }
        };
        let Ok(data) = self.fs.read(&path, 0, usize::MAX / 2) else {
            return NtStatus::ObjectNameNotFound;
        };
        let version = self.fs.version(&path).unwrap_or(1);
        let va = a[1];
        let perms = perms_from_bits(a[2]);
        if self
            .map_fresh(pid, va, data.len().max(1) as u32, perms, RegionKind::Mapped { path: path.clone() }, obs)
            .is_err()
        {
            return NtStatus::ConflictingAddresses;
        }
        // Mapped pages may be read-only; write in kernel mode.
        match self.write_guest_kernel(pid, va, &data) {
            Ok(runs) => {
                obs.file_read(pid, &path, version, &runs);
                NtStatus::Success
            }
            Err(_) => NtStatus::AccessViolation,
        }
    }

    fn sys_unmap_view(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        match self.unmap_region(target, a[1]) {
            Ok(_) => NtStatus::Success,
            Err(_) => NtStatus::InvalidParameter,
        }
    }

    fn sys_query_attributes(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        match self.read_path(pid, a[0], a[1]) {
            Ok(path) if self.fs.exists(&path) => NtStatus::Success,
            Ok(_) => NtStatus::ObjectNameNotFound,
            Err(s) => s,
        }
    }

    // ------------------------------------------------------------------
    // process / memory / thread
    // ------------------------------------------------------------------

    fn sys_create_process<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let Ok(path) = self.read_path(pid, a[0], a[1]) else {
            return NtStatus::AccessViolation;
        };
        let suspended = a[2] & 1 != 0;
        match self.spawn_process(&path, suspended, Some(pid), obs) {
            Ok(child) => {
                let proc = self.procs.get_mut(&pid).expect("caller exists");
                let h = proc.handles.insert(HandleObject::Process(child));
                // Also hand out a handle to the child's main thread.
                let main_tid = self
                    .procs
                    .get(&child)
                    .and_then(|p| p.threads.keys().next().copied());
                if let Some(mt) = main_tid {
                    let proc = self.procs.get_mut(&pid).expect("caller exists");
                    let th = proc.handles.insert(HandleObject::Thread(child, mt));
                    let status = self.out_u32s(pid, a[3], &[h.0, th.0, child.0], obs);
                    if status != NtStatus::Success {
                        return status;
                    }
                }
                NtStatus::Success
            }
            Err(crate::machine::MachineError::NoSuchFile(_)) => NtStatus::ObjectNameNotFound,
            Err(_) => NtStatus::InvalidParameter,
        }
    }

    fn sys_open_process<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let target = Pid(a[0]);
        if !self.procs.contains_key(&target) {
            return NtStatus::ObjectNameNotFound;
        }
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        let h = proc.handles.insert(HandleObject::Process(target));
        self.out_u32s(pid, a[1], &[h.0], obs)
    }

    fn sys_terminate_process<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        self.terminate_process(target, a[1], obs);
        NtStatus::Success
    }

    fn sys_suspend_thread(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let current_tid = self.current.map(|(_, t)| t).unwrap_or_default();
        let (tp, tt) = match self.resolve_thread(pid, current_tid, a[0]) {
            Ok(x) => x,
            Err(s) => return s,
        };
        let Some(thread) = self.procs.get_mut(&tp).and_then(|p| p.threads.get_mut(&tt)) else {
            return NtStatus::InvalidHandle;
        };
        thread.state = match thread.state {
            ThreadState::Suspended(n) => ThreadState::Suspended(n + 1),
            ThreadState::Exited => return NtStatus::InvalidDeviceState,
            _ => ThreadState::Suspended(1),
        };
        NtStatus::Success
    }

    fn sys_resume_thread(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let current_tid = self.current.map(|(_, t)| t).unwrap_or_default();
        let (tp, tt) = match self.resolve_thread(pid, current_tid, a[0]) {
            Ok(x) => x,
            Err(s) => return s,
        };
        let Some(thread) = self.procs.get_mut(&tp).and_then(|p| p.threads.get_mut(&tt)) else {
            return NtStatus::InvalidHandle;
        };
        match thread.state {
            ThreadState::Suspended(1) => {
                thread.state = ThreadState::Ready;
                self.wake_thread(tp, tt);
                NtStatus::Success
            }
            ThreadState::Suspended(n) => {
                thread.state = ThreadState::Suspended(n - 1);
                NtStatus::Success
            }
            _ => NtStatus::Success,
        }
    }

    fn sys_create_thread<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        let suspended = a[3] & 1 != 0;
        match self.create_thread_with_stack(target, a[1], a[2], suspended, obs) {
            Ok(tid) => {
                let proc = self.procs.get_mut(&pid).expect("caller exists");
                let h = proc.handles.insert(HandleObject::Thread(target, tid));
                self.out_u32s(pid, a[4], &[h.0], obs)
            }
            Err(_) => NtStatus::NoMemory,
        }
    }

    fn ctx_to_words(ctx: &CpuContext) -> [u32; 10] {
        let mut w = [0u32; 10];
        w[..8].copy_from_slice(&ctx.regs);
        w[8] = ctx.eip;
        w[9] = (ctx.flags.zf as u32)
            | ((ctx.flags.sf as u32) << 1)
            | ((ctx.flags.cf as u32) << 2)
            | ((ctx.flags.of as u32) << 3);
        w
    }

    fn words_to_ctx(words: &[u32; 10]) -> CpuContext {
        let mut ctx = CpuContext::default();
        ctx.regs.copy_from_slice(&words[..8]);
        ctx.eip = words[8];
        ctx.flags.zf = words[9] & 1 != 0;
        ctx.flags.sf = words[9] & 2 != 0;
        ctx.flags.cf = words[9] & 4 != 0;
        ctx.flags.of = words[9] & 8 != 0;
        ctx
    }

    fn sys_get_context<O: Observer + ?Sized>(&mut self, pid: Pid, tid: Tid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let (tp, tt) = match self.resolve_thread(pid, tid, a[0]) {
            Ok(x) => x,
            Err(s) => return s,
        };
        let Some(thread) = self.procs.get(&tp).and_then(|p| p.threads.get(&tt)) else {
            return NtStatus::InvalidHandle;
        };
        let words = Self::ctx_to_words(&thread.ctx);
        self.out_u32s(pid, a[1], &words, obs)
    }

    fn sys_set_context(&mut self, pid: Pid, tid: Tid, a: [u32; 5]) -> NtStatus {
        let (tp, tt) = match self.resolve_thread(pid, tid, a[0]) {
            Ok(x) => x,
            Err(s) => return s,
        };
        let Ok(bytes) = self.read_guest(pid, a[1], 40) else {
            return NtStatus::AccessViolation;
        };
        let mut words = [0u32; 10];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        let Some(thread) = self.procs.get_mut(&tp).and_then(|p| p.threads.get_mut(&tt)) else {
            return NtStatus::InvalidHandle;
        };
        thread.ctx = Self::words_to_ctx(&words);
        NtStatus::Success
    }

    fn sys_alloc_vm<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        let size = a[1].div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE;
        let perms = perms_from_bits(a[2]);
        let base = {
            let Some(proc) = self.procs.get_mut(&target) else {
                return NtStatus::InvalidHandle;
            };
            let base = proc.next_alloc_va;
            proc.next_alloc_va = base + size + PAGE_SIZE; // guard gap
            base
        };
        match self.map_fresh(target, base, size, perms, RegionKind::Private, obs) {
            Ok(()) => self.out_u32s(pid, a[3], &[base], obs),
            Err(crate::machine::MachineError::OutOfMemory) => NtStatus::NoMemory,
            Err(_) => NtStatus::ConflictingAddresses,
        }
    }

    fn sys_protect_vm(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        let va = a[1] & !(PAGE_SIZE - 1);
        let pages = a[2].div_ceil(PAGE_SIZE).max(1);
        let perms = perms_from_bits(a[3]);
        let Some(proc) = self.procs.get_mut(&target) else {
            return NtStatus::InvalidHandle;
        };
        let mut ok = true;
        for page in 0..pages {
            if proc.aspace.protect(va + page * PAGE_SIZE, perms).is_none() {
                ok = false;
                break;
            }
        }
        if ok {
            proc.set_region_perms(va, perms);
        }
        // Protection changes can grant or revoke execute on pages that back
        // cached blocks (VirtualProtect before a jump into fresh shellcode);
        // drop the cache even on partial failure — earlier pages changed.
        self.tcache.invalidate_all(&mut self.mem);
        if ok {
            NtStatus::Success
        } else {
            NtStatus::InvalidParameter
        }
    }

    fn sys_free_vm(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        match self.unmap_region(target, a[1]) {
            Ok(_) => NtStatus::Success,
            Err(_) => NtStatus::InvalidParameter,
        }
    }

    fn sys_write_vm<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        match self.guest_copy(pid, a[2], target, a[1], a[3], obs) {
            Ok(()) => NtStatus::Success,
            Err(_) => NtStatus::AccessViolation,
        }
    }

    fn sys_read_vm<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        match self.guest_copy(target, a[1], pid, a[2], a[3], obs) {
            Ok(()) => NtStatus::Success,
            Err(_) => NtStatus::AccessViolation,
        }
    }

    fn sys_query_vm<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        let Some(proc) = self.procs.get(&target) else {
            return NtStatus::InvalidHandle;
        };
        let Some(region) = proc.region_containing(a[1]) else {
            return NtStatus::InvalidParameter;
        };
        let kind = match region.kind {
            RegionKind::Image { .. } => 0,
            RegionKind::Private => 1,
            RegionKind::Stack => 2,
            RegionKind::Mapped { .. } => 3,
        };
        let words = [region.base, region.size, perms_to_bits(region.perms), kind];
        self.out_u32s(pid, a[2], &words, obs)
    }

    fn sys_query_process<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let target = match self.resolve_process(pid, a[0]) {
            Ok(t) => t,
            Err(s) => return s,
        };
        let Some(proc) = self.procs.get(&target) else {
            return NtStatus::InvalidHandle;
        };
        let words = [
            proc.pid.0,
            proc.parent.map(|p| p.0).unwrap_or(0),
            proc.is_alive() as u32,
        ];
        self.out_u32s(pid, a[1], &words, obs)
    }

    // ------------------------------------------------------------------
    // sockets
    // ------------------------------------------------------------------

    fn sys_socket_create<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        let h = proc.handles.insert(HandleObject::Socket { conn: None, local_port: None });
        self.out_u32s(pid, a[0], &[h.0], obs)
    }

    fn sys_socket_connect(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let tick = self.ticks();
        let ip = a[1].to_be_bytes();
        let port = a[2] as u16;
        let Some(conn) = self.net.connect(ip, port, tick) else {
            return NtStatus::ConnectionRefused;
        };
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        match proc.handles.get_mut(Handle(a[0])) {
            Some(HandleObject::Socket { conn: c, .. }) => {
                *c = Some(conn);
                NtStatus::Success
            }
            _ => NtStatus::InvalidHandle,
        }
    }

    fn sys_socket_bind(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let proc = self.procs.get_mut(&pid).expect("caller exists");
        match proc.handles.get_mut(Handle(a[0])) {
            Some(HandleObject::Socket { local_port, .. }) => {
                *local_port = Some(a[1] as u16);
                NtStatus::Success
            }
            _ => NtStatus::InvalidHandle,
        }
    }

    fn sys_socket_listen(&mut self, pid: Pid, a: [u32; 5]) -> NtStatus {
        let proc = self.procs.get(&pid).expect("caller exists");
        match proc.handles.get(Handle(a[0])) {
            Some(HandleObject::Socket { local_port: Some(_), .. }) => NtStatus::Success,
            Some(HandleObject::Socket { local_port: None, .. }) => {
                NtStatus::InvalidDeviceState
            }
            _ => NtStatus::InvalidHandle,
        }
    }

    /// Blocking accept: `NtSocketAccept(listen_h, out_handle_ptr)`. Parks
    /// until a scheduled remote peer dials the bound port.
    fn sys_socket_accept<O: Observer + ?Sized>(
        &mut self,
        pid: Pid,
        tid: Tid,
        a: [u32; 5],
        obs: &mut O,
    ) -> Option<NtStatus> {
        let port = {
            let proc = self.procs.get(&pid).expect("caller exists");
            match proc.handles.get(Handle(a[0])) {
                Some(HandleObject::Socket { local_port: Some(p), .. }) => *p,
                Some(HandleObject::Socket { local_port: None, .. }) => {
                    return Some(NtStatus::InvalidDeviceState)
                }
                _ => return Some(NtStatus::InvalidHandle),
            }
        };
        let tick = self.ticks();
        match self.net.accept(port, tick) {
            Some(conn) => {
                let proc = self.procs.get_mut(&pid).expect("caller exists");
                let h = proc.handles.insert(HandleObject::Socket {
                    conn: Some(conn),
                    local_port: Some(port),
                });
                Some(self.out_u32s(pid, a[1], &[h.0], obs))
            }
            None => {
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.threads.get_mut(&tid))
                {
                    t.state = ThreadState::Blocked(BlockReason::NetAccept { port });
                }
                None
            }
        }
    }

    fn sys_socket_send<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let conn = {
            let proc = self.procs.get(&pid).expect("caller exists");
            match proc.handles.get(Handle(a[0])) {
                Some(HandleObject::Socket { conn: Some(c), .. }) => *c,
                Some(HandleObject::Socket { conn: None, .. }) => {
                    return NtStatus::InvalidDeviceState
                }
                _ => return NtStatus::InvalidHandle,
            }
        };
        let Ok(bytes) = self.read_guest(pid, a[1], a[2]) else {
            return NtStatus::AccessViolation;
        };
        let src_runs = self
            .phys_runs(pid, a[1], a[2], Access::Read)
            .expect("read_guest just succeeded");
        if !self.net.send(conn, &bytes) {
            return NtStatus::ConnectionReset;
        }
        if let Some(flow) = self.net.flow(conn) {
            obs.net_tx(pid, &flow, &src_runs);
        }
        self.out_u32s(pid, a[3], &[bytes.len() as u32], obs)
    }

    /// Blocking receive. Returns `None` (park) when no bytes are available.
    fn sys_socket_recv<O: Observer + ?Sized>(
        &mut self,
        pid: Pid,
        tid: Tid,
        a: [u32; 5],
        obs: &mut O,
    ) -> Option<NtStatus> {
        let conn = {
            let proc = self.procs.get(&pid).expect("caller exists");
            match proc.handles.get(Handle(a[0])) {
                Some(HandleObject::Socket { conn: Some(c), .. }) => *c,
                Some(HandleObject::Socket { conn: None, .. }) => {
                    return Some(NtStatus::InvalidDeviceState)
                }
                _ => return Some(NtStatus::InvalidHandle),
            }
        };
        let tick = self.ticks();
        match self.net.recv(conn, a[2] as usize, tick) {
            RecvOutcome::Data { flow, bytes } => {
                let runs = match self.write_guest(pid, a[1], &bytes) {
                    Ok(r) => r,
                    Err(_) => return Some(NtStatus::AccessViolation),
                };
                obs.net_rx(pid, &flow, &runs);
                Some(self.out_u32s(pid, a[3], &[bytes.len() as u32], obs))
            }
            RecvOutcome::Closed => {
                let _ = self.out_u32s(pid, a[3], &[0], obs);
                Some(NtStatus::ConnectionReset)
            }
            RecvOutcome::WouldBlock => {
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.threads.get_mut(&tid))
                {
                    t.state = ThreadState::Blocked(BlockReason::NetRecv { conn });
                }
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // misc
    // ------------------------------------------------------------------

    fn sys_sleep(&mut self, pid: Pid, tid: Tid, a: [u32; 5], retried: bool) -> Option<NtStatus> {
        if retried {
            // The scheduler only re-dispatches a sleeping thread once its
            // wake tick has passed.
            return Some(NtStatus::Success);
        }
        let until = self.ticks() + a[0] as u64;
        if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.threads.get_mut(&tid)) {
            t.state = ThreadState::Blocked(BlockReason::Sleep { until });
        }
        None
    }

    fn sys_query_time<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let tick = self.ticks() as u32;
        self.out_u32s(pid, a[0], &[tick], obs)
    }

    /// `LdrLoadDll(path_ptr, path_len, out_base_ptr)`: loads and *registers*
    /// a library module in the calling process (sections mapped, export
    /// table materialized, module visible in the DLL list).
    fn sys_load_library<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let Ok(path) = self.read_path(pid, a[0], a[1]) else {
            return NtStatus::AccessViolation;
        };
        match self.load_image_into(pid, &path, obs) {
            Ok(module) => self.out_u32s(pid, a[2], &[module.base], obs),
            Err(crate::machine::MachineError::NoSuchFile(_)) => NtStatus::ObjectNameNotFound,
            Err(crate::machine::MachineError::AddressConflict(_)) => {
                NtStatus::ConflictingAddresses
            }
            Err(_) => NtStatus::InvalidParameter,
        }
    }

    fn sys_display_string<O: Observer + ?Sized>(&mut self, pid: Pid, a: [u32; 5], obs: &mut O) -> NtStatus {
        let Ok(text) = self.read_guest_str(pid, a[0], a[1].min(512)) else {
            return NtStatus::AccessViolation;
        };
        obs.console_output(pid, &text);
        self.push_console(pid, text);
        NtStatus::Success
    }
}
