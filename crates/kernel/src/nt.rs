//! NT-flavoured syscall numbers, status codes, and ABI constants.
//!
//! The guest ABI mirrors 32-bit Windows closely enough that the paper's
//! attack recipes translate one-to-one: the syscall number travels in `EAX`
//! through the `int 0x2e` gate, up to five arguments in
//! `EBX/ECX/EDX/ESI/EDI`, and the `NTSTATUS` comes back in `EAX`.
//!
//! The file-system surface deliberately counts **26 syscalls** — the number
//! FAROS hooks for file-tag insertion (paper §V-A: "FAROS leverages 26
//! filesystem-related system calls").

use std::fmt;

/// NTSTATUS values returned by syscalls (in `EAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum NtStatus {
    /// The operation completed successfully.
    Success = 0x0000_0000,
    /// The operation is blocked waiting for I/O (thread parked).
    Pending = 0x0000_0103,
    /// End of file reached.
    EndOfFile = 0xC000_0011,
    /// A handle argument did not resolve.
    InvalidHandle = 0xC000_0008,
    /// A parameter was malformed.
    InvalidParameter = 0xC000_000D,
    /// The named object does not exist.
    ObjectNameNotFound = 0xC000_0034,
    /// The named object already exists.
    ObjectNameCollision = 0xC000_0035,
    /// A guest pointer argument faulted.
    AccessViolation = 0xC000_0005,
    /// The caller may not perform the operation.
    AccessDenied = 0xC000_0022,
    /// Out of guest memory.
    NoMemory = 0xC000_0017,
    /// The syscall number is not implemented.
    NotImplemented = 0xC000_0002,
    /// The remote peer refused the connection.
    ConnectionRefused = 0xC000_0236,
    /// The connection was closed by the peer.
    ConnectionReset = 0xC000_0064,
    /// The object is not in a state permitting the request.
    InvalidDeviceState = 0xC000_0184,
    /// Address range conflicts with an existing allocation.
    ConflictingAddresses = 0xC000_0018,
}

impl fmt::Display for NtStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?} ({:#010x})", *self as u32)
    }
}

/// System service numbers, passed in `EAX` at the `int 0x2e` gate.
///
/// Grouped exactly as FAROS hooks them: the 26 file-system services first
/// (tag-insertion surface), then process/memory/thread services (the
/// injection surface), then sockets and miscellanea.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u32)]
#[allow(missing_docs)] // Names mirror the NT services they model.
pub enum Sysno {
    // --- file system (the 26 hooked services) ---
    NtCreateFile = 0x01,
    NtOpenFile = 0x02,
    NtReadFile = 0x03,
    NtWriteFile = 0x04,
    NtClose = 0x05,
    NtDeleteFile = 0x06,
    NtQueryInformationFile = 0x07,
    NtSetInformationFile = 0x08,
    NtFlushBuffersFile = 0x09,
    NtQueryDirectoryFile = 0x0a,
    NtCreateSection = 0x0b,
    NtOpenSection = 0x0c,
    NtMapViewOfSection = 0x0d,
    NtUnmapViewOfSection = 0x0e,
    NtQueryAttributesFile = 0x0f,
    NtQueryFullAttributesFile = 0x10,
    NtLockFile = 0x11,
    NtUnlockFile = 0x12,
    NtReadFileScatter = 0x13,
    NtWriteFileGather = 0x14,
    NtDeviceIoControlFile = 0x15,
    NtFsControlFile = 0x16,
    NtQueryVolumeInformationFile = 0x17,
    NtSetVolumeInformationFile = 0x18,
    NtQueryEaFile = 0x19,
    NtSetEaFile = 0x1a,

    // --- process / memory / thread ---
    NtCreateUserProcess = 0x20,
    NtOpenProcess = 0x21,
    NtTerminateProcess = 0x22,
    NtSuspendThread = 0x23,
    NtResumeThread = 0x24,
    NtCreateThreadEx = 0x25,
    NtGetContextThread = 0x26,
    NtSetContextThread = 0x27,
    NtAllocateVirtualMemory = 0x28,
    NtProtectVirtualMemory = 0x29,
    NtFreeVirtualMemory = 0x2a,
    NtWriteVirtualMemory = 0x2b,
    NtReadVirtualMemory = 0x2c,
    NtQueryVirtualMemory = 0x2d,
    NtQueryInformationProcess = 0x2e,

    // --- network (AFD-equivalent, surfaced as dedicated services) ---
    NtSocketCreate = 0x40,
    NtSocketConnect = 0x41,
    NtSocketBind = 0x42,
    NtSocketListen = 0x43,
    NtSocketAccept = 0x44,
    NtSocketSend = 0x45,
    NtSocketRecv = 0x46,

    // --- miscellanea ---
    NtDelayExecution = 0x50,
    NtQuerySystemTime = 0x51,
    NtDisplayString = 0x52,
    NtYieldExecution = 0x53,
    /// Normal (registered) library loading — the `LdrLoadDll` path the
    /// reflective technique bypasses (paper §II: "this leads to a bypass in
    /// the procedure of registering the DLL with a process").
    LdrLoadDll = 0x54,
}

impl Sysno {
    /// Decodes a service number from the `EAX` value at the gate.
    pub fn from_u32(v: u32) -> Option<Sysno> {
        Sysno::ALL.iter().copied().find(|&s| s as u32 == v)
    }

    /// All defined service numbers.
    pub const ALL: [Sysno; 53] = [
        Sysno::NtCreateFile,
        Sysno::NtOpenFile,
        Sysno::NtReadFile,
        Sysno::NtWriteFile,
        Sysno::NtClose,
        Sysno::NtDeleteFile,
        Sysno::NtQueryInformationFile,
        Sysno::NtSetInformationFile,
        Sysno::NtFlushBuffersFile,
        Sysno::NtQueryDirectoryFile,
        Sysno::NtCreateSection,
        Sysno::NtOpenSection,
        Sysno::NtMapViewOfSection,
        Sysno::NtUnmapViewOfSection,
        Sysno::NtQueryAttributesFile,
        Sysno::NtQueryFullAttributesFile,
        Sysno::NtLockFile,
        Sysno::NtUnlockFile,
        Sysno::NtReadFileScatter,
        Sysno::NtWriteFileGather,
        Sysno::NtDeviceIoControlFile,
        Sysno::NtFsControlFile,
        Sysno::NtQueryVolumeInformationFile,
        Sysno::NtSetVolumeInformationFile,
        Sysno::NtQueryEaFile,
        Sysno::NtSetEaFile,
        Sysno::NtCreateUserProcess,
        Sysno::NtOpenProcess,
        Sysno::NtTerminateProcess,
        Sysno::NtSuspendThread,
        Sysno::NtResumeThread,
        Sysno::NtCreateThreadEx,
        Sysno::NtGetContextThread,
        Sysno::NtSetContextThread,
        Sysno::NtAllocateVirtualMemory,
        Sysno::NtProtectVirtualMemory,
        Sysno::NtFreeVirtualMemory,
        Sysno::NtWriteVirtualMemory,
        Sysno::NtReadVirtualMemory,
        Sysno::NtQueryVirtualMemory,
        Sysno::NtQueryInformationProcess,
        Sysno::NtSocketCreate,
        Sysno::NtSocketConnect,
        Sysno::NtSocketBind,
        Sysno::NtSocketListen,
        Sysno::NtSocketAccept,
        Sysno::NtSocketSend,
        Sysno::NtSocketRecv,
        Sysno::NtDelayExecution,
        Sysno::NtQuerySystemTime,
        Sysno::NtDisplayString,
        Sysno::NtYieldExecution,
        Sysno::LdrLoadDll,
    ];

    /// Returns `true` for the 26 file-system services FAROS hooks for file
    /// tag insertion.
    pub fn is_file_syscall(self) -> bool {
        (self as u32) >= Sysno::NtCreateFile as u32
            && (self as u32) <= Sysno::NtSetEaFile as u32
    }

    /// Returns `true` for the process/memory/thread services that implement
    /// the injection surface.
    pub fn is_process_syscall(self) -> bool {
        (self as u32) >= Sysno::NtCreateUserProcess as u32
            && (self as u32) <= Sysno::NtQueryInformationProcess as u32
    }

    /// Returns `true` for socket services.
    pub fn is_socket_syscall(self) -> bool {
        (self as u32) >= Sysno::NtSocketCreate as u32
            && (self as u32) <= Sysno::NtSocketRecv as u32
    }

    /// The service name as a `'static` string (for trace-event and metric
    /// names, where an owned `Display` rendering would allocate per event).
    pub fn name(self) -> &'static str {
        match self {
            Sysno::NtCreateFile => "NtCreateFile",
            Sysno::NtOpenFile => "NtOpenFile",
            Sysno::NtReadFile => "NtReadFile",
            Sysno::NtWriteFile => "NtWriteFile",
            Sysno::NtClose => "NtClose",
            Sysno::NtDeleteFile => "NtDeleteFile",
            Sysno::NtQueryInformationFile => "NtQueryInformationFile",
            Sysno::NtSetInformationFile => "NtSetInformationFile",
            Sysno::NtFlushBuffersFile => "NtFlushBuffersFile",
            Sysno::NtQueryDirectoryFile => "NtQueryDirectoryFile",
            Sysno::NtCreateSection => "NtCreateSection",
            Sysno::NtOpenSection => "NtOpenSection",
            Sysno::NtMapViewOfSection => "NtMapViewOfSection",
            Sysno::NtUnmapViewOfSection => "NtUnmapViewOfSection",
            Sysno::NtQueryAttributesFile => "NtQueryAttributesFile",
            Sysno::NtQueryFullAttributesFile => "NtQueryFullAttributesFile",
            Sysno::NtLockFile => "NtLockFile",
            Sysno::NtUnlockFile => "NtUnlockFile",
            Sysno::NtReadFileScatter => "NtReadFileScatter",
            Sysno::NtWriteFileGather => "NtWriteFileGather",
            Sysno::NtDeviceIoControlFile => "NtDeviceIoControlFile",
            Sysno::NtFsControlFile => "NtFsControlFile",
            Sysno::NtQueryVolumeInformationFile => "NtQueryVolumeInformationFile",
            Sysno::NtSetVolumeInformationFile => "NtSetVolumeInformationFile",
            Sysno::NtQueryEaFile => "NtQueryEaFile",
            Sysno::NtSetEaFile => "NtSetEaFile",
            Sysno::NtCreateUserProcess => "NtCreateUserProcess",
            Sysno::NtOpenProcess => "NtOpenProcess",
            Sysno::NtTerminateProcess => "NtTerminateProcess",
            Sysno::NtSuspendThread => "NtSuspendThread",
            Sysno::NtResumeThread => "NtResumeThread",
            Sysno::NtCreateThreadEx => "NtCreateThreadEx",
            Sysno::NtGetContextThread => "NtGetContextThread",
            Sysno::NtSetContextThread => "NtSetContextThread",
            Sysno::NtAllocateVirtualMemory => "NtAllocateVirtualMemory",
            Sysno::NtProtectVirtualMemory => "NtProtectVirtualMemory",
            Sysno::NtFreeVirtualMemory => "NtFreeVirtualMemory",
            Sysno::NtWriteVirtualMemory => "NtWriteVirtualMemory",
            Sysno::NtReadVirtualMemory => "NtReadVirtualMemory",
            Sysno::NtQueryVirtualMemory => "NtQueryVirtualMemory",
            Sysno::NtQueryInformationProcess => "NtQueryInformationProcess",
            Sysno::NtSocketCreate => "NtSocketCreate",
            Sysno::NtSocketConnect => "NtSocketConnect",
            Sysno::NtSocketBind => "NtSocketBind",
            Sysno::NtSocketListen => "NtSocketListen",
            Sysno::NtSocketAccept => "NtSocketAccept",
            Sysno::NtSocketSend => "NtSocketSend",
            Sysno::NtSocketRecv => "NtSocketRecv",
            Sysno::NtDelayExecution => "NtDelayExecution",
            Sysno::NtQuerySystemTime => "NtQuerySystemTime",
            Sysno::NtDisplayString => "NtDisplayString",
            Sysno::NtYieldExecution => "NtYieldExecution",
            Sysno::LdrLoadDll => "LdrLoadDll",
        }
    }
}

impl fmt::Display for Sysno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Pseudo-handle meaning "the current process" (NT's `-1`).
pub const CURRENT_PROCESS: u32 = 0xffff_ffff;

/// Pseudo-handle meaning "the current thread" (NT's `-2`).
pub const CURRENT_THREAD: u32 = 0xffff_fffe;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_26_file_syscalls() {
        let n = Sysno::ALL.iter().filter(|s| s.is_file_syscall()).count();
        assert_eq!(n, 26, "the paper hooks exactly 26 filesystem syscalls");
    }

    #[test]
    fn sysno_round_trip() {
        for s in Sysno::ALL {
            assert_eq!(Sysno::from_u32(s as u32), Some(s));
        }
        assert_eq!(Sysno::from_u32(0xdead), None);
    }

    #[test]
    fn name_matches_debug_rendering() {
        for s in Sysno::ALL {
            assert_eq!(s.name(), format!("{s:?}"), "name() must track the variant");
        }
    }

    #[test]
    fn classification_is_disjoint() {
        for s in Sysno::ALL {
            let classes = [s.is_file_syscall(), s.is_process_syscall(), s.is_socket_syscall()];
            assert!(classes.iter().filter(|&&c| c).count() <= 1, "{s} in multiple classes");
        }
    }

    #[test]
    fn injection_surface_is_process_class() {
        assert!(Sysno::NtWriteVirtualMemory.is_process_syscall());
        assert!(Sysno::NtCreateThreadEx.is_process_syscall());
        assert!(Sysno::NtSetContextThread.is_process_syscall());
        assert!(Sysno::NtUnmapViewOfSection.is_file_syscall()); // section ops are file-class, as in NT
    }
}
