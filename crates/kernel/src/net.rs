//! The simulated network: scripted remote endpoints, connections, and the
//! nondeterminism log that record/replay captures.
//!
//! The fabric is the only true taint *source* in the system: bytes a guest
//! `NtSocketRecv` places into guest memory are labeled with a netflow tag at
//! the delivery point, just as PANDA's taint2 labels virtio DMA buffers.
//!
//! In **live** mode, guest traffic is answered by deterministic
//! [`RemoteEndpoint`] scripts (our stand-ins for the Metasploit handler,
//! RAT servers, web servers, ...) and every guest-visible delivery is
//! appended to a [`NetLog`]. In **replay** mode the endpoints are detached
//! and deliveries come verbatim from the log, gated on the same virtual
//! tick, which is what makes a replay bit-identical to its recording.

use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::collections::VecDeque;
use std::fmt;

/// A TCP-like flow 4-tuple. `src` is the *remote* end and `dst` the guest
/// end, matching the orientation of the paper's netflow tags (the attacker
/// at `169.254.26.161:4444` appears as the source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowTuple {
    /// Remote IPv4 address.
    pub src_ip: [u8; 4],
    /// Remote port.
    pub src_port: u16,
    /// Guest IPv4 address.
    pub dst_ip: [u8; 4],
    /// Guest (local) port.
    pub dst_port: u16,
}

impl fmt::Display for FlowTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{}",
            self.src_ip[0], self.src_ip[1], self.src_ip[2], self.src_ip[3], self.src_port,
            self.dst_ip[0], self.dst_ip[1], self.dst_ip[2], self.dst_ip[3], self.dst_port,
        )
    }
}

/// A deterministic script playing the remote side of guest connections —
/// the reproduction's substitute for Metasploit handlers, RAT servers, and
/// web servers.
pub trait RemoteEndpoint {
    /// Called when a guest connection is established; returns bytes to
    /// deliver to the guest immediately.
    fn on_connect(&mut self) -> Vec<Vec<u8>> {
        Vec::new()
    }

    /// Called when the guest sends data; returns response chunks.
    fn on_data(&mut self, data: &[u8]) -> Vec<Vec<u8>>;

    /// Called periodically with the machine tick; returns spontaneous sends
    /// (e.g. a C2 server pushing a command without being asked).
    fn poll(&mut self, tick: u64) -> Vec<Vec<u8>> {
        let _ = tick;
        Vec::new()
    }
}

impl fmt::Debug for dyn RemoteEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn RemoteEndpoint")
    }
}

/// One guest-visible network event, as captured in the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A connect attempt resolved.
    Connect {
        /// The flow (fully determined: local ports are assigned
        /// deterministically).
        flow: FlowTuple,
        /// Whether the remote accepted.
        ok: bool,
        /// Virtual tick at resolution.
        at_tick: u64,
    },
    /// Bytes became available to a guest receive.
    Rx {
        /// The flow the bytes belong to.
        flow: FlowTuple,
        /// The delivered bytes.
        data: Vec<u8>,
        /// Virtual tick at delivery.
        at_tick: u64,
    },
    /// An inbound connection was accepted by the guest.
    Accept {
        /// The flow (src = remote initiator, dst = guest listening port).
        flow: FlowTuple,
        /// Virtual tick at acceptance.
        at_tick: u64,
    },
    /// The remote closed the connection.
    Close {
        /// The flow being closed.
        flow: FlowTuple,
        /// Virtual tick at close.
        at_tick: u64,
    },
}

/// The ordered log of guest-visible network nondeterminism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetLog {
    /// Events in delivery order.
    pub events: Vec<NetEvent>,
}

impl ToJson for FlowTuple {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("src_ip", self.src_ip.to_json_value()),
            ("src_port", self.src_port.to_json_value()),
            ("dst_ip", self.dst_ip.to_json_value()),
            ("dst_port", self.dst_port.to_json_value()),
        ])
    }
}

impl FromJson for FlowTuple {
    fn from_json_value(v: &JsonValue) -> Result<FlowTuple, JsonError> {
        Ok(FlowTuple {
            src_ip: json::field(v, "src_ip")?,
            src_port: json::field(v, "src_port")?,
            dst_ip: json::field(v, "dst_ip")?,
            dst_port: json::field(v, "dst_port")?,
        })
    }
}

impl ToJson for NetEvent {
    fn to_json_value(&self) -> JsonValue {
        // Externally tagged, matching the classic derive output so pre-
        // migration recordings stay loadable.
        let (tag, body) = match self {
            NetEvent::Connect { flow, ok, at_tick } => (
                "Connect",
                JsonValue::object(vec![
                    ("flow", flow.to_json_value()),
                    ("ok", ok.to_json_value()),
                    ("at_tick", at_tick.to_json_value()),
                ]),
            ),
            NetEvent::Rx { flow, data, at_tick } => (
                "Rx",
                JsonValue::object(vec![
                    ("flow", flow.to_json_value()),
                    ("data", data.to_json_value()),
                    ("at_tick", at_tick.to_json_value()),
                ]),
            ),
            NetEvent::Accept { flow, at_tick } => (
                "Accept",
                JsonValue::object(vec![
                    ("flow", flow.to_json_value()),
                    ("at_tick", at_tick.to_json_value()),
                ]),
            ),
            NetEvent::Close { flow, at_tick } => (
                "Close",
                JsonValue::object(vec![
                    ("flow", flow.to_json_value()),
                    ("at_tick", at_tick.to_json_value()),
                ]),
            ),
        };
        JsonValue::object(vec![(tag, body)])
    }
}

impl FromJson for NetEvent {
    fn from_json_value(v: &JsonValue) -> Result<NetEvent, JsonError> {
        let JsonValue::Object(fields) = v else {
            return Err(JsonError::decode("expected externally-tagged NetEvent object"));
        };
        let [(tag, body)] = fields.as_slice() else {
            return Err(JsonError::decode("NetEvent object must have exactly one key"));
        };
        match tag.as_str() {
            "Connect" => Ok(NetEvent::Connect {
                flow: json::field(body, "flow")?,
                ok: json::field(body, "ok")?,
                at_tick: json::field(body, "at_tick")?,
            }),
            "Rx" => Ok(NetEvent::Rx {
                flow: json::field(body, "flow")?,
                data: json::field(body, "data")?,
                at_tick: json::field(body, "at_tick")?,
            }),
            "Accept" => Ok(NetEvent::Accept {
                flow: json::field(body, "flow")?,
                at_tick: json::field(body, "at_tick")?,
            }),
            "Close" => Ok(NetEvent::Close {
                flow: json::field(body, "flow")?,
                at_tick: json::field(body, "at_tick")?,
            }),
            other => Err(JsonError::decode(format!("unknown NetEvent variant `{other}`"))),
        }
    }
}

impl ToJson for NetLog {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![("events", self.events.to_json_value())])
    }
}

impl FromJson for NetLog {
    fn from_json_value(v: &JsonValue) -> Result<NetLog, JsonError> {
        Ok(NetLog { events: json::field(v, "events")? })
    }
}

/// Result of a guest receive attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// Bytes delivered.
    Data {
        /// The flow they came from.
        flow: FlowTuple,
        /// The bytes.
        bytes: Vec<u8>,
    },
    /// Nothing available yet; the thread should block.
    WouldBlock,
    /// The connection is closed and drained.
    Closed,
}

/// Error when a replay diverges from its recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replay diverged from recording: {}", self.detail)
    }
}

impl std::error::Error for ReplayDivergence {}

#[derive(Debug)]
struct Connection {
    flow: FlowTuple,
    endpoint: Option<usize>,
    rx: VecDeque<u8>,
    /// Replay mode: chunks scheduled for this flow, gated by tick.
    pending_replay: VecDeque<(u64, Vec<u8>)>,
    closed: bool,
}

/// A scheduled remote-initiated connection (live mode): at `at_tick` the
/// scripted peer dials the guest's listening `guest_port`.
struct InboundScript {
    at_tick: u64,
    remote: ([u8; 4], u16),
    guest_port: u16,
    endpoint: Option<Box<dyn RemoteEndpoint>>,
    delivered: bool,
}

impl fmt::Debug for InboundScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InboundScript(:{} @ {} from {:?})",
            self.guest_port, self.at_tick, self.remote
        )
    }
}

enum Mode {
    Live,
    Replay {
        /// Outbound connects from the recording: (flow, accepted, consumed).
        connects: Vec<(FlowTuple, bool, bool)>,
        /// Inbound accepts from the recording: (flow, tick, consumed).
        accepts: Vec<(FlowTuple, u64, bool)>,
        log: NetLog,
    },
}

impl fmt::Debug for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Live => f.write_str("Live"),
            Mode::Replay { connects, accepts, .. } => {
                write!(f, "Replay({} connects, {} accepts)", connects.len(), accepts.len())
            }
        }
    }
}

/// The network fabric.
#[derive(Debug)]
pub struct NetworkFabric {
    guest_ip: [u8; 4],
    endpoints: Vec<([u8; 4], u16, Box<dyn RemoteEndpoint>)>,
    conns: Vec<Connection>,
    next_local_port: u16,
    mode: Mode,
    recorded: NetLog,
    divergence: Option<ReplayDivergence>,
    inbound: Vec<InboundScript>,
    /// Ripe inbound scripts awaiting a guest `accept`, per listening port.
    pending_accepts: Vec<(u16, usize)>,
}

/// First ephemeral local port assigned to outbound guest connections.
pub const FIRST_EPHEMERAL_PORT: u16 = 49152;

impl NetworkFabric {
    /// Creates a live-mode fabric for a guest with the given IP.
    pub fn new_live(guest_ip: [u8; 4]) -> NetworkFabric {
        NetworkFabric {
            guest_ip,
            endpoints: Vec::new(),
            conns: Vec::new(),
            next_local_port: FIRST_EPHEMERAL_PORT,
            mode: Mode::Live,
            recorded: NetLog::default(),
            divergence: None,
            inbound: Vec::new(),
            pending_accepts: Vec::new(),
        }
    }

    /// Creates a replay-mode fabric that serves deliveries from `log`.
    pub fn new_replay(guest_ip: [u8; 4], log: NetLog) -> NetworkFabric {
        NetworkFabric {
            guest_ip,
            endpoints: Vec::new(),
            conns: Vec::new(),
            next_local_port: FIRST_EPHEMERAL_PORT,
            mode: Mode::Replay {
                connects: log
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        NetEvent::Connect { flow, ok, .. } => Some((*flow, *ok, false)),
                        _ => None,
                    })
                    .collect(),
                accepts: log
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        NetEvent::Accept { flow, at_tick } => Some((*flow, *at_tick, false)),
                        _ => None,
                    })
                    .collect(),
                log,
            },
            recorded: NetLog::default(),
            divergence: None,
            inbound: Vec::new(),
            pending_accepts: Vec::new(),
        }
    }

    /// The guest's IP address.
    pub fn guest_ip(&self) -> [u8; 4] {
        self.guest_ip
    }

    /// Registers a scripted remote endpoint listening at `ip:port`
    /// (live mode only; replay mode ignores endpoints).
    pub fn add_endpoint(&mut self, ip: [u8; 4], port: u16, ep: Box<dyn RemoteEndpoint>) {
        self.endpoints.push((ip, port, ep));
    }

    /// The log recorded so far (live mode).
    pub fn recorded(&self) -> &NetLog {
        &self.recorded
    }

    /// Consumes the fabric, returning its recording.
    pub fn into_recorded(self) -> NetLog {
        self.recorded
    }

    /// Returns the first divergence detected in replay mode, if any.
    pub fn divergence(&self) -> Option<&ReplayDivergence> {
        self.divergence.as_ref()
    }

    fn diverge(&mut self, detail: String) {
        if self.divergence.is_none() {
            self.divergence = Some(ReplayDivergence { detail });
        }
    }

    /// Opens a guest-initiated connection to `ip:port`. Returns the
    /// connection id, or `None` if refused.
    pub fn connect(&mut self, ip: [u8; 4], port: u16, tick: u64) -> Option<u32> {
        let local_port = self.next_local_port;
        self.next_local_port += 1;
        let flow = FlowTuple {
            src_ip: ip,
            src_port: port,
            dst_ip: self.guest_ip,
            dst_port: local_port,
        };
        match &mut self.mode {
            Mode::Live => {
                let ep_idx = self
                    .endpoints
                    .iter()
                    .position(|(eip, eport, _)| *eip == ip && *eport == port);
                let ok = ep_idx.is_some();
                self.recorded.events.push(NetEvent::Connect { flow, ok, at_tick: tick });
                let ep_idx = ep_idx?;
                let greetings = self.endpoints[ep_idx].2.on_connect();
                let mut conn = Connection {
                    flow,
                    endpoint: Some(ep_idx),
                    rx: VecDeque::new(),
                    pending_replay: VecDeque::new(),
                    closed: false,
                };
                for chunk in greetings {
                    conn.rx.extend(chunk);
                }
                self.conns.push(conn);
                Some(self.conns.len() as u32 - 1)
            }
            Mode::Replay { connects, log, .. } => {
                let slot = connects
                    .iter_mut()
                    .find(|(f, _, consumed)| !consumed && *f == flow);
                match slot {
                    Some((_, ok, consumed)) => {
                        *consumed = true;
                        let ok = *ok;
                        // Pre-stage every Rx for this flow, tick-gated.
                        let staged: VecDeque<(u64, Vec<u8>)> = log
                            .events
                            .iter()
                            .filter_map(|e| match e {
                                NetEvent::Rx { flow: rf, data, at_tick } if *rf == flow => {
                                    Some((*at_tick, data.clone()))
                                }
                                _ => None,
                            })
                            .collect();
                        if !ok {
                            return None;
                        }
                        self.conns.push(Connection {
                            flow,
                            endpoint: None,
                            rx: VecDeque::new(),
                            pending_replay: staged,
                            closed: false,
                        });
                        Some(self.conns.len() as u32 - 1)
                    }
                    None => {
                        self.diverge(format!("no recorded Connect matches {flow}"));
                        None
                    }
                }
            }
        }
    }

    /// The flow tuple of a connection.
    pub fn flow(&self, conn: u32) -> Option<FlowTuple> {
        self.conns.get(conn as usize).map(|c| c.flow)
    }

    /// Guest sends bytes on a connection. In live mode the endpoint script
    /// runs and may queue responses; in replay mode sends are absorbed
    /// (the recorded deliveries already reflect them).
    pub fn send(&mut self, conn: u32, data: &[u8]) -> bool {
        let Some(c) = self.conns.get_mut(conn as usize) else {
            return false;
        };
        if c.closed {
            return false;
        }
        if let (Mode::Live, Some(ep)) = (&self.mode, c.endpoint) {
            let responses = self.endpoints[ep].2.on_data(data);
            for chunk in responses {
                c.rx.extend(chunk);
            }
        }
        true
    }

    /// Pumps endpoint `poll` scripts (live) or tick-gated staged deliveries
    /// (replay) at the given tick.
    pub fn pump(&mut self, tick: u64) {
        match &self.mode {
            Mode::Live => {
                for c in &mut self.conns {
                    if c.closed {
                        continue;
                    }
                    if let Some(ep) = c.endpoint {
                        for chunk in self.endpoints[ep].2.poll(tick) {
                            c.rx.extend(chunk);
                        }
                    }
                }
                for (idx, script) in self.inbound.iter_mut().enumerate() {
                    if !script.delivered && script.at_tick <= tick {
                        script.delivered = true;
                        self.pending_accepts.push((script.guest_port, idx));
                    }
                }
            }
            Mode::Replay { .. } => {
                for c in &mut self.conns {
                    while c
                        .pending_replay
                        .front()
                        .is_some_and(|(at, _)| *at <= tick)
                    {
                        let (_, data) = c.pending_replay.pop_front().expect("front checked");
                        c.rx.extend(data);
                    }
                }
            }
        }
    }

    /// Schedules a remote-initiated connection (live mode): at `at_tick`
    /// the scripted peer `remote` dials the guest's listening `guest_port`.
    /// Replay mode ignores schedules — accepts come from the recording.
    pub fn schedule_inbound(
        &mut self,
        remote: ([u8; 4], u16),
        guest_port: u16,
        at_tick: u64,
        endpoint: Box<dyn RemoteEndpoint>,
    ) {
        self.inbound.push(InboundScript {
            at_tick,
            remote,
            guest_port,
            endpoint: Some(endpoint),
            delivered: false,
        });
    }

    /// Returns `true` if an `accept` on `guest_port` would complete now.
    pub fn inbound_ready(&self, guest_port: u16, tick: u64) -> bool {
        match &self.mode {
            Mode::Live => self.pending_accepts.iter().any(|(p, _)| *p == guest_port),
            Mode::Replay { accepts, .. } => accepts
                .iter()
                .any(|(f, at, consumed)| !consumed && f.dst_port == guest_port && *at <= tick),
        }
    }

    /// Accepts a pending inbound connection on `guest_port`, returning the
    /// connection id, or `None` if nothing is pending (the caller parks).
    pub fn accept(&mut self, guest_port: u16, tick: u64) -> Option<u32> {
        match &mut self.mode {
            Mode::Live => {
                let pos = self.pending_accepts.iter().position(|(p, _)| *p == guest_port)?;
                let (_, script_idx) = self.pending_accepts.remove(pos);
                let script = &mut self.inbound[script_idx];
                let flow = FlowTuple {
                    src_ip: script.remote.0,
                    src_port: script.remote.1,
                    dst_ip: self.guest_ip,
                    dst_port: guest_port,
                };
                let mut endpoint = script.endpoint.take().expect("accepted once");
                let greetings = endpoint.on_connect();
                self.endpoints.push((script.remote.0, script.remote.1, endpoint));
                let ep_idx = self.endpoints.len() - 1;
                let mut conn = Connection {
                    flow,
                    endpoint: Some(ep_idx),
                    rx: VecDeque::new(),
                    pending_replay: VecDeque::new(),
                    closed: false,
                };
                for chunk in greetings {
                    conn.rx.extend(chunk);
                }
                self.recorded.events.push(NetEvent::Accept { flow, at_tick: tick });
                self.conns.push(conn);
                Some(self.conns.len() as u32 - 1)
            }
            Mode::Replay { accepts, log, .. } => {
                let slot = accepts.iter_mut().find(|(f, at, consumed)| {
                    !consumed && f.dst_port == guest_port && *at <= tick
                })?;
                slot.2 = true;
                let flow = slot.0;
                let staged: VecDeque<(u64, Vec<u8>)> = log
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        NetEvent::Rx { flow: rf, data, at_tick } if *rf == flow => {
                            Some((*at_tick, data.clone()))
                        }
                        _ => None,
                    })
                    .collect();
                self.conns.push(Connection {
                    flow,
                    endpoint: None,
                    rx: VecDeque::new(),
                    pending_replay: staged,
                    closed: false,
                });
                Some(self.conns.len() as u32 - 1)
            }
        }
    }

    /// Returns `true` if a receive on `conn` would deliver bytes now.
    pub fn readable(&self, conn: u32) -> bool {
        self.conns
            .get(conn as usize)
            .is_some_and(|c| !c.rx.is_empty() || c.closed)
    }

    /// Guest receives up to `max_len` bytes.
    pub fn recv(&mut self, conn: u32, max_len: usize, tick: u64) -> RecvOutcome {
        let Some(c) = self.conns.get_mut(conn as usize) else {
            return RecvOutcome::Closed;
        };
        if c.rx.is_empty() {
            return if c.closed { RecvOutcome::Closed } else { RecvOutcome::WouldBlock };
        }
        let n = max_len.min(c.rx.len());
        let bytes: Vec<u8> = c.rx.drain(..n).collect();
        let flow = c.flow;
        if matches!(self.mode, Mode::Live) {
            self.recorded.events.push(NetEvent::Rx {
                flow,
                data: bytes.clone(),
                at_tick: tick,
            });
        }
        RecvOutcome::Data { flow, bytes }
    }

    /// Closes a connection from the guest side.
    pub fn close(&mut self, conn: u32, tick: u64) {
        if let Some(c) = self.conns.get_mut(conn as usize) {
            if !c.closed {
                c.closed = true;
                if matches!(self.mode, Mode::Live) {
                    self.recorded.events.push(NetEvent::Close { flow: c.flow, at_tick: tick });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes everything back, prefixed with `>`.
    struct Echo;
    impl RemoteEndpoint for Echo {
        fn on_connect(&mut self) -> Vec<Vec<u8>> {
            vec![b"hello".to_vec()]
        }
        fn on_data(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
            let mut out = vec![b'>'];
            out.extend_from_slice(data);
            vec![out]
        }
    }

    /// Sends a payload only after tick 100 (spontaneous push).
    struct DelayedPush {
        sent: bool,
    }
    impl RemoteEndpoint for DelayedPush {
        fn on_data(&mut self, _d: &[u8]) -> Vec<Vec<u8>> {
            Vec::new()
        }
        fn poll(&mut self, tick: u64) -> Vec<Vec<u8>> {
            if !self.sent && tick >= 100 {
                self.sent = true;
                vec![b"late".to_vec()]
            } else {
                Vec::new()
            }
        }
    }

    const ATTACKER: [u8; 4] = [169, 254, 26, 161];
    const GUEST: [u8; 4] = [169, 254, 57, 168];

    #[test]
    fn connect_send_recv_live() {
        let mut fab = NetworkFabric::new_live(GUEST);
        fab.add_endpoint(ATTACKER, 4444, Box::new(Echo));
        let conn = fab.connect(ATTACKER, 4444, 1).unwrap();
        let flow = fab.flow(conn).unwrap();
        assert_eq!(flow.src_port, 4444);
        assert_eq!(flow.dst_port, FIRST_EPHEMERAL_PORT);
        match fab.recv(conn, 64, 2) {
            RecvOutcome::Data { bytes, .. } => assert_eq!(bytes, b"hello"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(fab.send(conn, b"ping"));
        match fab.recv(conn, 64, 3) {
            RecvOutcome::Data { bytes, .. } => assert_eq!(bytes, b">ping"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn connect_to_unknown_endpoint_refused() {
        let mut fab = NetworkFabric::new_live(GUEST);
        assert!(fab.connect([9, 9, 9, 9], 80, 0).is_none());
        // Refusal is still recorded (replay must refuse identically).
        assert!(matches!(
            fab.recorded().events[0],
            NetEvent::Connect { ok: false, .. }
        ));
    }

    #[test]
    fn recv_on_empty_blocks_then_closed_after_close() {
        let mut fab = NetworkFabric::new_live(GUEST);
        fab.add_endpoint(ATTACKER, 4444, Box::new(DelayedPush { sent: false }));
        let conn = fab.connect(ATTACKER, 4444, 0).unwrap();
        assert_eq!(fab.recv(conn, 16, 1), RecvOutcome::WouldBlock);
        fab.pump(50);
        assert_eq!(fab.recv(conn, 16, 51), RecvOutcome::WouldBlock);
        fab.pump(150);
        assert!(matches!(fab.recv(conn, 16, 151), RecvOutcome::Data { .. }));
        fab.close(conn, 152);
        assert_eq!(fab.recv(conn, 16, 153), RecvOutcome::Closed);
    }

    #[test]
    fn replay_reproduces_live_deliveries() {
        // Record a session.
        let mut live = NetworkFabric::new_live(GUEST);
        live.add_endpoint(ATTACKER, 4444, Box::new(Echo));
        let conn = live.connect(ATTACKER, 4444, 10).unwrap();
        let RecvOutcome::Data { bytes: b1, .. } = live.recv(conn, 64, 11) else {
            panic!()
        };
        live.send(conn, b"x");
        let RecvOutcome::Data { bytes: b2, .. } = live.recv(conn, 64, 12) else {
            panic!()
        };
        let log = live.into_recorded();

        // Replay without any endpoint attached.
        let mut rep = NetworkFabric::new_replay(GUEST, log);
        let conn2 = rep.connect(ATTACKER, 4444, 10).unwrap();
        rep.pump(11);
        let RecvOutcome::Data { bytes: r1, .. } = rep.recv(conn2, 64, 11) else {
            panic!()
        };
        rep.send(conn2, b"x"); // absorbed
        rep.pump(12);
        let RecvOutcome::Data { bytes: r2, .. } = rep.recv(conn2, 64, 12) else {
            panic!()
        };
        assert_eq!((b1, b2), (r1, r2));
        assert!(rep.divergence().is_none());
    }

    #[test]
    fn replay_gates_deliveries_on_tick() {
        let mut live = NetworkFabric::new_live(GUEST);
        live.add_endpoint(ATTACKER, 4444, Box::new(DelayedPush { sent: false }));
        let conn = live.connect(ATTACKER, 4444, 0).unwrap();
        live.pump(150);
        let RecvOutcome::Data { .. } = live.recv(conn, 64, 150) else { panic!() };
        let log = live.into_recorded();

        let mut rep = NetworkFabric::new_replay(GUEST, log);
        let conn2 = rep.connect(ATTACKER, 4444, 0).unwrap();
        rep.pump(10);
        assert_eq!(
            rep.recv(conn2, 64, 10),
            RecvOutcome::WouldBlock,
            "delivery must not arrive before its recorded tick"
        );
        rep.pump(150);
        assert!(matches!(rep.recv(conn2, 64, 150), RecvOutcome::Data { .. }));
    }

    #[test]
    fn replay_divergence_detected() {
        let mut live = NetworkFabric::new_live(GUEST);
        live.add_endpoint(ATTACKER, 4444, Box::new(Echo));
        live.connect(ATTACKER, 4444, 0).unwrap();
        let log = live.into_recorded();

        let mut rep = NetworkFabric::new_replay(GUEST, log);
        // Replayed guest connects somewhere else entirely.
        assert!(rep.connect([8, 8, 8, 8], 53, 0).is_none());
        assert!(rep.divergence().is_some());
    }

    #[test]
    fn local_ports_assigned_sequentially() {
        let mut fab = NetworkFabric::new_live(GUEST);
        fab.add_endpoint(ATTACKER, 4444, Box::new(Echo));
        let c1 = fab.connect(ATTACKER, 4444, 0).unwrap();
        let c2 = fab.connect(ATTACKER, 4444, 0).unwrap();
        assert_eq!(fab.flow(c1).unwrap().dst_port, FIRST_EPHEMERAL_PORT);
        assert_eq!(fab.flow(c2).unwrap().dst_port, FIRST_EPHEMERAL_PORT + 1);
    }

    #[test]
    fn partial_recv_respects_max_len() {
        let mut fab = NetworkFabric::new_live(GUEST);
        fab.add_endpoint(ATTACKER, 4444, Box::new(Echo));
        let conn = fab.connect(ATTACKER, 4444, 0).unwrap();
        let RecvOutcome::Data { bytes, .. } = fab.recv(conn, 2, 1) else { panic!() };
        assert_eq!(bytes, b"he");
        let RecvOutcome::Data { bytes, .. } = fab.recv(conn, 64, 2) else { panic!() };
        assert_eq!(bytes, b"llo");
    }
}
