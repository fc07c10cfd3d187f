//! Deterministic network fault injection for the TCP cluster.
//!
//! The same idea as the cluster's failure injector, applied to the wire: which
//! fault fires on which remote call is a **pure function of
//! `(seed, worker, call-index)`**, where the call index counts request frames
//! attempted on that worker since the transport connected (handshakes and
//! provision batches included, cumulatively across reconnects).  Two runs with
//! the same plan perturb the exact same calls, which is what lets the chaos
//! suite assert bit-identical reports under fire.
//!
//! The plan can be applied in two places:
//!
//! * **In-process** — [`ChaosDialer`] wraps any [`Dialer`] and returns
//!   [`ChaosStream`]s that corrupt the coordinator side of each connection.
//! * **On the wire** — [`ChaosProxy`] is a standalone TCP proxy in front of a
//!   real worker process, applying the same plan to the frames that pass
//!   through it.  Subprocess tests point the transport at the proxy instead
//!   of the worker.
//!
//! Both manifest every fault as something the coordinator's ordinary failure
//! detector already understands (a socket error, an EOF, or a read timeout),
//! so chaos exercises the *production* revive/rejoin/deadline paths rather
//! than special test hooks.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::conn::{Conn, Dialer};
use crate::frame::MAX_FRAME_LEN;

/// One injected network fault, applied to a single request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The connection drops before any byte of the frame is written.  The
    /// caller sees `ConnectionReset`; the peer sees a clean EOF between
    /// frames.
    Reset,
    /// The frame is cut off mid-prefix and the connection drops.  The peer
    /// sees a partial frame ending in EOF (`read_frame` reports
    /// `UnexpectedEof`); the caller sees `ConnectionReset`.
    Truncate,
    /// Every payload byte of the frame is XOR-flipped with `0x5A` while the
    /// length prefix stays intact.  The peer receives a well-framed but
    /// undecodable message and closes the connection, so the caller's reply
    /// read ends in EOF.
    Corrupt,
    /// The frame is swallowed: the write "succeeds" but the peer never sees
    /// it and no reply ever comes, so the caller blocks until its read
    /// timeout — the heartbeat or the call deadline, whichever is tighter —
    /// fires.
    Stall,
}

/// Mask XOR-ed over payload bytes by [`Fault::Corrupt`].  It flips every
/// message tag (all < `0x0D`) to an unknown one, so a corrupted frame can
/// never decode into a different valid message.
const CORRUPT_MASK: u8 = 0x5A;

/// All fault kinds, in the order seeded plans draw from.
pub const FAULT_KINDS: [Fault; 4] = [Fault::Reset, Fault::Truncate, Fault::Corrupt, Fault::Stall];

/// The same splitmix64 finaliser the cluster's failure injector uses, so
/// nearby `(worker, call)` pairs land in unrelated draws.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic schedule of network faults.
///
/// Scripted entries fire exactly once at their `(worker, call)` position;
/// independently, a seeded component fires on each call with a fixed
/// probability.  [`FaultPlan::fault_for`] is pure, so the plan can be shared
/// (and replayed) freely.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    scripted: Vec<(usize, u64, Fault)>,
    seeded: Option<(u64, f64)>,
    kinds: Vec<Fault>,
}

impl FaultPlan {
    /// A plan firing exactly the listed `(worker, call-index, fault)` entries.
    pub fn scripted(faults: impl IntoIterator<Item = (usize, u64, Fault)>) -> Self {
        Self {
            scripted: faults.into_iter().collect(),
            seeded: None,
            kinds: Vec::new(),
        }
    }

    /// A plan firing on each call with probability `per_call`, drawing the
    /// fault kind uniformly from [`FAULT_KINDS`].  Both the firing decision
    /// and the kind are pure functions of `(seed, worker, call)`.
    pub fn seeded(seed: u64, per_call: f64) -> Self {
        Self::seeded_among(seed, per_call, FAULT_KINDS)
    }

    /// Like [`FaultPlan::seeded`] but drawing only from `kinds` — e.g. the
    /// fast kinds, excluding [`Fault::Stall`] whose cost is a whole heartbeat.
    pub fn seeded_among(seed: u64, per_call: f64, kinds: impl Into<Vec<Fault>>) -> Self {
        Self {
            scripted: Vec::new(),
            seeded: Some((seed, per_call)),
            kinds: kinds.into(),
        }
    }

    /// The fault scheduled for call number `call` on `worker`, if any.
    /// Scripted entries take precedence over the seeded draw.
    pub fn fault_for(&self, worker: usize, call: u64) -> Option<Fault> {
        if let Some(&(_, _, fault)) = self
            .scripted
            .iter()
            .find(|&&(w, c, _)| w == worker && c == call)
        {
            return Some(fault);
        }
        let (seed, per_call) = self.seeded?;
        if self.kinds.is_empty() {
            return None;
        }
        let h = splitmix(splitmix(seed ^ ((worker as u64) << 32)) ^ call);
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw < per_call {
            Some(self.kinds[(splitmix(h) % self.kinds.len() as u64) as usize])
        } else {
            None
        }
    }
}

/// What the in-flight request frame is doing, from the stream's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallState {
    /// Between request frames.
    Idle,
    /// Mid-frame, with the fault (if any) chosen for this call.
    Writing(Option<Fault>),
}

/// A [`Conn`] wrapper that injects the plan's faults into outgoing frames.
///
/// Call boundaries are inferred from the framing discipline: the first
/// `write` after an idle period starts a call (and draws its fault), and
/// `flush` ends it — exactly the `write/write/flush` sequence
/// [`write_frame`](crate::frame::write_frame) produces.  A fault that kills
/// the connection poisons the stream: every later operation fails with
/// `ConnectionReset` until the transport redials.
#[derive(Debug)]
pub struct ChaosStream {
    /// `None` once a fault has torn the connection down.
    inner: Option<Box<dyn Conn>>,
    plan: Arc<FaultPlan>,
    worker: usize,
    /// Cumulative request-frame counter for this worker, shared across
    /// reconnects so call indices keep counting where the last connection
    /// left off.
    calls: Arc<AtomicU64>,
    state: CallState,
}

impl ChaosStream {
    /// Wraps `inner`, applying `plan` for `worker`.  `calls` is the worker's
    /// cumulative call counter (share one across redials of the same worker).
    pub fn new(
        inner: Box<dyn Conn>,
        plan: Arc<FaultPlan>,
        worker: usize,
        calls: Arc<AtomicU64>,
    ) -> Self {
        Self {
            inner: Some(inner),
            plan,
            worker,
            calls,
            state: CallState::Idle,
        }
    }

    fn poisoned() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection reset")
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.inner.as_mut() {
            Some(inner) => inner.read(buf),
            None => Err(Self::poisoned()),
        }
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(inner) = self.inner.as_mut() else {
            return Err(Self::poisoned());
        };
        if self.state == CallState::Idle {
            // First write of a new call: draw its fault and handle the kinds
            // that act on the opening bytes (the frame's length prefix).
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            let fault = self.plan.fault_for(self.worker, call);
            self.state = CallState::Writing(fault);
            return match fault {
                Some(Fault::Reset) => {
                    self.inner = None;
                    Err(Self::poisoned())
                }
                Some(Fault::Truncate) => {
                    // Forward half the first write (part of the length
                    // prefix), then tear the connection down so the peer sees
                    // a partial frame ending in EOF.
                    let _ = inner.write(&buf[..buf.len() / 2]);
                    let _ = inner.flush();
                    self.inner = None;
                    Err(Self::poisoned())
                }
                Some(Fault::Stall) => Ok(buf.len()),
                // Corrupt leaves the length prefix intact so the peer reads a
                // well-framed (but undecodable) payload.
                Some(Fault::Corrupt) | None => inner.write(buf),
            };
        }
        match self.state {
            CallState::Writing(None) => inner.write(buf),
            // Later writes of the call are payload, which gets flipped.
            CallState::Writing(Some(Fault::Corrupt)) => {
                let flipped: Vec<u8> = buf.iter().map(|b| b ^ CORRUPT_MASK).collect();
                inner.write_all(&flipped)?;
                Ok(buf.len())
            }
            CallState::Writing(Some(Fault::Stall)) => Ok(buf.len()),
            // Reset/Truncate poisoned the stream on the first write, and Idle
            // was handled above; nothing else reaches here.
            _ => Err(Self::poisoned()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        let Some(inner) = self.inner.as_mut() else {
            return Err(Self::poisoned());
        };
        let stalled = matches!(self.state, CallState::Writing(Some(Fault::Stall)));
        self.state = CallState::Idle;
        if stalled {
            Ok(())
        } else {
            inner.flush()
        }
    }
}

impl Conn for ChaosStream {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(inner) => inner.set_read_timeout(dur),
            None => Ok(()),
        }
    }

    fn set_write_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(inner) => inner.set_write_timeout(dur),
            None => Ok(()),
        }
    }
}

/// A [`Dialer`] that wraps every connection from an inner dialer in a
/// [`ChaosStream`], keeping one cumulative call counter per worker so the
/// plan's call indices survive redials.
#[derive(Debug)]
pub struct ChaosDialer {
    inner: Arc<dyn Dialer>,
    plan: Arc<FaultPlan>,
    counters: Mutex<HashMap<usize, Arc<AtomicU64>>>,
}

impl ChaosDialer {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Arc<dyn Dialer>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan: Arc::new(plan),
            counters: Mutex::new(HashMap::new()),
        }
    }

    /// Request frames attempted on `worker` so far (observability for tests).
    pub fn calls(&self, worker: usize) -> u64 {
        self.counters
            .lock()
            .get(&worker)
            .map_or(0, |c| c.load(Ordering::SeqCst))
    }
}

impl Dialer for ChaosDialer {
    fn dial(
        &self,
        worker: usize,
        addr: SocketAddr,
        timeout: Duration,
    ) -> io::Result<Box<dyn Conn>> {
        let inner = self.inner.dial(worker, addr, timeout)?;
        let calls = self.counters.lock().entry(worker).or_default().clone();
        Ok(Box::new(ChaosStream::new(
            inner,
            self.plan.clone(),
            worker,
            calls,
        )))
    }
}

/// A standalone chaos proxy: listens on a local port, forwards framed traffic
/// to a real worker, and applies a [`FaultPlan`] to the coordinator→worker
/// frames that pass through.  Subprocess tests point
/// [`TcpTransport`](crate::TcpTransport) at [`ChaosProxy::addr`] instead of
/// the worker, so the faults happen on real sockets between real processes.
///
/// The call counter is shared across all connections the proxy accepts, so a
/// coordinator that redials after a fault keeps consuming call indices where
/// it left off — same semantics as [`ChaosDialer`].
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ChaosProxy {
    /// Starts a proxy in front of the worker at `target`, applying `plan`
    /// keyed as worker index `worker`.
    pub fn spawn(target: SocketAddr, worker: usize, plan: FaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let plan = Arc::new(plan);
        let calls = Arc::new(AtomicU64::new(0));
        let flag = shutdown.clone();
        std::thread::spawn(move || {
            for client in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(client) = client else { return };
                let Ok(server) = TcpStream::connect(target) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(mut reply_src), Ok(mut reply_dst)) =
                    (server.try_clone(), client.try_clone())
                else {
                    continue;
                };
                // Worker→coordinator replies pass through untouched.
                std::thread::spawn(move || {
                    let _ = io::copy(&mut reply_src, &mut reply_dst);
                    let _ = reply_dst.shutdown(Shutdown::Both);
                });
                let plan = plan.clone();
                let calls = calls.clone();
                std::thread::spawn(move || {
                    let _ = pump_request_frames(client, server, worker, &plan, &calls);
                });
            }
        });
        Ok(Self { addr, shutdown })
    }

    /// The address the coordinator should dial instead of the worker's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop so the thread can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Forwards coordinator→worker frames one at a time, applying the plan's
/// fault for each call index.  Returns when either side hangs up or a fault
/// tears the pipe down.
fn pump_request_frames(
    client: TcpStream,
    server: TcpStream,
    worker: usize,
    plan: &FaultPlan,
    calls: &AtomicU64,
) -> io::Result<()> {
    let mut client = client;
    let mut server = server;
    loop {
        let mut len_bytes = [0u8; 4];
        if client.read_exact(&mut len_bytes).is_err() {
            let _ = server.shutdown(Shutdown::Both);
            return Ok(());
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME_LEN {
            // Protocol breakdown: no way to re-synchronise on frame
            // boundaries, so drop both sides.
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return Ok(());
        }
        let mut payload = vec![0u8; len as usize];
        if client.read_exact(&mut payload).is_err() {
            let _ = server.shutdown(Shutdown::Both);
            return Ok(());
        }
        let call = calls.fetch_add(1, Ordering::SeqCst);
        match plan.fault_for(worker, call) {
            None => {
                server.write_all(&len_bytes)?;
                server.write_all(&payload)?;
            }
            Some(Fault::Reset) => {
                let _ = client.shutdown(Shutdown::Both);
                let _ = server.shutdown(Shutdown::Both);
                return Ok(());
            }
            Some(Fault::Truncate) => {
                server.write_all(&len_bytes)?;
                let _ = server.write_all(&payload[..payload.len() / 2]);
                let _ = client.shutdown(Shutdown::Both);
                let _ = server.shutdown(Shutdown::Both);
                return Ok(());
            }
            Some(Fault::Corrupt) => {
                for b in &mut payload {
                    *b ^= CORRUPT_MASK;
                }
                server.write_all(&len_bytes)?;
                server.write_all(&payload)?;
            }
            Some(Fault::Stall) => {
                // Swallow the frame; the coordinator's read timeout is the
                // only thing that ends this call.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plans_fire_exactly_where_scripted() {
        let plan = FaultPlan::scripted([(0, 2, Fault::Reset), (1, 0, Fault::Stall)]);
        assert_eq!(plan.fault_for(0, 2), Some(Fault::Reset));
        assert_eq!(plan.fault_for(1, 0), Some(Fault::Stall));
        assert_eq!(plan.fault_for(0, 0), None);
        assert_eq!(plan.fault_for(0, 3), None);
        assert_eq!(plan.fault_for(2, 2), None);
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_seed_worker_and_call() {
        let a = FaultPlan::seeded(42, 0.25);
        let b = FaultPlan::seeded(42, 0.25);
        let c = FaultPlan::seeded(43, 0.25);
        let mut fired = 0usize;
        let mut differs = false;
        for worker in 0..4 {
            for call in 0..256 {
                assert_eq!(a.fault_for(worker, call), b.fault_for(worker, call));
                if a.fault_for(worker, call).is_some() {
                    fired += 1;
                }
                if a.fault_for(worker, call) != c.fault_for(worker, call) {
                    differs = true;
                }
            }
        }
        // 1024 draws at p = 0.25: expect ~256 firings; allow a wide band.
        assert!((100..500).contains(&fired), "fired {fired} of 1024");
        assert!(differs, "a different seed must give a different schedule");
    }

    #[test]
    fn seeded_among_draws_only_the_listed_kinds() {
        let plan = FaultPlan::seeded_among(7, 0.5, vec![Fault::Reset, Fault::Corrupt]);
        for worker in 0..4 {
            for call in 0..256 {
                if let Some(fault) = plan.fault_for(worker, call) {
                    assert!(matches!(fault, Fault::Reset | Fault::Corrupt));
                }
            }
        }
    }

    #[test]
    fn the_none_plan_never_fires() {
        let plan = FaultPlan::default();
        for worker in 0..4 {
            for call in 0..64 {
                assert_eq!(plan.fault_for(worker, call), None);
            }
        }
    }

    #[test]
    fn corrupt_mask_maps_every_tag_to_an_unknown_one() {
        for tag in 0x01u8..=0x0C {
            assert!(tag ^ CORRUPT_MASK > 0x0C, "tag {tag:#04x} must not alias");
        }
    }
}
