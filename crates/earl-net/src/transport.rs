//! The TCP task transport: the coordinator side of the wire.
//!
//! [`TcpTransport`] implements [`TaskTransport`] over a pool of worker
//! connections.  It plays three roles:
//!
//! * **Dispatcher** — a remote map task's record offsets are split into
//!   contiguous chunks, one per live worker; per-shard results concatenated in
//!   chunk order reproduce the exact emission order of a single in-process
//!   pass, so results stay bit-identical.  Reduce partitions go to one worker,
//!   round-robin.
//! * **Failure detector** — a socket error, heartbeat (read) timeout or call
//!   deadline on a worker connection is that worker's death.  The transport
//!   first attempts a bounded **transparent revive** (redial the same worker,
//!   re-handshake, re-provision, resend — invisible to the simulation); only
//!   when that fails does it report the mapped simulated node to the cluster
//!   via [`Cluster::report_external_failure`] (so the fault-tolerance layer's
//!   arbitration, retry booking and [`FaultLog`](earl_cluster::FaultLog)
//!   observability apply unchanged) and re-dispatch the lost chunk to a
//!   survivor, bounded by the job's `max_attempts`.
//! * **Rejoin supervisor** — a worker declared dead is redialled (and, with a
//!   [`TcpTransport::set_respawn`] hook, respawned) with capped exponential
//!   backoff at every remote-call boundary.  A successful rejoin re-handshakes,
//!   re-provisions every dataset the worker missed, and returns its node to
//!   service via [`Cluster::report_recovery`] — a transient blip no longer
//!   permanently shrinks the cluster.  Because remote calls are issued
//!   serially by the runner, rejoin decisions land at deterministic positions
//!   in the call sequence, independent of `EARL_THREADS`.
//!
//! If every worker is lost — or a worker answers with a protocol error — the
//! transport returns `Err`, which the runner receives *before any simulated
//! charge*; the job then falls back to the in-process engine with nothing
//! perturbed (all inputs are driver-held).

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use earl_cluster::{Cluster, NodeId};
use earl_dfs::{Dfs, DfsPath};
use earl_mapreduce::{
    MrError, RemoteMapOutcome, RemoteMapRequest, RemoteReduceOutcome, RemoteReduceRequest,
    RemoteSectionsOutcome, RemoteSectionsRequest, SectionSummary, TaskTransport,
};
use parking_lot::Mutex;

use crate::conn::{Conn, Dialer, TcpDialer};
use crate::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use crate::messages::{Message, WIRE_VERSION};

/// Cap on the backoff between dial attempts inside [`TcpTransport::connect`].
const CONNECT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Hook invoked when a dead worker's redial fails: given the worker index and
/// its last known address, start a replacement process and return the address
/// to dial instead.
pub type RespawnFn = dyn Fn(usize, SocketAddr) -> io::Result<SocketAddr> + Send + Sync;

/// Tuning knobs for [`TcpTransport`]: liveness, deadlines and recovery.
#[derive(Debug, Clone)]
pub struct TcpTransportConfig {
    /// Read *and* write timeout on every worker connection: a worker that
    /// stays silent for a heartbeat interval is dead.  Also bounds each dial.
    pub heartbeat: Duration,
    /// Optional per-attempt deadline budget, tighter than the heartbeat: each
    /// execution attempt of a request (including any transparent revive it
    /// needs) must produce a reply within this budget or the worker is
    /// declared dead and the request re-dispatched — each re-dispatch is a
    /// retry the runner books through `FailurePolicy` into the `FaultLog`.
    /// `None` means the heartbeat is the only liveness bound.
    pub call_deadline: Option<Duration>,
    /// Dial attempts per worker during [`TcpTransport::connect`], so a worker
    /// that is still binding its listener (the `LISTENING` startup race) does
    /// not fail the whole cluster with one `ECONNREFUSED`.
    pub connect_attempts: u32,
    /// Backoff before the second connect dial attempt; doubles per attempt,
    /// capped at one second.
    pub connect_backoff: Duration,
    /// Transparent same-worker revives allowed per failing request before the
    /// worker is declared dead.  A revive redials, re-handshakes,
    /// re-provisions and resends without the simulation ever noticing — `0`
    /// disables revival, making every socket error an immediate death.
    pub redials_per_call: u32,
    /// Base backoff before a dead worker's first rejoin attempt; doubles per
    /// failed attempt up to [`TcpTransportConfig::rejoin_backoff_cap`].
    /// `Duration::ZERO` retries the rejoin at every remote-call boundary,
    /// which keeps rejoin timing deterministic with respect to the call
    /// sequence (the chaos suite relies on this).
    pub rejoin_backoff: Duration,
    /// Upper bound on the exponential rejoin backoff.
    pub rejoin_backoff_cap: Duration,
    /// Target encoded-payload size of one `Provision` frame, in bytes.
    /// Batching is by *bytes*, not record count: a batch is flushed before a
    /// record would push the frame past this budget, so frames stay bounded
    /// regardless of line length.  A single record too large for
    /// [`MAX_FRAME_LEN`] — budget or not — is a hard provisioning error.
    pub provision_budget: usize,
}

impl TcpTransportConfig {
    /// The default knobs with the given heartbeat: one transparent revive per
    /// call, connect-time dial retries, 50 ms rejoin backoff capped at 5 s,
    /// no call deadline, and 8 MiB provision frames.
    pub fn with_heartbeat(heartbeat: Duration) -> Self {
        Self {
            heartbeat,
            call_deadline: None,
            connect_attempts: 10,
            connect_backoff: Duration::from_millis(20),
            redials_per_call: 1,
            rejoin_backoff: Duration::from_millis(50),
            rejoin_backoff_cap: Duration::from_secs(5),
            provision_budget: 8 * 1024 * 1024,
        }
    }
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        Self::with_heartbeat(Duration::from_secs(10))
    }
}

/// What the coordinator retained about one provisioned path, so a rejoining
/// worker can be brought back up to date.
#[derive(Debug, Clone)]
enum ProvisionPayload {
    /// Raw `(offset, line)` records — `Provision` frames append worker-side,
    /// so replaying every retained batch reconstructs the dataset.
    Records(Vec<(u64, String)>),
    /// An O(√n) section summary — `ProvisionSections` replaces worker-side,
    /// so only the *latest* version is retained (and replayed on rejoin:
    /// this is what makes summary-only rejoin re-provisioning O(√n)).
    Sections {
        version: u64,
        summary: SectionSummary,
    },
}

/// One provisioned path as retained for replay: `(path, payload)`.
type ProvisionedDataset = (String, ProvisionPayload);

#[derive(Debug)]
struct WorkerConn {
    addr: SocketAddr,
    node: NodeId,
    /// `None` while the worker is disconnected (reviving or dead).
    conn: Option<Box<dyn Conn>>,
    /// The current outage has been reported to the cluster as a node failure
    /// (cleared again when the worker rejoins).
    dead_reported: bool,
    /// Failed rejoin attempts since death — drives the exponential backoff.
    rejoin_attempts: u32,
    /// Earliest instant of the next rejoin attempt.
    next_rejoin: Instant,
}

/// A [`TaskTransport`] speaking the framed wire protocol to real worker
/// processes over TCP.
pub struct TcpTransport {
    cluster: Cluster,
    dialer: Arc<dyn Dialer>,
    config: TcpTransportConfig,
    workers: Mutex<Vec<WorkerConn>>,
    /// Every dataset shipped via [`TcpTransport::provision`], kept so a
    /// rejoining worker (whose per-connection store starts empty) can be
    /// re-provisioned with everything it missed.
    provisioned: Mutex<Vec<ProvisionedDataset>>,
    respawn: Mutex<Option<Box<RespawnFn>>>,
    /// Round-robin cursor for reduce partitions.
    next_reducer: AtomicUsize,
    /// Map tasks + reduce partitions served remotely (observability: proves a
    /// job actually exercised the wire rather than falling back in-process).
    remote_calls: AtomicUsize,
    /// Section-replicate batches served remotely (the wire-v2 path).
    section_calls: AtomicUsize,
    /// Transparent same-call revives (reconnects invisible to the simulation).
    revives: AtomicUsize,
    /// Reported-dead workers returned to service at a call boundary.
    rejoins: AtomicUsize,
    /// Encoded payload bytes replayed to workers during revives — the cost of
    /// bringing a reconnected worker back up to date.  Summary-only datasets
    /// keep this O(√n); tests gate the rejoin bound on this counter.
    reprovision_bytes: AtomicU64,
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("remote_calls", &self.remote_calls)
            .field("revives", &self.revives)
            .field("rejoins", &self.rejoins)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Connects to workers at `addrs` with the default knobs and the given
    /// heartbeat, performing the version handshake with each.
    ///
    /// Each worker is pinned onto a simulated node of `cluster` — worker `i`
    /// onto `nodes()[i % num_nodes]`, over the *full* stable node list — so a
    /// real worker's death can be reported as that node's failure.  Pinning
    /// against the full list (not the currently-available subset) keeps the
    /// worker→node mapping independent of which nodes happen to be up at
    /// connect time: two workers never collide on one node (for `workers ≤
    /// nodes`) and deaths/recoveries are always reported against the same
    /// node across the transport's lifetime.
    pub fn connect(
        cluster: Cluster,
        addrs: &[SocketAddr],
        heartbeat: Duration,
    ) -> io::Result<Self> {
        Self::connect_with(
            cluster,
            addrs,
            TcpTransportConfig::with_heartbeat(heartbeat),
        )
    }

    /// [`TcpTransport::connect`] with explicit [`TcpTransportConfig`] knobs.
    pub fn connect_with(
        cluster: Cluster,
        addrs: &[SocketAddr],
        config: TcpTransportConfig,
    ) -> io::Result<Self> {
        Self::connect_via(cluster, addrs, config, Arc::new(TcpDialer))
    }

    /// [`TcpTransport::connect_with`] through a custom [`Dialer`] — the hook
    /// the chaos layer uses to wrap every worker connection in a fault
    /// injector.
    pub fn connect_via(
        cluster: Cluster,
        addrs: &[SocketAddr],
        config: TcpTransportConfig,
        dialer: Arc<dyn Dialer>,
    ) -> io::Result<Self> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "at least one worker address is required",
            ));
        }
        if cluster.available_nodes().is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster has no available nodes to map workers onto",
            ));
        }
        // Pin each worker to a node of the *stable* full node list.  Indexing
        // the available subset instead would remap — and collide — workers
        // whenever a node happens to be down at connect time, mis-attributing
        // every later death and recovery report.
        let nodes = cluster.nodes();
        let transport = Self {
            cluster,
            dialer,
            config,
            workers: Mutex::new(Vec::with_capacity(addrs.len())),
            provisioned: Mutex::new(Vec::new()),
            respawn: Mutex::new(None),
            next_reducer: AtomicUsize::new(0),
            remote_calls: AtomicUsize::new(0),
            section_calls: AtomicUsize::new(0),
            revives: AtomicUsize::new(0),
            rejoins: AtomicUsize::new(0),
            reprovision_bytes: AtomicU64::new(0),
        };
        {
            let mut workers = transport.workers.lock();
            for (i, &addr) in addrs.iter().enumerate() {
                let mut conn = transport.dial_retrying(i, addr)?;
                conn.set_read_timeout(Some(transport.config.heartbeat))?;
                conn.set_write_timeout(Some(transport.config.heartbeat))?;
                handshake(&mut conn)?;
                workers.push(WorkerConn {
                    addr,
                    node: nodes[i % nodes.len()].id(),
                    conn: Some(conn),
                    dead_reported: false,
                    rejoin_attempts: 0,
                    next_rejoin: Instant::now(),
                });
            }
        }
        Ok(transport)
    }

    /// Installs the respawn hook the rejoin supervisor calls when a dead
    /// worker's redial fails: start a replacement process, return its address.
    pub fn set_respawn(
        &self,
        hook: impl Fn(usize, SocketAddr) -> io::Result<SocketAddr> + Send + Sync + 'static,
    ) {
        *self.respawn.lock() = Some(Box::new(hook));
    }

    /// Ships a DFS dataset to every connected worker, in batches.  This is the
    /// set-up-time analogue of DFS block placement — it is *not* charged to
    /// the simulation, and job-time messages only ever reference the data by
    /// offset.  The dataset is also retained coordinator-side so rejoining
    /// workers can be re-provisioned.
    ///
    /// A worker that drops mid-provision gets one transparent revive (which
    /// replays every retained dataset); if that fails too it is declared dead
    /// and provisioning continues with the rest of the pool.  Only when *no*
    /// worker holds the dataset does this return `Err`.
    pub fn provision(&self, dfs: &Dfs, path: impl Into<DfsPath>) -> io::Result<()> {
        let path = path.into();
        let records = dfs
            .export_records(path.clone())
            .map_err(|e| io::Error::new(io::ErrorKind::NotFound, e.to_string()))?;
        let path = path.as_str().to_owned();
        // Pre-flight: a single record too large for one frame can never be
        // shipped, by any batching.  Fail before the dataset is retained or
        // any connection is touched — otherwise every future revive would
        // replay the poisoned dataset and take the worker down with it.
        let frame_overhead = 1 + 4 + path.len() + 4;
        for (offset, line) in &records {
            let cost = 8 + 4 + line.len();
            if frame_overhead + cost > MAX_FRAME_LEN as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "record at offset {offset} of {path:?} is {cost} bytes on the wire, \
                         which exceeds the {MAX_FRAME_LEN}-byte frame limit"
                    ),
                ));
            }
        }
        let payload = ProvisionPayload::Records(records);
        self.provisioned
            .lock()
            .push((path.clone(), payload.clone()));
        let mut workers = self.workers.lock();
        self.ship_to_all(&mut workers, &path, &payload)
    }

    /// Ships one payload to every live worker.  A worker that drops mid-ship
    /// gets one transparent revive (which replays every retained dataset,
    /// including this one); if that fails too it is declared dead and shipping
    /// continues with the rest of the pool.  Errs only when *no* worker holds
    /// the payload.
    fn ship_to_all(
        &self,
        workers: &mut [WorkerConn],
        path: &str,
        payload: &ProvisionPayload,
    ) -> io::Result<()> {
        let mut delivered = 0usize;
        let mut last_err: Option<io::Error> = None;
        for wi in 0..workers.len() {
            if workers[wi].conn.is_none() {
                continue;
            }
            match self.provision_conn(&mut workers[wi], path, payload) {
                Ok(_bytes) => delivered += 1,
                Err(e) => {
                    workers[wi].conn = None;
                    // One transparent revive; it replays every retained
                    // dataset, including the one that just failed mid-ship.
                    if self.config.redials_per_call > 0 && self.revive(wi, workers, None).is_ok() {
                        delivered += 1;
                    } else {
                        self.declare_dead(&mut workers[wi]);
                        last_err = Some(e);
                    }
                }
            }
        }
        if delivered == 0 {
            return Err(last_err.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::NotConnected, "no live workers to provision")
            }));
        }
        Ok(())
    }

    /// Heartbeats every live worker.  A worker that fails the ping is declared
    /// dead and its node failure is reported to the cluster through
    /// [`Cluster::report_external_failure`], exactly like a job-time death —
    /// a silent death found by ping lands in the `FaultLog` like any other.
    /// Returns the number of workers still alive.  (A pure liveness probe:
    /// pings never trigger revival; dead workers rejoin at the next
    /// remote-call boundary.)
    pub fn ping_all(&self) -> usize {
        let mut workers = self.workers.lock();
        for worker in workers.iter_mut() {
            if worker.conn.is_none() {
                continue;
            }
            match self.call_on(worker, &Message::Ping, None) {
                Ok(Message::Pong) => {}
                _ => self.declare_dead(worker),
            }
        }
        workers.iter().filter(|w| w.conn.is_some()).count()
    }

    /// Number of map tasks and reduce partitions served over the wire so far.
    pub fn remote_calls(&self) -> usize {
        self.remote_calls.load(Ordering::Relaxed)
    }

    /// Number of section-replicate batches served over the wire so far (the
    /// summary-only path of wire protocol v2).
    pub fn section_calls(&self) -> usize {
        self.section_calls.load(Ordering::Relaxed)
    }

    /// Encoded payload bytes replayed to workers during revives/rejoins —
    /// what it cost to bring reconnected workers back up to date.  For
    /// summary-only datasets this grows by O(√n) per rejoin, not O(n).
    pub fn reprovision_bytes(&self) -> u64 {
        self.reprovision_bytes.load(Ordering::Relaxed)
    }

    /// Transparent revives performed: reconnects that resent the in-flight
    /// request on the same worker without the simulation observing anything.
    pub fn revives(&self) -> usize {
        self.revives.load(Ordering::Relaxed)
    }

    /// Workers returned to service after having been reported dead (each one
    /// also repaired its simulated node via [`Cluster::report_recovery`]).
    pub fn rejoins(&self) -> usize {
        self.rejoins.load(Ordering::Relaxed)
    }

    /// Number of workers currently connected.
    pub fn live_workers(&self) -> usize {
        self.workers
            .lock()
            .iter()
            .filter(|w| w.conn.is_some())
            .count()
    }

    /// The simulated node each worker is mapped onto, dead or alive.
    pub fn worker_nodes(&self) -> Vec<NodeId> {
        self.workers.lock().iter().map(|w| w.node).collect()
    }

    /// Sends `Shutdown` to every live worker and drops the connections.
    pub fn shutdown(&self) {
        let mut workers = self.workers.lock();
        for worker in workers.iter_mut() {
            if let Some(conn) = worker.conn.as_mut() {
                if let Ok(bytes) = Message::Shutdown.encode() {
                    let _ = write_frame(conn, &bytes);
                }
            }
            worker.conn = None;
        }
    }

    /// Dials `addr` up to `connect_attempts` times with doubling backoff, so
    /// the connect-time race with a worker still binding its listener does not
    /// fail the whole cluster.
    fn dial_retrying(&self, worker: usize, addr: SocketAddr) -> io::Result<Box<dyn Conn>> {
        let attempts = self.config.connect_attempts.max(1);
        let mut backoff = self.config.connect_backoff;
        let mut last_err = None;
        for attempt in 0..attempts {
            match self.dialer.dial(worker, addr, self.config.heartbeat) {
                Ok(conn) => return Ok(conn),
                Err(e) => last_err = Some(e),
            }
            if attempt + 1 < attempts && !backoff.is_zero() {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "worker dial failed")))
    }

    /// The timeout for the next blocking operation: the heartbeat, shrunk to
    /// the remaining deadline budget.  Errors with `TimedOut` once the budget
    /// is exhausted.
    fn op_timeout(&self, deadline: Option<Instant>) -> io::Result<Duration> {
        let mut timeout = self.config.heartbeat;
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "call deadline exhausted",
                ));
            }
            timeout = timeout.min(remaining);
        }
        Ok(timeout)
    }

    /// One request/response round-trip on a worker's connection, bounded by
    /// the heartbeat and the call deadline.  Any failure drops the connection
    /// (the stream can no longer be trusted to carry frame boundaries).
    fn call_on(
        &self,
        worker: &mut WorkerConn,
        request: &Message,
        deadline: Option<Instant>,
    ) -> io::Result<Message> {
        let outcome = (|| {
            let timeout = self.op_timeout(deadline)?;
            let conn = worker.conn.as_mut().ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotConnected, "worker not connected")
            })?;
            conn.set_read_timeout(Some(timeout))?;
            conn.set_write_timeout(Some(timeout))?;
            call(conn, request)
        })();
        if outcome.is_err() {
            worker.conn = None;
        }
        outcome
    }

    /// Reconnects worker `wi`: dial (respawning through the hook if the dial
    /// fails), re-handshake, re-provision every retained dataset.  On success
    /// the worker is connected again; if it had been reported dead its node
    /// returns to service via [`Cluster::report_recovery`].
    fn revive(
        &self,
        wi: usize,
        workers: &mut [WorkerConn],
        deadline: Option<Instant>,
    ) -> io::Result<()> {
        let worker = &mut workers[wi];
        let mut conn = match self
            .dialer
            .dial(wi, worker.addr, self.op_timeout(deadline)?)
        {
            Ok(conn) => conn,
            Err(e) => {
                let respawn = self.respawn.lock();
                let Some(respawn) = respawn.as_ref() else {
                    return Err(e);
                };
                let new_addr = respawn(wi, worker.addr)?;
                let conn = self.dialer.dial(wi, new_addr, self.op_timeout(deadline)?)?;
                worker.addr = new_addr;
                conn
            }
        };
        let timeout = self.op_timeout(deadline)?;
        conn.set_read_timeout(Some(timeout))?;
        conn.set_write_timeout(Some(timeout))?;
        handshake(&mut conn)?;
        worker.conn = Some(conn);
        // A fresh connection starts with an empty worker-side store: replay
        // every retained payload so job-time offsets and section paths keep
        // resolving.  The replayed bytes are the observable re-provisioning
        // cost — O(√n) per summary, O(n) only when raw records were shipped.
        let provisioned = self.provisioned.lock();
        for (path, payload) in provisioned.iter() {
            match self.provision_conn(worker, path, payload) {
                Ok(bytes) => {
                    self.reprovision_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                Err(e) => {
                    worker.conn = None;
                    return Err(e);
                }
            }
        }
        drop(provisioned);
        if worker.dead_reported {
            let _ = self.cluster.report_recovery(worker.node);
            worker.dead_reported = false;
            self.rejoins.fetch_add(1, Ordering::Relaxed);
        } else {
            self.revives.fetch_add(1, Ordering::Relaxed);
        }
        worker.rejoin_attempts = 0;
        Ok(())
    }

    /// Ships one payload over one worker connection, returning the encoded
    /// payload bytes sent.  Record datasets go out in byte-budgeted batches;
    /// section summaries are one frame (their whole point is being O(√n)).
    fn provision_conn(
        &self,
        worker: &mut WorkerConn,
        path: &str,
        payload: &ProvisionPayload,
    ) -> io::Result<u64> {
        let conn = worker
            .conn
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "worker not connected"))?;
        conn.set_read_timeout(Some(self.config.heartbeat))?;
        conn.set_write_timeout(Some(self.config.heartbeat))?;
        let mut bytes_sent = 0u64;
        match payload {
            ProvisionPayload::Records(records) => {
                // Encoded cost of an empty Provision frame for this path
                // (tag + path + record count)…
                let frame_overhead = 1 + 4 + path.len() + 4;
                // …and of one record within it (offset + line length + line).
                let record_cost = |line: &str| 8 + 4 + line.len();
                // Clamped into [one record, MAX_FRAME_LEN] so a misconfigured
                // budget can neither stall (never flushing a record) nor
                // produce an illegal oversized frame.
                let budget = self
                    .config
                    .provision_budget
                    .max(frame_overhead + 1)
                    .min(MAX_FRAME_LEN as usize);
                let mut batch: Vec<(u64, String)> = Vec::new();
                let mut batch_bytes = frame_overhead;
                let mut sent_any = false;
                let flush = |batch: &mut Vec<(u64, String)>,
                             batch_bytes: &mut usize,
                             conn: &mut Box<dyn Conn>|
                 -> io::Result<u64> {
                    let msg = Message::Provision {
                        path: path.to_owned(),
                        records: std::mem::take(batch),
                    };
                    *batch_bytes = frame_overhead;
                    provision_exchange(conn, &msg)
                };
                for (offset, line) in records {
                    let cost = record_cost(line);
                    if frame_overhead + cost > MAX_FRAME_LEN as usize {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!(
                                "record at offset {offset} of {path:?} is {} bytes on the wire, \
                                 which exceeds the {MAX_FRAME_LEN}-byte frame limit",
                                cost
                            ),
                        ));
                    }
                    if !batch.is_empty() && batch_bytes + cost > budget {
                        bytes_sent += flush(&mut batch, &mut batch_bytes, conn)?;
                        sent_any = true;
                    }
                    batch.push((*offset, line.clone()));
                    batch_bytes += cost;
                }
                // Final batch — also sent when the dataset is empty, so the
                // path still registers and MapTask lookups succeed.
                if !batch.is_empty() || !sent_any {
                    bytes_sent += flush(&mut batch, &mut batch_bytes, conn)?;
                }
            }
            ProvisionPayload::Sections { version, summary } => {
                let msg = Message::ProvisionSections {
                    path: path.to_owned(),
                    version: *version,
                    summary: summary.clone(),
                };
                bytes_sent += provision_exchange(conn, &msg)?;
            }
        }
        Ok(bytes_sent)
    }

    /// Declares a worker dead: drops its connection, reports its simulated
    /// node's failure (once per outage) so the existing arbitration/fault-log
    /// machinery observes the death, and schedules the first rejoin attempt.
    fn declare_dead(&self, worker: &mut WorkerConn) {
        worker.conn = None;
        if !worker.dead_reported {
            worker.dead_reported = true;
            // Reporting can fail only if the node was already down — fine.
            let _ = self.cluster.report_external_failure(worker.node);
        }
        worker.rejoin_attempts = 0;
        worker.next_rejoin = Instant::now() + self.config.rejoin_backoff;
    }

    /// The deadline budget for a rejoin attempt: the call deadline when one
    /// is configured (a misbehaving worker must not hold a call boundary
    /// hostage for a whole heartbeat), otherwise unbounded-but-for-heartbeat.
    fn rejoin_deadline(&self) -> Option<Instant> {
        self.config.call_deadline.map(|d| Instant::now() + d)
    }

    /// The rejoin supervisor, run at every remote-call boundary: attempts to
    /// revive each disconnected worker whose backoff window has elapsed.  A
    /// failed attempt doubles the worker's backoff, capped by the config.
    fn try_rejoins(&self, workers: &mut [WorkerConn]) {
        for wi in 0..workers.len() {
            if workers[wi].conn.is_some() || Instant::now() < workers[wi].next_rejoin {
                continue;
            }
            if self.revive(wi, workers, self.rejoin_deadline()).is_err() {
                let worker = &mut workers[wi];
                worker.rejoin_attempts = worker.rejoin_attempts.saturating_add(1);
                let backoff = exp_backoff(
                    self.config.rejoin_backoff,
                    worker.rejoin_attempts,
                    self.config.rejoin_backoff_cap,
                );
                worker.next_rejoin = Instant::now() + backoff;
            }
        }
    }

    /// Last-resort rejoin when no live worker remains: tries every
    /// disconnected worker immediately, ignoring backoff.  Returns whether any
    /// came back.
    fn force_rejoin_any(&self, workers: &mut [WorkerConn]) -> bool {
        for wi in 0..workers.len() {
            if workers[wi].conn.is_none()
                && self.revive(wi, workers, self.rejoin_deadline()).is_ok()
            {
                return true;
            }
        }
        false
    }

    /// Dispatches one request to a live worker, retrying on worker death until
    /// `max_attempts` executions or no workers remain.  Each execution attempt
    /// gets a fresh deadline budget and up to `redials_per_call` transparent
    /// revives of the same worker; only exhausted attempts count as retries.
    /// Returns the successful reply and the number of re-dispatches performed.
    fn dispatch(
        &self,
        workers: &mut [WorkerConn],
        preferred: usize,
        request: &Message,
        max_attempts: u32,
    ) -> Result<(Message, u64), MrError> {
        let mut retries = 0u64;
        let mut attempts = 0u32;
        loop {
            let n = workers.len();
            let Some(wi) = (0..n)
                .map(|d| (preferred + d) % n)
                .find(|&i| workers[i].conn.is_some())
            else {
                if !self.force_rejoin_any(workers) {
                    return Err(MrError::Transport("all workers are dead".into()));
                }
                continue;
            };
            attempts += 1;
            let deadline = self.config.call_deadline.map(|d| Instant::now() + d);
            let mut redials = 0u32;
            let reply = loop {
                match self.call_on(&mut workers[wi], request, deadline) {
                    Ok(reply) => break Some(reply),
                    Err(_) => {
                        let expired = deadline.is_some_and(|d| Instant::now() >= d);
                        if redials < self.config.redials_per_call
                            && !expired
                            && self.revive(wi, workers, deadline).is_ok()
                        {
                            redials += 1;
                            continue;
                        }
                        break None;
                    }
                }
            };
            match reply {
                Some(Message::Error { message }) => {
                    // A semantic refusal, not a death: fail the request so the
                    // runner falls back to the in-process engine.
                    return Err(MrError::Transport(message));
                }
                Some(reply) => return Ok((reply, retries)),
                None => {
                    self.declare_dead(&mut workers[wi]);
                    if attempts >= max_attempts.max(1) {
                        return Err(MrError::Transport(format!(
                            "request abandoned after {attempts} attempts",
                        )));
                    }
                    retries += 1;
                }
            }
        }
    }

    /// Makes `(path, version)` of the request the summary every worker holds:
    /// a no-op when the retained entry already carries that version (rejoin
    /// replay keeps recovering workers current), otherwise the retained entry
    /// is replaced and shipped to every live worker.  One summary, shipped
    /// once per version — the B-growth loop reuses it for free.
    fn ensure_sections(
        &self,
        workers: &mut [WorkerConn],
        request: &RemoteSectionsRequest<'_>,
    ) -> io::Result<()> {
        let payload = {
            let mut provisioned = self.provisioned.lock();
            let existing = provisioned.iter_mut().find(|(p, payload)| {
                p == request.path && matches!(payload, ProvisionPayload::Sections { .. })
            });
            match existing {
                Some((_, ProvisionPayload::Sections { version, .. }))
                    if *version == request.version =>
                {
                    return Ok(());
                }
                Some((_, payload)) => {
                    *payload = ProvisionPayload::Sections {
                        version: request.version,
                        summary: request.summary.clone(),
                    };
                    payload.clone()
                }
                None => {
                    let payload = ProvisionPayload::Sections {
                        version: request.version,
                        summary: request.summary.clone(),
                    };
                    provisioned.push((request.path.to_owned(), payload.clone()));
                    payload
                }
            }
            // The provisioned lock is released here, before any shipping:
            // a mid-ship revive replays the retained list and must re-lock it.
        };
        self.ship_to_all(workers, request.path, &payload)
    }
}

impl TaskTransport for TcpTransport {
    fn is_local(&self) -> bool {
        false
    }

    fn remote_map(
        &self,
        request: &RemoteMapRequest<'_>,
    ) -> earl_mapreduce::Result<RemoteMapOutcome> {
        self.remote_calls.fetch_add(1, Ordering::Relaxed);
        let mut workers = self.workers.lock();
        // Remote-call boundary: dead workers whose backoff elapsed rejoin
        // before the phase plans its chunks, so a recovered worker is picked
        // back up at a deterministic position in the call sequence.
        self.try_rejoins(&mut workers);
        let live = workers.iter().filter(|w| w.conn.is_some()).count();
        if live == 0 {
            return Err(MrError::Transport("no live workers".into()));
        }
        let num_shards = request.num_shards.max(1);
        let mut shards = vec![Vec::new(); num_shards];
        let mut records = 0u64;
        let mut retries = 0u64;
        // Contiguous chunks, one per live worker; concatenating per-shard
        // results in chunk order reproduces single-pass emission order.
        let chunk_len = request.offsets.len().div_ceil(live.max(1)).max(1);
        for (ci, chunk) in request.offsets.chunks(chunk_len).enumerate() {
            let msg = Message::MapTask {
                name: request.spec.name.clone(),
                params: request.spec.params.clone(),
                path: request.source_path.to_owned(),
                offsets: chunk.to_vec(),
                num_shards: num_shards as u32,
            };
            let (reply, r) = self.dispatch(&mut workers, ci, &msg, request.max_attempts)?;
            retries += r;
            let Message::MapOk {
                shards: chunk_shards,
                records: chunk_records,
            } = reply
            else {
                return Err(MrError::Transport(format!(
                    "unexpected map reply: {reply:?}"
                )));
            };
            if chunk_shards.len() != num_shards {
                return Err(MrError::Transport(format!(
                    "worker returned {} shards, expected {num_shards}",
                    chunk_shards.len()
                )));
            }
            records += chunk_records;
            for (shard, pairs) in shards.iter_mut().zip(chunk_shards) {
                shard.extend(pairs);
            }
        }
        Ok(RemoteMapOutcome {
            shards,
            records,
            retries,
        })
    }

    fn remote_reduce(
        &self,
        request: &RemoteReduceRequest<'_>,
    ) -> earl_mapreduce::Result<RemoteReduceOutcome> {
        self.remote_calls.fetch_add(1, Ordering::Relaxed);
        let mut workers = self.workers.lock();
        self.try_rejoins(&mut workers);
        let msg = Message::ReduceTask {
            name: request.spec.name.clone(),
            params: request.spec.params.clone(),
            groups: request.groups.to_vec(),
        };
        let preferred = self.next_reducer.fetch_add(1, Ordering::Relaxed);
        let (reply, retries) =
            self.dispatch(&mut workers, preferred, &msg, request.max_attempts)?;
        let Message::ReduceOk { outputs } = reply else {
            return Err(MrError::Transport(format!(
                "unexpected reduce reply: {reply:?}"
            )));
        };
        Ok(RemoteReduceOutcome { outputs, retries })
    }

    fn serves_records(&self, path: &str) -> bool {
        self.provisioned
            .lock()
            .iter()
            .any(|(p, payload)| p == path && matches!(payload, ProvisionPayload::Records(_)))
    }

    fn remote_sections(
        &self,
        request: &RemoteSectionsRequest<'_>,
    ) -> earl_mapreduce::Result<RemoteSectionsOutcome> {
        self.section_calls.fetch_add(1, Ordering::Relaxed);
        let mut workers = self.workers.lock();
        // Remote-call boundary, exactly like map/reduce: recovered workers
        // rejoin at a deterministic position in the call sequence.
        self.try_rejoins(&mut workers);
        let live = workers.iter().filter(|w| w.conn.is_some()).count();
        if live == 0 {
            return Err(MrError::Transport("no live workers".into()));
        }
        self.ensure_sections(&mut workers, request)
            .map_err(|e| MrError::Transport(e.to_string()))?;
        let live = workers.iter().filter(|w| w.conn.is_some()).count().max(1);
        // Contiguous replicate chunks, one per live worker; concatenating in
        // chunk order reproduces `b` order.  Each replicate is a pure function
        // of `(summary, seed, b, size)`, so the split cannot perturb bits.
        let chunk_len = request.b_count.div_ceil(live as u64).max(1);
        let end = request.b_start.saturating_add(request.b_count);
        let mut replicates = Vec::with_capacity(request.b_count as usize);
        let mut retries = 0u64;
        let mut start = request.b_start;
        let mut ci = 0usize;
        while start < end {
            let count = chunk_len.min(end - start);
            let msg = Message::SectionTask {
                name: request.spec.name.clone(),
                params: request.spec.params.clone(),
                path: request.path.to_owned(),
                seed: request.seed,
                b_start: start,
                b_count: count,
                size: request.size,
            };
            let (reply, r) = self.dispatch(&mut workers, ci, &msg, request.max_attempts)?;
            retries += r;
            let Message::SectionOk { replicates: chunk } = reply else {
                return Err(MrError::Transport(format!(
                    "unexpected section reply: {reply:?}"
                )));
            };
            if chunk.len() as u64 != count {
                return Err(MrError::Transport(format!(
                    "worker returned {} replicates, expected {count}",
                    chunk.len()
                )));
            }
            replicates.extend(chunk);
            start += count;
            ci += 1;
        }
        Ok(RemoteSectionsOutcome {
            replicates,
            retries,
        })
    }
}

/// The exponential backoff after `attempts` consecutive failures.
fn exp_backoff(base: Duration, attempts: u32, cap: Duration) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    base.saturating_mul(1u32 << attempts.min(16)).min(cap)
}

/// One request/response round-trip on a connection.
fn call(conn: &mut Box<dyn Conn>, request: &Message) -> io::Result<Message> {
    let bytes = request
        .encode()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    write_frame(conn, &bytes)?;
    let payload = read_frame(conn)?;
    Message::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// One provisioning round-trip: sends the frame, expects `ProvisionAck`, and
/// returns the encoded payload size (the unit of the re-provisioning cost
/// accounting).
fn provision_exchange(conn: &mut Box<dyn Conn>, msg: &Message) -> io::Result<u64> {
    let bytes = msg
        .encode()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let sent = bytes.len() as u64;
    write_frame(conn, &bytes)?;
    let payload = read_frame(conn)?;
    match Message::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))? {
        Message::ProvisionAck { .. } => Ok(sent),
        Message::Error { message } => Err(io::Error::new(io::ErrorKind::InvalidData, message)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected provision reply: {other:?}"),
        )),
    }
}

/// The version handshake on a fresh connection.
fn handshake(conn: &mut Box<dyn Conn>) -> io::Result<()> {
    match call(
        conn,
        &Message::Hello {
            version: WIRE_VERSION,
        },
    )? {
        Message::HelloAck { version } if version == WIRE_VERSION => Ok(()),
        Message::Error { message } => {
            Err(io::Error::new(io::ErrorKind::ConnectionRefused, message))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected handshake reply: {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(5);
        assert_eq!(exp_backoff(base, 0, cap), Duration::from_millis(50));
        assert_eq!(exp_backoff(base, 1, cap), Duration::from_millis(100));
        assert_eq!(exp_backoff(base, 3, cap), Duration::from_millis(400));
        assert_eq!(exp_backoff(base, 10, cap), cap);
        assert_eq!(exp_backoff(base, 60, cap), cap, "shift is clamped");
        assert_eq!(exp_backoff(Duration::ZERO, 7, cap), Duration::ZERO);
    }

    #[test]
    fn default_config_enables_revival_and_connect_retries() {
        let config = TcpTransportConfig::default();
        assert!(config.redials_per_call > 0);
        assert!(config.connect_attempts > 1);
        assert!(config.call_deadline.is_none());
        assert!(config.rejoin_backoff <= config.rejoin_backoff_cap);
    }
}
