//! The event-driven networked serving plane: sessions over real sockets.
//!
//! [`NetServer`] puts the in-memory [`SessionServer`] behind a TCP front
//! door. One IO thread owns a non-blocking listener and every client
//! connection, multiplexed with the readiness-poll loop from
//! [`zooid_runtime::poll`] — no thread per connection, no parked accepts.
//! Clients speak the framed wire protocol of [`zooid_runtime::wire`]: each
//! frame is a `u32` length prefix (capped — hostile lengths are structured
//! errors, not allocations) followed by a [`MuxFrame`], and many sessions
//! share one connection through client-chosen session ids echoed on every
//! response.
//!
//! The data path is event-driven end to end: a readable socket is pumped
//! into its connection's [`FrameReader`]; each complete `Open` frame is an
//! admission decision and — when admitted — a [`SessionSpec`] submitted to
//! the shard scheduler, which enqueues the session for a quantum on its
//! worker shard. Finished sessions come back through the server's
//! non-blocking outcome poll and leave as `Done` frames on the owning
//! connection's buffered writer. Sockets, admissions and completions all
//! interleave on the one loop thread.
//!
//! # Backpressure and admission control
//!
//! * **Bounded accept queue** — at most [`ACCEPTS_PER_SWEEP`] connections
//!   are admitted per loop iteration, and a connection beyond
//!   [`NetServerConfig::max_connections`] is refused with a structured
//!   [`RejectCode::ConnectionLimit`] frame before its socket is closed.
//!   The refusal itself is non-blocking: the socket lingers in the loop as
//!   a write-only entry just long enough to flush the frame (bounded by
//!   [`MAX_PENDING_REJECTS`] and [`REJECT_LINGER`]), so a connect flood at
//!   the limit cannot stall live connections.
//! * **Per-connection in-flight cap** — a connection may have at most
//!   [`NetServerConfig::max_inflight_per_conn`] sessions open; further
//!   `Open`s are shed with [`RejectCode::SessionLimit`].
//! * **Bounded write buffers** — a client that triggers response frames
//!   faster than it reads them is disconnected once its userspace write
//!   backlog passes [`NetServerConfig::max_conn_outbuf_bytes`]; a
//!   non-reading hostile client cannot grow server memory without bound.
//! * **Global load shed** — past
//!   [`NetServerConfig::max_inflight_total`] in-flight sessions the server
//!   sheds every `Open` with [`RejectCode::Overloaded`] instead of letting
//!   the shard queues grow without bound.
//! * **Hostile framing** — an oversized length prefix or an undecodable
//!   frame draws one [`RejectCode::BadFrame`] rejection and closes the
//!   connection; the server itself stays healthy (see the counters in
//!   [`NetReport`]).
//! * **Idle reaper** — a connection that never delivers a decodable frame
//!   within [`NetServerConfig::idle_timeout`] is closed with a
//!   [`CloseReason::Idle`] flight event; silent peers cannot hold slots.
//! * **Quarantine teardown** — with
//!   [`NetServerConfig::close_on_quarantine`] set, a session the shards
//!   quarantined also costs its opener the connection: `Done`, then a
//!   [`RejectCode::Quarantined`] rejection, then the close.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zooid_dsl::CertifiedProcess;
use zooid_proc::Externals;
use zooid_runtime::exec::ExecOptions;
use zooid_runtime::poll::{Poller, Readiness};
use zooid_runtime::wire::{
    decode_mux, encode_mux, put_frame, FillStatus, FrameReader, MuxFrame, RejectCode,
};
use zooid_runtime::RuntimeError;

use crate::metrics::{NetMetrics, NetReport, NetServerReport};
use crate::obs::{
    CloseReason, FlightEvent, FlightRecorder, Histogram, Incident, StatsSnapshot, FLIGHT_CAPACITY,
};
use crate::registry::{ProtocolId, ProtocolRegistry};
use crate::server::{ServerConfig, SessionServer};
use crate::session::{SessionId, SessionSpec};
use crate::{Result, ServerError};

/// Maximum connections admitted in one event-loop sweep: the bounded
/// accept queue. Pending peers stay in the kernel backlog until the next
/// iteration, so a connect storm cannot starve in-flight sessions.
const ACCEPTS_PER_SWEEP: usize = 64;

/// Poll timeout per loop iteration: bounds how stale the loop's view of
/// pending accepts and finished sessions can get while every socket idles.
const SWEEP_TIMEOUT: Duration = Duration::from_millis(1);

/// How long a connection refused at accept time may linger (non-blocking,
/// write-only) so the peer can read its `ConnectionLimit` rejection before
/// the close.
const REJECT_LINGER: Duration = Duration::from_millis(250);

/// Cap on simultaneously lingering refused connections: a connect flood at
/// the connection limit beyond this is dropped without the courtesy frame
/// instead of tying up loop state.
const MAX_PENDING_REJECTS: usize = 128;

/// How many inbound bytes a closing connection discards per sweep. Reading
/// (and throwing away) the peer's in-flight bytes keeps the final close
/// from turning into a RST that could destroy the queued rejection frame.
const DISCARD_PER_SWEEP: usize = 64 * 1024;

/// One entry of the service catalog: what to run when a client opens a
/// session of a protocol.
///
/// The serving plane is a *submission* plane: the server hosts every
/// endpoint of the session on its shards (the endpoints are certified at
/// registration time), and the wire carries session control — open,
/// accept/reject, done — not individual payload messages.
#[derive(Debug, Clone)]
pub struct Service {
    /// The registered protocol this service runs.
    pub protocol: ProtocolId,
    /// One certified endpoint per participant.
    pub endpoints: Arc<[(CertifiedProcess, Externals)]>,
    /// Execution options for every session of this service.
    pub options: ExecOptions,
}

impl Service {
    /// Builds the deterministic skeleton service (first-branch sends,
    /// default payloads) for a registered protocol.
    ///
    /// # Errors
    ///
    /// Fails if the protocol id is unknown or its projections need payload
    /// sorts with no default value.
    pub fn skeleton(registry: &ProtocolRegistry, protocol: ProtocolId) -> Result<Service> {
        let artifacts = registry.get(protocol).ok_or(ServerError::UnknownProtocol)?;
        let endpoints = crate::synth::skeleton_endpoints(artifacts.protocol())?;
        Ok(Service {
            protocol,
            endpoints: endpoints.into(),
            options: ExecOptions::default(),
        })
    }

    /// Limits every session of this service to `max_steps` communications
    /// per endpoint (required for looping protocols).
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.options = ExecOptions::with_max_steps(max_steps);
        self
    }
}

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Address to bind (use port 0 for an ephemeral test port).
    pub addr: SocketAddr,
    /// Shard scheduler configuration for the hosted [`SessionServer`].
    pub server: ServerConfig,
    /// Connections beyond this are refused with `ConnectionLimit`.
    pub max_connections: usize,
    /// Per-connection cap on sessions opened but not yet done; beyond it
    /// `Open`s are shed with `SessionLimit`.
    pub max_inflight_per_conn: usize,
    /// Global cap on in-flight sessions; beyond it `Open`s are shed with
    /// `Overloaded`.
    pub max_inflight_total: usize,
    /// Per-frame payload cap on every connection (default 16 MiB).
    pub max_frame_bytes: usize,
    /// High-water mark on a connection's buffered-but-unflushed outbound
    /// bytes: a client that triggers response frames faster than it reads
    /// them is disconnected when its backlog passes this (default 256 KiB).
    pub max_conn_outbuf_bytes: usize,
    /// A connection that has never delivered a decodable frame is reaped
    /// after this long (default 30 s): a peer that connects and goes
    /// silent cannot hold a slot forever. The deadline is disarmed by the
    /// first decoded frame.
    pub idle_timeout: Duration,
    /// When set, a session quarantined by the shards also tears down the
    /// TCP connection that opened it: the client sees its `Done` frame,
    /// then a [`RejectCode::Quarantined`] rejection, then the close
    /// (default `false` — quarantine stays a scheduler-side containment).
    pub close_on_quarantine: bool,
    /// Reject-then-ban: once a connection has accumulated this many
    /// quarantined sessions (byzantine *strikes*), its further `Open`s are
    /// shed with [`RejectCode::Banned`] — the connection stays up (its
    /// compliant sessions finish and its `Done`/`Stats` traffic still
    /// flows), but it can open nothing new. `0` disables banning
    /// (the default).
    pub ban_after_quarantines: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            server: ServerConfig::default(),
            max_connections: 1024,
            max_inflight_per_conn: 256,
            max_inflight_total: 16 * 1024,
            max_frame_bytes: zooid_runtime::wire::DEFAULT_MAX_FRAME_BYTES,
            max_conn_outbuf_bytes: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            close_on_quarantine: false,
            ban_after_quarantines: 0,
        }
    }
}

/// One client connection in the event loop.
#[derive(Debug)]
struct NetConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Userspace write buffer: the loop never blocks on a slow reader.
    out: Vec<u8>,
    /// How much of `out` has already reached the socket.
    written: usize,
    /// Sessions opened on this connection and not yet done.
    inflight: usize,
    /// Set when the connection must close once `out` has drained (bad
    /// frame, peer EOF, write backlog over the high-water mark).
    closing: bool,
    /// High-water mark on `out.len() - written`; past it the connection is
    /// aborted instead of buffering without bound.
    outbuf_limit: usize,
    /// True for a connection refused at accept time (over
    /// `max_connections`): it exists only to deliver the rejection frame
    /// and never counts against the connection limit.
    limit_reject: bool,
    /// Why the connection earned its close, for the flight recorder (first
    /// cause wins).
    close_reason: Option<CloseReason>,
    /// The peer closed its write side while this connection was closing.
    peer_eof: bool,
    /// Write half shut down after the last queued byte was flushed.
    fin_sent: bool,
    /// Hard deadline for a refused connection to drain and close.
    linger_until: Option<Instant>,
    /// Reap deadline for a connection that has yet to deliver a decodable
    /// frame; disarmed by the first decoded frame.
    idle_until: Option<Instant>,
    /// Quarantined sessions this connection has opened (byzantine
    /// strikes), for [`NetServerConfig::ban_after_quarantines`].
    strikes: usize,
}

impl NetConn {
    fn new(stream: TcpStream, max_frame_bytes: usize, outbuf_limit: usize) -> Self {
        NetConn {
            stream,
            reader: FrameReader::new(max_frame_bytes),
            out: Vec::new(),
            written: 0,
            inflight: 0,
            closing: false,
            outbuf_limit,
            limit_reject: false,
            close_reason: None,
            peer_eof: false,
            fin_sent: false,
            linger_until: None,
            idle_until: None,
            strikes: 0,
        }
    }

    fn queue(&mut self, frame: &MuxFrame, max_frame_bytes: usize) {
        if self.closing {
            // The connection already earned its close; buffering more for a
            // peer that may never read it would undo the backlog bound.
            return;
        }
        let payload = encode_mux(frame);
        let mut buf = bytes::BytesMut::new();
        // Control frames are tiny; the cap cannot trip for a compliant
        // server, but keep the single enforcement point anyway.
        if put_frame(&mut buf, &payload, max_frame_bytes).is_ok() {
            self.out.extend_from_slice(&buf);
        }
        if self.out.len() - self.written > self.outbuf_limit {
            // The peer triggers frames faster than it reads them: abort the
            // connection rather than grow the buffer without bound.
            self.out.truncate(self.written);
            self.close(CloseReason::WriteStalled);
        }
    }

    /// Marks the connection for closing, keeping the first recorded cause.
    fn close(&mut self, reason: CloseReason) {
        self.closing = true;
        self.close_reason.get_or_insert(reason);
    }

    fn pending_out(&self) -> bool {
        self.written < self.out.len()
    }

    /// Reads and discards inbound bytes on a closing connection (bounded
    /// per sweep), so the eventual close does not turn into a RST that
    /// destroys the queued rejection before the peer reads it.
    fn discard_input(&mut self) {
        let mut scratch = [0u8; 4096];
        let mut total = 0usize;
        while total < DISCARD_PER_SWEEP {
            match std::io::Read::read(&mut self.stream, &mut scratch) {
                Ok(0) => {
                    self.peer_eof = true;
                    return;
                }
                Ok(n) => total += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.peer_eof = true;
                    return;
                }
            }
        }
    }

    /// Pushes buffered bytes into the socket without blocking. Returns
    /// `false` when the connection died.
    fn flush(&mut self) -> bool {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        } else if self.written > 64 * 1024 {
            // Compact so an always-partially-flushed connection cannot grow
            // its buffer without bound.
            self.out.drain(..self.written);
            self.written = 0;
        }
        true
    }
}

/// The networked serving plane: a [`SessionServer`] fronted by one
/// event-driven IO thread speaking the multiplexed wire protocol.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
    io_pass: Arc<Histogram>,
    recorder: Arc<FlightRecorder>,
    handle: Option<JoinHandle<NetServerReport>>,
}

impl NetServer {
    /// Compiles the service catalog, binds the listener and spawns the IO
    /// event loop (which in turn starts the shard scheduler).
    ///
    /// # Errors
    ///
    /// Fails if a service references an unregistered protocol or the bind
    /// fails.
    pub fn start(
        registry: ProtocolRegistry,
        services: impl IntoIterator<Item = Service>,
        config: NetServerConfig,
    ) -> Result<NetServer> {
        // Key the catalog by registered protocol name: the wire carries
        // names, the scheduler wants ids.
        let mut catalog: BTreeMap<String, Service> = BTreeMap::new();
        for service in services {
            let artifacts = registry
                .get(service.protocol)
                .ok_or(ServerError::UnknownProtocol)?;
            catalog.insert(artifacts.name().to_owned(), service);
        }
        let listener = TcpListener::bind(config.addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let local_addr = listener.local_addr().map_err(io_err)?;

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(NetMetrics::default());
        let io_pass = Arc::new(Histogram::new());
        let recorder = Arc::new(FlightRecorder::new(FLIGHT_CAPACITY));
        let loop_stop = Arc::clone(&stop);
        let loop_metrics = Arc::clone(&metrics);
        let loop_io_pass = Arc::clone(&io_pass);
        let loop_recorder = Arc::clone(&recorder);
        let server = SessionServer::start(registry, config.server.clone());
        let handle = std::thread::Builder::new()
            .name("zooid-net-io".into())
            .spawn(move || {
                io_loop(
                    listener,
                    server,
                    catalog,
                    config,
                    loop_stop,
                    loop_metrics,
                    loop_io_pass,
                    loop_recorder,
                )
            })
            .expect("spawning the IO thread");

        Ok(NetServer {
            local_addr,
            stop,
            metrics,
            io_pass,
            recorder,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when configured with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshots the IO loop's counters (with the live pass-duration
    /// histogram).
    pub fn net_report(&self) -> NetReport {
        let mut report = self.metrics.snapshot();
        report.io_pass_ns = self.io_pass.snapshot();
        report
    }

    /// The IO loop's retained flight-recorder events (rejections,
    /// connection closes), oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.recorder.snapshot()
    }

    /// Stops the IO loop and the shard scheduler, returning both reports.
    /// In-flight sessions are closed as stalled by the scheduler's own
    /// shutdown; unread client bytes are discarded.
    pub fn shutdown(mut self) -> NetServerReport {
        self.stop.store(true, Ordering::Release);
        let handle = self.handle.take().expect("shutdown runs once");
        handle.join().unwrap_or_else(|_| NetServerReport {
            net: self.metrics.snapshot(),
            shards: crate::ServerReport::default(),
        })
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn io_err(e: std::io::Error) -> ServerError {
    ServerError::Net {
        reason: e.to_string(),
    }
}

/// The IO event loop: accepts, reads, admits, drains outcomes, flushes.
#[allow(clippy::too_many_arguments)]
fn io_loop(
    listener: TcpListener,
    mut server: SessionServer,
    catalog: BTreeMap<String, Service>,
    config: NetServerConfig,
    stop: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
    io_pass: Arc<Histogram>,
    recorder: Arc<FlightRecorder>,
) -> NetServerReport {
    let mut conns: Vec<Option<NetConn>> = Vec::new();
    // Per-slot generation, bumped on every removal: slots are reused, so a
    // route must name (slot, generation) to prove the connection it was
    // created for is still the one living there.
    let mut gens: Vec<u64> = Vec::new();
    // Server-side session id → (connection slot, slot generation,
    // client-chosen id).
    let mut routes: BTreeMap<SessionId, (usize, u64, u64)> = BTreeMap::new();
    let mut open_sessions = 0usize;
    let mut poller = Poller::new();
    let mut events = Vec::new();
    // Eager first sweep; after that, spin only while work keeps arriving.
    let mut prev_busy = true;

    while !stop.load(Ordering::Acquire) {
        let pass_started = Instant::now();
        let mut busy = false;

        // 1. Admit new connections (bounded per sweep).
        for _ in 0..ACCEPTS_PER_SWEEP {
            match listener.accept() {
                Ok((stream, _)) => {
                    busy = true;
                    let active = conns.iter().flatten().filter(|c| !c.limit_reject).count();
                    if active >= config.max_connections {
                        metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
                        metrics.record_reject(RejectCode::ConnectionLimit);
                        recorder.record(FlightEvent::Rejected {
                            session: 0,
                            code: RejectCode::ConnectionLimit,
                        });
                        let pending =
                            conns.iter().flatten().filter(|c| c.limit_reject).count();
                        if pending >= MAX_PENDING_REJECTS
                            || stream.set_nonblocking(true).is_err()
                        {
                            // Flooded: drop without the courtesy frame.
                            continue;
                        }
                        // Refuse non-blockingly: a short-lived write-only
                        // entry in the loop delivers the rejection; the old
                        // blocking write-and-drain here could stall every
                        // live connection through a connect flood.
                        let mut conn = NetConn::new(
                            stream,
                            config.max_frame_bytes,
                            config.max_conn_outbuf_bytes,
                        );
                        conn.queue(
                            &MuxFrame::Rejected {
                                session: 0,
                                code: RejectCode::ConnectionLimit,
                                reason: "connection limit reached".into(),
                            },
                            config.max_frame_bytes,
                        );
                        conn.close(CloseReason::LingerExpired);
                        conn.limit_reject = true;
                        conn.linger_until = Some(Instant::now() + REJECT_LINGER);
                        install(&mut conns, &mut gens, conn);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
                    let mut conn =
                        NetConn::new(stream, config.max_frame_bytes, config.max_conn_outbuf_bytes);
                    conn.idle_until = Some(Instant::now() + config.idle_timeout);
                    install(&mut conns, &mut gens, conn);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    break
                }
                Err(_) => break,
            }
        }

        // 2. Sweep readable sockets. Sleep (with the poller's adaptive
        // backoff) whenever neither this sweep's accepts nor the previous
        // sweep made progress — on small machines a spinning IO thread
        // starves the very shards it is waiting on.
        events.clear();
        let timeout = if busy || prev_busy {
            Duration::ZERO
        } else {
            SWEEP_TIMEOUT
        };
        poller.poll(
            || {
                conns
                    .iter()
                    .enumerate()
                    .filter_map(|(slot, c)| c.as_ref().map(|c| (slot, &c.stream)))
            },
            &mut events,
            timeout,
        );

        // 3. Pump every readable connection and act on its frames.
        for event in events.drain(..) {
            let slot = event.token;
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            if conn.closing {
                // Still read (and discard) so the close stays graceful.
                conn.discard_input();
                continue;
            }
            let eof = match event.readiness {
                Readiness::Closed => {
                    // Drain whatever arrived before the close below; the
                    // fill observes the EOF itself.
                    true
                }
                Readiness::Readable => false,
                Readiness::Empty => continue,
            };
            busy = true;
            let fill = conn.reader.fill(&mut conn.stream);
            // Parse every complete frame that is now buffered.
            let mut hostile: Option<String> = None;
            loop {
                match conn.reader.next_frame() {
                    Ok(Some(payload)) => match decode_mux(&payload) {
                        Ok(frame) => {
                            metrics.frames_read.fetch_add(1, Ordering::Relaxed);
                            // A decodable frame proves the peer is live:
                            // disarm the idle reaper for good.
                            conn.idle_until = None;
                            handle_frame(
                                frame,
                                slot,
                                gens[slot],
                                conn,
                                &mut server,
                                &catalog,
                                &config,
                                &mut routes,
                                &mut open_sessions,
                                &metrics,
                                &io_pass,
                                &recorder,
                            );
                        }
                        Err(e) => {
                            hostile = Some(e.to_string());
                            break;
                        }
                    },
                    Ok(None) => break,
                    Err(e) => {
                        // Oversized length prefix: poisoned reader.
                        hostile = Some(e.to_string());
                        break;
                    }
                }
            }
            let half_open = conn.reader.pending_bytes() > 0;
            match (hostile, fill) {
                (Some(reason), _) => {
                    metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
                    metrics.record_reject(RejectCode::BadFrame);
                    recorder.record(FlightEvent::Rejected {
                        session: 0,
                        code: RejectCode::BadFrame,
                    });
                    conn.queue(
                        &MuxFrame::Rejected {
                            session: 0,
                            code: RejectCode::BadFrame,
                            reason,
                        },
                        config.max_frame_bytes,
                    );
                    metrics.frames_written.fetch_add(1, Ordering::Relaxed);
                    conn.close(CloseReason::BadFrame);
                }
                (None, Ok(FillStatus::Eof)) => {
                    if half_open {
                        metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
                        conn.close(CloseReason::BadFrame);
                    } else {
                        conn.close(CloseReason::PeerClosed);
                    }
                }
                (None, Err(_)) => {
                    conn.close(CloseReason::PeerClosed);
                }
                (None, Ok(_)) => {
                    if eof {
                        conn.close(CloseReason::PeerClosed);
                    }
                }
            }
        }

        // 4. Drain finished sessions into Done frames. A frame needs only
        // the summary, so a batched session's traces are never rebuilt.
        while let Some(outcome) = server.try_next_summary() {
            busy = true;
            open_sessions = open_sessions.saturating_sub(1);
            let Some((slot, gen, client_id)) = routes.remove(&outcome.id) else {
                continue;
            };
            if gens[slot] != gen {
                // The opening connection died and its slot was reused: the
                // unrelated client living there now must not see this
                // outcome or have its admission counter touched.
                continue;
            }
            let Some(conn) = conns[slot].as_mut() else {
                // The owning connection died while the session ran.
                continue;
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.queue(
                &MuxFrame::Done {
                    session: client_id,
                    compliant: outcome.compliant,
                    complete: outcome.complete,
                    stalled: outcome.stalled,
                    violations: outcome.violations.min(u32::MAX as usize) as u32,
                    actions: outcome.actions as u64,
                },
                config.max_frame_bytes,
            );
            metrics.frames_written.fetch_add(1, Ordering::Relaxed);
            metrics.sessions_done.fetch_add(1, Ordering::Relaxed);
            if outcome.quarantined {
                // A byzantine strike against the opening connection, for
                // the reject-then-ban admission check.
                conn.strikes += 1;
            }
            if outcome.quarantined && config.close_on_quarantine {
                // Quarantine escalates to the transport: the opener reads
                // its Done, a structured rejection, then EOF.
                metrics.record_reject(RejectCode::Quarantined);
                recorder.record(FlightEvent::Rejected {
                    session: client_id,
                    code: RejectCode::Quarantined,
                });
                conn.queue(
                    &MuxFrame::Rejected {
                        session: client_id,
                        code: RejectCode::Quarantined,
                        reason: "session quarantined by monitor".into(),
                    },
                    config.max_frame_bytes,
                );
                metrics.frames_written.fetch_add(1, Ordering::Relaxed);
                conn.close(CloseReason::Quarantined);
            }
        }

        // 5. Flush write buffers; collect the dead.
        let now = Instant::now();
        for slot in 0..conns.len() {
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            if !conn.closing && conn.idle_until.is_some_and(|t| now >= t) {
                // Accepted, never sent a decodable frame, deadline hit:
                // reap the slot.
                conn.close(CloseReason::Idle);
            }
            let alive = conn.flush();
            if alive && conn.limit_reject && !conn.pending_out() && !conn.fin_sent {
                // The rejection is flushed: half-close so a peer reading to
                // EOF finishes promptly; the socket itself lives until the
                // peer closes or the linger deadline fires.
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                conn.fin_sent = true;
            }
            let lingering = !conn.peer_eof && conn.linger_until.is_some_and(|t| now < t);
            if !alive || (conn.closing && !conn.pending_out() && !lingering) {
                if !conn.limit_reject {
                    metrics.connections_closed.fetch_add(1, Ordering::Relaxed);
                }
                recorder.record(FlightEvent::ConnClosed {
                    client: slot as u64,
                    reason: conn.close_reason.unwrap_or(CloseReason::PeerClosed),
                });
                conns[slot] = None;
                gens[slot] = gens[slot].wrapping_add(1);
            }
        }
        prev_busy = busy;
        io_pass.record(u64::try_from(pass_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    // Shutdown: tell the lingering clients, then stop the scheduler (which
    // closes in-flight sessions as stalled).
    for (slot, conn) in conns.iter_mut().enumerate() {
        let Some(conn) = conn else { continue };
        metrics.record_reject(RejectCode::ShuttingDown);
        conn.queue(
            &MuxFrame::Rejected {
                session: 0,
                code: RejectCode::ShuttingDown,
                reason: "server shutting down".into(),
            },
            config.max_frame_bytes,
        );
        let _ = conn.flush();
        recorder.record(FlightEvent::ConnClosed {
            client: slot as u64,
            reason: CloseReason::Shutdown,
        });
    }
    let shards = server.shutdown();
    let mut net = metrics.snapshot();
    net.io_pass_ns = io_pass.snapshot();
    NetServerReport { net, shards }
}

/// Installs a connection into the first free slot (or a new one), keeping
/// the per-slot generation vector in step with the slot vector.
fn install(conns: &mut Vec<Option<NetConn>>, gens: &mut Vec<u64>, conn: NetConn) {
    match conns.iter_mut().position(|c| c.is_none()) {
        Some(slot) => conns[slot] = Some(conn),
        None => {
            conns.push(Some(conn));
            gens.push(0);
        }
    }
}

/// Admission control for one decoded client frame.
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    frame: MuxFrame,
    slot: usize,
    slot_gen: u64,
    conn: &mut NetConn,
    server: &mut SessionServer,
    catalog: &BTreeMap<String, Service>,
    config: &NetServerConfig,
    routes: &mut BTreeMap<SessionId, (usize, u64, u64)>,
    open_sessions: &mut usize,
    metrics: &NetMetrics,
    io_pass: &Histogram,
    recorder: &FlightRecorder,
) {
    let (session, protocol) = match frame {
        MuxFrame::Open { session, protocol } => (session, protocol),
        MuxFrame::Stats { session } => {
            // Live introspection: ship the whole observability bundle —
            // IO counters, shard report with histograms, incident
            // summaries — as one codec-serialized value.
            let mut net = metrics.snapshot();
            net.io_pass_ns = io_pass.snapshot();
            let stats = StatsSnapshot {
                net,
                shards: server.report(),
                incidents: server.incidents().iter().map(Incident::summary).collect(),
            };
            conn.queue(
                &MuxFrame::StatsReply {
                    session,
                    stats: stats.to_value(),
                },
                config.max_frame_bytes,
            );
            metrics.frames_written.fetch_add(1, Ordering::Relaxed);
            return;
        }
        _ => {
            // Clients may only send Open or Stats; anything else is a
            // protocol error.
            metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
            metrics.record_reject(RejectCode::BadFrame);
            recorder.record(FlightEvent::Rejected {
                session: 0,
                code: RejectCode::BadFrame,
            });
            conn.queue(
                &MuxFrame::Rejected {
                    session: 0,
                    code: RejectCode::BadFrame,
                    reason: "only Open and Stats frames may be sent by clients".into(),
                },
                config.max_frame_bytes,
            );
            metrics.frames_written.fetch_add(1, Ordering::Relaxed);
            conn.close(CloseReason::BadFrame);
            return;
        }
    };

    let reject = |conn: &mut NetConn, code: RejectCode, reason: String| {
        metrics.record_reject(code);
        recorder.record(FlightEvent::Rejected { session, code });
        conn.queue(
            &MuxFrame::Rejected {
                session,
                code,
                reason,
            },
            config.max_frame_bytes,
        );
        metrics.frames_written.fetch_add(1, Ordering::Relaxed);
    };

    if config.ban_after_quarantines > 0 && conn.strikes >= config.ban_after_quarantines {
        // Reject-then-ban: the connection has spent its byzantine-strike
        // budget; its in-flight sessions finish but nothing new is
        // admitted from it.
        metrics.sessions_rejected.fetch_add(1, Ordering::Relaxed);
        reject(
            conn,
            RejectCode::Banned,
            format!(
                "connection banned after {} quarantined sessions",
                conn.strikes
            ),
        );
        return;
    }
    let Some(service) = catalog.get(&protocol) else {
        metrics.sessions_rejected.fetch_add(1, Ordering::Relaxed);
        reject(
            conn,
            RejectCode::UnknownProtocol,
            format!("no service registered for `{protocol}`"),
        );
        return;
    };
    if conn.inflight >= config.max_inflight_per_conn {
        metrics.sessions_shed.fetch_add(1, Ordering::Relaxed);
        reject(
            conn,
            RejectCode::SessionLimit,
            format!(
                "connection already has {} sessions in flight",
                conn.inflight
            ),
        );
        return;
    }
    if *open_sessions >= config.max_inflight_total {
        metrics.sessions_shed.fetch_add(1, Ordering::Relaxed);
        reject(
            conn,
            RejectCode::Overloaded,
            format!("server has {open_sessions} sessions in flight"),
        );
        return;
    }

    let spec = SessionSpec {
        protocol: service.protocol,
        endpoints: Arc::clone(&service.endpoints),
        options: service.options.clone(),
    };
    match server.submit(spec) {
        Ok(id) => {
            routes.insert(id, (slot, slot_gen, session));
            conn.inflight += 1;
            *open_sessions += 1;
            metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
            conn.queue(&MuxFrame::Accepted { session }, config.max_frame_bytes);
            metrics.frames_written.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            metrics.sessions_rejected.fetch_add(1, Ordering::Relaxed);
            reject(conn, RejectCode::ShuttingDown, e.to_string());
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking client for the multiplexed serving plane: open many sessions
/// over one connection and poll their events.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    next_session: u64,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    ///
    /// # Errors
    ///
    /// Fails if the TCP connect fails.
    pub fn connect(addr: SocketAddr) -> zooid_runtime::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Blocking socket with a short read timeout: `poll_event` loops on
        // its own deadline.
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(NetClient {
            stream,
            reader: FrameReader::new(zooid_runtime::wire::DEFAULT_MAX_FRAME_BYTES),
            next_session: 1,
        })
    }

    /// Sends an `Open` for the named protocol, returning the client-side
    /// session id to correlate later events with.
    ///
    /// # Errors
    ///
    /// Fails if the write fails.
    pub fn open(&mut self, protocol: &str) -> zooid_runtime::Result<u64> {
        let session = self.next_session;
        self.next_session += 1;
        let payload = encode_mux(&MuxFrame::Open {
            session,
            protocol: protocol.to_owned(),
        });
        let mut buf = bytes::BytesMut::new();
        put_frame(
            &mut buf,
            &payload,
            zooid_runtime::wire::DEFAULT_MAX_FRAME_BYTES,
        )?;
        self.stream.write_all(&buf)?;
        Ok(session)
    }

    /// Sends an `Open` and waits up to `timeout` for the admission verdict,
    /// returning the client-side session id once the server `Accepted` it.
    ///
    /// Unlike [`NetClient::open`] + [`NetClient::poll_event`] by hand,
    /// every failure mode is a structured error: a rejection maps to
    /// [`RuntimeError::Codec`] naming the reject code, server silence past
    /// `timeout` maps to [`RuntimeError::Timeout`], and a connection the
    /// server closes mid-wait surfaces as [`RuntimeError::Disconnected`]
    /// (never a silent `None`). Frames for other sessions that arrive while
    /// waiting are decoded and discarded, as with
    /// [`NetClient::fetch_stats`].
    ///
    /// # Errors
    ///
    /// Fails on connection loss, malformed server frames, rejection, or
    /// admission silence past `timeout`.
    pub fn open_with(&mut self, protocol: &str, timeout: Duration) -> zooid_runtime::Result<u64> {
        let session = self.open(protocol)?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.poll_event(remaining)? {
                Some(MuxFrame::Accepted { session: reply }) if reply == session => {
                    return Ok(session);
                }
                Some(MuxFrame::Rejected {
                    session: reply,
                    code,
                    reason,
                }) if reply == session || reply == 0 => {
                    return Err(RuntimeError::Codec {
                        reason: format!("open rejected ({code}): {reason}"),
                    });
                }
                Some(_) => {}
                None => {
                    return Err(RuntimeError::Timeout {
                        from: zooid_mpst::Role::new("server"),
                    });
                }
            }
        }
    }

    /// Pulls the server's live observability bundle — IO counters and
    /// pass-duration histogram, the merged shard report with latency
    /// histograms, and recent incident summaries — over the wire.
    ///
    /// Frames for other sessions that arrive while waiting are decoded and
    /// discarded; interleave stats pulls with session traffic on a
    /// dedicated connection when every `Done` matters.
    ///
    /// Returns `Ok(None)` when the server stays silent past `timeout`.
    ///
    /// # Errors
    ///
    /// Fails on connection loss, malformed server frames, or a stats
    /// payload that does not decode as a [`StatsSnapshot`].
    pub fn fetch_stats(
        &mut self,
        timeout: Duration,
    ) -> zooid_runtime::Result<Option<StatsSnapshot>> {
        let session = self.next_session;
        self.next_session += 1;
        let payload = encode_mux(&MuxFrame::Stats { session });
        let mut buf = bytes::BytesMut::new();
        put_frame(
            &mut buf,
            &payload,
            zooid_runtime::wire::DEFAULT_MAX_FRAME_BYTES,
        )?;
        self.stream.write_all(&buf)?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.poll_event(remaining)? {
                Some(MuxFrame::StatsReply {
                    session: reply,
                    stats,
                }) if reply == session => {
                    let snapshot =
                        StatsSnapshot::from_value(&stats).ok_or(RuntimeError::Codec {
                            reason: "malformed stats payload".into(),
                        })?;
                    return Ok(Some(snapshot));
                }
                Some(_) => {}
                None => return Ok(None),
            }
        }
    }

    /// Waits up to `timeout` for the next server frame
    /// (`Accepted`/`Rejected`/`Done`), returning `Ok(None)` on silence.
    ///
    /// # Errors
    ///
    /// Fails on connection loss or malformed server frames.
    pub fn poll_event(&mut self, timeout: Duration) -> zooid_runtime::Result<Option<MuxFrame>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(payload) = self.reader.next_frame()? {
                return Ok(Some(decode_mux(&payload)?));
            }
            match self.reader.fill(&mut self.stream)? {
                FillStatus::Progress => {}
                FillStatus::Eof => {
                    // The close may ride right behind complete frames:
                    // hand those out before reporting the shutdown.
                    if let Some(payload) = self.reader.next_frame()? {
                        return Ok(Some(decode_mux(&payload)?));
                    }
                    if self.reader.pending_bytes() > 0 {
                        return Err(RuntimeError::Codec {
                            reason: "server disconnected mid-frame".into(),
                        });
                    }
                    return Err(RuntimeError::Disconnected {
                        role: zooid_mpst::Role::new("server"),
                    });
                }
                FillStatus::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
            }
        }
    }
}
