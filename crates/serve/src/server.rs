//! Transports: the TCP daemon loop, the stdio loop, and the framed
//! client used by tests, the chaos campaign, and the benchmark harness.
//!
//! Both transports funnel every decoded request through the same
//! [`AdmissionQueue`] and dispatcher, so admission control and
//! coalescing behave identically whether the daemon listens on a
//! socket or on stdin/stdout.

use crate::admission::{self, AdmissionQueue, Job, ReplyHandle};
use crate::engine::ServeEngine;
use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ResponseBody, ServeError,
};
use crate::wire::{self, FrameError};
use pdn_workload::codec::DecodeError;
use pdnspot::ErrorCode;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long the accept loop sleeps between polls of the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-connection read timeout, so idle readers notice shutdown.
const READ_POLL: Duration = Duration::from_millis(50);

/// Maps a request-decode failure onto the wire error it is reported as.
#[must_use]
pub(crate) fn decode_failure(err: &DecodeError) -> ServeError {
    let code = match err {
        DecodeError::Invalid("protocol version") => ErrorCode::Unsupported,
        _ => ErrorCode::Protocol,
    };
    ServeError::new(code, format!("malformed request: {err}"))
}

/// An incremental frame reader that survives read timeouts without
/// losing partial bytes, and drains back-to-back frames from one read.
#[derive(Debug)]
struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Reads the next frame body. `Ok(None)` means the peer closed (or
    /// shutdown / eviction was requested) at a frame boundary.
    fn next(
        &mut self,
        stream: &mut TcpStream,
        stop: &AtomicBool,
        evicted: &AtomicBool,
    ) -> Result<Option<Vec<u8>>, FrameError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match wire::decode_frame(&self.buf) {
                Ok((body, used)) => {
                    let body = body.to_vec();
                    self.buf.drain(..used);
                    return Ok(Some(body));
                }
                Err(FrameError::Truncated) => {}
                Err(e) => return Err(e),
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() { Ok(None) } else { Err(FrameError::Truncated) }
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if stop.load(Ordering::Acquire) || evicted.load(Ordering::Acquire) {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

fn connection_loop(
    mut stream: TcpStream,
    engine: &ServeEngine,
    queue: &AdmissionQueue,
    stop: &AtomicBool,
) -> Result<(), FrameError> {
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut writer = stream.try_clone()?;
    writer.set_write_timeout(Some(Duration::from_millis(engine.config().write_timeout_ms())))?;
    // Slow-client defense: the dispatcher delivers through a *bounded*
    // buffer via try_send and never blocks. A client that stalls its
    // socket long enough to fill the buffer (or to trip the write
    // deadline below) is evicted, not waited on.
    let evicted = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<Response>(engine.config().write_buffer());
    let reply = ReplyHandle::new(tx, Arc::clone(&evicted));
    let write_thread: JoinHandle<()> = {
        let evicted = Arc::clone(&evicted);
        thread::spawn(move || {
            while let Ok(resp) = rx.recv() {
                if evicted.load(Ordering::Acquire) {
                    break;
                }
                if wire::write_frame(&mut writer, &encode_response(&resp)).is_err() {
                    // Write failure or lapsed write deadline: evict.
                    evicted.store(true, Ordering::Release);
                    break;
                }
            }
            // Drain anything still buffered so late deliver() calls see
            // a live (if pointless) channel until the reader drops tx.
            while rx.try_recv().is_ok() {}
        })
    };

    let mut frames = FrameBuffer::new();
    let result = loop {
        if reply.is_evicted() {
            engine.note_eviction();
            break Ok(());
        }
        match frames.next(&mut stream, stop, &evicted) {
            Ok(Some(body)) => match decode_request(&body) {
                Ok(request) => {
                    if let Err((job, why)) = queue.submit(Job::new(request, reply.clone())) {
                        job.reply.deliver(why.response(job.request.id));
                    }
                }
                Err(e) => {
                    // The stream may be desynchronised; report and close.
                    reply
                        .deliver(Response { id: 0, body: ResponseBody::Error(decode_failure(&e)) });
                    break Ok(());
                }
            },
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    drop(reply);
    let _ = write_thread.join();
    result
}

/// A running TCP daemon.
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    engine: Arc<ServeEngine>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Flags the daemon to stop accepting and drain.
    pub fn shutdown(&self) {
        self.engine.request_shutdown();
        self.stop.store(true, Ordering::Release);
    }

    /// Blocks until the accept loop and dispatcher exit.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

/// Boots the TCP transport: an accept loop, one reader/writer pair per
/// connection, and the shared admission dispatcher.
///
/// # Errors
///
/// Propagates socket-binding failures.
pub fn spawn_tcp(engine: Arc<ServeEngine>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let depth = engine.config().admission_depth();
    let quota = engine.config().tenant_quota_for(depth);
    let queue = Arc::new(AdmissionQueue::new(depth, quota));
    let stop = Arc::new(AtomicBool::new(false));

    let dispatcher = {
        let engine = Arc::clone(&engine);
        let queue = Arc::clone(&queue);
        thread::spawn(move || admission::dispatch(&engine, &queue))
    };

    let accept = {
        let engine = Arc::clone(&engine);
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut connections: Vec<JoinHandle<()>> = Vec::new();
            loop {
                if stop.load(Ordering::Acquire) || engine.shutdown_requested() {
                    stop.store(true, Ordering::Release);
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let engine = Arc::clone(&engine);
                        let queue = Arc::clone(&queue);
                        let stop = Arc::clone(&stop);
                        connections.push(thread::spawn(move || {
                            let _ = connection_loop(stream, &engine, &queue, &stop);
                        }));
                        // Reap finished connections so a storm of
                        // short-lived clients doesn't grow the handle
                        // list without bound.
                        connections.retain(|h| !h.is_finished());
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => break,
                }
            }
            queue.close();
            for handle in connections {
                let _ = handle.join();
            }
        })
    };

    Ok(ServerHandle { addr, engine, stop, accept: Some(accept), dispatcher: Some(dispatcher) })
}

/// Serves the framed protocol over arbitrary reader/writer pairs — the
/// stdio transport (`pdn-serve serve --stdio`). Requests still pass
/// through an admission queue and the coalescing dispatcher.
///
/// # Errors
///
/// Returns the first fatal frame error; a clean EOF returns `Ok`.
pub fn serve_streams(
    engine: &Arc<ServeEngine>,
    input: &mut impl Read,
    output: &mut impl io::Write,
) -> Result<(), FrameError> {
    let depth = engine.config().admission_depth();
    let quota = engine.config().tenant_quota_for(depth);
    let queue = Arc::new(AdmissionQueue::new(depth, quota));
    let dispatcher = {
        let engine = Arc::clone(engine);
        let queue = Arc::clone(&queue);
        thread::spawn(move || admission::dispatch(&engine, &queue))
    };
    let result = (|| {
        while let Some(body) = wire::read_frame(input)? {
            let response = match decode_request(&body) {
                Ok(request) => {
                    let id = request.id;
                    let (tx, rx) = sync_channel::<Response>(1);
                    let reply = ReplyHandle::new(tx, Arc::new(AtomicBool::new(false)));
                    match queue.submit(Job::new(request, reply)) {
                        Ok(()) => rx.recv().unwrap_or_else(|_| admission::shutdown_response(id)),
                        Err((job, why)) => why.response(job.request.id),
                    }
                }
                Err(e) => Response { id: 0, body: ResponseBody::Error(decode_failure(&e)) },
            };
            let shutting_down = matches!(response.body, ResponseBody::ShuttingDown);
            wire::write_frame(output, &encode_response(&response))?;
            if shutting_down {
                break;
            }
        }
        Ok(())
    })();
    queue.close();
    let _ = dispatcher.join();
    result
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing failed.
    Frame(FrameError),
    /// The response body was malformed.
    Decode(DecodeError),
    /// The server closed the connection mid-conversation.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "client transport: {e}"),
            ClientError::Decode(e) => write!(f, "client decode: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// A blocking framed client. Supports pipelining: issue several
/// [`Client::send`]s, then collect with [`Client::recv`], matching
/// responses to requests by correlation id.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one request without waiting.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        wire::write_frame(&mut self.stream, &encode_request(request))?;
        Ok(())
    }

    /// Receives the next response (blocking).
    ///
    /// # Errors
    ///
    /// Propagates transport and decode errors; [`ClientError::Closed`]
    /// if the server hung up.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match wire::read_frame(&mut self.stream)? {
            Some(body) => Ok(decode_response(&body)?),
            None => Err(ClientError::Closed),
        }
    }

    /// One synchronous round trip.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`]/[`Client::recv`] errors.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.recv()
    }
}
