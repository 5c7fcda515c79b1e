//! The network front-end: a blocking accept loop feeding a fixed worker
//! pool over an in-process queue.
//!
//! The container has no async runtime, so the serving tier is a
//! hand-rolled `std::net` loop: one accept thread pushes connections into
//! an [`mpsc`] channel and `config.workers` threads each run a keep-alive
//! connection loop. The engine's own fan-out ([`gde_datagraph::par`])
//! still parallelises *inside* a request — a batch's missed queries, and
//! the relation algebra's row blocks — so the two pools compose:
//! connection concurrency up here, data parallelism below.
//!
//! Fault posture, mirroring the engine's serving tier:
//!
//! * every request is dispatched under `catch_unwind` — a handler panic
//!   becomes a 500 and a `contained_panics` tick, never a dead worker;
//! * transport errors ([`HttpError`]) map onto typed 4xx responses and
//!   close the connection;
//! * shutdown is cooperative: a flag plus a self-connection to wake the
//!   blocking accept, then the channel drains and workers exit.

use crate::handlers;
use crate::http::{read_request, write_response, HttpError, Limits};
use crate::json::{self, Json};
use crate::protocol::{ApiError, ApiRequest};
use crate::tenant::{ServerConfig, ServerState};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// A running server: resolved address, shared state, and the thread
/// handles needed for a clean shutdown. Dropping the handle shuts the
/// server down.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved bind address (useful with an ephemeral `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (tenant registry + counters).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stop accepting, drain the connection queue, and join every thread.
    /// Connections already being served finish their current request; the
    /// worker then notices the flag and closes.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind and start serving. Returns once the listener is live; all serving
/// happens on background threads owned by the returned handle.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState::new(config.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::with_capacity(config.workers);
    for i in 0..config.workers {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        workers.push(
            std::thread::Builder::new()
                .name(format!("gde-server-worker-{i}"))
                .spawn(move || worker_loop(&rx, &state, &shutdown))
                .expect("invariant: spawning a named worker thread cannot fail here"),
        );
    }

    let accept_state = Arc::clone(&state);
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("gde-server-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        accept_state.connections.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_read_timeout(Some(accept_state.config.read_timeout));
                        let _ = stream.set_nodelay(true);
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
            // dropping `tx` here lets idle workers observe the close
        })
        .expect("invariant: spawning the accept thread cannot fail here");

    Ok(ServerHandle {
        addr,
        state,
        shutdown,
        accept_thread: Some(accept_thread),
        workers,
    })
}

fn worker_loop(
    rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    state: &Arc<ServerState>,
    shutdown: &Arc<AtomicBool>,
) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(g) => g,
                // a worker panicking while holding the receiver poisons the
                // lock; the queue itself is still sound, so keep draining
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        match stream {
            Ok(s) => serve_connection(s, state, shutdown),
            Err(_) => return, // channel closed: shutdown
        }
    }
}

/// Serve one keep-alive connection until the peer closes, errors, or the
/// server is shutting down.
fn serve_connection(mut stream: TcpStream, state: &Arc<ServerState>, shutdown: &Arc<AtomicBool>) {
    let limits = Limits {
        max_header_bytes: state.config.max_header_bytes,
        max_body_bytes: state.config.max_body_bytes,
        read_timeout: state.config.read_timeout,
    };
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let req = match read_request(&mut stream, &limits) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close between requests
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    let body = ApiError::new(status, e.code(), transport_message(&e))
                        .to_json()
                        .encode();
                    state.requests.fetch_add(1, Ordering::Relaxed);
                    count_status(state, status);
                    let _ = write_response(&mut stream, status, body.as_bytes(), false);
                }
                return;
            }
        };
        let keep_alive = req.keep_alive;
        let (status, body) = dispatch(state, &req.method, &req.path, &req.body);
        state.requests.fetch_add(1, Ordering::Relaxed);
        count_status(state, status);
        if write_response(&mut stream, status, body.as_bytes(), keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

fn count_status(state: &ServerState, status: u16) {
    if (400..500).contains(&status) {
        state.http_4xx.fetch_add(1, Ordering::Relaxed);
    } else if status >= 500 {
        state.http_5xx.fetch_add(1, Ordering::Relaxed);
    }
}

fn transport_message(e: &HttpError) -> String {
    match e {
        HttpError::HeaderTooLarge => "request headers exceed the configured cap".to_string(),
        HttpError::BodyTooLarge => "request body exceeds the configured cap".to_string(),
        HttpError::Truncated => "connection closed before the declared body arrived".to_string(),
        HttpError::Timeout => "timed out reading the request".to_string(),
        HttpError::Malformed(msg) => format!("malformed request: {msg}"),
        HttpError::Closed | HttpError::Io(_) => "connection error".to_string(),
    }
}

/// Decode the body, dispatch under `catch_unwind`, and render the
/// response. This is the containment boundary: a panic anywhere in the
/// handler stack becomes a 500 on this request only. A single answer's
/// body is already text (a [`Json::Fragment`]), shared with its cached
/// answer once kept, and is handed out as is, without a copy.
fn dispatch(
    state: &Arc<ServerState>,
    method: &str,
    path: &str,
    raw_body: &[u8],
) -> (u16, Arc<String>) {
    let body = if raw_body.is_empty() {
        Json::Null
    } else {
        match json::parse(raw_body) {
            Ok(j) => j,
            Err(e) => {
                let err = ApiError::bad_request(
                    "malformed-json",
                    format!("body is not valid JSON at byte {}: {}", e.pos, e.msg),
                );
                return (err.status, err.to_json().into_text());
            }
        }
    };
    let req = ApiRequest::new(method, path, body);
    let out = catch_unwind(AssertUnwindSafe(|| handlers::handle(state, &req)));
    match out {
        Ok(resp) => (resp.status, resp.body.into_text()),
        Err(_) => {
            state.contained_panics.fetch_add(1, Ordering::Relaxed);
            let err = ApiError::new(500, "internal", "handler panicked; contained");
            (err.status, err.to_json().into_text())
        }
    }
}
