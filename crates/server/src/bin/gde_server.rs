//! Standalone `gde-server` binary.
//!
//! ```text
//! gde-server [ADDR]            # default 127.0.0.1:7878
//! ```
//!
//! Environment:
//! * `GDE_MAX_THREADS` — caps both connection workers and the engine's
//!   fan-out of a batch's missed queries.
//! * `GDE_SERVER_WORKERS` — overrides the connection worker count.
//! * `GDE_SERVER_DEADLINE_MS` — default per-request deadline.

use gde_server::ServerConfig;
use std::time::Duration;

fn main() {
    let mut config = ServerConfig {
        addr: std::env::args()
            .nth(1)
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        ..ServerConfig::default()
    };
    if let Some(w) = std::env::var("GDE_SERVER_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        config.workers = w.max(1);
    }
    if let Some(ms) = std::env::var("GDE_SERVER_DEADLINE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        config.default_deadline = Some(Duration::from_millis(ms));
    }
    let handle = match gde_server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gde-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "gde-server listening on {} ({} workers)",
        handle.addr(),
        handle.state().config.workers
    );
    // serve until the process is killed
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
