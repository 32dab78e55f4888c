//! The client side of the network artifact cache: warm a local store from a
//! remote phase-serve instance, or push a warm store to one.
//!
//! A fleet of workers shares one warm origin build-cache style: each worker
//! starts cold, walks the origin's `artifact-list` inventory, and
//! `artifact-get`s every key into its own store ([`remote_warm_start`]).
//! Artifacts travel as base64 phase-pack payloads, so every byte is
//! checksummed and validated on import — a corrupt or foreign payload is a
//! counted error, never a panic. The inverse direction ([`remote_push`])
//! offers every local artifact to the origin, charged against the origin's
//! byte budget.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use phase_core::json::{parse, JsonValue};
use phase_core::pack::{base64_decode, base64_encode};
use phase_core::{ArtifactStore, ContentHash};

/// What one remote cache sync did.
#[derive(Debug, Clone, Default)]
pub struct RemoteSyncStats {
    /// Artifacts fetched (or offered, for a push) over the wire.
    pub transferred: usize,
    /// Artifacts resident in the destination store afterwards (the byte
    /// budget may decline some).
    pub admitted: usize,
    /// Per-artifact failures (decode errors, remote misses, error
    /// responses), one line each.
    pub errors: Vec<String>,
    /// Wall-clock nanoseconds of each `artifact-get` round trip (empty for
    /// a push) — the remote-cache hit latency `bench_store` reports.
    pub get_latency_ns: Vec<u64>,
}

/// A line-oriented JSON client over one TCP connection.
struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    seq: u64,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // The sync is a strict request/response ping-pong of small lines;
        // without this, Nagle + delayed ACK floor every get at ~40ms.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            seq: 0,
        })
    }

    fn roundtrip(&mut self, request: JsonValue) -> io::Result<JsonValue> {
        self.seq += 1;
        let line = request.render_compact();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse(response.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    fn next_id(&self, prefix: &str) -> String {
        format!("{prefix}-{}", self.seq)
    }
}

fn response_error(doc: &JsonValue) -> Option<String> {
    if doc.get("status").and_then(JsonValue::as_str) == Some("error") {
        let code = doc.get("code").and_then(JsonValue::as_str).unwrap_or("?");
        let message = doc.get("message").and_then(JsonValue::as_str).unwrap_or("");
        Some(format!("{code}: {message}"))
    } else {
        None
    }
}

/// Fetches the remote store's full inventory: `(stage, keys)` per stage.
fn remote_inventory(addr: SocketAddr) -> io::Result<Vec<(String, Vec<ContentHash>)>> {
    let mut client = WireClient::connect(addr)?;
    let doc = client.roundtrip(
        JsonValue::object()
            .field("id", "inventory")
            .field("kind", "artifact-list"),
    )?;
    if let Some(error) = response_error(&doc) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, error));
    }
    let mut inventory = Vec::new();
    if let Some(JsonValue::Object(stages)) = doc.get("stages") {
        for (stage, keys) in stages {
            let keys = keys
                .as_array()
                .unwrap_or_default()
                .iter()
                .filter_map(|k| k.as_str().and_then(ContentHash::from_hex))
                .collect();
            inventory.push((stage.clone(), keys));
        }
    }
    Ok(inventory)
}

/// Warms `store` from the phase-serve instance at `addr`: lists every
/// remote key, `artifact-get`s each over one connection, and imports the
/// payloads through the store's validating, budget-charged admission path.
/// A worker warm-started this way answers byte-identically to the origin
/// for every request whose artifacts transferred.
pub fn remote_warm_start(
    addr: SocketAddr,
    store: &Arc<ArtifactStore>,
) -> io::Result<RemoteSyncStats> {
    let _span = phase_trace::span("remote-warm-start");
    let inventory = remote_inventory(addr)?;
    let mut client = WireClient::connect(addr)?;
    let mut stats = RemoteSyncStats::default();
    for (stage, keys) in inventory {
        for key in keys {
            let started = std::time::Instant::now();
            let doc = client.roundtrip(
                JsonValue::object()
                    .field("id", client.next_id("get"))
                    .field("kind", "artifact-get")
                    .field("stage", stage.as_str())
                    .field("hash", key.to_string()),
            )?;
            stats
                .get_latency_ns
                .push(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            if let Some(error) = response_error(&doc) {
                stats.errors.push(format!("{stage}:{key}: {error}"));
                continue;
            }
            let Some(payload) = doc.get("payload").and_then(JsonValue::as_str) else {
                stats.errors.push(format!("{stage}:{key}: remote miss"));
                continue;
            };
            let bytes = match base64_decode(payload) {
                Ok(bytes) => bytes,
                Err(error) => {
                    stats.errors.push(format!("{stage}:{key}: {error}"));
                    continue;
                }
            };
            stats.transferred += 1;
            match store.import_artifact(&stage, key, &bytes) {
                Ok(true) => stats.admitted += 1,
                Ok(false) => {}
                Err(error) => {
                    stats.errors.push(format!("{stage}:{key}: {error}"));
                }
            }
        }
    }
    Ok(stats)
}

/// Offers every artifact in `store` to the phase-serve instance at `addr`
/// (`artifact-put` per key). The origin admits through its own byte budget;
/// `admitted` counts what it retained.
pub fn remote_push(addr: SocketAddr, store: &Arc<ArtifactStore>) -> io::Result<RemoteSyncStats> {
    let _span = phase_trace::span("remote-push");
    let mut client = WireClient::connect(addr)?;
    let mut stats = RemoteSyncStats::default();
    for (stage, keys) in store.artifact_keys() {
        for key in keys {
            let Some(payload) = store.export_artifact(stage, key) else {
                // Evicted between listing and export; nothing to send.
                continue;
            };
            let doc = client.roundtrip(
                JsonValue::object()
                    .field("id", client.next_id("put"))
                    .field("kind", "artifact-put")
                    .field("stage", stage)
                    .field("hash", key.to_string())
                    .field("payload", base64_encode(&payload)),
            )?;
            if let Some(error) = response_error(&doc) {
                stats.errors.push(format!("{stage}:{key}: {error}"));
                continue;
            }
            stats.transferred += 1;
            if doc.get("admitted") == Some(&JsonValue::Bool(true)) {
                stats.admitted += 1;
            }
        }
    }
    Ok(stats)
}
