//! The benchmark's side of the wire: an in-process `serve_tcp_with` server
//! on loopback, one client connection to it, and the closed-loop drivers
//! that load it (one request at a time, or a fixed window of outstanding
//! requests).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phase_core::json::{self, JsonValue};
use phase_serve::{serve_tcp_with, ServiceConfig, TuningService, WireConfig, WireSummary};

use crate::ledger::Ledger;

/// Byte budget of the service's artifact store. `tune-cold` inserts new
/// artifacts on every operation; the budget bounds the store however many
/// operations a run completes, as it would a deployed service.
const STORE_BUDGET_BYTES: u64 = 64 << 20;

/// A tuning service behind `serve_tcp_with` on loopback, with the one
/// client connection it accepts.
pub struct Server {
    /// The service the listener answers from (shared, so the traced pass can
    /// call it in-process).
    pub service: Arc<TuningService>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    thread: Option<JoinHandle<io::Result<WireSummary>>>,
}

impl Server {
    /// Starts a service whose studies fan across `threads` driver workers,
    /// over a store bounded to `STORE_BUDGET_BYTES`, and connects to it.
    pub fn start(threads: usize) -> io::Result<Self> {
        let service = Arc::new(TuningService::new(ServiceConfig {
            threads,
            budget_bytes: Some(STORE_BUDGET_BYTES),
            ..ServiceConfig::default()
        })?);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let address = listener.local_addr()?;
        let served = Arc::clone(&service);
        let thread = std::thread::spawn(move || {
            serve_tcp_with(&served, listener, Some(1), WireConfig::default())
        });
        let writer = TcpStream::connect(address)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            service,
            reader,
            writer,
            thread: Some(thread),
        })
    }

    /// Sends one request line and waits for its reply line (without the
    /// newline).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the server closed the connection",
            ));
        }
        reply.truncate(reply.trim_end_matches('\n').len());
        Ok(reply)
    }

    /// Records the service's `serve.shed` and `serve.coalesced` counters,
    /// read from a `stats` reply, as gauges (zero when the reply lacks
    /// them).
    pub fn record_serving_gauges(&mut self, ledger: &mut Ledger) {
        let stats = self
            .request("{\"id\":\"stats-final\",\"kind\":\"stats\"}")
            .ok()
            .and_then(|reply| json::parse(&reply).ok());
        let serving = stats
            .as_ref()
            .and_then(|doc| doc.get("stats"))
            .and_then(|stats| stats.get("serving"));
        for (gauge, field) in [("serve.shed", "shed"), ("serve.coalesced", "coalesced")] {
            let value = serving
                .and_then(|serving| serving.get(field))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            ledger.gauge(gauge, value);
        }
    }

    /// Keeps `window` requests outstanding on the connection until
    /// `duration` has passed, then drains the replies. `next_line(op)` gives
    /// the request line of operation `op` (newline-terminated);
    /// `on_reply(op, latency, reply)` sees each reply in order. Uses two
    /// client threads: one writes, one reads.
    pub fn pipelined<'a>(
        &mut self,
        window: usize,
        duration: Duration,
        mut next_line: impl FnMut(u64) -> &'a str + Send,
        mut on_reply: impl FnMut(u64, Duration, &str) + Send,
    ) -> io::Result<()> {
        let (credit_tx, credit_rx) = mpsc::sync_channel::<()>(window);
        for _ in 0..window {
            credit_tx.send(()).expect("the receiver is alive");
        }
        let (sent_tx, sent_rx) = mpsc::channel::<(u64, Instant)>();
        let deadline = Instant::now() + duration;
        let writer = &mut self.writer;
        let reader = &mut self.reader;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> io::Result<()> {
                let mut op = 0;
                while Instant::now() < deadline && credit_rx.recv().is_ok() {
                    let line = next_line(op);
                    // Registered before the write, so the reader can never
                    // see a reply it has no send time for.
                    let _ = sent_tx.send((op, Instant::now()));
                    writer.write_all(line.as_bytes())?;
                    op += 1;
                }
                Ok(())
            });
            let receiver = scope.spawn(move || -> io::Result<()> {
                let mut reply = String::new();
                while let Ok((op, sent)) = sent_rx.recv() {
                    reply.clear();
                    if reader.read_line(&mut reply)? == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "the server closed the connection",
                        ));
                    }
                    let latency = sent.elapsed();
                    let _ = credit_tx.send(());
                    on_reply(op, latency, reply.trim_end_matches('\n'));
                }
                Ok(())
            });
            let sent = sender.join().expect("the sender thread does not panic");
            let received = receiver.join().expect("the receiver thread does not panic");
            sent.and(received)
        })
    }

    /// Closes the connection and waits for the server to drain and exit.
    pub fn stop(mut self) -> io::Result<WireSummary> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<WireSummary> {
        let Some(thread) = self.thread.take() else {
            return Ok(WireSummary::default());
        };
        self.writer.shutdown(Shutdown::Write)?;
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest)?;
        thread
            .join()
            .map_err(|_| io::Error::other("the server thread panicked"))?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors are ignored here; `stop` reports them.
        let _ = self.shutdown();
    }
}
