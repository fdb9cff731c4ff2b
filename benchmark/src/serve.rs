//! The job server driven over real TCP sockets, and its request
//! pipeline replayed in-process stage by stage.

use crate::sim::Stepwise;
use crate::trace::{Recorder, SpanId};
use hmp_server::{
    parse_request, result_json, spec_digest, Request, RunCache, Server, ServerConfig,
};
use hmp_workloads::{spec_to_json, RunSpec};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// An in-process `hmp-server` on `127.0.0.1:0` with a memory cache and
/// one worker, serving on its own thread.
pub struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// What the server answered to one `run` request.
pub struct Reply {
    pub hit: bool,
    pub result: Option<String>,
    pub error: Option<String>,
}

impl Daemon {
    pub fn start() -> io::Result<Daemon> {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_dir: None,
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Daemon { addr, thread })
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        };
        conn.send(r#"{"op":"ping"}"#)?;
        let pong = conn.recv()?;
        if !pong.starts_with(r#"{"event":"pong""#) {
            return Err(io::Error::other(format!("unexpected ping reply {pong}")));
        }
        Ok(conn)
    }

    /// Asks the daemon to stop and waits for its accept loop to return.
    /// Close every client connection first, so no handler thread outlives
    /// the daemon.
    pub fn stop(self) -> io::Result<()> {
        let mut conn = self.connect()?;
        conn.send(r#"{"op":"shutdown"}"#)?;
        let ok = conn.recv()?;
        drop(conn);
        let served = self
            .thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?;
        served?;
        if ok != r#"{"event":"ok"}"# {
            return Err(io::Error::other(format!("unexpected shutdown reply {ok}")));
        }
        Ok(())
    }
}

/// The request line for one cell.
pub fn request_line(spec: &RunSpec) -> String {
    format!(r#"{{"op":"run","spec":{}}}"#, spec_to_json(spec))
}

impl Conn {
    /// Writes `line` and its newline in one call: two small writes would
    /// add a Nagle stall of the client's own to every request.
    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    fn recv(&mut self) -> io::Result<String> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::other("server closed the connection"));
        }
        Ok(self.line.trim_end().to_string())
    }

    /// Sends one `run` request and reads events until `done` or `error`.
    pub fn run(&mut self, line: &str) -> io::Result<Reply> {
        self.send(line)?;
        let mut reply = Reply {
            hit: false,
            result: None,
            error: None,
        };
        loop {
            let event = self.recv()?;
            if event.starts_with(r#"{"event":"cell""#) {
                reply.hit = field(&event, "source").is_some_and(|s| s == "memory" || s == "disk");
                reply.result = event
                    .find(r#""result":"#)
                    .map(|at| event[at + 9..event.len() - 1].to_string());
            } else if event.starts_with(r#"{"event":"done""#) {
                return Ok(reply);
            } else if event.starts_with(r#"{"event":"error""#) {
                reply.error = Some(event);
                return Ok(reply);
            }
        }
    }
}

/// The string value of `"key":"…"` in a flat event line.
fn field<'a>(event: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!(r#""{key}":""#);
    let start = event.find(&needle)? + needle.len();
    let len = event[start..].find('"')?;
    Some(&event[start..start + len])
}

/// One request to replay through the server's pipeline.
pub struct Replayed {
    pub line: String,
    pub hit: bool,
}

/// Replays each request through the stages a server connection handler
/// and worker run — `parse_request`, `spec_digest`, `RunCache::get`, and
/// on a miss a fresh `Runner`'s work (stepwise), `result_json` and
/// `RunCache::insert` — recording a span per stage. `preload` holds the
/// cache entries the daemon had before the first request. Returns how
/// many requests resolved differently (hit vs miss) than they did on the
/// daemon.
pub fn replay(
    requests: &[Replayed],
    preload: &[(u64, String)],
    rec: &mut Recorder,
    first_group: u64,
) -> usize {
    let mut cache =
        RunCache::new(None, ServerConfig::default().cache_cap).expect("memory-only cache");
    for (digest, json) in preload {
        cache.insert(*digest, Arc::new(json.clone()));
    }
    let mut mismatched = 0;
    for (i, req) in requests.iter().enumerate() {
        let group = first_group + i as u64;
        let root: SpanId = rec.open(if req.hit { "replay_hit" } else { "replay_miss" }, 0, group);
        let parsed = rec.span("parse", root, group, || parse_request(&req.line));
        let Ok(Request::Run(spec)) = parsed else {
            mismatched += 1;
            rec.close(root);
            continue;
        };
        let digest = rec.span("digest", root, group, || spec_digest(&spec));
        let cached = rec.span("cache_get", root, group, || cache.get(digest));
        if cached.is_some() != req.hit {
            mismatched += 1;
        }
        if cached.is_none() {
            let exec = rec.open("execute", root, group);
            let mut fresh = Stepwise::default();
            let r = fresh.run(&spec, rec, exec, group);
            rec.close(exec);
            let json = rec.span("serialize", root, group, || Arc::new(result_json(&r)));
            rec.span("cache_insert", root, group, || cache.insert(digest, json));
        }
        rec.close(root);
    }
    mismatched
}

/// One completed request of a closed-loop client.
pub struct Done {
    /// Index of the request in its client's sequence.
    pub k: u64,
    pub hit: bool,
    /// Client-observed latency, send to `done`, in milliseconds.
    pub ms: f64,
    pub line: String,
    pub result: Option<String>,
}

/// Latency samples and results of one closed-loop client.
#[derive(Default)]
pub struct ClientRun {
    pub done: Vec<Done>,
    pub errors: Vec<String>,
}

/// Runs `next(k)`-th requests on `conn` until `deadline`, recording
/// `request` spans (with `encode` and `round_trip` children) when a
/// recorder is given.
pub fn closed_loop(
    conn: &mut Conn,
    deadline: Instant,
    mut next: impl FnMut(u64) -> RunSpec,
    mut rec: Option<&mut Recorder>,
    group_base: u64,
) -> ClientRun {
    let mut client_run = ClientRun::default();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let group = group_base + k;
        let spec = next(k);
        k += 1;
        let t = Instant::now();
        let (line, reply) = match rec.as_deref_mut() {
            Some(rec) => {
                let root = rec.open("request", 0, group);
                let line = rec.span("encode", root, group, || request_line(&spec));
                let reply = rec.span("round_trip", root, group, || conn.run(&line));
                rec.close(root);
                (line, reply)
            }
            None => {
                let line = request_line(&spec);
                let reply = conn.run(&line);
                (line, reply)
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(Reply { error: Some(e), .. }) => client_run.errors.push(e),
            Ok(reply) => client_run.done.push(Done {
                k: k - 1,
                hit: reply.hit,
                ms,
                line,
                result: reply.result,
            }),
            Err(e) => {
                client_run.errors.push(e.to_string());
                break;
            }
        }
    }
    client_run
}
