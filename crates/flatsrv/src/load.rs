//! `flatload`: a pipelined RESP load generator driving the ETC workload.
//!
//! Each connection runs on its own thread with classic pipelining: keep
//! up to `depth` commands outstanding, reading one reply before sending
//! the next once the window is full. Replies are parsed with the codec's
//! client side ([`resp::parse_reply`]), per-op latency is measured from
//! send to reply, and at the end one control connection fetches `INFO`
//! so the run can report *engine-side* figures — mean horizontal-batch
//! size, cache hit rate — observed under real sockets.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use workloads::{value_bytes, EtcWorkload, Op as WlOp};

use crate::resp;

/// Where the server lives.
#[derive(Debug, Clone)]
pub enum Target {
    /// `host:port`.
    Tcp(String),
    /// Unix-socket path.
    Unix(PathBuf),
}

impl Target {
    fn connect(&self) -> std::io::Result<NetStream> {
        let stream = match self {
            Target::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(Duration::from_secs(30)))?;
                NetStream::Tcp(s)
            }
            Target::Unix(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(Some(Duration::from_secs(30)))?;
                NetStream::Unix(s)
            }
        };
        Ok(stream)
    }
}

enum NetStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.write_all(buf),
            NetStream::Unix(s) => s.write_all(buf),
        }
    }
}

/// Blocking RESP reply stream over a connected socket.
struct ReplyReader {
    buf: Vec<u8>,
    pos: usize,
}

impl ReplyReader {
    fn new() -> ReplyReader {
        ReplyReader {
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn next(&mut self, stream: &mut NetStream) -> std::io::Result<resp::Reply> {
        loop {
            match resp::parse_reply(&self.buf[self.pos..]) {
                Ok(Some((reply, used))) => {
                    self.pos += used;
                    if self.pos > 64 * 1024 {
                        self.buf.drain(..self.pos);
                        self.pos = 0;
                    }
                    return Ok(reply);
                }
                Ok(None) => {
                    let mut chunk = [0u8; 16 * 1024];
                    match stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(std::io::Error::new(
                                ErrorKind::UnexpectedEof,
                                "server closed mid-reply",
                            ))
                        }
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("bad reply: {e}"),
                    ))
                }
            }
        }
    }
}

/// Workload shape and concurrency for a load run.
#[derive(Debug, Clone)]
pub struct LoadOpts {
    /// Concurrent connections (each on its own thread).
    pub conns: usize,
    /// Pipeline window per connection.
    pub depth: usize,
    /// Total operations across all connections.
    pub ops: u64,
    /// Distinct keys.
    pub keyspace: u64,
    /// Fraction of writes (ETC default is write-light).
    pub put_ratio: f64,
    /// Workload RNG seed (per-connection streams derive from it).
    pub seed: u64,
}

impl Default for LoadOpts {
    fn default() -> LoadOpts {
        LoadOpts {
            conns: 4,
            depth: 8,
            ops: 50_000,
            keyspace: 10_000,
            put_ratio: 0.1,
            seed: 42,
        }
    }
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Operations completed.
    pub ops: u64,
    /// `-ERR` replies received (should be 0).
    pub errors: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Million operations per second.
    pub mops: f64,
    /// Median per-op latency, microseconds (send → reply under
    /// pipelining, so it includes queueing in the window).
    pub p50_us: f64,
    /// 99th-percentile per-op latency, microseconds.
    pub p99_us: f64,
    /// Engine-side mean horizontal-batch size (from `INFO`, when a
    /// target was queried).
    pub avg_batch: Option<f64>,
    /// Engine-side read-cache hit rate (from `INFO`).
    pub cache_hit_rate: Option<f64>,
}

impl LoadSummary {
    fn from_latencies(mut lat_ns: Vec<u64>, errors: u64, secs: f64) -> LoadSummary {
        lat_ns.sort_unstable();
        let pct = |p: f64| -> f64 {
            if lat_ns.is_empty() {
                return 0.0;
            }
            let idx = ((lat_ns.len() as f64 - 1.0) * p / 100.0).round() as usize;
            lat_ns[idx] as f64 / 1_000.0
        };
        let ops = lat_ns.len() as u64;
        LoadSummary {
            ops,
            errors,
            secs,
            mops: if secs > 0.0 {
                ops as f64 / secs / 1e6
            } else {
                0.0
            },
            p50_us: pct(50.0),
            p99_us: pct(99.0),
            avg_batch: None,
            cache_hit_rate: None,
        }
    }

    /// One JSON object (`flatload --json`).
    pub fn to_json(&self, label: &str) -> String {
        let mut s = String::new();
        s.push_str("{\"transport\":");
        s.push_str(&obs::json::quote(label));
        s.push_str(&format!(
            ",\"ops\":{},\"errors\":{},\"secs\":{},\"mops\":{},\"p50_us\":{},\"p99_us\":{}",
            self.ops,
            self.errors,
            obs::json::number(self.secs),
            obs::json::number(self.mops),
            obs::json::number(self.p50_us),
            obs::json::number(self.p99_us),
        ));
        if let Some(b) = self.avg_batch {
            s.push_str(&format!(",\"avg_batch\":{}", obs::json::number(b)));
        }
        if let Some(h) = self.cache_hit_rate {
            s.push_str(&format!(",\"cache_hit_rate\":{}", obs::json::number(h)));
        }
        s.push('}');
        s
    }
}

/// Raw key bytes for an engine key: stable, human-greppable.
pub fn raw_key(key: u64) -> Vec<u8> {
    format!("key:{key:016x}").into_bytes()
}

fn wire_command(op: &WlOp) -> Vec<u8> {
    match op {
        WlOp::Put { key, value_len } => resp::command(&[
            b"SET".to_vec(),
            raw_key(*key),
            value_bytes(*key, (*value_len).max(1)),
        ]),
        WlOp::Get { key } => resp::command(&[b"GET".to_vec(), raw_key(*key)]),
        WlOp::Delete { key } => resp::command(&[b"DEL".to_vec(), raw_key(*key)]),
    }
}

/// Drives `opts.ops` ETC operations at the target over `opts.conns`
/// pipelined connections; queries `INFO` afterwards for engine-side
/// figures.
///
/// # Errors
///
/// Connection or protocol failures on any connection abort the run.
pub fn run_wire(target: &Target, opts: &LoadOpts) -> std::io::Result<LoadSummary> {
    let per_conn = opts.ops.div_ceil(opts.conns.max(1) as u64);
    let start = Instant::now();
    let results: Vec<std::io::Result<(Vec<u64>, u64)>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..opts.conns {
            let target = target.clone();
            let opts = opts.clone();
            handles.push(s.spawn(move || drive_conn(&target, &opts, c as u64, per_conn)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();

    let mut lat = Vec::new();
    let mut errors = 0u64;
    for r in results {
        let (l, e) = r?;
        lat.extend(l);
        errors += e;
    }
    let mut summary = LoadSummary::from_latencies(lat, errors, secs);

    let info = fetch_info(target)?;
    summary.avg_batch = json_path_f64(&info, &["sections", "batching", "avg_batch"]);
    summary.cache_hit_rate = json_path_f64(&info, &["sections", "read_cache", "hit_rate"]);
    Ok(summary)
}

fn drive_conn(
    target: &Target,
    opts: &LoadOpts,
    conn_id: u64,
    ops: u64,
) -> std::io::Result<(Vec<u64>, u64)> {
    let mut stream = target.connect()?;
    let mut reader = ReplyReader::new();
    let mut wl = EtcWorkload::new(
        opts.keyspace.max(100),
        opts.put_ratio,
        opts.seed.wrapping_add(conn_id.wrapping_mul(0x9e37)),
    );
    let mut outstanding: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();
    let mut lat = Vec::with_capacity(ops as usize);
    let mut errors = 0u64;
    let read_one = |stream: &mut NetStream,
                    outstanding: &mut std::collections::VecDeque<Instant>,
                    reader: &mut ReplyReader,
                    lat: &mut Vec<u64>,
                    errors: &mut u64|
     -> std::io::Result<()> {
        let reply = reader.next(stream)?;
        let sent = outstanding.pop_front().expect("reply without request");
        lat.push(sent.elapsed().as_nanos() as u64);
        if matches!(reply, resp::Reply::Error(_)) {
            *errors += 1;
        }
        Ok(())
    };
    for _ in 0..ops {
        let cmd = wire_command(&wl.next_op());
        if outstanding.len() >= opts.depth.max(1) {
            read_one(
                &mut stream,
                &mut outstanding,
                &mut reader,
                &mut lat,
                &mut errors,
            )?;
        }
        outstanding.push_back(Instant::now());
        stream.write_all(&cmd)?;
    }
    while !outstanding.is_empty() {
        read_one(
            &mut stream,
            &mut outstanding,
            &mut reader,
            &mut lat,
            &mut errors,
        )?;
    }
    Ok((lat, errors))
}

/// Fetches the server's `INFO` bulk (the engine `stats_report` JSON).
///
/// # Errors
///
/// Fails on connection errors or a non-bulk reply.
pub fn fetch_info(target: &Target) -> std::io::Result<String> {
    let mut stream = target.connect()?;
    stream.write_all(&resp::command(&[b"INFO".to_vec()]))?;
    let mut reader = ReplyReader::new();
    match reader.next(&mut stream)? {
        resp::Reply::Bulk(Some(bytes)) => String::from_utf8(bytes)
            .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "INFO not utf-8")),
        other => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("unexpected INFO reply: {other:?}"),
        )),
    }
}

/// Sends `SHUTDOWN` and waits for the `+OK`.
///
/// # Errors
///
/// Fails if the server is unreachable or answers with an error.
pub fn shutdown(target: &Target) -> std::io::Result<()> {
    let mut stream = target.connect()?;
    stream.write_all(&resp::command(&[b"SHUTDOWN".to_vec()]))?;
    let mut reader = ReplyReader::new();
    match reader.next(&mut stream)? {
        resp::Reply::Simple(s) if s == "OK" => Ok(()),
        other => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("unexpected SHUTDOWN reply: {other:?}"),
        )),
    }
}

/// Extracts a float at a key path from a stats-report JSON string.
pub fn json_path_f64(json: &str, path: &[&str]) -> Option<f64> {
    let parsed = obs::Json::parse(json).ok()?;
    let mut node = &parsed;
    for key in path {
        node = node.get(key)?;
    }
    node.as_f64()
}
