//! End-to-end wire tests: a real engine behind a real Unix socket,
//! spoken to with raw RESP bytes — command semantics, pipelined reply
//! order, connection churn back to baseline, the slow-consumer bound,
//! and the malformed corpus against a live server.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flatsrv::resp::{self, Reply};
use flatsrv::server::{Listener, Server, ServerOpts, StatsSource};
use flatstore::{Config, FlatStore, IndexKind};
use obs::Json;

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

struct TestServer {
    server: Option<Server>,
    store: Arc<FlatStore>,
    path: PathBuf,
}

impl TestServer {
    fn boot(opts: ServerOpts) -> TestServer {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .dram_bytes(8 << 20)
            .ncores(2)
            .group_size(2)
            .pipeline_depth(8)
            .index(IndexKind::Masstree)
            .build()
            .expect("valid test config");
        let store = Arc::new(FlatStore::create(cfg).expect("boot store"));
        let path = std::env::temp_dir().join(format!(
            "flatsrv-wire-{}-{}.sock",
            std::process::id(),
            SOCK_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind unix socket");
        let st = Arc::clone(&store);
        let stats_src: StatsSource = Arc::new(move || st.stats_report().to_json());
        let server = Server::start(
            store.handle(),
            stats_src,
            vec![Listener::Unix(listener)],
            opts,
        )
        .expect("start server");
        TestServer {
            server: Some(server),
            store,
            path,
        }
    }

    fn connect(&self) -> Client {
        let s = UnixStream::connect(&self.path).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Client {
            s,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server running")
    }

    fn clients_attached(&self) -> f64 {
        let report = self.store.stats_report().to_json();
        let json = Json::parse(&report).expect("report parses");
        json.get("sections")
            .and_then(|s| s.get("fabric"))
            .and_then(|f| f.get("clients_attached"))
            .and_then(|v| v.as_f64())
            .expect("fabric.clients_attached present")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

struct Client {
    s: UnixStream,
    buf: Vec<u8>,
    pos: usize,
}

impl Client {
    fn send(&mut self, bytes: &[u8]) {
        self.s.write_all(bytes).expect("send");
    }

    fn cmd(&mut self, argv: &[&[u8]]) {
        let argv: Vec<Vec<u8>> = argv.iter().map(|a| a.to_vec()).collect();
        self.send(&resp::command(&argv));
    }

    /// Reads one reply; panics on timeout or malformed bytes.
    fn reply(&mut self) -> Reply {
        loop {
            if let Some((r, used)) = resp::parse_reply(&self.buf[self.pos..]).expect("reply frame")
            {
                self.pos += used;
                return r;
            }
            let mut chunk = [0u8; 8192];
            match self.s.read(&mut chunk) {
                Ok(0) => panic!("server closed mid-reply"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    /// Reads until EOF/reset; returns replies seen on the way (used when
    /// the server is expected to hang up).
    fn drain_to_eof(&mut self) -> Vec<Reply> {
        let mut replies = Vec::new();
        loop {
            while let Ok(Some((r, used))) = resp::parse_reply(&self.buf[self.pos..]) {
                self.pos += used;
                replies.push(r);
            }
            let mut chunk = [0u8; 8192];
            match self.s.read(&mut chunk) {
                Ok(0) => return replies,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::ConnectionReset
                        || e.kind() == ErrorKind::BrokenPipe =>
                {
                    return replies
                }
                Err(e) => panic!("read: {e}"),
            }
        }
    }
}

fn bulk(data: &[u8]) -> Reply {
    Reply::Bulk(Some(data.to_vec()))
}

#[test]
fn commands_end_to_end() {
    let ts = TestServer::boot(ServerOpts::default());
    let mut c = ts.connect();

    c.cmd(&[b"PING"]);
    assert_eq!(c.reply(), Reply::Simple("PONG".into()));
    c.cmd(&[b"PING", b"echo me"]);
    assert_eq!(c.reply(), bulk(b"echo me"));

    c.cmd(&[b"SET", b"alpha", b"one"]);
    assert_eq!(c.reply(), Reply::Simple("OK".into()));
    c.cmd(&[b"GET", b"alpha"]);
    assert_eq!(c.reply(), bulk(b"one"));
    c.cmd(&[b"GET", b"missing"]);
    assert_eq!(c.reply(), Reply::Bulk(None));

    // Overwrite, then an empty value (legal over the wire; the key frame
    // keeps the stored value non-empty for the engine).
    c.cmd(&[b"SET", b"alpha", b"two"]);
    assert_eq!(c.reply(), Reply::Simple("OK".into()));
    c.cmd(&[b"SET", b"empty", b""]);
    assert_eq!(c.reply(), Reply::Simple("OK".into()));
    c.cmd(&[b"GET", b"empty"]);
    assert_eq!(c.reply(), bulk(b""));

    // Multi-key DEL counts only keys that existed.
    c.cmd(&[b"DEL", b"alpha", b"empty", b"never-was"]);
    assert_eq!(c.reply(), Reply::Integer(2));
    c.cmd(&[b"GET", b"alpha"]);
    assert_eq!(c.reply(), Reply::Bulk(None));

    // SCAN pages through every live key by cursor.
    for key in [&b"scan-a"[..], b"scan-b", b"scan-c"] {
        c.cmd(&[b"SET", key, b"v"]);
        assert_eq!(c.reply(), Reply::Simple("OK".into()));
    }
    let mut cursor = b"0".to_vec();
    let mut seen: Vec<Vec<u8>> = Vec::new();
    loop {
        c.cmd(&[b"SCAN", &cursor, b"COUNT", b"2"]);
        let Reply::Array(parts) = c.reply() else {
            panic!("SCAN must reply with an array")
        };
        assert_eq!(parts.len(), 2);
        let Reply::Bulk(Some(next)) = &parts[0] else {
            panic!("cursor must be a bulk string")
        };
        let Reply::Array(keys) = &parts[1] else {
            panic!("keys must be an array")
        };
        for k in keys {
            let Reply::Bulk(Some(k)) = k else {
                panic!("key must be a bulk string")
            };
            seen.push(k.clone());
        }
        if next == b"0" {
            break;
        }
        cursor = next.clone();
    }
    seen.sort();
    assert_eq!(
        seen,
        vec![b"scan-a".to_vec(), b"scan-b".to_vec(), b"scan-c".to_vec()]
    );

    // INFO streams the engine's schema-v2 stats report.
    c.cmd(&[b"INFO"]);
    let Reply::Bulk(Some(report)) = c.reply() else {
        panic!("INFO must reply with a bulk string")
    };
    let json = Json::parse(std::str::from_utf8(&report).expect("utf-8"))
        .expect("INFO payload parses as JSON");
    assert_eq!(json.get("schema").and_then(|v| v.as_f64()), Some(2.0));
    assert!(json
        .get("sections")
        .and_then(|s| s.get("batching"))
        .and_then(|b| b.get("avg_batch"))
        .is_some());

    // Usage errors answer -ERR and keep the connection serving.
    c.cmd(&[b"SET", b"only-key"]);
    assert!(matches!(c.reply(), Reply::Error(e) if e.contains("wrong number of arguments")));
    c.cmd(&[b"NOSUCH", b"x"]);
    assert!(matches!(c.reply(), Reply::Error(e) if e.contains("unknown command")));
    c.cmd(&[b"SCAN", b"not-a-number"]);
    assert!(matches!(c.reply(), Reply::Error(e) if e.contains("cursor")));

    // QUIT: +OK, flush, close.
    c.cmd(&[b"QUIT"]);
    assert_eq!(c.reply(), Reply::Simple("OK".into()));
    let tail = c.drain_to_eof();
    assert!(tail.is_empty(), "no replies after QUIT: {tail:?}");
}

#[test]
fn pipelined_commands_reply_in_order() {
    let ts = TestServer::boot(ServerOpts::default());
    let mut c = ts.connect();

    // One burst: 40 SETs, then 40 GETs, then one PING — far deeper than
    // the engine pipeline (8), so ordering is the server's FIFO at work.
    let mut burst = Vec::new();
    for i in 0..40u32 {
        let argv = vec![
            b"SET".to_vec(),
            format!("pipe-{i}").into_bytes(),
            format!("value-{i}").into_bytes(),
        ];
        burst.extend_from_slice(&resp::command(&argv));
    }
    for i in 0..40u32 {
        let argv = vec![b"GET".to_vec(), format!("pipe-{i}").into_bytes()];
        burst.extend_from_slice(&resp::command(&argv));
    }
    burst.extend_from_slice(&resp::command(&[b"PING".to_vec()]));
    c.send(&burst);

    for _ in 0..40 {
        assert_eq!(c.reply(), Reply::Simple("OK".into()));
    }
    for i in 0..40u32 {
        assert_eq!(c.reply(), bulk(format!("value-{i}").as_bytes()));
    }
    assert_eq!(c.reply(), Reply::Simple("PONG".into()));
}

#[test]
fn mget_mset_fan_out_and_gather() {
    let ts = TestServer::boot(ServerOpts::default());
    let mut c = ts.connect();

    // MSET fills many keys in one command (deeper than the pipeline
    // depth of 8, so submit's credit-blocking path runs too).
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..20u32)
        .map(|i| {
            (
                format!("multi-{i}").into_bytes(),
                format!("mv-{i}").into_bytes(),
            )
        })
        .collect();
    let mut argv: Vec<&[u8]> = vec![b"MSET"];
    for (k, v) in &pairs {
        argv.push(k);
        argv.push(v);
    }
    c.cmd(&argv);
    assert_eq!(c.reply(), Reply::Simple("OK".into()));

    // MGET gathers hits and misses in request order, one array frame.
    c.cmd(&[b"MGET", b"multi-3", b"never-was", b"multi-19", b"multi-0"]);
    assert_eq!(
        c.reply(),
        Reply::Array(vec![
            bulk(b"mv-3"),
            Reply::Bulk(None),
            bulk(b"mv-19"),
            bulk(b"mv-0"),
        ])
    );

    // A deleted key reads as nil inside the gather.
    c.cmd(&[b"DEL", b"multi-3"]);
    assert_eq!(c.reply(), Reply::Integer(1));
    c.cmd(&[b"MGET", b"multi-3", b"multi-4"]);
    assert_eq!(
        c.reply(),
        Reply::Array(vec![Reply::Bulk(None), bulk(b"mv-4")])
    );

    // Arity: MGET needs a key; MSET needs complete pairs.
    c.cmd(&[b"MGET"]);
    assert!(matches!(c.reply(), Reply::Error(e) if e.contains("wrong number of arguments")));
    c.cmd(&[b"MSET", b"k"]);
    assert!(matches!(c.reply(), Reply::Error(e) if e.contains("wrong number of arguments")));
    c.cmd(&[b"MSET", b"k", b"v", b"dangling"]);
    assert!(matches!(c.reply(), Reply::Error(e) if e.contains("wrong number of arguments")));

    // An oversized key rejects the whole MSET before anything applies.
    let huge = vec![b'x'; 5000];
    c.cmd(&[b"MSET", b"good", b"val", &huge, b"val"]);
    assert!(matches!(c.reply(), Reply::Error(e) if e.contains("key too long")));
    c.cmd(&[b"GET", b"good"]);
    assert_eq!(c.reply(), Reply::Bulk(None));

    // Multi-key verbs interleave cleanly with the rest of a pipeline.
    let mut burst = Vec::new();
    burst.extend_from_slice(&resp::command(&[
        b"MSET".to_vec(),
        b"a".to_vec(),
        b"1".to_vec(),
        b"b".to_vec(),
        b"2".to_vec(),
    ]));
    burst.extend_from_slice(&resp::command(&[
        b"MGET".to_vec(),
        b"a".to_vec(),
        b"b".to_vec(),
    ]));
    burst.extend_from_slice(&resp::command(&[b"PING".to_vec()]));
    c.send(&burst);
    assert_eq!(c.reply(), Reply::Simple("OK".into()));
    assert_eq!(c.reply(), Reply::Array(vec![bulk(b"1"), bulk(b"2")]));
    assert_eq!(c.reply(), Reply::Simple("PONG".into()));
}

#[test]
fn connection_churn_returns_to_baseline() {
    let ts = TestServer::boot(ServerOpts::default());
    let baseline = ts.clients_attached();

    for cycle in 0..100u32 {
        let mut c = ts.connect();
        let key = format!("churn-{cycle}");
        c.cmd(&[b"SET", key.as_bytes(), b"v"]);
        c.cmd(&[b"GET", key.as_bytes()]);
        c.cmd(&[b"PING"]);
        assert_eq!(c.reply(), Reply::Simple("OK".into()));
        assert_eq!(c.reply(), bulk(b"v"));
        assert_eq!(c.reply(), Reply::Simple("PONG".into()));
        // Drop: the server must reap the connection and park its port.
    }

    // The server reaps closed connections asynchronously; the gauge must
    // come back to exactly the pre-churn value.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = ts.clients_attached();
        if now == baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "clients_attached stuck at {now}, baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // And the fleet still serves.
    let mut c = ts.connect();
    c.cmd(&[b"PING"]);
    assert_eq!(c.reply(), Reply::Simple("PONG".into()));
}

#[test]
fn slow_consumer_is_disconnected() {
    let ts = TestServer::boot(ServerOpts {
        write_buf_limit: 8 << 10,
        max_conns: 16,
    });
    let mut c = ts.connect();

    // Thousands of INFO replies (~2 KiB each) with a reader that never
    // reads: the OS socket buffer fills, the server-side write buffer
    // passes the bound, and the server must hang up rather than buffer
    // without limit.
    let mut burst = Vec::new();
    for _ in 0..4000 {
        burst.extend_from_slice(&resp::command(&[b"INFO".to_vec()]));
    }
    c.send(&burst);
    // Do NOT read; wait for the server to give up on us.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(
            Instant::now() < deadline,
            "server never dropped the slow consumer"
        );
        if ts
            .server()
            .stats()
            .slow_consumer_drops
            .load(Ordering::Relaxed)
            > 0
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(c);

    // The drop was surgical: other connections still serve.
    let mut c2 = ts.connect();
    c2.cmd(&[b"PING"]);
    assert_eq!(c2.reply(), Reply::Simple("PONG".into()));
}

#[test]
fn malformed_corpus_answers_err_and_keeps_serving() {
    // Arm the crash flight recorder: if any engine worker panics while
    // the corpus is replayed, a dump appears and the test fails.
    let dump_dir =
        std::env::temp_dir().join(format!("flatsrv-malformed-dumps-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).expect("create dump dir");
    std::env::set_var("FLATSTORE_CRASH_DIR", &dump_dir);

    let corpus: &[&[u8]] = &[
        b"*-1\r\n",
        b"*2\r\n$3\r\nGET\r\n:5\r\n",
        b"*1\r\n$-3\r\n",
        b"*9999999\r\n",
        b"*1\r\n$99999999\r\n",
        b"*1\r\n$3\r\nabcXY\r\n",
        b"*x\r\n",
        b"*1\r\n$x\r\n",
        b"*123456789012345678901234567890\r\n",
        b"$5\r\nhello\r\n",
        b"GET\x00key\r\n",
        b"*1\r\n$1000000000000\r\n",
        b"\x00\x01\x02\x03\n",
        b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$9999999999999999999\r\n",
    ];

    let ts = TestServer::boot(ServerOpts::default());
    for (i, bad) in corpus.iter().enumerate() {
        let mut c = ts.connect();
        c.send(bad);
        // Close our writing side is not available on UnixStream halves
        // here; instead just read whatever comes back. Every reply must
        // be -ERR (garbage never executes), and the server may close.
        let _ = c.s.set_read_timeout(Some(Duration::from_secs(5)));
        let replies = c.drain_to_eof_or_quiet();
        for r in &replies {
            assert!(
                matches!(r, Reply::Error(_)),
                "corpus[{i}] got non-error reply {r:?}"
            );
        }
        drop(c);

        // The server survived this input: a fresh connection serves.
        let mut probe = ts.connect();
        probe.cmd(&[b"PING"]);
        assert_eq!(
            probe.reply(),
            Reply::Simple("PONG".into()),
            "after corpus[{i}]"
        );
    }

    // Flight recorder stayed quiet: no engine worker panicked.
    let dumps: Vec<_> = std::fs::read_dir(&dump_dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    assert!(dumps.is_empty(), "crash dumps written: {dumps:?}");
    let _ = std::fs::remove_dir_all(&dump_dir);
}

impl Client {
    /// Like [`drain_to_eof`], but also returns once the stream goes
    /// quiet (read timeout) — malformed inline garbage gets `-ERR`
    /// replies without a close, and we don't QUIT here.
    fn drain_to_eof_or_quiet(&mut self) -> Vec<Reply> {
        let mut replies = Vec::new();
        let _ = self.s.set_read_timeout(Some(Duration::from_millis(500)));
        loop {
            while let Ok(Some((r, used))) = resp::parse_reply(&self.buf[self.pos..]) {
                self.pos += used;
                replies.push(r);
            }
            let mut chunk = [0u8; 8192];
            match self.s.read(&mut chunk) {
                Ok(0) => return replies,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return replies
                }
                Err(e)
                    if e.kind() == ErrorKind::ConnectionReset
                        || e.kind() == ErrorKind::BrokenPipe =>
                {
                    return replies
                }
                Err(e) => panic!("read: {e}"),
            }
        }
    }
}
