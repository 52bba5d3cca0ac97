//! The shipped `flatsrv` binary end to end: spawned as a child process,
//! driven over its Unix-socket and TCP listeners with raw RESP, and
//! stopped with `SHUTDOWN`, after which it must exit cleanly.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

use flatsrv::load::raw_key;
use flatsrv::resp::{self, Reply};
use obs::Json;
use workloads::{value_bytes, EtcWorkload, Op};

/// Connections the pipelined load opens.
const CONNS: u64 = 4;
/// Commands each connection keeps outstanding.
const DEPTH: usize = 8;
/// ETC operations across all connections.
const OPS: u64 = 50_000;

/// A `flatsrv` child process, killed on drop unless it already exited.
struct ServerProc {
    child: Child,
}

impl ServerProc {
    fn spawn(listen_args: &[&str]) -> ServerProc {
        let child = Command::new(env!("CARGO_BIN_EXE_flatsrv"))
            .args(listen_args)
            .arg("--quiet")
            .spawn()
            .expect("spawn flatsrv");
        ServerProc { child }
    }

    /// Waits for the process to exit on its own.
    fn wait_exit(&mut self) -> ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll flatsrv") {
                return status;
            }
            assert!(Instant::now() < deadline, "flatsrv did not exit");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Retries `connect` until the freshly spawned server accepts.
fn connect_retrying<S>(mut connect: impl FnMut() -> std::io::Result<S>) -> S {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match connect() {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("flatsrv never accepted: {e}"),
        }
    }
}

/// A blocking RESP client over any byte stream.
struct Conn<S> {
    s: S,
    buf: Vec<u8>,
    pos: usize,
}

impl<S: Read + Write> Conn<S> {
    fn new(s: S) -> Conn<S> {
        Conn {
            s,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn send(&mut self, argv: &[Vec<u8>]) {
        self.s.write_all(&resp::command(argv)).expect("send");
    }

    fn reply(&mut self) -> Reply {
        loop {
            if let Some((r, used)) = resp::parse_reply(&self.buf[self.pos..]).expect("reply frame")
            {
                self.pos += used;
                if self.pos > 64 * 1024 {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                return r;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.s.read(&mut chunk) {
                Ok(0) => panic!("server closed mid-reply"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    fn call(&mut self, argv: &[Vec<u8>]) -> Reply {
        self.send(argv);
        self.reply()
    }
}

fn ok() -> Reply {
    Reply::Simple("OK".into())
}

/// Whether a reply is the success reply of the command it answers.
type ReplyCheck = fn(&Reply) -> bool;

/// The command for one ETC operation, and a check of its reply.
fn etc_command(op: &Op) -> (Vec<Vec<u8>>, ReplyCheck) {
    match op {
        Op::Put { key, value_len } => (
            vec![
                b"SET".to_vec(),
                raw_key(*key),
                value_bytes(*key, (*value_len).max(1)),
            ],
            |r| *r == ok(),
        ),
        Op::Get { key } => (vec![b"GET".to_vec(), raw_key(*key)], |r| {
            matches!(r, Reply::Bulk(_))
        }),
        Op::Delete { key } => (vec![b"DEL".to_vec(), raw_key(*key)], |r| {
            matches!(r, Reply::Integer(_))
        }),
    }
}

/// Drives `ops` ETC operations on one connection with `DEPTH` commands
/// outstanding, asserting every reply.
fn drive_pipelined(conn: &mut Conn<UnixStream>, seed: u64, ops: u64) {
    let mut wl = EtcWorkload::new(10_000, 0.1, seed);
    let mut outstanding = std::collections::VecDeque::new();
    for _ in 0..ops {
        if outstanding.len() == DEPTH {
            let check: ReplyCheck = outstanding.pop_front().expect("window full");
            let r = conn.reply();
            assert!(check(&r), "unexpected reply {r:?}");
        }
        let (argv, check) = etc_command(&wl.next_op());
        conn.send(&argv);
        outstanding.push_back(check);
    }
    for check in outstanding {
        let r = conn.reply();
        assert!(check(&r), "unexpected reply {r:?}");
    }
}

/// Pipelined connections over a real socket still fill horizontal
/// batches: every command succeeds, the engine's mean HB batch read back
/// over `INFO` is above 1, and `SHUTDOWN` drains to a clean exit.
#[test]
fn pipelined_etc_load_over_unix_socket_fills_hb_batches() {
    let path = std::env::temp_dir().join(format!("flatsrv-bin-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut srv = ServerProc::spawn(&["--unix", path.to_str().expect("utf-8 temp path")]);
    let connect = |path: &PathBuf| Conn::new(connect_retrying(|| UnixStream::connect(path)));

    std::thread::scope(|s| {
        for c in 0..CONNS {
            let mut conn = connect(&path);
            s.spawn(move || drive_pipelined(&mut conn, 42 + c * 0x9e37, OPS / CONNS));
        }
    });

    let mut ctl = connect(&path);
    let Reply::Bulk(Some(info)) = ctl.call(&[b"INFO".to_vec()]) else {
        panic!("INFO is not a bulk reply");
    };
    let info = Json::parse(std::str::from_utf8(&info).expect("utf-8 INFO")).expect("INFO JSON");
    let avg_batch = info
        .get("sections")
        .and_then(|s| s.get("batching"))
        .and_then(|b| b.get("avg_batch"))
        .and_then(|v| v.as_f64())
        .expect("INFO reports batching.avg_batch");
    assert!(avg_batch > 1.0, "mean HB batch {avg_batch:.3} not > 1");

    assert_eq!(ctl.call(&[b"SHUTDOWN".to_vec()]), ok());
    let status = srv.wait_exit();
    assert!(status.success(), "flatsrv exited with {status}");
    assert!(!path.exists(), "flatsrv left its socket behind");
}

/// The TCP listener serves the same protocol.
#[test]
fn set_get_over_tcp_listener() {
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let mut srv = ServerProc::spawn(&["--listen", &addr]);
    let mut conn = Conn::new(connect_retrying(|| TcpStream::connect(&addr)));

    let key = raw_key(7);
    let value = value_bytes(7, 100);
    assert_eq!(
        conn.call(&[b"SET".to_vec(), key.clone(), value.clone()]),
        ok()
    );
    assert_eq!(conn.call(&[b"GET".to_vec(), key]), Reply::Bulk(Some(value)));

    assert_eq!(conn.call(&[b"SHUTDOWN".to_vec()]), ok());
    let status = srv.wait_exit();
    assert!(status.success(), "flatsrv exited with {status}");
}
