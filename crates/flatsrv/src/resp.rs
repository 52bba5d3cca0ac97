//! A RESP (REdis Serialization Protocol) subset codec.
//!
//! The server side parses **commands** — either multi-bulk arrays
//! (`*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n`, what every real client sends) or
//! inline commands (`GET foo\r\n`, what a human types into `nc`) — and
//! serializes **replies** (simple strings, errors, integers, bulk
//! strings, arrays). The client side ([`parse_reply`]) parses replies so
//! test and benchmark clients can drive a pipelined connection.
//!
//! Both parsers are incremental: they take the unconsumed read buffer
//! and return `Ok(None)` when more bytes are needed, or the parsed item
//! plus the number of bytes consumed. A malformed prefix returns
//! `Err(RespError)` — the connection answers `-ERR` and (for framing
//! errors that leave the stream unsynchronized) closes.

/// One command's arguments, `argv[0]` being the verb.
pub type Argv = Vec<Vec<u8>>;

/// Protocol-level parse failure (the stream can no longer be framed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespError(pub String);

impl std::fmt::Display for RespError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RespError {}

fn err(msg: impl Into<String>) -> RespError {
    RespError(msg.into())
}

/// Most elements one command array may carry.
pub const MAX_ARGS: usize = 1024;
/// Largest single bulk payload accepted (also caps values over the wire).
pub const MAX_BULK: usize = 8 << 20;
/// Longest inline command line accepted.
pub const MAX_INLINE: usize = 64 << 10;

/// Finds `\r\n` starting the search at `from`; returns the index of the
/// `\r`.
fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 1 < buf.len() {
        if buf[i] == b'\r' && buf[i + 1] == b'\n' {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Parses the decimal integer in `buf[start..end]` (one RESP header
/// line, no sign except an optional leading `-`).
fn parse_int(buf: &[u8]) -> Result<i64, RespError> {
    if buf.is_empty() {
        return Err(err("empty integer"));
    }
    let (neg, digits) = match buf[0] {
        b'-' => (true, &buf[1..]),
        _ => (false, buf),
    };
    if digits.is_empty() || digits.len() > 19 {
        return Err(err("bad integer"));
    }
    // Accumulate negated so i64::MIN (19 digits) parses without overflow.
    let mut v: i64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(err("bad integer"));
        }
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_sub(i64::from(b - b'0')))
            .ok_or_else(|| err("integer out of range"))?;
    }
    if neg {
        Ok(v)
    } else {
        v.checked_neg().ok_or_else(|| err("integer out of range"))
    }
}

/// Parses one command from the front of `buf`.
///
/// Returns `Ok(Some((argv, consumed)))` on a complete command — an empty
/// `argv` means a blank line / empty array that consumes bytes but
/// carries no command. `Ok(None)` means the buffer holds an incomplete
/// command; read more and retry.
///
/// # Errors
///
/// [`RespError`] when the prefix cannot be a valid command (bad header,
/// oversized payload, non-bulk array element).
pub fn parse_command(buf: &[u8]) -> Result<Option<(Argv, usize)>, RespError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] == b'*' {
        parse_multibulk(buf)
    } else {
        parse_inline(buf)
    }
}

fn parse_multibulk(buf: &[u8]) -> Result<Option<(Argv, usize)>, RespError> {
    let Some(hdr_end) = find_crlf(buf, 1) else {
        if buf.len() > 32 {
            return Err(err("multibulk header too long"));
        }
        return Ok(None);
    };
    let nargs = parse_int(&buf[1..hdr_end])?;
    if nargs < 0 {
        return Err(err("negative multibulk length"));
    }
    let nargs = nargs as usize;
    if nargs > MAX_ARGS {
        return Err(err("multibulk length exceeds limit"));
    }
    let mut pos = hdr_end + 2;
    let mut argv = Vec::with_capacity(nargs.min(16));
    for _ in 0..nargs {
        if pos >= buf.len() {
            return Ok(None);
        }
        if buf[pos] != b'$' {
            return Err(err("expected bulk string in multibulk"));
        }
        let Some(len_end) = find_crlf(buf, pos + 1) else {
            if buf.len() - pos > 32 {
                return Err(err("bulk header too long"));
            }
            return Ok(None);
        };
        let len = parse_int(&buf[pos + 1..len_end])?;
        if len < 0 {
            return Err(err("negative bulk length in command"));
        }
        let len = len as usize;
        if len > MAX_BULK {
            return Err(err("bulk length exceeds limit"));
        }
        let data_start = len_end + 2;
        let data_end = data_start + len;
        if buf.len() < data_end + 2 {
            return Ok(None);
        }
        if &buf[data_end..data_end + 2] != b"\r\n" {
            return Err(err("bulk payload not CRLF-terminated"));
        }
        argv.push(buf[data_start..data_end].to_vec());
        pos = data_end + 2;
    }
    Ok(Some((argv, pos)))
}

fn parse_inline(buf: &[u8]) -> Result<Option<(Argv, usize)>, RespError> {
    let Some(line_end) = find_crlf(buf, 0) else {
        // A bare `\n` terminator is also accepted inline (telnet ease).
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let argv = split_inline(&buf[..nl])?;
            return Ok(Some((argv, nl + 1)));
        }
        if buf.len() > MAX_INLINE {
            return Err(err("inline command too long"));
        }
        return Ok(None);
    };
    if line_end > MAX_INLINE {
        return Err(err("inline command too long"));
    }
    let argv = split_inline(&buf[..line_end])?;
    Ok(Some((argv, line_end + 2)))
}

/// Splits an inline command line on spaces/tabs (empty fields dropped).
fn split_inline(line: &[u8]) -> Result<Argv, RespError> {
    if line.contains(&0) {
        return Err(err("NUL in inline command"));
    }
    Ok(line
        .split(|&b| b == b' ' || b == b'\t' || b == b'\r')
        .filter(|f| !f.is_empty())
        .map(<[u8]>::to_vec)
        .collect())
}

// ---------------------------------------------------------------------
// Reply serialization (server → client)

/// `+msg\r\n`
pub fn simple(out: &mut Vec<u8>, msg: &str) {
    out.push(b'+');
    out.extend_from_slice(msg.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// `-ERR msg\r\n` (any CR/LF in `msg` is flattened to spaces).
pub fn error(out: &mut Vec<u8>, msg: &str) {
    out.push(b'-');
    out.extend_from_slice(b"ERR ");
    for b in msg.bytes() {
        out.push(if b == b'\r' || b == b'\n' { b' ' } else { b });
    }
    out.extend_from_slice(b"\r\n");
}

/// `:n\r\n`
pub fn integer(out: &mut Vec<u8>, n: i64) {
    out.push(b':');
    out.extend_from_slice(n.to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// `$len\r\n<data>\r\n`
pub fn bulk(out: &mut Vec<u8>, data: &[u8]) {
    out.push(b'$');
    out.extend_from_slice(data.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// `$-1\r\n` — the null bulk (missing key).
pub fn nil(out: &mut Vec<u8>) {
    out.extend_from_slice(b"$-1\r\n");
}

/// `*n\r\n` — array header; the caller emits the `n` elements after it.
pub fn array_header(out: &mut Vec<u8>, n: usize) {
    out.push(b'*');
    out.extend_from_slice(n.to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Serializes `argv` as the multi-bulk command framing a client sends —
/// the exact inverse of [`parse_command`]'s multi-bulk path.
pub fn command(argv: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + argv.iter().map(|a| a.len() + 16).sum::<usize>());
    array_header(&mut out, argv.len());
    for arg in argv {
        bulk(&mut out, arg);
    }
    out
}

// ---------------------------------------------------------------------
// Reply parsing (client side)

/// One parsed server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+msg`
    Simple(String),
    /// `-msg` (full message, prefix included in the payload)
    Error(String),
    /// `:n`
    Integer(i64),
    /// `$len` payload; `None` is the null bulk `$-1`.
    Bulk(Option<Vec<u8>>),
    /// `*n` elements.
    Array(Vec<Reply>),
}

/// Parses one reply from the front of `buf`; `Ok(None)` means incomplete.
///
/// # Errors
///
/// [`RespError`] on malformed framing.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, RespError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let Some(line_end) = find_crlf(buf, 1) else {
        return Ok(None);
    };
    let line = &buf[1..line_end];
    let after = line_end + 2;
    match buf[0] {
        b'+' => Ok(Some((
            Reply::Simple(String::from_utf8_lossy(line).into_owned()),
            after,
        ))),
        b'-' => Ok(Some((
            Reply::Error(String::from_utf8_lossy(line).into_owned()),
            after,
        ))),
        b':' => Ok(Some((Reply::Integer(parse_int(line)?), after))),
        b'$' => {
            let len = parse_int(line)?;
            if len < 0 {
                return Ok(Some((Reply::Bulk(None), after)));
            }
            let len = len as usize;
            if len > MAX_BULK {
                return Err(err("bulk reply exceeds limit"));
            }
            if buf.len() < after + len + 2 {
                return Ok(None);
            }
            if &buf[after + len..after + len + 2] != b"\r\n" {
                return Err(err("bulk reply not CRLF-terminated"));
            }
            Ok(Some((
                Reply::Bulk(Some(buf[after..after + len].to_vec())),
                after + len + 2,
            )))
        }
        b'*' => {
            let n = parse_int(line)?;
            if n < 0 {
                return Ok(Some((Reply::Array(Vec::new()), after)));
            }
            let mut items = Vec::with_capacity((n as usize).min(64));
            let mut pos = after;
            for _ in 0..n {
                match parse_reply(&buf[pos..])? {
                    Some((item, used)) => {
                        items.push(item);
                        pos += used;
                    }
                    None => return Ok(None),
                }
            }
            Ok(Some((Reply::Array(items), pos)))
        }
        other => Err(err(format!("unknown reply type byte {other:#x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multibulk_roundtrip() {
        let argv: Argv = vec![b"SET".to_vec(), b"k".to_vec(), b"v\r\nwith crlf".to_vec()];
        let wire = command(&argv);
        let (parsed, used) = parse_command(&wire).unwrap().unwrap();
        assert_eq!(parsed, argv);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn inline_variants() {
        let (argv, used) = parse_command(b"GET  foo\r\n").unwrap().unwrap();
        assert_eq!(argv, vec![b"GET".to_vec(), b"foo".to_vec()]);
        assert_eq!(used, 10);
        // Bare-\n termination and blank lines.
        let (argv, used) = parse_command(b"PING\n").unwrap().unwrap();
        assert_eq!(argv, vec![b"PING".to_vec()]);
        assert_eq!(used, 5);
        let (argv, used) = parse_command(b"\r\nGET x\r\n").unwrap().unwrap();
        assert!(argv.is_empty());
        assert_eq!(used, 2);
    }

    #[test]
    fn partial_input_wants_more() {
        let wire = command(&[b"GET".to_vec(), b"foo".to_vec()]);
        for cut in 0..wire.len() {
            let r = parse_command(&wire[..cut]).unwrap();
            assert!(r.is_none(), "cut at {cut} yielded {r:?}");
        }
    }

    #[test]
    fn malformed_is_an_error_not_a_panic() {
        for bad in [
            &b"*-1\r\n"[..],
            b"*1\r\n:5\r\n",
            b"*1\r\n$-3\r\n",
            b"*99999999\r\n",
            b"*1\r\n$3\r\nabcXY",
            b"*x\r\n",
            b"$5\r\nhello\r\n\x00\n",
        ] {
            assert!(matches!(parse_command(bad), Err(_) | Ok(None)) || bad[0] != b'*');
        }
        assert!(parse_command(b"*1\r\n$3\r\nabcXY").is_err());
    }

    #[test]
    fn reply_roundtrip() {
        let mut out = Vec::new();
        simple(&mut out, "OK");
        integer(&mut out, -42);
        bulk(&mut out, b"payload");
        nil(&mut out);
        array_header(&mut out, 2);
        bulk(&mut out, b"a");
        bulk(&mut out, b"b");

        let mut pos = 0;
        let mut replies = Vec::new();
        while pos < out.len() {
            let (r, used) = parse_reply(&out[pos..]).unwrap().unwrap();
            replies.push(r);
            pos += used;
        }
        assert_eq!(
            replies,
            vec![
                Reply::Simple("OK".into()),
                Reply::Integer(-42),
                Reply::Bulk(Some(b"payload".to_vec())),
                Reply::Bulk(None),
                Reply::Array(vec![
                    Reply::Bulk(Some(b"a".to_vec())),
                    Reply::Bulk(Some(b"b".to_vec())),
                ]),
            ]
        );
    }
}
