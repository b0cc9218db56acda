//! The memcached ASCII protocol (a compatible subset), so the KVS can
//! serve real memcached clients' command format.
//!
//! Supported: `get <key>`, `set <key> <flags> <exptime> <bytes>` with
//! a data line, and `delete <key>` — enough for memaslap-style load.
//! Commands arrive as one wire message (command line + optional data
//! line, CRLF-separated), responses follow the memcached grammar
//! (`VALUE`/`END`, `STORED`, `DELETED`/`NOT_FOUND`).

use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

use crate::kvs::Kvs;

/// Parse/format cost per command, in cycles.
const PARSE_CYCLES: u64 = 200;

/// One parsed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `get <key> [<key>...]` (memcached multi-get).
    Get {
        /// The keys, in request order.
        keys: Vec<Vec<u8>>,
    },
    /// `set <key> <flags> <exptime> <bytes>` + data line.
    Set {
        /// The key.
        key: Vec<u8>,
        /// Opaque client flags (stored nowhere; accepted for
        /// compatibility).
        flags: u32,
        /// Expiry in seconds (0 = never).
        exptime: u32,
        /// The value.
        value: Vec<u8>,
    },
    /// `delete <key>`.
    Delete {
        /// The key.
        key: Vec<u8>,
    },
}

/// Protocol parse errors (answered with `ERROR\r\n` by the server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub &'static str);

/// Parses one request (command line and, for `set`, its data line).
pub fn parse(msg: &[u8]) -> Result<Command, ParseError> {
    let line_end = msg
        .windows(2)
        .position(|w| w == b"\r\n")
        .ok_or(ParseError("missing CRLF"))?;
    let line = &msg[..line_end];
    let rest = &msg[line_end + 2..];
    let mut parts = line.split(|&b| b == b' ').filter(|p| !p.is_empty());
    let verb = parts.next().ok_or(ParseError("empty command"))?;
    match verb {
        b"get" => {
            let keys: Vec<Vec<u8>> = parts.map(|k| k.to_vec()).collect();
            if keys.is_empty() {
                return Err(ParseError("get needs a key"));
            }
            Ok(Command::Get { keys })
        }
        b"delete" => {
            let key = parts.next().ok_or(ParseError("delete needs a key"))?;
            Ok(Command::Delete { key: key.to_vec() })
        }
        b"set" => {
            let key = parts.next().ok_or(ParseError("set needs a key"))?;
            let flags: u32 = parse_num(parts.next().ok_or(ParseError("set needs flags"))?)?;
            let exptime: u32 = parse_num(parts.next().ok_or(ParseError("set needs exptime"))?)?;
            let bytes: usize =
                parse_num(parts.next().ok_or(ParseError("set needs a byte count"))?)? as usize;
            // The count is the client's: it sizes nothing until the
            // data line is shown to hold that many bytes and a CRLF.
            match rest.split_at_checked(bytes) {
                Some((value, tail)) if tail.starts_with(b"\r\n") => Ok(Command::Set {
                    key: key.to_vec(),
                    flags,
                    exptime,
                    value: value.to_vec(),
                }),
                _ => Err(ParseError("bad data line")),
            }
        }
        _ => Err(ParseError("unknown verb")),
    }
}

fn parse_num(b: &[u8]) -> Result<u32, ParseError> {
    std::str::from_utf8(b)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(ParseError("bad number"))
}

/// Builds a `get` request.
#[must_use]
pub fn format_get(key: &[u8]) -> Vec<u8> {
    format_multi_get(&[key])
}

/// Builds a multi-key `get` request.
#[must_use]
pub fn format_multi_get(keys: &[&[u8]]) -> Vec<u8> {
    let mut m = b"get".to_vec();
    for key in keys {
        m.push(b' ');
        m.extend_from_slice(key);
    }
    m.extend_from_slice(b"\r\n");
    m
}

/// Builds a `set` request.
#[must_use]
pub fn format_set(key: &[u8], flags: u32, exptime: u32, value: &[u8]) -> Vec<u8> {
    let mut m = b"set ".to_vec();
    m.extend_from_slice(key);
    m.extend_from_slice(format!(" {flags} {exptime} {}\r\n", value.len()).as_bytes());
    m.extend_from_slice(value);
    m.extend_from_slice(b"\r\n");
    m
}

/// Builds a `delete` request.
#[must_use]
pub fn format_delete(key: &[u8]) -> Vec<u8> {
    let mut m = b"delete ".to_vec();
    m.extend_from_slice(key);
    m.extend_from_slice(b"\r\n");
    m
}

/// Parses and executes one ASCII command against `kvs`, returning the
/// response plaintext — the closure a serve loop
/// ([`ServerIo::serve`](crate::io::ServerIo::serve)) runs per request.
/// A `set` the store refuses (a record larger than it can ever hold)
/// is answered memcached's `SERVER_ERROR object too large for cache`.
/// The body comes from a client, attested but not trusted: one that
/// does not parse is answered `ERROR` and counted in
/// `malformed_requests`, like the binary front-ends' `[0xFF]`.
pub fn process_text(kvs: &mut Kvs, ctx: &mut ThreadCtx, msg: &[u8]) -> Vec<u8> {
    ctx.compute(PARSE_CYCLES);
    match parse(msg) {
        Ok(Command::Get { keys }) => {
            let mut r = Vec::new();
            for key in keys {
                if let Some(value) = kvs.get(ctx, &key) {
                    r.extend_from_slice(b"VALUE ");
                    r.extend_from_slice(&key);
                    r.extend_from_slice(format!(" 0 {}\r\n", value.len()).as_bytes());
                    r.extend_from_slice(&value);
                    r.extend_from_slice(b"\r\n");
                }
            }
            r.extend_from_slice(b"END\r\n");
            r
        }
        Ok(Command::Set {
            key,
            exptime,
            value,
            ..
        }) => {
            if kvs.set_with_ttl(ctx, &key, &value, exptime) {
                b"STORED\r\n".to_vec()
            } else {
                b"SERVER_ERROR object too large for cache\r\n".to_vec()
            }
        }
        Ok(Command::Delete { key }) => {
            if kvs.delete(ctx, &key) {
                b"DELETED\r\n".to_vec()
            } else {
                b"NOT_FOUND\r\n".to_vec()
            }
        }
        Err(_) => {
            Stats::bump(&ctx.machine.stats.malformed_requests);
            b"ERROR\r\n".to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser never panics on arbitrary bytes, and whatever it
        /// accepts re-formats to an equivalent command.
        #[test]
        fn parser_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            if let Ok(cmd) = parse(&bytes) {
                let reformatted = match &cmd {
                    Command::Get { keys } => {
                        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                        format_multi_get(&refs)
                    }
                    Command::Delete { key } => format_delete(key),
                    Command::Set { key, flags, exptime, value } =>
                        format_set(key, *flags, *exptime, value),
                };
                // Keys containing spaces/CRLF cannot round-trip; only
                // check when the original key is clean.
                let dirty = |k: &Vec<u8>| k.iter().any(|&b| b == b' ' || b == b'\r' || b == b'\n');
                let clean = match &cmd {
                    Command::Get { keys } => !keys.iter().any(dirty),
                    Command::Delete { key } | Command::Set { key, .. } => !dirty(key),
                };
                if clean {
                    prop_assert_eq!(parse(&reformatted).unwrap(), cmd);
                }
            }
        }
    }

    #[test]
    fn parses_get_set_delete() {
        assert_eq!(
            parse(b"get user:1\r\n").unwrap(),
            Command::Get {
                keys: vec![b"user:1".to_vec()]
            }
        );
        assert_eq!(
            parse(b"get a bb ccc\r\n").unwrap(),
            Command::Get {
                keys: vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()]
            }
        );
        assert_eq!(
            parse(b"set k 7 60 5\r\nhello\r\n").unwrap(),
            Command::Set {
                key: b"k".to_vec(),
                flags: 7,
                exptime: 60,
                value: b"hello".to_vec()
            }
        );
        assert_eq!(
            parse(b"delete k\r\n").unwrap(),
            Command::Delete { key: b"k".to_vec() }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse(b"get\r\n").is_err());
        assert!(parse(b"set k 0 0 5\r\nhel\r\n").is_err(), "short data");
        assert!(parse(b"set k 0 0 nope\r\nhello\r\n").is_err());
        assert!(parse(b"flush_all\r\n").is_err());
        assert!(parse(b"no crlf").is_err());
    }

    #[test]
    fn format_parse_roundtrip() {
        let m = format_set(b"key-9", 3, 120, b"payload bytes");
        match parse(&m).unwrap() {
            Command::Set {
                key,
                flags,
                exptime,
                value,
            } => {
                assert_eq!(key, b"key-9");
                assert_eq!(flags, 3);
                assert_eq!(exptime, 120);
                assert_eq!(value, b"payload bytes");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(
            parse(&format_get(b"k")).unwrap(),
            Command::Get { .. }
        ));
        assert!(matches!(
            parse(&format_delete(b"k")).unwrap(),
            Command::Delete { .. }
        ));
    }

    #[test]
    fn binary_safe_values() {
        let value: Vec<u8> = (0..=255u8).collect(); // includes \r and \n
        let m = format_set(b"bin", 0, 0, &value);
        match parse(&m).unwrap() {
            Command::Set { value: v, .. } => assert_eq!(v, value),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn end_to_end_text_session() {
        use crate::io::IoPath;
        use crate::space::DataSpace;
        use crate::wire::Session;
        use eleos_enclave::machine::{MachineConfig, SgxMachine};
        use eleos_enclave::thread::ThreadCtx;
        use std::sync::Arc;

        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 8 << 20);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut kvs = Kvs::new(space.clone(), space, 8 << 20, 1024);
        let wire = Arc::new(Session::established([6u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 1);
        // (Staging sized for the one oversize `set` below.)
        let fd = m.host.socket(&ut, 4 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        kvs.init(&mut t);
        let io = crate::io::ServerIoConfig::with_buf_len(2 << 20).build(
            &t,
            &[fd],
            IoPath::Ocall,
            Arc::clone(&wire),
        );

        let session = [
            (
                format_set(b"greeting", 0, 0, b"hello"),
                b"STORED\r\n".to_vec(),
            ),
            (
                format_get(b"greeting"),
                b"VALUE greeting 0 5\r\nhello\r\nEND\r\n".to_vec(),
            ),
            (format_get(b"missing"), b"END\r\n".to_vec()),
            (format_delete(b"greeting"), b"DELETED\r\n".to_vec()),
            (format_delete(b"greeting"), b"NOT_FOUND\r\n".to_vec()),
            (b"gibberish\r\n".to_vec(), b"ERROR\r\n".to_vec()),
            // A record the store can never hold (no slab class is
            // that wide) is refused, not acknowledged and dropped.
            (
                format_set(b"huge", 0, 0, &vec![7u8; 1 << 20]),
                b"SERVER_ERROR object too large for cache\r\n".to_vec(),
            ),
            (format_get(b"huge"), b"END\r\n".to_vec()),
        ];
        // Multi-get: present keys listed in order, absent keys skipped.
        let multi = [
            (format_set(b"a", 0, 0, b"1"), b"STORED\r\n".to_vec()),
            (format_set(b"b", 0, 0, b"22"), b"STORED\r\n".to_vec()),
            (
                format_multi_get(&[b"a", b"missing", b"b"]),
                b"VALUE a 0 1\r\n1\r\nVALUE b 0 2\r\n22\r\nEND\r\n".to_vec(),
            ),
        ];
        for (req, expect) in session.into_iter().chain(multi) {
            m.host.push_request(&ut, fd, &wire.encrypt(&req));
            assert!(io.serve_one(&mut t, |c, msg| process_text(&mut kvs, c, msg)));
            let resp = wire.decrypt(&m.host.pop_response(fd).expect("response"));
            assert_eq!(resp, expect, "request {:?}", String::from_utf8_lossy(&req));
        }
        let stats = m.stats.snapshot();
        assert_eq!(stats.malformed_requests, 1, "the one parse error");
        t.exit();
    }

    #[test]
    fn batched_text_session_over_rpc_is_exitless() {
        use crate::io::IoPath;
        use crate::space::DataSpace;
        use crate::wire::Session;
        use eleos_enclave::machine::{MachineConfig, SgxMachine};
        use eleos_enclave::thread::ThreadCtx;
        use eleos_rpc::{with_syscalls, RpcService};
        use std::sync::Arc;

        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 8 << 20);
        let svc = Arc::new(
            with_syscalls(RpcService::builder(&m), &m)
                .workers(1, &[3])
                .build(),
        );
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut kvs = Kvs::new(space.clone(), space, 8 << 20, 1024);
        let wire = Arc::new(Session::established([6u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 1);
        let fd = m.host.socket(&ut, 64 << 10);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        kvs.init(&mut t);
        let io = crate::io::ServerIoConfig::with_buf_len(32 << 10)
            .batch(4)
            .build(&t, &[fd], IoPath::Rpc(svc), Arc::clone(&wire));

        let session = [
            (format_set(b"a", 0, 0, b"1"), b"STORED\r\n".to_vec()),
            (format_set(b"b", 0, 0, b"22"), b"STORED\r\n".to_vec()),
            (format_get(b"a"), b"VALUE a 0 1\r\n1\r\nEND\r\n".to_vec()),
            (format_get(b"b"), b"VALUE b 0 2\r\n22\r\nEND\r\n".to_vec()),
        ];
        for (req, _) in &session {
            m.host.push_request(&ut, fd, &wire.encrypt(req));
        }
        let s0 = m.stats.snapshot();
        let served = io.serve(&mut t, |c, msg| process_text(&mut kvs, c, msg));
        assert_eq!(served, 4);
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.enclave_exits, 0, "batched serving must not exit");
        assert_eq!(d.ocalls, 0);
        // One amortized ring submission per I/O stage: recv + send.
        assert_eq!(d.rpc_batches, 2);
        for (req, expect) in &session {
            let resp = wire.decrypt(&m.host.pop_response(fd).expect("response"));
            assert_eq!(&resp, expect, "request {:?}", String::from_utf8_lossy(req));
        }
        t.exit();
    }
}
