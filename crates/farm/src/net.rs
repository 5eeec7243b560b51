//! Socket transport shared by the farmd dispatcher, the remote worker
//! mode of `petal-shard`, and the farm's remote-pool client.
//!
//! The [`crate::wire`] format is transport-agnostic (line-delimited
//! records); this module supplies the two stream transports the tuning
//! farm serves: **TCP** (`tcp:host:port`, or bare `host:port`) for
//! cross-machine pools and **unix-domain sockets** (`unix:<path>`) for
//! same-host pools with no network stack in the loop. [`Endpoint`] is
//! the parsed form of the one string an operator configures (`--listen`,
//! `--connect`, `--farmd`/`PETAL_FARMD`, `--registry`/`PETAL_REGISTRY`);
//! [`FarmListener`] and [`FarmStream`] erase the transport so everything
//! above this module is written once.
//!
//! Two endpoint forms never open a socket: `dir:<path>` names a local
//! directory-backed store (the registry's on-disk form) and `none`
//! explicitly disables a facility (`--farmd none` forces local
//! evaluation; `--registry none` forces a cold run). They exist so
//! every flag that accepts an endpoint shares this one grammar and one
//! parser instead of growing per-flag dialects.
//!
//! An endpoint string may also be an **ordered fallback list** —
//! comma-separated forms, e.g. `tcp:a:1,tcp:b:1,dir:/srv/reg` — parsed
//! as [`Endpoint::Fallback`]. Connecting walks the list in order and
//! uses the first element that answers, which is how a client survives
//! a dead primary dispatcher or fails over from a served registry to
//! its local directory mirror.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A parsed endpoint: where a dispatcher listens, workers/clients
/// connect, a store lives, or an explicit "nothing here".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address in `host:port` form (`tcp:host:port` or bare
    /// `host:port` on the command line).
    Tcp(String),
    /// A unix-domain socket path (`unix:<path>` on the command line).
    Unix(PathBuf),
    /// A local directory (`dir:<path>` on the command line) — no socket;
    /// names an on-disk store such as the registry's directory form.
    Dir(PathBuf),
    /// The explicit "off" endpoint (`none` on the command line): the
    /// escape hatch that beats an environment default.
    Disabled,
    /// An ordered fallback list (`tcp:a:1,tcp:b:1,dir:/srv/reg` on the
    /// command line): connecting tries each element in order and uses
    /// the first that answers. Never nested; never contains `none`.
    Fallback(Vec<Endpoint>),
}

/// The accepted endpoint grammar, echoed verbatim in every parse error
/// so a bad flag value teaches its own fix.
const ENDPOINT_GRAMMAR: &str = "`tcp:host:port` (or bare `host:port`), `unix:<path>`, \
     `dir:<path>`, `none`, or a comma-separated fallback list of those \
     (e.g. `tcp:a:1,tcp:b:1,dir:/srv/reg`)";

impl Endpoint {
    /// Parse an endpoint string: `tcp:<host:port>` (or bare `host:port`)
    /// selects TCP, `unix:<path>` a unix-domain socket, `dir:<path>` a
    /// local directory, and the literal `none` the disabled endpoint. A
    /// string containing `,` parses as an ordered [`Endpoint::Fallback`]
    /// list of those forms (`none` is not a fallback and is rejected
    /// inside a list).
    ///
    /// # Errors
    /// A message echoing the offending input and the accepted grammar.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if s.contains(',') {
            return Self::parse_list(s, Self::parse_one);
        }
        Self::parse_one(s)
    }

    /// One non-list endpoint form.
    fn parse_one(s: &str) -> Result<Endpoint, String> {
        if s == "none" {
            return Ok(Endpoint::Disabled);
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(format!(
                    "bad endpoint `{s}`: the tcp form is missing its port; \
                     expected {ENDPOINT_GRAMMAR}"
                ));
            }
            return Ok(Endpoint::Tcp(addr.to_owned()));
        }
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(format!(
                    "bad endpoint `{s}`: the unix form is missing its path; \
                     expected {ENDPOINT_GRAMMAR}"
                ));
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(path) = s.strip_prefix("dir:") {
            if path.is_empty() {
                return Err(format!(
                    "bad endpoint `{s}`: the dir form is missing its path; \
                     expected {ENDPOINT_GRAMMAR}"
                ));
            }
            return Ok(Endpoint::Dir(PathBuf::from(path)));
        }
        if s.contains(':') {
            return Ok(Endpoint::Tcp(s.to_owned()));
        }
        Err(format!("bad endpoint `{s}`; expected {ENDPOINT_GRAMMAR}"))
    }

    /// Parse a comma-separated fallback list, each element through
    /// `element` (so `parse` and `parse_store` lists keep their own
    /// bare-string rules).
    fn parse_list(
        s: &str,
        element: impl Fn(&str) -> Result<Endpoint, String>,
    ) -> Result<Endpoint, String> {
        let mut list = Vec::new();
        for part in s.split(',') {
            if part.is_empty() {
                return Err(format!(
                    "bad endpoint list `{s}`: empty element; expected {ENDPOINT_GRAMMAR}"
                ));
            }
            match element(part)? {
                Endpoint::Disabled => {
                    return Err(format!(
                        "bad endpoint list `{s}`: `none` cannot appear in a fallback \
                         list; expected {ENDPOINT_GRAMMAR}"
                    ))
                }
                ep => list.push(ep),
            }
        }
        Ok(Endpoint::Fallback(list))
    }

    /// Like [`Self::parse`], but a bare string with no `:` is taken as a
    /// `dir:` path — the historical `--registry <dir>` spelling, kept so
    /// existing scripts and docs stay valid. Prefix with `dir:` to name
    /// a directory whose path contains a colon. Comma lists apply the
    /// same bare-string rule per element.
    ///
    /// # Errors
    /// A message echoing the offending input and the accepted grammar.
    pub fn parse_store(s: &str) -> Result<Endpoint, String> {
        if s.contains(',') {
            return Self::parse_list(s, Self::parse_store_one);
        }
        Self::parse_store_one(s)
    }

    /// One non-list store-endpoint form (bare no-colon strings are dirs).
    fn parse_store_one(s: &str) -> Result<Endpoint, String> {
        if !s.is_empty() && !s.contains(':') && s != "none" {
            return Ok(Endpoint::Dir(PathBuf::from(s)));
        }
        Self::parse_one(s)
    }

    /// The socket elements this endpoint offers for connecting, in
    /// fallback order: the endpoint itself for a single `tcp:`/`unix:`
    /// form, the socket members of a fallback list, empty for
    /// `dir:`/`none`.
    #[must_use]
    pub fn socket_elements(&self) -> Vec<&Endpoint> {
        match self {
            Endpoint::Tcp(_) | Endpoint::Unix(_) => vec![self],
            Endpoint::Dir(_) | Endpoint::Disabled => Vec::new(),
            Endpoint::Fallback(list) => {
                list.iter().filter(|e| matches!(e, Endpoint::Tcp(_) | Endpoint::Unix(_))).collect()
            }
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Dir(path) => write!(f, "dir:{}", path.display()),
            Endpoint::Disabled => f.write_str("none"),
            Endpoint::Fallback(list) => {
                for (i, ep) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{ep}")?;
                }
                Ok(())
            }
        }
    }
}

/// A listening socket on either transport.
///
/// Accept blocks ([`Self::accept`]); a server loop that must stop wakes
/// its accepting thread by connecting to [`Self::local_endpoint`] itself.
#[derive(Debug)]
pub enum FarmListener {
    /// Listening TCP socket.
    Tcp(TcpListener),
    /// Listening unix-domain socket (the path is unlinked on drop).
    Unix(UnixListener, PathBuf),
}

impl FarmListener {
    /// Bind `endpoint`. A TCP port of `0` binds an ephemeral port
    /// (recover the real one with [`Self::local_endpoint`]); a stale
    /// unix-socket file at the path is removed first.
    ///
    /// # Errors
    /// The underlying `bind(2)` failure; `dir:`/`none` endpoints are not
    /// listenable and fail with `InvalidInput`.
    pub fn bind(endpoint: &Endpoint) -> io::Result<FarmListener> {
        Ok(match endpoint {
            Endpoint::Tcp(addr) => FarmListener::Tcp(TcpListener::bind(addr.as_str())?),
            Endpoint::Unix(path) => {
                // A previous dispatcher that died without cleanup leaves
                // the socket file behind; binding over it is the
                // operator-friendly behavior.
                let _ = std::fs::remove_file(path);
                FarmListener::Unix(UnixListener::bind(path)?, path.clone())
            }
            Endpoint::Dir(_) | Endpoint::Disabled | Endpoint::Fallback(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("endpoint `{endpoint}` is not a single socket; cannot listen on it"),
                ))
            }
        })
    }

    /// The bound endpoint, with any ephemeral TCP port resolved.
    ///
    /// # Errors
    /// When the local address cannot be read back from the socket.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            FarmListener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            FarmListener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
        }
    }

    /// Wait for the next connection.
    ///
    /// # Errors
    /// The underlying `accept(2)` failure.
    pub fn accept(&self) -> io::Result<FarmStream> {
        Ok(match self {
            FarmListener::Tcp(l) => FarmStream::Tcp(l.accept()?.0),
            FarmListener::Unix(l, _) => FarmStream::Unix(l.accept()?.0),
        })
    }
}

impl Drop for FarmListener {
    fn drop(&mut self) {
        if let FarmListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected stream on either transport.
#[derive(Debug)]
pub enum FarmStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    Unix(UnixStream),
}

impl FarmStream {
    /// Connect to `endpoint` once. A fallback list is walked in order
    /// and the first element that answers wins; the error names the
    /// whole list when every element refuses.
    ///
    /// # Errors
    /// The underlying `connect(2)` failure; `dir:`/`none` endpoints are
    /// not sockets and fail with `InvalidInput`.
    pub fn connect(endpoint: &Endpoint) -> io::Result<FarmStream> {
        Ok(match endpoint {
            Endpoint::Tcp(addr) => FarmStream::Tcp(TcpStream::connect(addr.as_str())?),
            Endpoint::Unix(path) => FarmStream::Unix(UnixStream::connect(path)?),
            Endpoint::Dir(_) | Endpoint::Disabled => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("endpoint `{endpoint}` is not a socket; cannot connect to it"),
                ))
            }
            Endpoint::Fallback(_) => {
                let mut last: Option<io::Error> = None;
                for ep in endpoint.socket_elements() {
                    match Self::connect(ep) {
                        Ok(s) => return Ok(s),
                        Err(e) => last = Some(e),
                    }
                }
                return Err(match last {
                    Some(e) => io::Error::new(
                        e.kind(),
                        format!("no endpoint in `{endpoint}` answered; last error: {e}"),
                    ),
                    None => io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("endpoint list `{endpoint}` has no socket element to connect to"),
                    ),
                });
            }
        })
    }

    /// Connect to `endpoint`, retrying until `patience` elapses — covers
    /// the worker-starts-before-dispatcher race in scripted bring-up.
    ///
    /// # Errors
    /// The last connect failure once patience runs out.
    pub fn connect_retry(endpoint: &Endpoint, patience: Duration) -> io::Result<FarmStream> {
        let deadline = Instant::now() + patience;
        loop {
            match Self::connect(endpoint) {
                Ok(s) => return Ok(s),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// An independent handle to the same connection (for split
    /// reader/writer threads).
    ///
    /// # Errors
    /// The underlying `dup(2)` failure.
    pub fn try_clone(&self) -> io::Result<FarmStream> {
        Ok(match self {
            FarmStream::Tcp(s) => FarmStream::Tcp(s.try_clone()?),
            FarmStream::Unix(s) => FarmStream::Unix(s.try_clone()?),
        })
    }

    /// Shut down both directions, unblocking any thread reading the peer.
    pub fn shutdown(&self) {
        match self {
            FarmStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            FarmStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Bound how long one read may block (`None` blocks forever).
    ///
    /// # Errors
    /// The underlying `setsockopt(2)` failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            FarmStream::Tcp(s) => s.set_read_timeout(timeout),
            FarmStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bound how long one write may block (`None` blocks forever). The
    /// dispatcher sets this on every connection so a wedged peer with a
    /// full receive buffer turns into a write error — and the
    /// worker-drain/requeue path — instead of parking the scheduler
    /// thread forever inside a blocked `write(2)`.
    ///
    /// # Errors
    /// The underlying `setsockopt(2)` failure.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            FarmStream::Tcp(s) => s.set_write_timeout(timeout),
            FarmStream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Whether an I/O error is a read-timeout expiry rather than a real
    /// failure (the two kinds differ across platforms).
    #[must_use]
    pub fn is_timeout(e: &io::Error) -> bool {
        matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    }
}

impl Read for FarmStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            FarmStream::Tcp(s) => s.read(buf),
            FarmStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for FarmStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            FarmStream::Tcp(s) => s.write(buf),
            FarmStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            FarmStream::Tcp(s) => s.flush(),
            FarmStream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_parse_and_display() {
        assert_eq!(Endpoint::parse("127.0.0.1:7777"), Ok(Endpoint::Tcp("127.0.0.1:7777".into())));
        assert_eq!(Endpoint::parse("tcp:127.0.0.1:80"), Ok(Endpoint::Tcp("127.0.0.1:80".into())));
        assert_eq!(Endpoint::parse("unix:/tmp/x.sock"), Ok(Endpoint::Unix("/tmp/x.sock".into())));
        assert_eq!(Endpoint::parse("dir:/srv/reg"), Ok(Endpoint::Dir("/srv/reg".into())));
        assert_eq!(Endpoint::parse("none"), Ok(Endpoint::Disabled));
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("dir:").is_err());
        assert!(Endpoint::parse("tcp:portless").is_err());
        assert!(Endpoint::parse("nocolon").is_err());
        assert_eq!(Endpoint::parse("unix:/tmp/x.sock").unwrap().to_string(), "unix:/tmp/x.sock");
        assert_eq!(Endpoint::parse("[::1]:80").unwrap().to_string(), "[::1]:80");
        assert_eq!(Endpoint::parse("dir:/srv/reg").unwrap().to_string(), "dir:/srv/reg");
        assert_eq!(Endpoint::parse("none").unwrap().to_string(), "none");
    }

    #[test]
    fn fallback_lists_parse_display_and_reject() {
        assert_eq!(
            Endpoint::parse("tcp:a:1,unix:/x.sock,dir:/srv/reg"),
            Ok(Endpoint::Fallback(vec![
                Endpoint::Tcp("a:1".into()),
                Endpoint::Unix("/x.sock".into()),
                Endpoint::Dir("/srv/reg".into()),
            ]))
        );
        // Bare host:port elements keep their non-list meaning.
        assert_eq!(
            Endpoint::parse("a:1,b:2"),
            Ok(Endpoint::Fallback(vec![Endpoint::Tcp("a:1".into()), Endpoint::Tcp("b:2".into())]))
        );
        // Display ∘ parse is the identity on canonically spelled lists
        // (TCP displays bare, its historical form), and re-parsing any
        // displayed list gives back the same value.
        for s in ["a:1,unix:/x.sock,dir:/srv/reg", "127.0.0.1:1,127.0.0.2:2"] {
            assert_eq!(Endpoint::parse(s).unwrap().to_string(), s);
        }
        let ep = Endpoint::parse("tcp:a:1,unix:/x.sock,dir:/srv/reg").unwrap();
        assert_eq!(Endpoint::parse(&ep.to_string()), Ok(ep));
        // `none`, empty elements and bad forms are rejected — and the
        // diagnostic echoes the offending input plus the grammar.
        for bad in ["none,tcp:a:1", "tcp:a:1,", ",tcp:a:1", "tcp:a:1,nocolon"] {
            let e = Endpoint::parse(bad).expect_err(bad);
            assert!(e.contains("tcp:host:port"), "`{bad}` → {e}");
        }
        let e = Endpoint::parse("tcp:a:1,none").expect_err("none in list");
        assert!(e.contains("tcp:a:1,none"), "{e}");
        // Socket elements skip the non-socket members, in order.
        let ep = Endpoint::parse("tcp:a:1,dir:/srv/reg,unix:/x.sock").unwrap();
        let socks: Vec<String> = ep.socket_elements().iter().map(|e| e.to_string()).collect();
        assert_eq!(socks, ["a:1", "unix:/x.sock"]);
    }

    #[test]
    fn parse_errors_echo_the_input_and_the_grammar() {
        for bad in ["tcp:portless", "unix:", "dir:", "nocolon", ""] {
            let e = Endpoint::parse(bad).expect_err(bad);
            assert!(e.contains(&format!("`{bad}`")), "`{bad}` → {e}");
            for form in ["tcp:host:port", "unix:<path>", "dir:<path>", "none", "comma"] {
                assert!(e.contains(form), "`{bad}` error must name {form}: {e}");
            }
        }
    }

    #[test]
    fn store_parsing_defaults_bare_paths_to_directories() {
        // The historical `--registry <dir>` spelling: no colon ⇒ a dir.
        assert_eq!(Endpoint::parse_store("/srv/reg"), Ok(Endpoint::Dir("/srv/reg".into())));
        assert_eq!(Endpoint::parse_store("relative"), Ok(Endpoint::Dir("relative".into())));
        // Everything with a scheme (or a bare host:port) keeps the strict
        // grammar, so a served registry is one prefix away.
        assert_eq!(Endpoint::parse_store("none"), Ok(Endpoint::Disabled));
        assert_eq!(Endpoint::parse_store("tcp:h:1"), Ok(Endpoint::Tcp("h:1".into())));
        assert_eq!(Endpoint::parse_store("h:1"), Ok(Endpoint::Tcp("h:1".into())));
        assert_eq!(Endpoint::parse_store("unix:/s.sock"), Ok(Endpoint::Unix("/s.sock".into())));
        assert_eq!(Endpoint::parse_store("dir:a:b"), Ok(Endpoint::Dir("a:b".into())));
        assert!(Endpoint::parse_store("").is_err());
        // List elements keep the bare-string-is-a-dir rule.
        assert_eq!(
            Endpoint::parse_store("tcp:h:1,/srv/reg"),
            Ok(Endpoint::Fallback(vec![
                Endpoint::Tcp("h:1".into()),
                Endpoint::Dir("/srv/reg".into()),
            ]))
        );
    }

    #[test]
    fn non_socket_endpoints_refuse_to_bind_or_connect() {
        for ep in [Endpoint::Dir("/tmp/x".into()), Endpoint::Disabled] {
            let bind = FarmListener::bind(&ep).expect_err("bind must fail");
            assert_eq!(bind.kind(), io::ErrorKind::InvalidInput);
            let connect = FarmStream::connect(&ep).expect_err("connect must fail");
            assert_eq!(connect.kind(), io::ErrorKind::InvalidInput);
        }
        // A fallback list is never listenable (it names many places).
        let list = Endpoint::Fallback(vec![Endpoint::Tcp("127.0.0.1:0".into())]);
        let bind = FarmListener::bind(&list).expect_err("bind must fail");
        assert_eq!(bind.kind(), io::ErrorKind::InvalidInput);
        // Connecting to a list with no live element aggregates the error.
        let dead = Endpoint::Fallback(vec![Endpoint::Dir("/tmp/x".into())]);
        let connect = FarmStream::connect(&dead).expect_err("connect must fail");
        assert_eq!(connect.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn fallback_connect_walks_past_a_dead_element() {
        let listener = FarmListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
        let live = listener.local_endpoint().expect("addr");
        // A dead primary (a bound-then-dropped ephemeral port) followed
        // by the live listener: connect must land on the live one.
        let dead = {
            let l = FarmListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
            l.local_endpoint().expect("addr")
        };
        let list = Endpoint::Fallback(vec![dead, live]);
        let mut client = FarmStream::connect(&list).expect("fallback connect");
        let mut server = listener.accept().expect("accept");
        client.write_all(b"ok").expect("write");
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ok");
    }

    #[test]
    fn tcp_loopback_round_trips_bytes() {
        let listener = FarmListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
        let ep = listener.local_endpoint().expect("addr");
        let mut client = FarmStream::connect(&ep).expect("connect");
        let mut server = listener.accept().expect("accept");
        client.write_all(b"ping\n").expect("write");
        let mut buf = [0u8; 5];
        server.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping\n");
    }

    #[test]
    fn unix_socket_binds_over_stale_file_and_cleans_up() {
        let path = std::env::temp_dir().join(format!("petal-net-test-{}.sock", std::process::id()));
        std::fs::write(&path, b"stale").expect("plant stale file");
        let ep = Endpoint::Unix(path.clone());
        let listener = FarmListener::bind(&ep).expect("bind over stale file");
        let mut client = FarmStream::connect(&ep).expect("connect");
        let mut server = listener.accept().expect("accept");
        client.write_all(b"hi").expect("write");
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hi");
        drop(listener);
        assert!(!path.exists(), "socket file removed on drop");
    }
}
