//! The pluggable transport seam behind the PS client.
//!
//! Every read/push/write the client issues funnels through one call —
//! [`Transport::carry`]: get this sealed [`WireFrame`] answered by its
//! shard, once. A transport knows nothing of the client above it; metering,
//! fault adjudication, retries, hedging and breakers are the client's,
//! whichever backend carried the frame. Two implementations exist:
//!
//! * [`SimTransport`] (the default): the shards are an in-process
//!   [`KvStore`], and a frame is answered on it exactly as a `ps-server`
//!   answers it on its own table.
//! * [`ProcessTransport`]: each PS shard is a real OS process (the
//!   `hetkg ps-server` subcommand) speaking length-prefixed `WireFrame`s
//!   (see [`hetkg_netsim::stream`]) over TCP or Unix-domain sockets.
//!   A carry is one attempt; a socket failure comes back as the same
//!   [`RpcError`] vocabulary the simulated fault machinery raises, and
//!   retrying is the client's alone.
//!
//! What a shard does with a frame exists once, here: [`answer_read`] for
//! the one read (a pull-if-newer; a plain pull is the request that holds no
//! version), [`apply_frame`] for a push or a write, and [`answer_images`]
//! for the image read that brings a table that is not the shards — a socket
//! run's trainer table — up to date with them. The simulated backend runs
//! them on the in-process store, a `ps-server` process on its own, so the
//! two cannot disagree about what a frame returns or changes.
//!
//! A carried frame is metered by the client, the same way on both
//! backends: the frame's [`wire_bytes`](WireFrame::wire_bytes) — for a
//! read, the request frame's plus the response frame's — on the local or
//! remote lane depending on shard placement. Envelope bytes (length prefix,
//! op byte, counts) ride unmetered on both, exactly like the cost model's
//! per-message overhead — which is what makes the cross-backend
//! differential test able to demand *identical* byte totals. An image read
//! is not training traffic and is not metered at all.

use crate::error::RpcError;
use crate::kvstore::{state_dim, KvStore, NO_VERSION};
use crate::optimizer::Optimizer;
use hetkg_kgraph::ParamKey;
use hetkg_netsim::compress::{decode_row, encoded_len};
use hetkg_netsim::stream::{self, StreamMessage};
use hetkg_netsim::{Codec, WireFrame};
use parking_lot::Mutex;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

// Stream operation bytes (the `op` field of a stream message). Byte 0 was
// the plain pull; it is retired and refused like any unknown op.

/// Gradient push: the frame's rows are applied through the server's
/// optimizer. The leading keys' rows are one gradient each; the trailing
/// keys each carry a trailer word, the energy (`f32` bits) of the several
/// gradients their row is the sum of.
pub const OP_PUSH: u8 = 1;
/// Raw overwrite (no optimizer).
pub const OP_WRITE: u8 = 2;
/// Server acknowledgement (empty frame).
pub const OP_ACK: u8 = 3;
/// Orderly server shutdown.
pub const OP_SHUTDOWN: u8 = 4;
/// The read, a pull-if-newer: the request's trailing keys each carry the
/// version the worker holds, its leading keys none (a plain pull is a
/// request of leading keys only); the response (same op byte) carries the
/// leading keys' rows, then the rows whose version differs, each of those
/// with its key and new version.
pub const OP_PULL_NEWER: u8 = 5;
/// The image read: every request key carries the version its asker holds;
/// the response (same op byte) names each row whose version differs, with
/// its new version, and carries that row followed by its optimizer-state
/// row — the `(row, state, version)` image a backup adopts in replication.
pub const OP_IMAGES: u8 = 6;

/// What a frame exchange *is*, as far as a transport needs to know.
/// Reads are the only hedgeable traffic (re-issuing a read is safe;
/// re-applying a gradient is not), and the only ops whose response
/// carries data back into the frame.
#[derive(Debug, Clone, Copy)]
pub enum FrameOp<'o> {
    /// Read the unversioned leading keys' rows, and of the versioned
    /// trailing keys the rows whose version differs from the one sent; the
    /// response frame (see [`answer_read`]) replaces the request frame.
    PullNewer,
    /// Apply gradients. The simulated backend applies this optimizer; a
    /// `ps-server` applies the one it built from its
    /// [`ShardServerConfig`](crate::ShardServerConfig).
    Push(&'o dyn Optimizer),
    /// Overwrite values (no optimizer).
    Write,
    /// Read the `(row, state, version)` image of every key whose version
    /// differs from the one sent; the response frame (see
    /// [`answer_images`]) replaces the request frame.
    Images,
}

impl FrameOp<'_> {
    /// The stream op byte for this operation.
    pub fn wire_op(self) -> u8 {
        match self {
            FrameOp::PullNewer => OP_PULL_NEWER,
            FrameOp::Push(_) => OP_PUSH,
            FrameOp::Write => OP_WRITE,
            FrameOp::Images => OP_IMAGES,
        }
    }

    /// Whether the shard answers with data that replaces the request frame
    /// (a read of either kind), rather than changing rows.
    pub fn is_read(self) -> bool {
        matches!(self, FrameOp::PullNewer | FrameOp::Images)
    }
}

/// Get one frame answered by its shard: the single seam every PS
/// interaction crosses.
///
/// Contract: on `Ok(())` the shard has answered the frame — for a read the
/// whole response frame has replaced it; a push or write has been applied.
/// On `Err` the frame's payload is unspecified. Nothing is metered here:
/// that is the caller's.
pub trait Transport: fmt::Debug + Send + Sync {
    /// Carry `frame` to `shard` and bring back its answer.
    fn carry(&self, shard: usize, op: FrameOp<'_>, frame: &mut WireFrame) -> Result<(), RpcError>;
}

/// The default backend: the shards are this in-process store.
#[derive(Debug)]
pub struct SimTransport(pub Arc<KvStore>);

impl Transport for SimTransport {
    /// Answer the frame on the store the way a shard server's connection
    /// handler does on its table: [`answer_read`] or [`answer_images`] for
    /// a read, [`apply_frame`] for a push or write. A frame this refuses
    /// has changed nothing and comes back as [`RpcError::CorruptPayload`],
    /// as a socket's refusal would.
    fn carry(&self, shard: usize, op: FrameOp<'_>, frame: &mut WireFrame) -> Result<(), RpcError> {
        let optimizer = match op {
            FrameOp::PullNewer => {
                answer_read(&self.0, shard, frame);
                return Ok(());
            }
            FrameOp::Images => {
                answer_images(&self.0, shard, frame);
                return Ok(());
            }
            FrameOp::Push(optimizer) => Some(optimizer),
            FrameOp::Write => None,
        };
        apply_frame(&self.0, shard, frame, optimizer)
            .map_err(|_| RpcError::CorruptPayload { attempts: 1 })
    }
}

/// Answer a read request in place, under one read lock of `shard`. The
/// request's last `versions.len()` keys are asked about conditionally; the
/// keys before them are plain pulls. The response keeps, of the conditional
/// keys, those whose row version differs from the one sent, with their new
/// versions, and carries every plain row and then every kept row as its
/// payload (plain rows need no key echoed: they all come back, in request
/// order).
///
/// The caller has checked that the request has no more versions than keys
/// and only keys `shard` holds.
pub(crate) fn answer_read(store: &KvStore, shard: usize, frame: &mut WireFrame) {
    answer(store, shard, frame, false);
}

/// Answer an image read in place, under one read lock of `shard`: of the
/// request's keys, each held under the version that follows it, the
/// response keeps those whose row version differs, with their new
/// versions, and carries each kept key's row followed by its optimizer-state
/// row. Asked by a table that *is* the shard's, it returns nothing.
///
/// The caller has checked that the request holds one version per key and
/// only keys `shard` holds.
pub(crate) fn answer_images(store: &KvStore, shard: usize, frame: &mut WireFrame) {
    debug_assert_eq!(frame.keys.len(), frame.versions.len());
    answer(store, shard, frame, true);
}

/// [`answer_read`], and with `images` each kept row's optimizer state
/// after it.
fn answer(store: &KvStore, shard: usize, frame: &mut WireFrame, images: bool) {
    let mut keys = std::mem::take(&mut frame.keys);
    let mut versions = std::mem::take(&mut frame.versions);
    let mut rows = std::mem::take(&mut frame.payload);
    rows.clear();
    let plain = keys.len() - versions.len();
    rows.reserve(
        keys[..plain]
            .iter()
            .map(|&k| store.row_dim(ParamKey(k)))
            .sum(),
    );
    let mut kept = 0;
    {
        let held = store.read_shard(shard);
        for i in 0..keys.len() {
            let p = store.place(ParamKey(keys[i]));
            debug_assert_eq!(p.shard, shard, "a frame addresses one shard");
            if i >= plain {
                // Version and row are read under one lock, so they belong
                // together.
                let version = held.version(p.kind, p.local);
                if version == versions[i - plain] {
                    continue;
                }
                keys[kept] = keys[i];
                versions[kept] = version;
                kept += 1;
            }
            rows.extend_from_slice(held.row(p.kind, p.local));
            if images {
                rows.extend_from_slice(held.state(p.kind, p.local));
            }
        }
    }
    keys.truncate(kept);
    versions.truncate(kept);
    *frame = WireFrame::seal_versioned(keys, versions, rows);
}

/// Apply a push (`optimizer` is `Some`: the rows are gradients) or a write
/// (`None`: the rows overwrite) frame to `shard`, under one write lock, row
/// by row in frame order. A compressed frame is walked by [`encoded_len`]:
/// row boundaries are a pure function of codec and row width, never
/// trusted from the wire. The body is measured against its keys' rows
/// before the first row is written, so a frame that is refused has changed
/// nothing.
pub(crate) fn apply_frame(
    store: &KvStore,
    shard: usize,
    frame: &WireFrame,
    optimizer: Option<&dyn Optimizer>,
) -> Result<(), &'static str> {
    let codec = frame.codec();
    let body = if codec == Codec::Dense {
        frame.payload.len() * 4
    } else if optimizer.is_some() {
        frame.encoded.len()
    } else {
        return Err("compressed frames are push-only");
    };
    let dims = || frame.keys.iter().map(|&k| store.row_dim(ParamKey(k)));
    if dims().map(|dim| encoded_len(codec, dim)).sum::<usize>() != body {
        return Err("frame body does not match its keys' rows");
    }
    let Some(plain) = frame.keys.len().checked_sub(frame.versions.len()) else {
        return Err("more energies than keys");
    };
    if optimizer.is_none() && plain != frame.keys.len() {
        return Err("energies on a write");
    }
    let energy = |bits: &u32| f32::from_bits(*bits);
    if !frame
        .versions
        .iter()
        .map(energy)
        .all(|e| e.is_finite() && e >= 0.0)
    {
        return Err("an energy that is not a finite, non-negative number");
    }
    let mut row = Vec::new();
    store.write_shard(shard, optimizer, |shard| {
        let mut off = 0;
        for (i, (&k, dim)) in frame.keys.iter().zip(dims()).enumerate() {
            let p = store.place(ParamKey(k));
            let energy = i.checked_sub(plain).map(|e| energy(&frame.versions[e]));
            if codec == Codec::Dense {
                let value = &frame.payload[off..off + dim];
                shard.write(p.kind, p.local, value, energy);
                off += dim;
            } else {
                let len = encoded_len(codec, dim);
                row.clear();
                row.resize(dim, 0.0);
                decode_row(codec, &frame.encoded[off..off + len], &mut row);
                shard.write(p.kind, p.local, &row, energy);
                off += len;
            }
        }
    });
    Ok(())
}

/// How wide each key's row is — all a socket transport needs to know of the
/// table to check that a reply has the shape its request asked for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowWidths {
    pub(crate) num_entities: u64,
    pub(crate) entity_dim: usize,
    pub(crate) relation_dim: usize,
    /// The optimizer's state words per row coordinate.
    pub(crate) state_width: usize,
}

/// Whether `response` is a well-formed answer to the read `request` — an
/// image read's if `images`: a dense frame with one version per key, none
/// of them [`NO_VERSION`], whose keys are an in-order selection of the
/// request's conditional keys and whose payload is exactly the request's
/// plain rows followed by those keys' rows (each with its optimizer-state
/// row, for an image read).
fn answers(widths: &RowWidths, images: bool, request: &WireFrame, response: &WireFrame) -> bool {
    if response.codec() != Codec::Dense
        || !response.encoded.is_empty()
        || response.versions.len() != response.keys.len()
        || response.versions.contains(&NO_VERSION)
    {
        return false;
    }
    let words = |&k: &u64| {
        let dim = if k < widths.num_entities {
            widths.entity_dim
        } else {
            widths.relation_dim
        };
        dim + usize::from(images) * state_dim(dim, widths.state_width)
    };
    let (plain, conditional) = request
        .keys
        .split_at(request.keys.len() - request.versions.len());
    let mut expected: usize = plain.iter().map(words).sum();
    let mut asked = conditional.iter();
    for k in &response.keys {
        if !asked.any(|a| a == k) {
            return false;
        }
        expected += words(k);
    }
    expected == response.payload.len()
}

/// Where one shard server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAddr {
    /// A TCP socket address, e.g. `127.0.0.1:4170`.
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl ServerAddr {
    /// Parse a `tcp:HOST:PORT` / `uds:PATH` spec (what `ps-server
    /// --listen` takes and what its READY line reports).
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            Ok(ServerAddr::Tcp(addr.to_string()))
        } else if let Some(path) = spec.strip_prefix("uds:") {
            Ok(ServerAddr::Uds(PathBuf::from(path)))
        } else {
            Err(format!(
                "bad listen spec `{spec}`: expected tcp:HOST:PORT or uds:PATH"
            ))
        }
    }
}

impl fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerAddr::Tcp(a) => write!(f, "tcp:{a}"),
            ServerAddr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// A connected stream between a client and a shard server, TCP or
/// Unix-domain.
#[derive(Debug)]
pub(crate) enum Sock {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Sock::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Sock::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Sock::Uds(s) => s.flush(),
        }
    }
}

fn connect(addr: &ServerAddr) -> io::Result<Sock> {
    let sock = match addr {
        ServerAddr::Tcp(spec) => {
            let resolved: Vec<SocketAddr> = spec.to_socket_addrs()?.collect();
            let first = resolved.first().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    "address resolved to nothing",
                )
            })?;
            let s = TcpStream::connect_timeout(first, CONNECT_TIMEOUT)?;
            s.set_nodelay(true)?;
            Sock::Tcp(s)
        }
        #[cfg(unix)]
        ServerAddr::Uds(path) => Sock::Uds(UnixStream::connect(path)?),
        #[cfg(not(unix))]
        ServerAddr::Uds(_) => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            ))
        }
    };
    match &sock {
        Sock::Tcp(s) => {
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
        }
        #[cfg(unix)]
        Sock::Uds(s) => {
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
        }
    }
    Ok(sock)
}

/// Per-shard connection state: lazily connected, dropped (and re-dialed by
/// the next carry) after any failure.
#[derive(Debug)]
struct ShardConn {
    addr: ServerAddr,
    sock: Option<Sock>,
}

impl ShardConn {
    /// The connected stream, dialing first if there is none.
    fn dial(&mut self) -> io::Result<&mut Sock> {
        if self.sock.is_none() {
            self.sock = Some(connect(&self.addr)?);
        }
        Ok(self.sock.as_mut().expect("connected above"))
    }
}

/// How long a dial may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// How long one read or write on a connected stream may block: a shard
/// server applying a large frame under load answers well inside it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The socket backend: one persistent stream per shard server, exchanges
/// serialized per shard by a mutex (workers are driven single-threaded, so
/// this is protection, not a bottleneck).
#[derive(Debug)]
pub struct ProcessTransport {
    conns: Vec<Mutex<ShardConn>>,
    /// The servers' row widths, which every read reply is checked against.
    widths: RowWidths,
    /// Per key, whether a push or write to its row was carried since the
    /// last [`take_moved`](Self::take_moved).
    moved: Mutex<Vec<bool>>,
}

impl ProcessTransport {
    /// A transport dialing the given shard servers (index = shard id),
    /// whose tables hold rows of `widths`.
    pub(crate) fn new(addrs: Vec<ServerAddr>, widths: RowWidths) -> Self {
        Self {
            conns: addrs
                .into_iter()
                .map(|addr| Mutex::new(ShardConn { addr, sock: None }))
                .collect(),
            widths,
            moved: Mutex::new(Vec::new()),
        }
    }

    /// The key of every row a push or write was carried to since the last
    /// call, ascending: what a table that catches up from these servers
    /// ([`PsClient::catch_up`](crate::PsClient::catch_up)) has to ask
    /// about. A failed carry counts too: the server may have applied it
    /// before the reply was lost.
    pub fn take_moved(&self) -> Vec<ParamKey> {
        let moved = std::mem::take(&mut *self.moved.lock());
        (0..)
            .zip(moved)
            .filter(|m| m.1)
            .map(|m| ParamKey(m.0))
            .collect()
    }

    /// One round trip: the frame goes out, the reply must verify and carry
    /// the op that answers `op`.
    fn attempt(
        &self,
        conn: &mut ShardConn,
        op: FrameOp<'_>,
        frame: &mut WireFrame,
    ) -> io::Result<()> {
        let sock = conn.dial()?;
        stream::write_frame(sock, op.wire_op(), frame)?;
        let StreamMessage {
            op: reply,
            frame: resp,
        } = stream::read_message(sock)?;
        if !resp.verify() {
            return Err(bad_reply("reply failed checksum"));
        }
        let images = matches!(op, FrameOp::Images);
        let answered = op.is_read() && reply == op.wire_op();
        if !op.is_read() && reply == OP_ACK {
            Ok(())
        } else if answered && answers(&self.widths, images, frame, &resp) {
            *frame = resp;
            Ok(())
        } else {
            Err(bad_reply("reply does not answer the request"))
        }
    }

    /// Send an orderly shutdown to every shard server over the existing
    /// (or freshly dialed) connections. The servers' accept loops serve
    /// one connection at a time, so shutdown must ride the same stream the
    /// training traffic used.
    pub fn send_shutdown(&self) -> io::Result<()> {
        let mut first_err = None;
        for conn in &self.conns {
            let mut conn = conn.lock();
            let r = (|| -> io::Result<()> {
                let sock = conn.dial()?;
                stream::write_message(sock, OP_SHUTDOWN, &[], &[], &[], &[], Codec::Dense, 0)?;
                // Ack is best-effort: the server may exit before replying.
                let _ = stream::read_message(sock);
                Ok(())
            })();
            conn.sock = None;
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

fn bad_reply(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Map a failed carry — one attempt — onto the client-facing error
/// vocabulary the simulated fault machinery already uses.
fn map_io_error(e: &io::Error, shard: usize) -> RpcError {
    use io::ErrorKind::*;
    let attempts = 1;
    match e.kind() {
        TimedOut | WouldBlock | ConnectionRefused | NotFound | AddrNotAvailable => {
            RpcError::ShardUnavailable { shard, attempts }
        }
        InvalidData => RpcError::CorruptPayload { attempts },
        _ => RpcError::Dropped { attempts },
    }
}

impl Transport for ProcessTransport {
    /// One attempt. A failure drops the stream, so the next carry dials
    /// again, and the frame is not written twice: a push or write whose
    /// reply was lost may already have been applied, and whether to send
    /// anything again is the client's fault loop's to decide.
    fn carry(&self, shard: usize, op: FrameOp<'_>, frame: &mut WireFrame) -> Result<(), RpcError> {
        let conn = self
            .conns
            .get(shard)
            .unwrap_or_else(|| panic!("shard {shard} has no server address"));
        if !op.is_read() {
            let mut moved = self.moved.lock();
            for &k in &frame.keys {
                if moved.len() <= k as usize {
                    moved.resize(k as usize + 1, false);
                }
                moved[k as usize] = true;
            }
        }
        let mut conn = conn.lock();
        self.attempt(&mut conn, op, frame).map_err(|e| {
            // Whatever the failure, the stream is suspect.
            conn.sock = None;
            map_io_error(&e, shard)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_addr_specs_round_trip() {
        let tcp = ServerAddr::parse("tcp:127.0.0.1:4170").unwrap();
        assert_eq!(tcp, ServerAddr::Tcp("127.0.0.1:4170".into()));
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:4170");
        let uds = ServerAddr::parse("uds:/tmp/shard0.sock").unwrap();
        assert_eq!(uds, ServerAddr::Uds(PathBuf::from("/tmp/shard0.sock")));
        assert_eq!(uds.to_string(), "uds:/tmp/shard0.sock");
        assert!(ServerAddr::parse("http://nope").is_err());
    }

    #[test]
    fn io_errors_map_onto_rpc_vocabulary() {
        let unavailable = io::Error::new(io::ErrorKind::ConnectionRefused, "x");
        assert!(matches!(
            map_io_error(&unavailable, 2),
            RpcError::ShardUnavailable {
                shard: 2,
                attempts: 1
            }
        ));
        let timeout = io::Error::new(io::ErrorKind::TimedOut, "x");
        assert!(matches!(
            map_io_error(&timeout, 0),
            RpcError::ShardUnavailable { .. }
        ));
        let corrupt = io::Error::new(io::ErrorKind::InvalidData, "x");
        assert!(matches!(
            map_io_error(&corrupt, 0),
            RpcError::CorruptPayload { attempts: 1 }
        ));
        let torn = io::Error::new(io::ErrorKind::UnexpectedEof, "x");
        assert!(matches!(
            map_io_error(&torn, 0),
            RpcError::Dropped { attempts: 1 }
        ));
    }

    /// A stand-in shard server on a Unix socket: per connection it reads
    /// one message, counts it, answers with `reply` if there is one and
    /// hangs up — until a shutdown arrives.
    #[cfg(unix)]
    struct FakeShard {
        transport: ProcessTransport,
        path: PathBuf,
        received: Arc<std::sync::atomic::AtomicUsize>,
        thread: std::thread::JoinHandle<()>,
    }

    #[cfg(unix)]
    impl FakeShard {
        fn start(name: &str, reply: Option<(u8, WireFrame)>) -> Self {
            use std::sync::atomic::Ordering;
            let path =
                std::env::temp_dir().join(format!("hetkg-fake-{}-{name}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
            let received = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let count = Arc::clone(&received);
            let thread = std::thread::spawn(move || {
                for conn in listener.incoming() {
                    let mut conn = conn.unwrap();
                    let Ok(message) = stream::read_message(&mut conn) else {
                        continue;
                    };
                    if message.op == OP_SHUTDOWN {
                        break;
                    }
                    count.fetch_add(1, Ordering::SeqCst);
                    if let Some((op, frame)) = &reply {
                        let _ = stream::write_frame(&mut conn, *op, frame);
                    }
                }
            });
            let transport = ProcessTransport::new(vec![ServerAddr::Uds(path.clone())], widths());
            Self {
                transport,
                path,
                received,
                thread,
            }
        }

        /// Messages the server has read, shutdown aside.
        fn received(&self) -> usize {
            self.received.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn stop(self) {
            self.transport.send_shutdown().unwrap();
            self.thread.join().unwrap();
            let _ = std::fs::remove_file(&self.path);
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_push_whose_ack_is_lost_is_sent_once() {
        let shard = FakeShard::start("lost-ack", None);
        let sgd = crate::optimizer::Sgd { lr: 0.1 };
        let mut push = WireFrame::seal(vec![3], vec![0.5; 4]);
        let err = shard
            .transport
            .carry(0, FrameOp::Push(&sgd), &mut push)
            .unwrap_err();
        assert_eq!(err, RpcError::Dropped { attempts: 1 });
        assert_eq!(
            shard.received(),
            1,
            "the server may have applied the push: it is not written again"
        );
        shard.stop();
    }

    #[cfg(unix)]
    #[test]
    fn a_read_whose_reply_fails_its_checksum_is_sent_once() {
        // The answer to a one-row plain pull, a bit flipped after sealing.
        let mut reply = WireFrame::seal(Vec::new(), vec![0.25; 4]);
        assert!(reply.corrupt(0) && !reply.verify());
        let shard = FakeShard::start("bad-reply", Some((OP_PULL_NEWER, reply)));
        let mut read = WireFrame::seal(vec![1], Vec::new());
        let err = shard
            .transport
            .carry(0, FrameOp::PullNewer, &mut read)
            .unwrap_err();
        assert_eq!(err, RpcError::CorruptPayload { attempts: 1 });
        assert_eq!(shard.received(), 1, "retrying a read is the client's");
        shard.stop();
    }

    #[cfg(unix)]
    #[test]
    fn a_failed_push_still_marks_its_rows_moved() {
        let shard = FakeShard::start("moved", None);
        let sgd = crate::optimizer::Sgd { lr: 0.1 };
        let mut push = WireFrame::seal(vec![1, 4], vec![0.5; 8]);
        assert!(shard
            .transport
            .carry(0, FrameOp::Push(&sgd), &mut push)
            .is_err());
        assert_eq!(shard.transport.take_moved(), [ParamKey(1), ParamKey(4)]);
        assert!(shard.transport.take_moved().is_empty(), "taken once");
        // A failed read moves nothing.
        let mut read = WireFrame::seal(vec![2], Vec::new());
        assert!(shard
            .transport
            .carry(0, FrameOp::PullNewer, &mut read)
            .is_err());
        assert!(shard.transport.take_moved().is_empty());
        shard.stop();
    }

    #[test]
    fn frame_ops_have_distinct_wire_bytes() {
        let sgd = crate::optimizer::Sgd { lr: 0.1 };
        assert_eq!(FrameOp::Push(&sgd).wire_op(), OP_PUSH);
        assert_eq!(FrameOp::Write.wire_op(), OP_WRITE);
        assert_eq!(FrameOp::PullNewer.wire_op(), OP_PULL_NEWER);
        assert_eq!(FrameOp::Images.wire_op(), OP_IMAGES);
        let ops = [
            OP_PUSH,
            OP_WRITE,
            OP_ACK,
            OP_SHUTDOWN,
            OP_PULL_NEWER,
            OP_IMAGES,
        ];
        for (i, a) in ops.iter().enumerate() {
            assert!(!ops[..i].contains(a), "op byte {a} used twice");
            assert_ne!(*a, 0, "byte 0 (the retired plain pull) stays unused");
        }
    }

    /// `small_store`'s row widths, as a socket transport is told them.
    fn widths() -> RowWidths {
        RowWidths {
            num_entities: 6,
            entity_dim: 4,
            relation_dim: 4,
            state_width: 1,
        }
    }

    /// One shard of 6 entities and 2 relations, 4 wide, with an AdaGrad
    /// state row per row.
    fn small_store() -> KvStore {
        use crate::router::ShardRouter;
        use hetkg_embed::init::Init;
        use hetkg_kgraph::KeySpace;
        let router = ShardRouter::round_robin(KeySpace::new(6, 2), 1);
        KvStore::new(router, 4, 4, 1, Init::Uniform { bound: 0.5 }, 3)
    }

    #[test]
    fn an_image_read_returns_row_state_and_version_of_the_rows_that_moved() {
        let store = small_store();
        let adagrad = crate::optimizer::AdaGrad::new(0.1);
        let keys: Vec<u64> = vec![1, 3, 6];
        let held: Vec<u32> = keys.iter().map(|&k| store.version(ParamKey(k))).collect();
        // Asked by a table that is the shard's: nothing comes back.
        let mut frame = WireFrame::seal_versioned(keys.clone(), held.clone(), Vec::new());
        answer_images(&store, 0, &mut frame);
        assert!(frame.keys.is_empty() && frame.payload.is_empty() && frame.verify());
        // Key 3 is pushed (row and state move), relation 6 overwritten.
        store.push_grad(ParamKey(3), &[0.5; 4], &adagrad);
        store.store(ParamKey(6), &[2.0; 4]);
        let mut frame = WireFrame::seal_versioned(keys.clone(), held.clone(), Vec::new());
        let request = frame.clone();
        answer_images(&store, 0, &mut frame);
        assert!(frame.verify());
        assert_eq!(frame.keys, [3, 6]);
        assert_eq!(
            frame.versions,
            [store.version(ParamKey(3)), store.version(ParamKey(6))]
        );
        let mut images = Vec::new();
        store.for_each_row_with_state(|k, row, state| {
            if k == ParamKey(3) || k == ParamKey(6) {
                images.push((k.0, [row, state].concat()));
            }
        });
        images.sort_by_key(|&(k, _)| k);
        assert_eq!(frame.payload, [&images[0].1[..], &images[1].1[..]].concat());
        assert!(
            frame.payload[4..8].iter().all(|&s| s > 0.0),
            "AdaGrad's state"
        );
        assert!(answers(&widths(), true, &request, &frame));
        // The same rows without their state rows are no image reply.
        let rows_only = WireFrame::seal_versioned(
            frame.keys.clone(),
            frame.versions.clone(),
            [&frame.payload[..4], &frame.payload[8..12]].concat(),
        );
        assert!(answers(&widths(), false, &request, &rows_only));
        assert!(!answers(&widths(), true, &request, &rows_only));
    }

    #[test]
    fn answer_newer_returns_exactly_the_rows_that_moved() {
        let store = small_store();
        let keys: Vec<u64> = vec![0, 3, 5, 7];
        let held: Vec<u32> = keys.iter().map(|&k| store.version(ParamKey(k))).collect();
        // Nothing moved: an empty (but sealed, verifying) answer.
        let mut frame = WireFrame::seal_versioned(keys.clone(), held.clone(), Vec::new());
        let request = frame.clone();
        answer_read(&store, 0, &mut frame);
        assert!(frame.keys.is_empty() && frame.payload.is_empty() && frame.verify());
        assert!(answers(&widths(), false, &request, &frame));
        // Two rows are written; a third is asked for without a held copy.
        store.store(ParamKey(3), &[1.0; 4]);
        store.store(ParamKey(7), &[2.0; 4]);
        let mut asked = held.clone();
        asked[0] = NO_VERSION;
        let mut frame = WireFrame::seal_versioned(keys.clone(), asked.clone(), Vec::new());
        let request = frame.clone();
        answer_read(&store, 0, &mut frame);
        assert!(frame.verify());
        assert_eq!(frame.keys, [0, 3, 7]);
        assert_eq!(&frame.payload[4..8], &[1.0; 4]);
        assert_eq!(&frame.payload[8..], &[2.0; 4]);
        assert_eq!(
            frame.versions[0], held[0],
            "an unwritten row keeps its version"
        );
        assert_ne!(frame.versions[1], held[1]);
        assert_eq!(frame.wire_bytes(), 3 * (8 + 4 + 16));
        assert!(answers(&widths(), false, &request, &frame));
        // Asking again with what came back returns nothing.
        let mut again =
            WireFrame::seal_versioned(frame.keys.clone(), frame.versions.clone(), vec![]);
        answer_read(&store, 0, &mut again);
        assert!(again.keys.is_empty());
    }

    #[test]
    fn plain_keys_ride_in_front_and_always_come_back() {
        let store = small_store();
        store.store(ParamKey(5), &[5.0; 4]);
        // Keys 1 and 6 are plain pulls; 3 and 5 are asked about with their
        // current versions, then 5 is written.
        let held = vec![store.version(ParamKey(3)), store.version(ParamKey(5))];
        store.store(ParamKey(5), &[6.0; 4]);
        let mut frame = WireFrame::seal_versioned(vec![1, 6, 3, 5], held, Vec::new());
        let request = frame.clone();
        assert_eq!(request.wire_bytes(), 4 * 8 + 2 * 4);
        answer_read(&store, 0, &mut frame);
        assert!(frame.verify());
        assert_eq!(
            frame.keys,
            [5],
            "plain rows are not named: they all come back"
        );
        assert_eq!(frame.versions, [store.version(ParamKey(5))]);
        let mut want = [0.0f32; 4];
        store.pull(ParamKey(1), &mut want);
        assert_eq!(frame.payload[..4], want);
        store.pull(ParamKey(6), &mut want);
        assert_eq!(frame.payload[4..8], want);
        assert_eq!(frame.payload[8..], [6.0; 4]);
        // A plain row costs what it costs in a plain pull: 8 + 16 bytes.
        assert_eq!(
            request.wire_bytes() + frame.wire_bytes(),
            2 * (8 + 16) + 2 * 12 + (12 + 16)
        );
        assert!(answers(&widths(), false, &request, &frame));
        // A response that drops a plain row is refused.
        let short = WireFrame::seal_versioned(vec![5], frame.versions.clone(), vec![0.0; 8]);
        assert!(!answers(&widths(), false, &request, &short));
        // So is one that names a plain key as if it had been conditional.
        let named = WireFrame::seal_versioned(vec![1, 5], vec![0, 1], vec![0.0; 12]);
        assert!(!answers(&widths(), false, &request, &named));
    }

    #[test]
    fn malformed_newer_responses_are_refused() {
        let request = WireFrame::seal_versioned(vec![1, 2, 6], vec![NO_VERSION; 3], Vec::new());
        let ok = WireFrame::seal_versioned(vec![1, 6], vec![0, 0], vec![0.0; 8]);
        assert!(answers(&widths(), false, &request, &ok));
        let reordered = WireFrame::seal_versioned(vec![6, 1], vec![0, 0], vec![0.0; 8]);
        assert!(!answers(&widths(), false, &request, &reordered));
        let unasked = WireFrame::seal_versioned(vec![1, 4], vec![0, 0], vec![0.0; 8]);
        assert!(!answers(&widths(), false, &request, &unasked));
        let repeated = WireFrame::seal_versioned(vec![1, 1], vec![0, 0], vec![0.0; 8]);
        assert!(!answers(&widths(), false, &request, &repeated));
        let short = WireFrame::seal_versioned(vec![1, 6], vec![0, 0], vec![0.0; 7]);
        assert!(!answers(&widths(), false, &request, &short));
        let unversioned = WireFrame::seal(vec![1], vec![0.0; 4]);
        assert!(!answers(&widths(), false, &request, &unversioned));
        let no_version = WireFrame::seal_versioned(vec![1], vec![NO_VERSION], vec![0.0; 4]);
        assert!(!answers(&widths(), false, &request, &no_version));
    }
}
