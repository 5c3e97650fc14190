//! The worker-side PS handle: routed, *metered* push/pull.
//!
//! This is where `localPull`/`localPush` vs `remotePull`/`remotePush` (§V)
//! are distinguished: a key whose shard is co-located with the calling
//! worker's machine is shared-memory traffic; every other key crosses the
//! simulated network. Batched operations send **one message per shard
//! touched per direction**, matching how a real KVStore client coalesces a
//! mini-batch's keys.
//!
//! # One call per operation
//!
//! Algorithm 4 has two operations and so does this client, plus PBG's
//! overwrite: the read [`PsClient::try_pull_newer_with`] (a pull-if-newer;
//! [`PsClient::try_pull_batch_with`] is the call that holds no version),
//! [`PsClient::try_push_coalesced_rows`] (a push whose trailing rows are
//! written back with their energies; its slice adapter
//! [`PsClient::try_push_batch_with`] writes nothing back) and
//! [`PsClient::try_write_batch_with`]. Each is batched (a single key is a
//! one-key batch), fallible, and builds its frames in a caller-owned
//! [`PsScratch`]; what to do when the retries run out is the caller's
//! decision. The transport's shard applies a push or write; this client
//! applies nothing ([`PsClient::catch_up`] aside).
//!
//! # Fault handling
//!
//! By default no call fails (the store is in-process memory).
//! Attaching a [`FaultInjector`] via [`PsClient::with_faults`] routes every
//! message through fault adjudication: drops are retransmitted after a
//! [`backoff`] (exponential, seeded jitter) up to [`MAX_ATTEMPTS`] sends,
//! and shard outages are waited out in simulated time. Every transmission
//! attempt — including retransmissions of dropped messages — is metered,
//! so simulated network time reflects the true cost of the faults. With a zero-fault plan
//! attached, traffic is byte-identical to running with no injector at all.
//!
//! # Wire integrity
//!
//! Every message is modeled as a checksummed [`WireFrame`] (key ids +
//! payload, sealed with a 32-bit digest at send time). Under a fault plan with
//! `corrupt_probability > 0` a delivered frame may arrive with a flipped
//! payload bit: with checksums on (the default) the client detects the
//! mismatch, counts it, and re-pulls on the same schedule — garbage never
//! reaches the table; with [`PsClient::with_checksums`]
//! `(false)` the damaged payload is ingested and counted, which is how the
//! divergence oracle demonstrates what the integrity layer prevents. The
//! 4-byte digest rides in the per-message envelope overhead already priced
//! by the cost model, so checksums change no metered byte counts.

use crate::compress::PushCompressor;
use crate::error::{backoff, RpcError, MAX_ATTEMPTS};
use crate::kvstore::{KvStore, NO_VERSION};
use crate::optimizer::Optimizer;
use crate::overload::OverloadControl;
use crate::replica::Replicas;
use crate::router::BatchPlan;
use crate::transport::{FrameOp, SimTransport, Transport};
use hetkg_kgraph::ParamKey;
use hetkg_netsim::compress::encoded_len;
use hetkg_netsim::{
    Cause, ClusterTopology, Codec, CompressionMode, CompressionStats, FaultInjector, TrafficMeter,
    TrafficSnapshot, Verdict, WireFrame,
};
use std::ops::Range;
use std::sync::Arc;

/// Bytes accounted per key id shipped in a request (u64 on the wire).
const KEY_BYTES: u64 = 8;
/// Bytes accounted per trailer word — a row version on a read, a gradient
/// energy on a push (u32 on the wire).
const VERSION_BYTES: u64 = 4;
/// Keys per round of image reads in [`PsClient::catch_up`]: 1024 rows of
/// 128 values and their AdaGrad state are 1 MiB of replies in flight.
const CATCH_UP_ROWS: usize = 1024;

/// The shape of a read request frame, noted before its response replaces
/// it, so the exchange can be metered as the one message it is.
#[derive(Debug, Clone, Copy, Default)]
struct Sent {
    keys: u64,
    versions: u64,
    /// How many of the versioned keys — the leading ones — are rows the
    /// worker is about to cache. The frame cannot say: a cached row a local
    /// gradient has moved is asked about with nothing held too.
    fresh: u64,
}

impl Sent {
    fn bytes(self) -> u64 {
        KEY_BYTES * self.keys + VERSION_BYTES * self.versions
    }
}

/// Where one key's row lives inside its shard frame's payload. After a
/// read, `width == 0` marks a key whose row did not come back, and
/// `version` is the version that came with a row that did.
#[derive(Debug, Clone, Copy, Default)]
struct FrameSlot {
    shard: usize,
    offset: usize,
    width: usize,
    version: u32,
}

/// Reusable scratch for the client's batched operations.
///
/// Every client operation resolves placements into a [`BatchPlan`], builds
/// one frame per shard out of recycled buffers, and returns every frame's
/// vectors to an internal pool afterwards — so a steady-state training loop
/// performs **zero** heap allocations per batched PS call. One scratch per
/// worker (it lives in the worker context); it carries no data across calls,
/// only capacity.
#[derive(Debug, Default)]
pub struct PsScratch {
    plan: BatchPlan,
    slots: Vec<FrameSlot>,
    /// Spare `(keys, payload)` vector pairs, recycled between calls.
    pool: Vec<(Vec<u64>, Vec<f32>)>,
    /// Per-shard frame contents for the call in flight (index = shard).
    parts: Vec<(Vec<u64>, Vec<f32>)>,
    /// Spare encoded-payload buffers of compressed frames, recycled between
    /// calls.
    byte_pool: Vec<Vec<u8>>,
    /// Spare version buffers of read frames, recycled between calls.
    version_pool: Vec<Vec<u32>>,
    /// How many fresh keys each shard's read frame asks about, for the call
    /// in flight (index = shard).
    fresh_in: Vec<u64>,
    /// Sealed frames for the call in flight (index = shard).
    wire: Vec<WireFrame>,
    /// Push-path compressor. `None` means compression is off — the dense
    /// push path is untouched and bit-identical to a scratch that never
    /// heard of compression.
    compressor: Option<PushCompressor>,
}

impl PsScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the push-path compression mode for this scratch (and thus for
    /// the worker that owns it). [`CompressionMode::Off`] drops the
    /// compressor — and any accumulated error-feedback residuals — so
    /// pushes go back to dense frames.
    pub fn set_compression(&mut self, mode: CompressionMode) {
        self.compressor = PushCompressor::new(mode);
    }

    /// Cumulative compression counters; `None` when compression is off.
    pub fn compression_stats(&self) -> Option<CompressionStats> {
        self.compressor.as_ref().map(|c| c.stats())
    }

    /// Feed one epoch's comm/compute lane occupancy to the adaptive
    /// compression policy. No-op for fixed modes or with compression off.
    pub fn adapt_compression(&mut self, comm_secs: f64, compute_secs: f64) {
        if let Some(c) = &mut self.compressor {
            c.adapt(comm_secs, compute_secs);
        }
    }

    /// Fold `key`'s pending error-feedback residual into `acc` (a gradient
    /// being deferred to a degraded-mode backlog) and clear it, so
    /// accumulated compression error rides the backlog instead of waiting
    /// on a wire that may stay down. Returns whether anything was folded;
    /// always false with compression off.
    pub fn fold_residual(&mut self, key: ParamKey, acc: &mut [f32]) -> bool {
        self.compressor
            .as_mut()
            .is_some_and(|c| c.drain_residual_into(key.0, acc))
    }

    /// The codec the next push through this scratch will use.
    fn push_codec(&self) -> Codec {
        self.compressor.as_ref().map_or(Codec::Dense, |c| c.codec())
    }

    /// Recycle last call's frames and hand out one cleared `(keys, payload)`
    /// pair per shard in `parts`.
    fn begin(&mut self, num_shards: usize) {
        for mut f in self.wire.drain(..) {
            self.pool
                .push((std::mem::take(&mut f.keys), std::mem::take(&mut f.payload)));
            // Dense frames carry no encoded buffer; pooling their empty
            // `Vec`s would grow the pool by one per shard per call, forever.
            if f.encoded.capacity() > 0 {
                self.byte_pool.push(std::mem::take(&mut f.encoded));
            }
            if f.versions.capacity() > 0 {
                self.version_pool.push(std::mem::take(&mut f.versions));
            }
        }
        self.pool.append(&mut self.parts);
        while self.parts.len() < num_shards {
            let (mut k, mut p) = self.pool.pop().unwrap_or_default();
            k.clear();
            p.clear();
            self.parts.push((k, p));
        }
    }
}

/// A worker's connection to the parameter server.
#[derive(Debug)]
pub struct PsClient {
    worker_id: usize,
    topology: ClusterTopology,
    store: Arc<KvStore>,
    meter: Arc<TrafficMeter>,
    /// The per-worker fault adjudicator, shared with the trainer for
    /// reporting.
    faults: Option<Arc<FaultInjector>>,
    checksums: bool,
    /// What this client does with the store's backups; attached exactly
    /// when the store keeps some.
    replicas: Option<Replicas>,
    /// Run-global overload protection (retry budget + circuit breakers),
    /// shared by every worker's client like `ShardLiveness`.
    overload: Option<Arc<OverloadControl>>,
    /// The backend that carries every frame to its shard: `store` itself
    /// by default, or a socket backend via
    /// [`with_transport`](Self::with_transport).
    transport: Arc<dyn Transport>,
}

impl PsClient {
    /// Client for `worker_id` under the given topology, reporting traffic to
    /// `meter`. When `store` keeps backups the client ships to them, fails
    /// over to one and hedges slow reads against them; nothing else arms
    /// that.
    pub fn new(
        worker_id: usize,
        topology: ClusterTopology,
        store: Arc<KvStore>,
        meter: Arc<TrafficMeter>,
    ) -> Self {
        assert!(worker_id < topology.num_workers(), "worker id out of range");
        assert_eq!(
            topology.num_machines(),
            store.router().num_shards(),
            "one PS shard per machine"
        );
        Self {
            worker_id,
            topology,
            transport: Arc::new(SimTransport(store.clone())),
            replicas: Replicas::for_store(&store, &meter),
            store,
            meter,
            faults: None,
            checksums: true,
            overload: None,
        }
    }

    /// Have `transport` carry every frame instead of the in-process store.
    /// Metering and the fault loop stay on this side of the seam; what the
    /// trainer still refuses over a socket transport is at
    /// `TrainConfig::check_socket_transport`.
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }

    /// Attach a fault injector to this client.
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Attach the run-global overload protection, shared across every
    /// worker's client in a run so the budget is truly global and all
    /// workers see the same breaker decisions. Without it, the fault loop
    /// retries a shed on the backoff schedule, like a drop.
    pub fn with_overload(mut self, control: Arc<OverloadControl>) -> Self {
        self.overload = Some(control);
        self
    }

    /// Enable or disable wire-frame checksum verification (on by default).
    /// With checksums off, frames corrupted in transit are ingested instead
    /// of detected and re-pulled.
    pub fn with_checksums(mut self, on: bool) -> Self {
        self.checksums = on;
        self
    }

    /// The attached fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The in-process store: the shards under the default transport; under
    /// any other, their rows as of the last [`catch_up`](Self::catch_up).
    pub fn store(&self) -> &Arc<KvStore> {
        &self.store
    }

    /// Meter one exchange with `shard` — one message on the local or remote
    /// lane, its bytes attributed to what they were for. `frame` is the frame
    /// as the exchange left it; `sent` is the wire size of a read's request
    /// frame (which the response has replaced) and default for every other
    /// op, whose one frame counts once for both directions.
    ///
    /// A read's message serves up to four causes: the keys sent without a
    /// version (8 bytes and a row each) are cache misses — all of a plain
    /// pull; the fresh keys (12 bytes asked, 12 and the row returned: a key
    /// held under no version always comes back) are construction, whichever
    /// message carries them; of the other conditional keys the 12 bytes each
    /// are the probe, and what names and carries each returned row (12 bytes
    /// and the row) the refresh. A push's serves two: its trailing rows, each
    /// with its energy word, are written back, the rows before them plain
    /// gradients.
    fn record_exchange(&self, shard: usize, op: FrameOp<'_>, sent: Sent, frame: &WireFrame) {
        let remote = !self.topology.is_local(self.worker_id, shard);
        let bytes = frame.wire_bytes();
        match op {
            FrameOp::Push(_) => {
                let plain = frame.keys.len() - frame.versions.len();
                let written_back: u64 = frame.keys[plain..]
                    .iter()
                    .map(|&k| {
                        let row = encoded_len(frame.codec(), self.store.row_dim(ParamKey(k)));
                        KEY_BYTES + VERSION_BYTES + row as u64
                    })
                    .sum();
                self.meter.record(
                    remote,
                    &[
                        (Cause::Push, bytes - written_back),
                        (Cause::WriteBack, written_back),
                    ],
                );
            }
            FrameOp::Write => self.meter.record(remote, &[(Cause::Write, bytes)]),
            FrameOp::PullNewer => {
                let asked = KEY_BYTES + VERSION_BYTES;
                let returned = |keys: &[u64]| -> u64 {
                    let rows = keys.iter().map(|&k| self.store.row_bytes(ParamKey(k)));
                    asked * keys.len() as u64 + rows.sum::<u64>()
                };
                // The fresh keys lead the conditional ones, and the response
                // names what came back in request order.
                let fresh = frame.keys.len().min(sent.fresh as usize);
                let (fresh, moved) = frame.keys.split_at(fresh);
                let construction = asked * sent.fresh + returned(fresh);
                let probe = asked * (sent.versions - sent.fresh);
                let rows = returned(moved);
                let misses = sent.bytes() + bytes - construction - probe - rows;
                self.meter.record(
                    remote,
                    &[
                        (Cause::MissPull, misses),
                        (Cause::Construction, construction),
                        (Cause::SyncProbe, probe),
                        (Cause::SyncRows, rows),
                    ],
                );
            }
            FrameOp::Images => unreachable!("an image read is not metered"),
        }
    }

    /// The shard `key` is homed on (the placement frame sealing uses).
    #[inline]
    pub fn shard_of(&self, key: ParamKey) -> usize {
        self.store.router().shard_of(key)
    }

    /// Whether `key`'s home shard is reachable right now. Always true
    /// without a fault injector.
    #[inline]
    pub fn shard_available(&self, key: ParamKey) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| f.shard_available(self.store.router().shard_of(key)))
    }

    /// Whether `shard`'s circuit breaker is tripped (Open or HalfOpen).
    /// Always false without overload protection attached.
    #[inline]
    pub fn breaker_tripped(&self, shard: usize) -> bool {
        self.overload.as_ref().is_some_and(|c| c.tripped(shard))
    }

    /// Whether `key`'s home shard is worth talking to right now: reachable
    /// *and* not behind a tripped breaker. This is the brownout predicate —
    /// the HET-KG cache serves stale under it instead of piling load onto a
    /// drowning shard.
    #[inline]
    pub fn shard_healthy(&self, key: ParamKey) -> bool {
        self.shard_available(key) && !self.breaker_tripped(self.store.router().shard_of(key))
    }

    /// Pull many keys; `sink(i, row)` receives each key's row in key order.
    /// All-or-nothing: on error no row reaches `sink`.
    ///
    /// The read of a worker that holds nothing: every key goes out without a
    /// version, so every row comes back. Each touched shard costs one
    /// message carrying its keys' ids plus the returned rows, all of it
    /// booked as cache misses; duplicate keys are allowed.
    pub fn try_pull_batch_with(
        &self,
        keys: &[ParamKey],
        scratch: &mut PsScratch,
        mut sink: impl FnMut(usize, &[f32]),
    ) -> Result<(), RpcError> {
        self.try_pull_newer_with(keys, 0, &[], scratch, |i, _, row| sink(i, row))
    }

    /// What a pull of `keys` is metered as when every frame is delivered
    /// first time. Sends nothing, reads no row: a pipelined worker books a
    /// pull's slot on its comm lane with it.
    ///
    /// All but the last `fresh` keys are plain — what
    /// [`try_pull_batch_with`](Self::try_pull_batch_with) pulls: 8 bytes and
    /// the row per key, duplicates included, all cache misses. The last
    /// `fresh` are rows the worker is about to cache, which
    /// [`try_pull_newer_with`](Self::try_pull_newer_with) asks about with
    /// nothing held: each comes back, named and versioned — 12 bytes asked,
    /// 12 and the row returned, all construction. One message per touched
    /// shard carries both kinds.
    pub fn staged_pull_cost(
        &self,
        keys: &[ParamKey],
        fresh: usize,
        scratch: &mut PsScratch,
    ) -> TrafficSnapshot {
        let plain = keys.len() - fresh;
        self.store.router().plan_into(keys, &mut scratch.plan);
        let cost = TrafficMeter::new();
        for shard in scratch.plan.shards() {
            let (mut misses, mut construction) = (0, 0);
            for i in scratch.plan.indices(shard) {
                let row = self.store.row_bytes(keys[i]);
                if i < plain {
                    misses += KEY_BYTES + row;
                } else {
                    construction += 2 * (KEY_BYTES + VERSION_BYTES) + row;
                }
            }
            let remote = !self.topology.is_local(self.worker_id, shard);
            cost.record(
                remote,
                &[
                    (Cause::MissPull, misses),
                    (Cause::Construction, construction),
                ],
            );
        }
        cost.snapshot()
    }

    /// Pull-if-newer, the one read, of three kinds of key in this order.
    /// The leading keys are pulled unconditionally (a batch's cache misses).
    /// `held` belongs to the *last* `held.len()` keys: those are asked about
    /// conditionally — `(key, held version)` goes out, and the row comes
    /// back, with its new version, only when the server's version differs (a
    /// sync of rows already cached). The `fresh` keys between the two are
    /// rows the caller is about to cache: asked about conditionally with
    /// nothing held, [`NO_VERSION`], so each
    /// comes back with the version it will be held under. All ride in the
    /// same per-shard message. `sink(i, version, row)` receives every row
    /// that came back, in ascending `i`; unconditional rows report
    /// `NO_VERSION`. A conditional key that does not come back is
    /// bit-identical to the copy its held version was obtained with (see
    /// the [`kvstore`](crate::kvstore) module docs), so skipping it changes
    /// no value the caller reads. The conditional keys must be distinct.
    /// All-or-nothing: on error no row reaches `sink`.
    ///
    /// One message per shard touched. An unconditional key is metered as 8
    /// bytes and its row, a cache miss; a conditional key as 8 bytes of id
    /// and 4 of version, and the same 12 again plus the row when it is
    /// returned (the response names the row and its new version) — a fresh
    /// key's as construction, the others' as the sync's probe and rows.
    ///
    /// Placements are resolved once into a shard-grouped [`BatchPlan`], the
    /// request frames are built out of `scratch`'s recycled buffers, each
    /// shard answers under one read lock, and nothing is allocated at
    /// steady state.
    pub fn try_pull_newer_with(
        &self,
        keys: &[ParamKey],
        fresh: usize,
        held: &[u32],
        scratch: &mut PsScratch,
        mut sink: impl FnMut(usize, u32, &[f32]),
    ) -> Result<(), RpcError> {
        assert!(
            fresh + held.len() <= keys.len(),
            "a key is fresh or held under one version, not both"
        );
        if keys.is_empty() {
            return Ok(());
        }
        let first_held = keys.len() - held.len();
        let unconditional = first_held - fresh;
        let version = |i: usize| match i.checked_sub(first_held) {
            Some(h) => Some(held[h]),
            None => (i >= unconditional).then_some(NO_VERSION),
        };
        self.seal_reads(keys, version, unconditional..first_held, scratch);
        let PsScratch {
            plan,
            slots,
            fresh_in,
            wire,
            ..
        } = &mut *scratch;
        self.transmit(plan, wire, FrameOp::PullNewer, fresh_in)?;
        // A response's payload is the unconditional rows, then the rows of
        // its keys — an in-order selection of the conditional ones.
        slots.clear();
        slots.resize(keys.len(), FrameSlot::default());
        for shard in plan.shards() {
            let frame = &wire[shard];
            let (mut returned, mut offset) = (0, 0);
            for i in plan.indices(shard) {
                let version = if i < unconditional {
                    NO_VERSION
                } else if frame.keys.get(returned) == Some(&keys[i].0) {
                    returned += 1;
                    frame.versions[returned - 1]
                } else {
                    continue;
                };
                let width = self.store.row_dim(keys[i]);
                slots[i] = FrameSlot {
                    shard,
                    offset,
                    width,
                    version,
                };
                offset += width;
            }
            debug_assert_eq!(
                returned,
                frame.keys.len(),
                "every returned row was asked for"
            );
            debug_assert_eq!(offset, frame.payload.len());
        }
        for (i, slot) in slots.iter().enumerate() {
            if slot.width > 0 {
                let row = &wire[slot.shard].payload[slot.offset..slot.offset + slot.width];
                sink(i, slot.version, row);
            }
        }
        Ok(())
    }

    /// [`try_push_coalesced_rows`](Self::try_push_coalesced_rows) for
    /// callers that hold the gradients as a slice of rows, one gradient
    /// each: `grads[i]` is the gradient for `keys[i]`, nothing is written
    /// back.
    pub fn try_push_batch_with(
        &self,
        keys: &[ParamKey],
        grads: &[&[f32]],
        optimizer: &dyn Optimizer,
        scratch: &mut PsScratch,
    ) -> Result<(), RpcError> {
        assert_eq!(keys.len(), grads.len(), "one gradient per key");
        self.try_push_coalesced_rows(keys, &[], |i| grads[i], optimizer, scratch)
    }

    /// Push many gradients, one message per shard touched; the server
    /// applies `optimizer`. `row_of(i)` is the gradient for `keys[i]` — a
    /// lookup, so callers holding gradients in an arena (e.g. a
    /// `GradAccum`) push without building a per-call `Vec<&[f32]>`.
    /// `energies` belongs to the *last* `energies.len()` keys: each of those
    /// rows is the sum of several gradients of a row written back once, and
    /// its energy `Σᵢ‖gᵢ‖²` rides in the frame's trailer for the server's
    /// [`Optimizer::update_coalesced`]; the keys before them carry one
    /// gradient each. All-or-nothing: on error no gradient is applied.
    ///
    /// One plan groups the keys by shard, each shard applies its frame under
    /// one write lock, and duplicate keys apply in batch order (the grouping
    /// is stable). The scratch's compression mode decides how the rows are
    /// encoded on the wire. A row written back is metered as its key, its
    /// row as encoded and 4 bytes of energy, under [`Cause::WriteBack`].
    pub fn try_push_coalesced_rows<'a>(
        &self,
        keys: &[ParamKey],
        energies: &[f32],
        row_of: impl Fn(usize) -> &'a [f32],
        optimizer: &dyn Optimizer,
        scratch: &mut PsScratch,
    ) -> Result<(), RpcError> {
        assert!(energies.len() <= keys.len(), "at most one energy per key");
        if keys.is_empty() {
            return Ok(());
        }
        let codec = scratch.push_codec();
        self.seal_frames(keys, energies, row_of, codec, scratch);
        let op = FrameOp::Push(optimizer);
        self.transmit(&scratch.plan, &mut scratch.wire, op, &[])?;
        if codec != Codec::Dense {
            self.decode_and_commit(keys, codec, scratch);
        }
        self.meter_push_frames(scratch);
        Ok(())
    }

    /// Push what the scratch's compressor held back under a codec that drops
    /// coordinates since the last flush: every such key goes out as its
    /// residual alone, under int8, so only rounding error stays behind (see
    /// [`compress`](crate::compress)). Returns whether anything was pushed.
    /// All-or-nothing like any push: on error every residual is where it
    /// was, and rides the key's next push.
    pub fn try_flush_held(
        &self,
        optimizer: &dyn Optimizer,
        scratch: &mut PsScratch,
    ) -> Result<bool, RpcError> {
        let held = scratch
            .compressor
            .as_mut()
            .map(|c| c.take_held_back())
            .unwrap_or_default();
        if held.is_empty() {
            return Ok(false);
        }
        let keys: Vec<ParamKey> = held.into_iter().map(ParamKey).collect();
        let width = keys.iter().map(|&k| self.store.row_dim(k)).max();
        let zero = vec![0.0; width.unwrap_or_default()];
        // Staging adds each key's residual to its own row, here nothing.
        let row_of = |i: usize| &zero[..self.store.row_dim(keys[i])];
        self.seal_frames(&keys, &[], row_of, Codec::Int8, scratch);
        self.transmit(
            &scratch.plan,
            &mut scratch.wire,
            FrameOp::Push(optimizer),
            &[],
        )?;
        self.decode_and_commit(&keys, Codec::Int8, scratch);
        self.meter_push_frames(scratch);
        Ok(true)
    }

    /// Overwrite many keys' values (no optimizer), one message per shard
    /// touched. Used by block-partitioned training (PBG) to save entity
    /// partitions back to shared storage. All-or-nothing; duplicate keys
    /// resolve to the last value in batch order, like sequential stores.
    pub fn try_write_batch_with(
        &self,
        keys: &[ParamKey],
        values: &[&[f32]],
        scratch: &mut PsScratch,
    ) -> Result<(), RpcError> {
        assert_eq!(keys.len(), values.len(), "one value per key");
        if keys.is_empty() {
            return Ok(());
        }
        self.seal_frames(keys, &[], |i| values[i], Codec::Dense, scratch);
        self.transmit(&scratch.plan, &mut scratch.wire, FrameOp::Write, &[])
    }

    /// Bring this client's store up to date with the shards on `keys`: an
    /// image read per touched shard holds each key's version in the store,
    /// and the store adopts each `(row, optimizer state, version)` that
    /// comes back — nothing, under the default transport. Not training
    /// traffic: unmetered, and no fault is adjudicated.
    pub fn catch_up(&self, keys: &[ParamKey], scratch: &mut PsScratch) -> Result<(), RpcError> {
        for chunk in keys.chunks(CATCH_UP_ROWS) {
            let held = |i: usize| Some(self.store.version(chunk[i]));
            self.seal_reads(chunk, held, 0..0, scratch);
            for shard in scratch.plan.shards() {
                let frame = &mut scratch.wire[shard];
                self.transport.carry(shard, FrameOp::Images, frame)?;
                self.store.adopt_images(shard, frame);
            }
        }
        Ok(())
    }

    /// Plan `keys` and seal one read frame per shard out of `scratch`'s
    /// buffers: key `i` holds `held(i)`, or is plain where that is `None`
    /// (plain keys lead), and each shard's count of `fresh` keys is noted.
    fn seal_reads(
        &self,
        keys: &[ParamKey],
        held: impl Fn(usize) -> Option<u32>,
        fresh: Range<usize>,
        scratch: &mut PsScratch,
    ) {
        let router = self.store.router();
        router.plan_into(keys, &mut scratch.plan);
        scratch.begin(router.num_shards());
        let PsScratch {
            plan,
            parts,
            version_pool,
            fresh_in,
            wire,
            ..
        } = &mut *scratch;
        fresh_in.clear();
        for (shard, (mut frame_keys, rows)) in parts.drain(..).enumerate() {
            let mut versions = version_pool.pop().unwrap_or_default();
            versions.clear();
            let mut in_fresh = 0;
            for i in plan.indices(shard) {
                frame_keys.push(keys[i].0);
                versions.extend(held(i));
                in_fresh += u64::from(fresh.contains(&i));
            }
            fresh_in.push(in_fresh);
            wire.push(WireFrame::seal_versioned(frame_keys, versions, rows));
        }
    }

    /// Plan a batch and seal one push or write frame per shard from
    /// caller-supplied rows (`row_of(i)` belongs to `keys[i]`, `energies`
    /// to the last keys), leaving the plan and wire frames in `scratch`.
    /// Per-shard frame contents are in batch order, since the plan's
    /// grouping is stable — so a shard's rows with an energy trail its
    /// frame, and their energies are its trailer.
    ///
    /// Under a compressing `codec` each row is first staged through the
    /// compressor (error feedback *peeks* the key's residual — nothing is
    /// committed until the transmit succeeds) and encoded; the frame's
    /// checksum then covers the encoded bytes, and the staged dense rows
    /// stay client-side in the frame payload (never on the wire) so a
    /// successful transmit can commit residuals without re-deriving them.
    fn seal_frames<'a>(
        &self,
        keys: &[ParamKey],
        energies: &[f32],
        row_of: impl Fn(usize) -> &'a [f32],
        codec: Codec,
        scratch: &mut PsScratch,
    ) {
        let plain = keys.len() - energies.len();
        let router = self.store.router();
        router.plan_into(keys, &mut scratch.plan);
        scratch.begin(router.num_shards());
        let PsScratch {
            plan,
            parts,
            byte_pool,
            version_pool,
            wire,
            compressor,
            ..
        } = &mut *scratch;
        let mut compressor = compressor.as_mut().filter(|_| codec != Codec::Dense);
        if let Some(comp) = &mut compressor {
            comp.begin_batch(keys.len());
        }
        for (shard, (mut frame_keys, mut payload)) in parts.drain(..).enumerate() {
            let mut encoded = match compressor {
                Some(_) => byte_pool.pop().unwrap_or_default(),
                None => Vec::new(),
            };
            encoded.clear();
            let mut trailer = match energies {
                [] => Vec::new(),
                _ => version_pool.pop().unwrap_or_default(),
            };
            trailer.clear();
            for i in plan.indices(shard) {
                let offset = payload.len();
                payload.extend_from_slice(row_of(i));
                if let Some(comp) = &mut compressor {
                    comp.stage(i, keys[i].0, &mut payload[offset..]);
                    comp.encode(codec, &payload[offset..], &mut encoded);
                }
                frame_keys.push(keys[i].0);
                if let Some(e) = i.checked_sub(plain) {
                    trailer.push(energies[e].to_bits());
                }
            }
            // Empty shards are sealed too, so `wire` stays shard-indexed.
            wire.push(match codec {
                Codec::Dense => WireFrame::seal_versioned(frame_keys, trailer, payload),
                _ => {
                    WireFrame::seal_encoded_versioned(frame_keys, trailer, payload, encoded, codec)
                }
            });
        }
        // Dense frames carry exactly the per-key metered bytes (the checksum
        // rides in the per-message envelope overhead). Compressed frames
        // intentionally carry fewer: their walk is checked row by row in
        // `decode_and_commit`.
        debug_assert!(
            codec != Codec::Dense
                || wire.iter().map(|fr| fr.wire_bytes()).sum::<u64>()
                    == keys
                        .iter()
                        .map(|&k| self.store.row_bytes(k) + KEY_BYTES)
                        .sum::<u64>()
                        + VERSION_BYTES * energies.len() as u64,
            "frame bytes must match the metered per-key accounting"
        );
    }

    /// After a successful compressed transmit: walk each frame's encoded
    /// bytes beside its staged rows (row boundaries are a pure function of
    /// codec and row width — no counts or lengths are trusted from the
    /// wire), overwrite each staged payload row with the decoded values the
    /// server actually applies, and commit each key's error-feedback
    /// residual. With checksums off an ingested corrupt frame decodes to
    /// finite garbage here, exactly like the dense ingest path.
    fn decode_and_commit(&self, keys: &[ParamKey], codec: Codec, scratch: &mut PsScratch) {
        let PsScratch {
            plan,
            wire,
            compressor,
            ..
        } = &mut *scratch;
        let comp = compressor
            .as_mut()
            .expect("non-dense codec without a compressor");
        for shard in plan.shards() {
            let frame = &mut wire[shard];
            let (mut off, mut at) = (0, 0);
            for i in plan.indices(shard) {
                let width = self.store.row_dim(keys[i]);
                let len = encoded_len(codec, width);
                comp.decode_commit_row(
                    codec,
                    i,
                    keys[i].0,
                    &frame.encoded[off..off + len],
                    &mut frame.payload[at..at + width],
                );
                off += len;
                at += width;
            }
            debug_assert_eq!(
                off,
                frame.encoded.len(),
                "encoded walk must cover the frame"
            );
        }
    }

    /// Meter delivered push frames on the push lane — a reporting
    /// *breakdown* of bytes already counted on the local/remote lanes
    /// (actual wire bytes vs what the same rows cost dense), not
    /// additional traffic — and feed the compressor's cumulative stats
    /// when compression is on. Runs for dense pushes too, so the
    /// raw-vs-wire comparison has a baseline in every mode.
    fn meter_push_frames(&self, scratch: &mut PsScratch) {
        let PsScratch {
            wire, compressor, ..
        } = &mut *scratch;
        for frame in wire.iter() {
            if frame.keys.is_empty() {
                continue;
            }
            self.meter
                .record_push(frame.wire_bytes(), frame.dense_wire_bytes());
            if let Some(c) = compressor.as_mut() {
                c.note_frame(frame);
            }
        }
    }

    /// [`exchange`](Self::exchange) the frame of every shard the plan
    /// touches, in ascending shard order (`fresh_in[shard]` of a read
    /// frame's versioned keys are fresh), then carry a push or write frame
    /// by frame, each shard's backups shipped to after it. All-or-nothing:
    /// the first shard that exhausts its retries aborts the batch.
    fn transmit(
        &self,
        plan: &BatchPlan,
        frames: &mut [WireFrame],
        op: FrameOp<'_>,
        fresh_in: &[u64],
    ) -> Result<(), RpcError> {
        for shard in plan.shards() {
            let fresh = fresh_in.get(shard).copied().unwrap_or(0);
            self.exchange(shard, op, &mut frames[shard], fresh)?;
        }
        if !op.is_read() {
            for shard in plan.shards() {
                self.transport.carry(shard, op, &mut frames[shard])?;
                if let Some(replicas) = &self.replicas {
                    replicas.ship(shard);
                }
            }
        }
        Ok(())
    }

    /// Exchange one frame with `shard`: this meters it — the one place that
    /// does, whichever backend — and, with a fault injector attached,
    /// adjudicates its transit, retrying on the [`backoff`] schedule. Every
    /// transmission attempt is metered — a dropped or corrupted message
    /// still crossed the wire, so its bytes (and its retransmission's)
    /// count toward simulated network time. On return the frame holds what
    /// the receiver accepted: the sealed contents, unless checksums are off
    /// and transit corruption was ingested. A read is carried here, once, up
    /// front: request and response transit as one message, charged for the
    /// response's size. A push or write is carried by
    /// [`transmit`](Self::transmit). A store's backups are [`Replicas`]'
    /// business: a delivered remote read is offered to it to hedge, and a
    /// dead primary to fail over.
    fn exchange(
        &self,
        shard: usize,
        op: FrameOp<'_>,
        frame: &mut WireFrame,
        fresh: u64,
    ) -> Result<(), RpcError> {
        let read = op.is_read();
        // A read's request as sent; nothing for the ops whose one frame
        // counts once for both directions.
        let mut sent = Sent::default();
        if read {
            sent = Sent {
                keys: frame.keys.len() as u64,
                versions: frame.versions.len() as u64,
                fresh,
            };
            self.transport.carry(shard, op, frame)?;
        }
        let bytes = sent.bytes() + frame.wire_bytes();
        let remote = !self.topology.is_local(self.worker_id, shard);
        let record = |frame: &WireFrame| self.record_exchange(shard, op, sent, frame);
        let Some(f) = &self.faults else {
            record(frame);
            return Ok(());
        };
        let overload = self.overload.as_deref();
        let mut attempts: u32 = 0;
        loop {
            if let Some(ctl) = overload {
                ctl.admit(f, shard, read, attempts)?;
            }
            attempts += 1;
            let sent_at = f.now();
            match f.adjudicate(shard, remote, bytes) {
                Verdict::Deliver => {
                    record(frame);
                    let elapsed = f.now() - sent_at;
                    if let Some(ctl) = overload {
                        ctl.delivered(f, shard, remote, bytes, elapsed);
                    }
                    if let Some(replicas) = self.replicas.as_ref().filter(|_| read && remote) {
                        replicas.hedge(f, shard, bytes, elapsed);
                    }
                    return Ok(());
                }
                Verdict::Overloaded { retry_at } => {
                    // Shed at the shard's ingress queue: the message never
                    // transited (the refusal's latency was charged during
                    // adjudication), so nothing is metered here.
                    match overload {
                        Some(ctl) => ctl.shed(f, shard, read, attempts, bytes, retry_at)?,
                        None => {
                            let shed = RpcError::Overloaded { shard, attempts };
                            retry_on_schedule(f, attempts, bytes, shed)?;
                        }
                    }
                }
                Verdict::Corrupt => {
                    // The damaged frame still transited the link.
                    record(frame);
                    let mut damaged = frame.clone();
                    // A read that found nothing newer has an empty response:
                    // the flip then landed in its request, which the shard's
                    // own checksum refuses.
                    let hit = damaged.corrupt(f.corruption_pattern());
                    if self.checksums && !(hit && damaged.verify()) {
                        f.count(|s| s.corrupt_detected += 1);
                        retry_on_schedule(
                            f,
                            attempts,
                            bytes,
                            RpcError::CorruptPayload { attempts },
                        )?;
                    } else {
                        // No digest to check (or, astronomically rarely, a
                        // digest collision): the receiver accepts garbage.
                        f.count(|s| s.corrupt_ingested += 1);
                        *frame = damaged;
                        return Ok(());
                    }
                }
                Verdict::Drop => {
                    // The lost message still transited the link.
                    record(frame);
                    retry_on_schedule(f, attempts, bytes, RpcError::Dropped { attempts })?;
                }
                Verdict::ShardDown { until } => {
                    if attempts >= MAX_ATTEMPTS {
                        return Err(RpcError::ShardUnavailable { shard, attempts });
                    }
                    // Sleep (in simulated time) until the shard is back.
                    let wait = (until - f.now()).max(0.0) + backoff(attempts, f.jitter());
                    f.note_backoff(wait);
                }
                Verdict::ShardDead => {
                    // Permanent loss: promote a backup (or fail for good),
                    // then let the loop retransmit to the new primary. The
                    // attempt against the dead primary doesn't burn a retry
                    // — failover is a topology change, not flaky transit.
                    let lost = RpcError::ShardLost { shard };
                    self.replicas.as_ref().ok_or(lost)?.fail_over(f, shard)?;
                    attempts -= 1;
                }
            }
        }
    }
}

/// Retry attempt `attempts` of a `bytes` message on the [`backoff`]
/// schedule, or give up with `exhausted` once [`MAX_ATTEMPTS`] are spent:
/// the answer to a drop, a detected corruption and an unguarded shed.
fn retry_on_schedule(
    f: &FaultInjector,
    attempts: u32,
    bytes: u64,
    exhausted: RpcError,
) -> Result<(), RpcError> {
    if attempts >= MAX_ATTEMPTS {
        return Err(exhausted);
    }
    f.count(|s| {
        s.retries += 1;
        s.retransmitted_bytes += bytes;
    });
    f.note_backoff(backoff(attempts, f.jitter()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Sgd;
    use crate::router::ShardRouter;
    use hetkg_embed::init::Init;
    use hetkg_kgraph::KeySpace;
    use hetkg_netsim::{CostModel, FaultPlan, TrafficSnapshot};
    use proptest::prelude::*;

    fn setup(machines: usize) -> (Arc<KvStore>, ClusterTopology) {
        let ks = KeySpace::new(8, 4);
        let router = ShardRouter::round_robin(ks, machines);
        let store = Arc::new(KvStore::new(
            router,
            4,
            4,
            0,
            Init::Uniform { bound: 0.1 },
            1,
        ));
        (store, ClusterTopology::new(machines, 1))
    }

    fn injector(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(plan, CostModel::gigabit(), 0))
    }

    // The client's calls with a fresh scratch per call (a scratch carries
    // capacity, never data), and single-key operations as one-key batches.

    fn pull_batch(client: &PsClient, keys: &[ParamKey], sink: impl FnMut(usize, &[f32])) {
        client
            .try_pull_batch_with(keys, &mut PsScratch::new(), sink)
            .unwrap();
    }

    fn push_batch(client: &PsClient, keys: &[ParamKey], grads: &[&[f32]], opt: &dyn Optimizer) {
        client
            .try_push_batch_with(keys, grads, opt, &mut PsScratch::new())
            .unwrap();
    }

    fn write_batch(client: &PsClient, keys: &[ParamKey], values: &[&[f32]]) {
        client
            .try_write_batch_with(keys, values, &mut PsScratch::new())
            .unwrap();
    }

    fn try_pull(client: &PsClient, key: ParamKey, out: &mut [f32]) -> Result<(), RpcError> {
        try_pull_with(client, key, out, &mut PsScratch::new())
    }

    fn try_pull_with(
        client: &PsClient,
        key: ParamKey,
        out: &mut [f32],
        scratch: &mut PsScratch,
    ) -> Result<(), RpcError> {
        client.try_pull_batch_with(&[key], scratch, |_, row| out.copy_from_slice(row))
    }

    fn try_push(
        client: &PsClient,
        key: ParamKey,
        grad: &[f32],
        opt: &dyn Optimizer,
    ) -> Result<(), RpcError> {
        try_push_with(client, key, grad, opt, &mut PsScratch::new())
    }

    fn try_push_with(
        client: &PsClient,
        key: ParamKey,
        grad: &[f32],
        opt: &dyn Optimizer,
        scratch: &mut PsScratch,
    ) -> Result<(), RpcError> {
        client.try_push_batch_with(&[key], &[grad], opt, scratch)
    }

    #[test]
    fn local_and_remote_are_metered_separately() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store, meter.clone());
        let mut buf = [0.0f32; 4];
        // Entity key 0 -> shard 0 (round robin): local for worker 0.
        try_pull(&client, ParamKey(0), &mut buf).unwrap();
        // Entity key 1 -> shard 1: remote.
        try_pull(&client, ParamKey(1), &mut buf).unwrap();
        let s = meter.snapshot();
        assert_eq!(s.local_messages, 1);
        assert_eq!(s.remote_messages, 1);
        assert_eq!(s.local_bytes, 16 + 8);
        assert_eq!(s.remote_bytes, 16 + 8);
    }

    #[test]
    fn batch_pull_coalesces_messages_per_shard() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store, meter.clone());
        // Keys 0,2,4,6 on shard 0 (local), 1,3,5 on shard 1 (remote).
        let keys: Vec<ParamKey> = (0..7).map(ParamKey).collect();
        let mut rows = 0;
        pull_batch(&client, &keys, |_, row| {
            assert_eq!(row.len(), 4);
            rows += 1;
        });
        assert_eq!(rows, 7);
        let s = meter.snapshot();
        assert_eq!(s.local_messages, 1, "one coalesced local message");
        assert_eq!(s.remote_messages, 1, "one coalesced remote message");
        assert_eq!(s.local_bytes, 4 * (16 + 8));
        assert_eq!(s.remote_bytes, 3 * (16 + 8));
    }

    #[test]
    fn push_updates_the_store() {
        let (store, topo) = setup(1);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter);
        store.store(ParamKey(0), &[1.0; 4]);
        try_push(&client, ParamKey(0), &[1.0; 4], &Sgd { lr: 0.5 }).unwrap();
        let mut buf = [0.0f32; 4];
        store.pull(ParamKey(0), &mut buf);
        assert!((buf[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn push_batch_applies_all_and_meters_once_per_shard() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(1, topo, store.clone(), meter.clone());
        store.store(ParamKey(0), &[0.0; 4]);
        store.store(ParamKey(1), &[0.0; 4]);
        let g = [1.0f32; 4];
        push_batch(
            &client,
            &[ParamKey(0), ParamKey(1)],
            &[&g, &g],
            &Sgd { lr: 1.0 },
        );
        let mut buf = [0.0f32; 4];
        store.pull(ParamKey(0), &mut buf);
        assert!((buf[0] + 1.0).abs() < 1e-6);
        let s = meter.snapshot();
        // Worker 1 is on machine 1: key 1 local, key 0 remote.
        assert_eq!(s.local_messages, 1);
        assert_eq!(s.remote_messages, 1);
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store, meter.clone());
        pull_batch(&client, &[], |_, _| panic!("no rows expected"));
        push_batch(&client, &[], &[], &Sgd { lr: 1.0 });
        assert_eq!(meter.snapshot().total_bytes(), 0);
    }

    #[test]
    fn single_machine_everything_is_local() {
        let (store, topo) = setup(1);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store, meter.clone());
        let keys: Vec<ParamKey> = (0..12).map(ParamKey).collect();
        pull_batch(&client, &keys, |_, _| {});
        let s = meter.snapshot();
        assert_eq!(s.remote_bytes, 0);
        assert!(s.local_bytes > 0);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_calls() {
        // One worker reusing a single PsScratch across many mixed calls must
        // produce the same rows, same store contents, and same metered
        // traffic as the same calls each handed a fresh scratch: a scratch
        // carries capacity, never data, across calls.
        let (store_a, topo) = setup(2);
        let (store_b, _) = setup(2);
        let meter_a = Arc::new(TrafficMeter::new());
        let meter_b = Arc::new(TrafficMeter::new());
        let a = PsClient::new(0, topo, store_a.clone(), meter_a.clone());
        let b = PsClient::new(0, topo, store_b.clone(), meter_b.clone());
        let mut scratch = PsScratch::new();
        // Entities on both shards, a duplicate, and a relation key.
        let keys = [1u64, 0, 3, 1, 9].map(ParamKey);
        let g = [0.25f32; 4];
        let grads: Vec<&[f32]> = keys.iter().map(|_| &g[..]).collect();
        for _ in 0..3 {
            let mut rows_a = Vec::new();
            pull_batch(&a, &keys, |_, row| rows_a.push(row.to_vec()));
            let mut rows_b = Vec::new();
            b.try_pull_batch_with(&keys, &mut scratch, |_, row| rows_b.push(row.to_vec()))
                .unwrap();
            assert_eq!(rows_a, rows_b);
            push_batch(&a, &keys, &grads, &Sgd { lr: 0.1 });
            b.try_push_batch_with(&keys, &grads, &Sgd { lr: 0.1 }, &mut scratch)
                .unwrap();
            write_batch(&a, &[ParamKey(2)], &[&g]);
            b.try_write_batch_with(&[ParamKey(2)], &[&g], &mut scratch)
                .unwrap();
            let mut single_a = [0.0f32; 4];
            let mut single_b = [0.0f32; 4];
            try_pull(&a, ParamKey(5), &mut single_a).unwrap();
            try_pull_with(&b, ParamKey(5), &mut single_b, &mut scratch).unwrap();
            assert_eq!(single_a, single_b);
        }
        assert_eq!(meter_a.snapshot(), meter_b.snapshot());
        let mut all_a = Vec::new();
        store_a.for_each_row(|k, row| all_a.push((k, row.to_vec())));
        let mut all_b = Vec::new();
        store_b.for_each_row(|k, row| all_b.push((k, row.to_vec())));
        assert_eq!(all_a, all_b);
    }

    /// `try_pull_newer_with` with a fresh scratch, collecting what came back.
    fn pull_newer(
        client: &PsClient,
        keys: &[ParamKey],
        fresh: usize,
        held: &[u32],
    ) -> Vec<(usize, u32, Vec<f32>)> {
        let mut got = Vec::new();
        client
            .try_pull_newer_with(keys, fresh, held, &mut PsScratch::new(), |i, v, row| {
                got.push((i, v, row.to_vec()))
            })
            .unwrap();
        got
    }

    #[test]
    fn pull_newer_returns_only_moved_rows_and_meters_both_directions() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter.clone());
        // Keys 0, 2, 4 are local (shard 0), 1, 3 remote, 9 a relation on
        // shard 1; in no particular order.
        let keys = [3u64, 0, 9, 2, 1, 4].map(ParamKey);
        let first = pull_newer(&client, &keys, 6, &[]);
        assert_eq!(
            first.iter().map(|r| r.0).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5],
            "every row comes back, in input order"
        );
        let mut want = [0.0f32; 4];
        for (i, version, row) in &first {
            store.pull(keys[*i], &mut want);
            assert_eq!(row[..], want);
            assert_eq!(*version, store.version(keys[*i]));
        }
        let s = meter.snapshot();
        assert_eq!((s.local_messages, s.remote_messages), (1, 1));
        // Per key 12 bytes out; per returned row 12 + 16 back.
        assert_eq!(s.local_bytes, 3 * (12 + 12 + 16));
        assert_eq!(s.remote_bytes, 3 * (12 + 12 + 16));
        assert_eq!(s.by_cause.construction.remote, s.remote_bytes);
        assert_eq!(s.by_cause.construction.local, s.local_bytes);

        // Someone writes two of the rows; a sync with the held versions
        // brings back exactly those, with their new versions.
        let held: Vec<u32> = first.iter().map(|r| r.1).collect();
        store.push_grad(ParamKey(1), &[1.0; 4], &Sgd { lr: 0.5 });
        store.store(ParamKey(2), &[9.0; 4]);
        let before = meter.snapshot();
        let second = pull_newer(&client, &keys, 0, &held);
        assert_eq!(
            second.iter().map(|r| r.0).collect::<Vec<_>>(),
            [3, 4],
            "ascending input index"
        );
        assert_eq!(second[0].2, [9.0; 4]);
        assert_ne!(second[1].1, held[4]);
        let d = meter.snapshot().since(before);
        assert_eq!((d.local_messages, d.remote_messages), (1, 1));
        assert_eq!(d.by_cause.sync_probe.local, 3 * 12);
        assert_eq!(d.by_cause.sync_probe.remote, 3 * 12);
        assert_eq!(d.by_cause.sync_rows.local, 12 + 16);
        assert_eq!(d.by_cause.sync_rows.remote, 12 + 16);
        assert_eq!(d.by_cause.total().remote, d.remote_bytes);
        assert_eq!(d.by_cause.total().local, d.local_bytes);

        // Nothing moved since: the probe is still sent (and paid for), no
        // row comes back.
        let mut held = held;
        for (i, v, _) in &second {
            held[*i] = *v;
        }
        let before = meter.snapshot();
        assert!(pull_newer(&client, &keys, 0, &held).is_empty());
        let d = meter.snapshot().since(before);
        assert_eq!((d.local_messages, d.remote_messages), (1, 1));
        assert_eq!(d.total_bytes(), 6 * 12);
        assert_eq!(d.by_cause.sync_rows, Default::default());
    }

    #[test]
    fn unconditional_keys_ride_in_a_sync_and_cost_what_a_plain_pull_costs() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter.clone());
        // Misses 5 (remote), 6 (local), 7 (remote); cached 0, 2 (local),
        // 1, 3 (remote), of which 2 and 3 have been written since.
        let cached = [0u64, 1, 2, 3].map(ParamKey);
        let held: Vec<u32> = cached.iter().map(|&k| store.version(k)).collect();
        store.store(ParamKey(2), &[2.0; 4]);
        store.store(ParamKey(3), &[3.0; 4]);
        let keys = [5u64, 6, 7, 0, 1, 2, 3].map(ParamKey);
        let got = pull_newer(&client, &keys, 0, &held);
        assert_eq!(
            got.iter()
                .map(|r| (r.0, r.1 == NO_VERSION))
                .collect::<Vec<_>>(),
            [(0, true), (1, true), (2, true), (5, false), (6, false)],
            "every miss, then the two moved rows, in input order"
        );
        let mut want = [0.0f32; 4];
        for (i, _, row) in &got {
            store.pull(keys[*i], &mut want);
            assert_eq!(row[..], want, "key {:?}", keys[*i]);
        }
        // One message per shard, as a plain pull of the misses would be.
        let s = meter.snapshot();
        assert_eq!((s.local_messages, s.remote_messages), (1, 1));
        let c = s.by_cause;
        assert_eq!(
            (c.miss_pull.local, c.miss_pull.remote),
            (8 + 16, 2 * (8 + 16))
        );
        assert_eq!((c.sync_probe.local, c.sync_probe.remote), (2 * 12, 2 * 12));
        assert_eq!((c.sync_rows.local, c.sync_rows.remote), (12 + 16, 12 + 16));
        assert_eq!(c.total().local, s.local_bytes);
        assert_eq!(c.total().remote, s.remote_bytes);
        // The same misses as a plain pull: the same miss bytes.
        let before = meter.snapshot();
        pull_batch(&client, &keys[..3], |_, _| {});
        let plain = meter.snapshot().since(before);
        assert_eq!(plain.by_cause.miss_pull, c.miss_pull);
    }

    #[test]
    fn fresh_keys_are_construction_in_whatever_message_carries_them() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter.clone());
        // A miss (5, remote), two fresh rows (6 local, 7 remote) and a sync
        // of two cached rows: 0 (local) still current, 1 (remote) moved by
        // a local gradient, so held under no version like the fresh ones.
        let keys = [5u64, 6, 7, 0, 1].map(ParamKey);
        let held = [store.version(ParamKey(0)), NO_VERSION];
        let mixed = pull_newer(&client, &keys, 2, &held);
        assert_eq!(
            mixed.iter().map(|r| r.0).collect::<Vec<_>>(),
            [0, 1, 2, 4],
            "the miss, both fresh rows, and the row held under no version"
        );
        for (i, version, _) in &mixed[1..] {
            assert_eq!(*version, store.version(keys[*i]));
        }
        let s = meter.snapshot();
        assert_eq!((s.local_messages, s.remote_messages), (1, 1));
        let c = s.by_cause;
        assert_eq!((c.miss_pull.local, c.miss_pull.remote), (0, 8 + 16));
        let fresh_row = 12 + 12 + 16;
        assert_eq!(
            (c.construction.local, c.construction.remote),
            (fresh_row, fresh_row)
        );
        assert_eq!((c.sync_probe.local, c.sync_probe.remote), (12, 12));
        assert_eq!((c.sync_rows.local, c.sync_rows.remote), (0, 12 + 16));
        assert_eq!(c.total().local, s.local_bytes);
        assert_eq!(c.total().remote, s.remote_bytes);
        // The same fresh rows in a message of their own: the same bytes.
        let before = meter.snapshot();
        pull_newer(&client, &keys[1..3], 2, &[]);
        let alone = meter.snapshot().since(before);
        assert_eq!(alone.by_cause.construction, c.construction);
        assert_eq!(alone.by_cause.total(), alone.by_cause.construction);
    }

    #[test]
    fn pull_newer_reuses_its_scratch_and_mixes_with_other_calls() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter);
        let mut scratch = PsScratch::new();
        let keys = [1u64, 0, 9].map(ParamKey);
        let g = [0.5f32; 4];
        let mut held = [NO_VERSION; 3];
        for round in 0..4 {
            let mut rows = 0;
            let asked = held;
            client
                .try_pull_newer_with(&keys, 0, &asked, &mut scratch, |i, v, row| {
                    let mut want = [0.0f32; 4];
                    store.pull(keys[i], &mut want);
                    assert_eq!(row, want);
                    held[i] = v;
                    rows += 1;
                })
                .unwrap();
            // Round 0 fetches everything; later rounds only key 1, which
            // the push below keeps moving.
            assert_eq!(rows, if round == 0 { 3 } else { 1 }, "round {round}");
            client
                .try_push_batch_with(&keys[..1], &[&g], &Sgd { lr: 0.1 }, &mut scratch)
                .unwrap();
            let mut plain = Vec::new();
            client
                .try_pull_batch_with(&keys, &mut scratch, |_, row| plain.push(row.to_vec()))
                .unwrap();
            assert_eq!(plain.len(), 3);
        }
        assert!(
            scratch.version_pool.len() <= 2,
            "version buffers recycle instead of piling up: {}",
            scratch.version_pool.len()
        );
    }

    #[test]
    fn dropped_pull_newer_retransmits_request_and_response_bytes() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(FaultPlan::lossy(1, 1.0));
        let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj.clone());
        let err = client
            .try_pull_newer_with(
                &[ParamKey(1)],
                0,
                &[NO_VERSION],
                &mut PsScratch::new(),
                |_, _, _| panic!("all-or-nothing"),
            )
            .unwrap_err();
        let attempts = u64::from(MAX_ATTEMPTS);
        assert_eq!(
            err,
            RpcError::Dropped {
                attempts: MAX_ATTEMPTS
            }
        );
        let s = meter.snapshot();
        assert_eq!(s.remote_messages, attempts);
        assert_eq!(s.remote_bytes, attempts * (12 + 12 + 16));
        assert_eq!(
            inj.stats().retransmitted_bytes,
            (attempts - 1) * (12 + 12 + 16)
        );
    }

    #[test]
    fn corrupted_pull_newer_is_detected_even_when_nothing_came_back() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(FaultPlan::corrupting(1, 1.0));
        let client = PsClient::new(0, topo, store.clone(), meter).with_faults(inj.clone());
        // The held version is current: the response frame is empty, so the
        // flipped bit can only have hit the request.
        let held = [store.version(ParamKey(1))];
        let err = client
            .try_pull_newer_with(
                &[ParamKey(1)],
                0,
                &held,
                &mut PsScratch::new(),
                |_, _, _| panic!("nothing is newer"),
            )
            .unwrap_err();
        assert_eq!(
            err,
            RpcError::CorruptPayload {
                attempts: MAX_ATTEMPTS
            }
        );
        let f = inj.stats();
        assert_eq!(f.corrupt_detected, u64::from(MAX_ATTEMPTS));
        assert_eq!(f.corrupt_ingested, 0);
    }

    #[test]
    fn zero_fault_injector_is_byte_identical_to_none() {
        let (store, topo) = setup(2);
        let plain_meter = Arc::new(TrafficMeter::new());
        let plain = PsClient::new(0, topo, store.clone(), plain_meter.clone());
        let fault_meter = Arc::new(TrafficMeter::new());
        let faulty = PsClient::new(0, topo, store.clone(), fault_meter.clone())
            .with_faults(injector(FaultPlan::default()));

        let keys: Vec<ParamKey> = (0..10).map(ParamKey).collect();
        let g = [0.1f32; 4];
        let grads: Vec<&[f32]> = keys.iter().map(|_| &g[..]).collect();
        for client in [&plain, &faulty] {
            let mut buf = [0.0f32; 4];
            try_pull(client, ParamKey(3), &mut buf).unwrap();
            pull_batch(client, &keys, |_, _| {});
            try_push(client, ParamKey(5), &g, &Sgd { lr: 0.1 }).unwrap();
            push_batch(client, &keys, &grads, &Sgd { lr: 0.1 });
            write_batch(client, &keys, &grads);
        }
        assert_eq!(plain_meter.snapshot(), fault_meter.snapshot());
        assert_eq!(faulty.faults().unwrap().stats().total_faults(), 0);
    }

    #[test]
    fn drops_retransmit_meter_every_attempt_then_fail() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(FaultPlan::lossy(1, 1.0)); // every remote message lost
        let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj.clone());
        let mut buf = [0.0f32; 4];
        // Key 1 is remote for worker 0.
        let err = try_pull(&client, ParamKey(1), &mut buf).unwrap_err();
        assert_eq!(
            err,
            RpcError::Dropped {
                attempts: MAX_ATTEMPTS
            }
        );
        let s = meter.snapshot();
        let (attempts, msg_bytes) = (u64::from(MAX_ATTEMPTS), 16 + 8);
        assert_eq!(
            s.remote_messages, attempts,
            "every attempt transited the link"
        );
        assert_eq!(s.remote_bytes, attempts * msg_bytes);
        let f = inj.stats();
        assert_eq!(f.drops, attempts);
        assert_eq!(f.retries, attempts - 1);
        assert_eq!(f.retransmitted_bytes, (attempts - 1) * msg_bytes);
        assert!(f.backoff_secs > 0.0);
    }

    #[test]
    fn local_messages_never_drop() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(FaultPlan::lossy(1, 1.0));
        let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj);
        let mut buf = [0.0f32; 4];
        // Key 0 is local for worker 0: delivered despite p = 1.
        try_pull(&client, ParamKey(0), &mut buf).unwrap();
        assert_eq!(meter.snapshot().local_messages, 1);
    }

    #[test]
    fn outage_is_waited_out_in_simulated_time() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(FaultPlan::shard_outage(0, 1, 0.0, 0.5));
        let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj.clone());
        assert!(!client.shard_available(ParamKey(1)));
        assert!(client.shard_available(ParamKey(0)));
        let mut buf = [0.0f32; 4];
        try_pull(&client, ParamKey(1), &mut buf).unwrap();
        assert!(inj.now() >= 0.5, "client slept past the outage window");
        assert!(inj.stats().outage_refusals >= 1);
        assert_eq!(
            meter.snapshot().remote_messages,
            1,
            "only the delivery is metered"
        );
        assert!(client.shard_available(ParamKey(1)));
    }

    #[test]
    fn failed_batch_applies_nothing() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        // Every remote message is lost.
        let inj = injector(FaultPlan::lossy(1, 1.0));
        let client = PsClient::new(0, topo, store.clone(), meter).with_faults(inj);
        store.store(ParamKey(0), &[0.0; 4]);
        store.store(ParamKey(1), &[0.0; 4]);
        let g = [1.0f32; 4];
        // Shard 0 is local and fine, but every frame to shard 1 is dropped:
        // all-or-nothing, so neither gradient lands.
        let err = client
            .try_push_batch_with(
                &[ParamKey(0), ParamKey(1)],
                &[&g, &g],
                &Sgd { lr: 1.0 },
                &mut PsScratch::new(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            RpcError::Dropped {
                attempts: MAX_ATTEMPTS
            }
        );
        let mut buf = [0.0f32; 4];
        store.pull(ParamKey(0), &mut buf);
        assert_eq!(buf, [0.0; 4], "no partial application");
    }

    #[test]
    fn corrupt_frames_are_detected_and_retransmitted_until_exhaustion() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(FaultPlan::corrupting(1, 1.0)); // every remote frame damaged
        let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj.clone());
        let mut buf = [7.0f32; 4];
        // Key 1 is remote for worker 0.
        let err = try_pull(&client, ParamKey(1), &mut buf).unwrap_err();
        assert_eq!(
            err,
            RpcError::CorruptPayload {
                attempts: MAX_ATTEMPTS
            }
        );
        assert_eq!(buf, [7.0; 4], "failed pull leaves the output untouched");
        let s = meter.snapshot();
        let attempts = u64::from(MAX_ATTEMPTS);
        assert_eq!(
            s.remote_messages, attempts,
            "every damaged attempt transited the link"
        );
        let f = inj.stats();
        assert_eq!(f.corrupt_frames, attempts);
        assert_eq!(f.corrupt_detected, attempts);
        assert_eq!(f.corrupt_ingested, 0);
        assert_eq!(f.retries, attempts - 1);
        assert!(f.backoff_secs > 0.0);
    }

    #[test]
    fn detected_corruption_repulls_clean_data() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(FaultPlan::corrupting(9, 0.4));
        let client = PsClient::new(0, topo, store.clone(), meter).with_faults(inj.clone());
        for round in 0..50u64 {
            let key = ParamKey(round % 8);
            let width = (store.row_bytes(key) / 4) as usize;
            let mut clean = vec![0.0f32; width];
            store.pull(key, &mut clean);
            let mut got = vec![0.0f32; width];
            try_pull(&client, key, &mut got).unwrap();
            let same = clean
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "round {round}: corrupted data reached the caller");
        }
        let f = inj.stats();
        assert!(f.corrupt_frames > 0, "the plan did corrupt frames");
        assert_eq!(
            f.corrupt_detected, f.corrupt_frames,
            "every corruption was caught"
        );
        assert_eq!(f.corrupt_ingested, 0);
    }

    #[test]
    fn checksums_off_ingests_garbage_and_counts_it() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(FaultPlan::corrupting(1, 1.0));
        let client = PsClient::new(0, topo, store.clone(), meter.clone())
            .with_faults(inj.clone())
            .with_checksums(false);
        let mut clean = [0.0f32; 4];
        store.pull(ParamKey(1), &mut clean);
        let mut got = [0.0f32; 4];
        try_pull(&client, ParamKey(1), &mut got).unwrap();
        assert_ne!(
            clean.map(f32::to_bits),
            got.map(f32::to_bits),
            "garbage reached the caller"
        );
        assert_eq!(
            meter.snapshot().remote_messages,
            1,
            "no retry without detection"
        );
        let f = inj.stats();
        assert_eq!(f.corrupt_frames, 1);
        assert_eq!(f.corrupt_ingested, 1);
        assert_eq!(f.corrupt_detected, 0);
    }

    #[test]
    fn checksum_toggle_is_free_without_corruption() {
        // Same lossy plan, same seed, checksums on vs off: identical meters
        // and identical fault counters — the integrity layer costs nothing
        // when frames arrive intact.
        let run = |checksums: bool| {
            let (store, topo) = setup(2);
            let meter = Arc::new(TrafficMeter::new());
            let inj = injector(FaultPlan::lossy(5, 0.3));
            let client = PsClient::new(0, topo, store, meter.clone())
                .with_faults(inj.clone())
                .with_checksums(checksums);
            let keys: Vec<ParamKey> = (0..8).map(ParamKey).collect();
            let mut buf = [0.0f32; 4];
            for _ in 0..20 {
                pull_batch(&client, &keys, |_, _| {});
                try_pull(&client, ParamKey(1), &mut buf).unwrap();
            }
            (meter.snapshot(), inj.stats())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn push_batch_slice_adapter_matches_the_rows_push() {
        let (store_a, topo) = setup(2);
        let (store_b, _) = setup(2);
        let meter_a = Arc::new(TrafficMeter::new());
        let meter_b = Arc::new(TrafficMeter::new());
        let a = PsClient::new(0, topo, store_a.clone(), meter_a.clone());
        let b = PsClient::new(0, topo, store_b.clone(), meter_b.clone());
        let mut scratch = PsScratch::new();
        let keys = [4u64, 1, 2, 4].map(ParamKey); // duplicate key included
        let grads: Vec<Vec<f32>> = (0..keys.len()).map(|i| vec![0.5 + i as f32; 4]).collect();
        let refs: Vec<&[f32]> = grads.iter().map(|g| g.as_slice()).collect();
        a.try_push_batch_with(&keys, &refs, &Sgd { lr: 0.2 }, &mut scratch)
            .unwrap();
        b.try_push_coalesced_rows(
            &keys,
            &[],
            |i| grads[i].as_slice(),
            &Sgd { lr: 0.2 },
            &mut scratch,
        )
        .unwrap();
        assert_eq!(meter_a.snapshot(), meter_b.snapshot());
        let mut all_a = Vec::new();
        store_a.for_each_row(|k, row| all_a.push((k, row.to_vec())));
        let mut all_b = Vec::new();
        store_b.for_each_row(|k, row| all_b.push((k, row.to_vec())));
        assert_eq!(all_a, all_b);
    }

    fn setup_replicated(machines: usize, k: usize) -> (Arc<KvStore>, ClusterTopology) {
        let ks = KeySpace::new(8, 4);
        let router = ShardRouter::round_robin(ks, machines);
        let store = Arc::new(
            KvStore::new(router, 4, 4, 0, Init::Uniform { bound: 0.1 }, 1).with_replication(k),
        );
        (store, ClusterTopology::new(machines, 1))
    }

    fn kill_plan(shard: usize, at: f64) -> FaultPlan {
        FaultPlan {
            kills: vec![hetkg_netsim::ShardKill { shard, at }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn failover_promotes_a_backup_and_delivers() {
        let (store, topo) = setup_replicated(2, 2);
        // A write that reaches the backlog before the primary dies: the
        // promoted backup must serve it after anti-entropy catch-up.
        let marker = [7.0f32; 4];
        store.store(ParamKey(1), &marker);
        let meter = Arc::new(TrafficMeter::new());
        let liveness = Arc::new(hetkg_netsim::ShardLiveness::new(2));
        let inj = Arc::new(
            FaultInjector::new(kill_plan(1, 0.0), CostModel::gigabit(), 0)
                .with_liveness(liveness.clone()),
        );
        let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj.clone());
        let mut buf = [0.0f32; 4];
        // Key 1 routes to shard 1, dead from t=0: the pull must fail over.
        try_pull(&client, ParamKey(1), &mut buf).unwrap();
        assert_eq!(buf, marker, "promoted backup serves the caught-up value");
        let stats = inj.stats();
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.catch_up_frames, 1, "one backlogged record replayed");
        assert!(stats.catch_up_bytes > 0);
        let events = liveness.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, 1, "the dead shard was the one promoted");
        assert!(
            events[0].1 > 0.0,
            "the failed attempt against the dead primary still cost latency"
        );
        assert!(
            meter.snapshot().replication_bytes > 0,
            "catch-up traffic is metered on the replication lane"
        );
        // The new primary takes writes like any other shard.
        try_push(&client, ParamKey(1), &[0.5; 4], &Sgd { lr: 1.0 }).unwrap();
        try_pull(&client, ParamKey(1), &mut buf).unwrap();
        assert_eq!(buf, [6.5f32; 4]);
        assert_eq!(inj.stats().promotions, 1, "no second promotion");
    }

    #[test]
    fn failover_without_replication_is_shard_lost() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let liveness = Arc::new(hetkg_netsim::ShardLiveness::new(2));
        let inj = Arc::new(
            FaultInjector::new(kill_plan(1, 0.0), CostModel::gigabit(), 0).with_liveness(liveness),
        );
        let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj);
        let mut buf = [0.0f32; 4];
        let err = try_pull(&client, ParamKey(1), &mut buf).unwrap_err();
        assert_eq!(err, RpcError::ShardLost { shard: 1 });
    }

    #[test]
    fn hedged_pulls_fire_under_a_straggler_episode() {
        let (store, topo) = setup_replicated(2, 2);
        let meter = Arc::new(TrafficMeter::new());
        // No drops/corruption: only a straggler window after a calibration
        // period of unperturbed pulls (each remote pull costs ~100 us).
        let plan = FaultPlan {
            slow_episodes: vec![hetkg_netsim::SlowEpisode {
                start: 500e-6,
                end: 1.0,
                latency_factor: 4.0,
            }],
            ..FaultPlan::default()
        };
        let inj = Arc::new(FaultInjector::new(plan, CostModel::gigabit(), 0));
        let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj.clone());
        let mut buf = [0.0f32; 4];
        try_pull(&client, ParamKey(1), &mut buf).unwrap();
        assert_eq!(
            meter.snapshot().replication_bytes,
            0,
            "unperturbed pulls never hedge: the observed/predicted ratio is 1"
        );
        for _ in 0..40 {
            try_pull(&client, ParamKey(1), &mut buf).unwrap();
        }
        let stats = inj.stats();
        assert!(stats.slow_messages > 0, "the episode was entered");
        assert!(stats.hedged_pulls > 0, "slow pulls past threshold hedge");
        assert_eq!(stats.hedged_wins + stats.hedged_losses, stats.hedged_pulls);
        assert!(
            stats.hedged_wins > 0,
            "a 4x straggler loses to an unperturbed backup"
        );
        assert!(meter.snapshot().replication_bytes > 0);
        assert!(
            stats.hedged_pulls < stats.slow_messages,
            "the adaptive threshold re-calibrates and stops hedging"
        );
    }

    #[test]
    fn only_a_store_with_backups_hedges() {
        // The straggler episode that makes a replicated client hedge.
        let run = |k: usize| {
            let (store, topo) = setup_replicated(2, k);
            let meter = Arc::new(TrafficMeter::new());
            let plan = FaultPlan {
                slow_episodes: vec![hetkg_netsim::SlowEpisode {
                    start: 500e-6,
                    end: 1.0,
                    latency_factor: 4.0,
                }],
                ..FaultPlan::default()
            };
            let inj = injector(plan);
            let client = PsClient::new(0, topo, store, meter.clone()).with_faults(inj.clone());
            let mut buf = [0.0f32; 4];
            for _ in 0..41 {
                try_pull(&client, ParamKey(1), &mut buf).unwrap();
            }
            (inj.stats(), meter.snapshot().replication_bytes)
        };
        let (alone, alone_bytes) = run(1);
        assert!(alone.slow_messages > 0, "the episode was entered");
        assert_eq!((alone.hedged_pulls, alone_bytes), (0, 0));
        let (replicated, replicated_bytes) = run(2);
        assert_eq!(replicated.slow_messages, alone.slow_messages);
        assert!(replicated.hedged_pulls > 0 && replicated_bytes > 0);
    }

    fn overload_plan(shard: usize, end: f64, capacity: u32) -> FaultPlan {
        FaultPlan {
            overloads: vec![hetkg_netsim::OverloadWindow {
                shard,
                start: 0.0,
                end,
                queue_capacity: capacity,
                drain_rate: 1_000.0,
                latency_per_inflight: 100e-6,
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn overload_sheds_spend_the_retry_budget_and_still_deliver() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let inj = injector(overload_plan(1, 1.0, 2));
        let ctl = Arc::new(OverloadControl::new(2));
        let client = PsClient::new(0, topo, store, meter)
            .with_faults(inj.clone())
            .with_overload(ctl.clone());
        let mut buf = [0.0f32; 4];
        for _ in 0..20 {
            try_pull(&client, ParamKey(1), &mut buf).unwrap();
        }
        let s = inj.stats();
        assert!(s.overload_sheds > 0, "the queue filled and shed");
        assert!(
            s.overload_throttled > 0,
            "queued requests paid extra latency"
        );
        assert!(s.overload_extra_secs > 0.0);
        assert!(s.retries > 0, "sheds were retried on budget");
    }

    #[test]
    fn dry_budget_sheds_pushes_and_waits_out_pulls() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        // Capacity 0: every in-window request to shard 1 is shed.
        let inj = injector(overload_plan(1, 2e-3, 0));
        let ctl = Arc::new(OverloadControl::new(2));
        // Spend the starting float: the budget is dry, and nothing below
        // succeeds on shard 1 before the window ends to earn it back.
        let tokens = &ctl.budget;
        while tokens.try_spend() {}
        let client = PsClient::new(0, topo, store, meter)
            .with_faults(inj.clone())
            .with_overload(ctl.clone());
        // Sheddable write, dry budget: typed error, immediately.
        let err = try_push(&client, ParamKey(1), &[0.1; 4], &Sgd { lr: 0.1 }).unwrap_err();
        assert!(matches!(err, RpcError::Overloaded { shard: 1, .. }));
        // Required read, dry budget: waits for relief instead of erroring.
        let mut buf = [0.0f32; 4];
        try_pull(&client, ParamKey(1), &mut buf).unwrap();
        let s = inj.stats();
        assert!(s.retries_denied >= 2, "both ops saw a dry budget");
        assert_eq!(s.retries, 0, "nothing was retried on credit");
        assert!(inj.now() >= 2e-3, "the pull slept past the overload window");
    }

    #[test]
    fn breaker_cycles_open_halfopen_closed_and_fast_fails_writes() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        // Each shed costs a 100 µs refusal and the paid retry waits for a
        // slot to drain (1 ms at 1000/s), so the sheds land at 0, 1 and
        // 2 ms and the breaker the third opens cools down until 2.6 ms: a
        // window ending at 2.3 ms holds all three sheds and is over before
        // the probe.
        let window_end = 2.3e-3;
        let inj = injector(overload_plan(1, window_end, 0));
        let ctl = Arc::new(OverloadControl::new(2));
        let client = PsClient::new(0, topo, store, meter)
            .with_faults(inj.clone())
            .with_overload(ctl.clone());
        // First push: every attempt is shed at the queue; the budget's float
        // pays two retries, and the third shed trips the breaker and finds
        // the budget dry, which hands the push back with the typed error.
        let err = try_push(&client, ParamKey(1), &[0.1; 4], &Sgd { lr: 0.1 }).unwrap_err();
        assert_eq!(
            err,
            RpcError::Overloaded {
                shard: 1,
                attempts: 3
            }
        );
        assert_eq!(inj.stats().overload_sheds, 3);
        assert!(client.breaker_tripped(1));
        assert!(!client.shard_healthy(ParamKey(1)));
        assert!(client.shard_healthy(ParamKey(0)), "shard 0 unaffected");
        // Second push hits the open breaker without even reaching the queue.
        let before = inj.stats().overload_sheds;
        let err = try_push(&client, ParamKey(1), &[0.1; 4], &Sgd { lr: 0.1 }).unwrap_err();
        assert!(matches!(err, RpcError::Overloaded { shard: 1, .. }));
        assert_eq!(inj.stats().overload_sheds, before, "fast fail sent nothing");
        assert!(inj.stats().breaker_fast_fails > 0);
        // A required pull sleeps out the cooldown, probes, and closes the
        // breaker. The probe succeeds only because the cooldown ends after
        // the overload window does; pin that margin rather than rely on it.
        let br = &ctl.breakers;
        let until = br
            .cooling_until(1, inj.now())
            .expect("the breaker is still cooling down");
        assert!(
            until >= window_end,
            "probe at {until} s lands inside the overload window"
        );
        let mut buf = [0.0f32; 4];
        try_pull(&client, ParamKey(1), &mut buf).unwrap();
        assert!(br.opens() >= 1, "Closed -> Open happened");
        assert_eq!(br.half_opens(), 1, "Open -> HalfOpen probe");
        assert_eq!(br.closes(), 1, "HalfOpen -> Closed on probe success");
        assert!(!client.breaker_tripped(1));
        assert!(br.brownout_secs() > 0.0);
    }

    #[test]
    fn retry_budget_cuts_retransmitted_bytes_versus_the_storm() {
        // A client with no control attached retries a shed on the backoff
        // schedule, as it does a drop: the storm the budget is held against.
        let run = |guarded: bool| {
            let (store, topo) = setup(2);
            let meter = Arc::new(TrafficMeter::new());
            let inj = injector(overload_plan(1, 10e-3, 2));
            let mut client = PsClient::new(0, topo, store, meter).with_faults(inj.clone());
            if guarded {
                client = client.with_overload(Arc::new(OverloadControl::new(2)));
            }
            let mut buf = [0.0f32; 4];
            for _ in 0..30 {
                try_pull(&client, ParamKey(1), &mut buf).unwrap();
            }
            inj.stats()
        };
        // The budget's float pays a few retries, then patience.
        let guarded = run(true);
        let storm = run(false);
        assert!(storm.overload_sheds > 0);
        assert!(guarded.overload_sheds > 0);
        assert!(
            guarded.retransmitted_bytes < storm.retransmitted_bytes,
            "guarded {} vs storm {}",
            guarded.retransmitted_bytes,
            storm.retransmitted_bytes
        );
        assert!(guarded.retries_denied > 0, "the budget ran dry");
    }

    #[test]
    fn retry_on_schedule_backs_off_until_the_attempts_are_spent() {
        let plan = FaultPlan {
            seed: 5,
            ..FaultPlan::default()
        };
        let inj = injector(plan.clone());
        // A twin with the same seed tells which jitter draw comes next.
        let twin = injector(plan);
        let exhausted = RpcError::Dropped { attempts: 0 };
        for attempts in 1..MAX_ATTEMPTS {
            let before = inj.now();
            assert_eq!(retry_on_schedule(&inj, attempts, 40, exhausted), Ok(()));
            let waited = inj.now() - before;
            assert!((waited - backoff(attempts, twin.jitter())).abs() < 1e-12);
        }
        let s = inj.stats();
        let retries = u64::from(MAX_ATTEMPTS - 1);
        assert_eq!((s.retries, s.retransmitted_bytes), (retries, 40 * retries));
        let before = (inj.now(), inj.stats());
        assert_eq!(
            retry_on_schedule(&inj, MAX_ATTEMPTS, 40, exhausted),
            Err(exhausted),
            "the last attempt is not retried"
        );
        assert_eq!((inj.now(), inj.stats()), before, "and waits for nothing");
    }

    #[test]
    fn clean_run_with_overload_control_is_bit_identical() {
        let run = |protected: bool| {
            let (store, topo) = setup(2);
            let meter = Arc::new(TrafficMeter::new());
            let inj = injector(FaultPlan::default());
            let mut client =
                PsClient::new(0, topo, store.clone(), meter.clone()).with_faults(inj.clone());
            if protected {
                client = client.with_overload(Arc::new(OverloadControl::new(2)));
            }
            let keys: Vec<ParamKey> = (0..8).map(ParamKey).collect();
            let g = [0.1f32; 4];
            let grads: Vec<&[f32]> = keys.iter().map(|_| &g[..]).collect();
            let mut buf = [0.0f32; 4];
            for _ in 0..10 {
                pull_batch(&client, &keys, |_, _| {});
                try_pull(&client, ParamKey(1), &mut buf).unwrap();
                push_batch(&client, &keys, &grads, &Sgd { lr: 0.1 });
            }
            let mut rows = Vec::new();
            store.for_each_row(|k, row| {
                rows.push((k, row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
            });
            (meter.snapshot(), inj.stats(), inj.now(), rows)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn replication_on_fault_free_run_only_adds_replication_traffic() {
        let run = |k: usize| {
            let (store, topo) = setup_replicated(2, k);
            let meter = Arc::new(TrafficMeter::new());
            let inj = injector(FaultPlan::default());
            let client = PsClient::new(0, topo, store.clone(), meter.clone()).with_faults(inj);
            let mut scratch = PsScratch::new();
            let keys: Vec<ParamKey> = (0..8).map(ParamKey).collect();
            let mut buf = [0.0f32; 4];
            for round in 0..20 {
                for &k in &keys {
                    try_pull(&client, k, &mut buf).unwrap();
                }
                let g = vec![0.01 * (round as f32 + 1.0); 4];
                let refs: Vec<&[f32]> = keys.iter().map(|_| g.as_slice()).collect();
                client
                    .try_push_batch_with(&keys, &refs, &Sgd { lr: 0.1 }, &mut scratch)
                    .unwrap();
            }
            let mut rows = Vec::new();
            store.for_each_row(|k, row| {
                rows.push((k, row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
            });
            (meter.snapshot(), rows)
        };
        let (off, rows_off) = run(1);
        let (on, rows_on) = run(2);
        assert_eq!(
            rows_off, rows_on,
            "replication never changes primary values"
        );
        assert_eq!(off.replication_bytes, 0);
        assert_eq!(off.replication_messages, 0);
        assert!(on.replication_bytes > 0, "batches shipped to the backup");
        assert_eq!(
            TrafficSnapshot {
                replication_bytes: 0,
                replication_messages: 0,
                ..on
            },
            off,
            "worker-lane traffic is bit-identical with replication on"
        );
    }

    #[test]
    fn compressed_push_cuts_push_lane_bytes_and_applies_decoded_grads() {
        let (store, topo) = setup(2);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter.clone());
        let mut scratch = PsScratch::new();
        scratch.set_compression(CompressionMode::Int8);
        let keys: Vec<ParamKey> = (0..6).map(ParamKey).collect();
        let mut init = vec![[0.0f32; 4]; keys.len()];
        for (i, &k) in keys.iter().enumerate() {
            store.pull(k, &mut init[i]);
        }
        let g = [0.4f32, -0.2, 0.1, 0.05];
        let grads: Vec<&[f32]> = keys.iter().map(|_| &g[..]).collect();
        client
            .try_push_batch_with(&keys, &grads, &Sgd { lr: 1.0 }, &mut scratch)
            .unwrap();
        let s = meter.snapshot();
        assert_eq!(s.push_messages, 2, "one frame per touched shard");
        assert_eq!(s.push_raw_bytes, 6 * (16 + 8));
        assert_eq!(
            s.push_wire_bytes,
            6 * (8 + 8),
            "per row: 8-byte key + 4-byte scale + 4 int8 codes"
        );
        assert_eq!(
            s.local_bytes + s.remote_bytes,
            s.push_wire_bytes,
            "the worker lanes carry the encoded bytes, not the dense ones"
        );
        let mut buf = [0.0f32; 4];
        for (i, &k) in keys.iter().enumerate() {
            store.pull(k, &mut buf);
            for d in 0..4 {
                let applied = init[i][d] - buf[d];
                assert!(
                    (applied - g[d]).abs() <= 0.4 / 127.0 + 1e-6,
                    "key {i} dim {d}: applied {applied} vs submitted {}",
                    g[d]
                );
            }
        }
        let stats = scratch.compression_stats().unwrap();
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.frames, 2);
        assert!(stats.ratio() > 1.4, "ratio {}", stats.ratio());
    }

    /// A push whose last rows are written back: each shard's frame trails
    /// its own share of them with their energies, the split between plain
    /// rows and rows written back adds up to the lanes, the server hands the
    /// energy to the optimizer — and a push without any is, byte for byte
    /// and cause for cause, the push it always was.
    #[test]
    fn coalesced_rows_trail_each_shard_frame_and_are_metered_as_written_back() {
        use crate::optimizer::{energy, AdaGrad};
        for (mode, row_bytes) in [(CompressionMode::Off, 16), (CompressionMode::Int8, 8)] {
            let ks = KeySpace::new(8, 4);
            let new_store = || {
                let router = ShardRouter::round_robin(ks, 2);
                Arc::new(KvStore::new(
                    router,
                    4,
                    4,
                    1,
                    Init::Uniform { bound: 0.1 },
                    1,
                ))
            };
            let (store, reference) = (new_store(), new_store());
            let meter = Arc::new(TrafficMeter::new());
            let client = PsClient::new(0, ClusterTopology::new(2, 1), store.clone(), meter.clone());
            let mut scratch = PsScratch::new();
            scratch.set_compression(mode);
            let opt = AdaGrad::new(0.1);
            // Keys 0, 1 and 2 carry one gradient; 3 (shard 1), 4 (shard 0) and
            // 5 (shard 1) the sum of two that cancel in part.
            let keys: Vec<ParamKey> = (0..6).map(ParamKey).collect();
            let (a, b) = ([0.4f32, -0.2, 0.1, 0.05], [-0.3f32, 0.25, 0.1, -0.05]);
            let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let e = energy(&a) + energy(&b);
            let row_of = |i: usize| if i < 3 { &a[..] } else { &sum[..] };
            client
                .try_push_coalesced_rows(&keys, &[e, e, e], row_of, &opt, &mut scratch)
                .unwrap();
            let t = meter.snapshot();
            assert_eq!(t.push_messages, 2, "{mode:?}: no message is added");
            assert_eq!(t.local_messages + t.remote_messages, 2);
            let written_back = 3 * (8 + 4 + row_bytes);
            let (push, back) = (t.by_cause.push, t.by_cause.write_back);
            assert_eq!(back.local + back.remote, written_back, "{mode:?}");
            assert_eq!(back.local, 8 + 4 + row_bytes, "{mode:?}: key 4 is local");
            assert_eq!(push.local + push.remote, 3 * (8 + row_bytes), "{mode:?}");
            assert_eq!(t.by_cause.total().remote, t.remote_bytes);
            assert_eq!(t.by_cause.total().local, t.local_bytes);
            assert_eq!(t.push_wire_bytes, t.total_bytes());
            assert_eq!(t.push_raw_bytes, 6 * (8 + 16) + 3 * 4);
            // The same rows pushed plain: the written-back rows' state grew
            // by less, the plain rows' by the same.
            let plain = PsClient::new(
                0,
                ClusterTopology::new(2, 1),
                reference.clone(),
                Arc::new(TrafficMeter::new()),
            );
            let mut plain_scratch = PsScratch::new();
            plain_scratch.set_compression(mode);
            plain
                .try_push_coalesced_rows(&keys, &[], row_of, &opt, &mut plain_scratch)
                .unwrap();
            let state_of = |store: &KvStore, k: u64| {
                let mut found = Vec::new();
                store.for_each_row_with_state(|key, _, state| {
                    if key.0 == k {
                        found = state.to_vec();
                    }
                });
                found
            };
            for k in 0..6u64 {
                let (with, without) = (state_of(&store, k), state_of(&reference, k));
                if k < 3 {
                    assert_eq!(with, without, "{mode:?}: key {k} is a plain row");
                } else {
                    let grown: f32 = with.iter().sum();
                    assert!(
                        (grown - e).abs() < 0.02 * e && grown > 2.0 * without.iter().sum::<f32>(),
                        "{mode:?}: key {k}'s state grew by {grown}, energy {e}"
                    );
                }
            }
            let no_trailer = plain.meter.snapshot();
            assert_eq!(no_trailer.by_cause.write_back, Default::default());
            assert_eq!(no_trailer.total_bytes(), 6 * (8 + row_bytes));
        }
    }

    #[test]
    fn error_feedback_keeps_repeated_pushes_unbiased() {
        let (store, topo) = setup(1);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter);
        let mut scratch = PsScratch::new();
        scratch.set_compression(CompressionMode::Int8);
        let key = ParamKey(0);
        store.store(key, &[0.0; 4]);
        let g = [0.013f32, -0.027, 0.0031, 0.009];
        for _ in 0..200 {
            try_push_with(&client, key, &g, &Sgd { lr: 1.0 }, &mut scratch).unwrap();
        }
        let mut buf = [0.0f32; 4];
        store.pull(key, &mut buf);
        for d in 0..4 {
            let want = -200.0 * g[d];
            // Without error feedback each step could lose up to half a
            // quantization step, 200× over; with it only the final
            // residual — at most one step's rounding error — is
            // outstanding.
            assert!(
                (buf[d] - want).abs() <= 1e-3,
                "dim {d}: {} drifted from {want}",
                buf[d]
            );
        }
    }

    #[test]
    fn topk_pushes_apply_only_the_largest_coordinates() {
        let (store, topo) = setup(1);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter);
        let mut scratch = PsScratch::new();
        scratch.set_compression(CompressionMode::TopK);
        let key = ParamKey(0);
        store.store(key, &[0.0; 4]);
        let g = [0.5f32, -0.01, 0.02, -0.003];
        try_push_with(&client, key, &g, &Sgd { lr: 1.0 }, &mut scratch).unwrap();
        let mut buf = [0.0f32; 4];
        store.pull(key, &mut buf);
        let nonzero = buf.iter().filter(|v| **v != 0.0).count();
        assert_eq!(nonzero, 1, "k = max(1, 4/4) coordinate survives the wire");
        assert!((buf[0] + 0.5).abs() <= 0.5 / 127.0 + 1e-6, "got {}", buf[0]);
        // The dropped mass waits in the residual, not in the void.
        let mut acc = [0.0f32; 4];
        assert!(scratch.fold_residual(key, &mut acc));
        assert!((acc[1] + 0.01).abs() < 1e-6, "got {}", acc[1]);
        assert!(!scratch.fold_residual(key, &mut acc), "folded once");
    }

    #[test]
    fn a_flush_pushes_what_topk_held_back_and_only_that() {
        let (store, topo) = setup(1);
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, topo, store.clone(), meter.clone());
        let sgd = Sgd { lr: 1.0 };
        let key = ParamKey(0);
        let g = [0.5f32, -0.01, 0.02, -0.003];
        let mut int8 = PsScratch::new();
        int8.set_compression(CompressionMode::Int8);
        try_push_with(&client, key, &g, &sgd, &mut int8).unwrap();
        assert_eq!(
            client.try_flush_held(&sgd, &mut int8),
            Ok(false),
            "int8 drops nothing"
        );

        store.store(key, &[0.0; 4]);
        let mut scratch = PsScratch::new();
        scratch.set_compression(CompressionMode::TopK);
        try_push_with(&client, key, &g, &sgd, &mut scratch).unwrap();
        let before = meter.snapshot();
        assert_eq!(client.try_flush_held(&sgd, &mut scratch), Ok(true));
        let flushed = meter.snapshot().since(before);
        assert_eq!(flushed.push_messages, 1, "one frame, metered");
        let mut buf = [0.0f32; 4];
        store.pull(key, &mut buf);
        for d in 0..4 {
            // What stays behind is the flush's int8 rounding of the residual.
            assert!(
                (buf[d] + g[d]).abs() <= 0.5 * 0.02 / 127.0 + 1e-6,
                "dim {d}: {}",
                buf[d]
            );
        }
        assert_eq!(
            client.try_flush_held(&sgd, &mut scratch),
            Ok(false),
            "flushed once"
        );
    }

    #[test]
    fn one_key_batches_with_reused_scratch_match_fresh_calls() {
        let (store_a, topo) = setup(2);
        let (store_b, _) = setup(2);
        let meter_a = Arc::new(TrafficMeter::new());
        let meter_b = Arc::new(TrafficMeter::new());
        let a = PsClient::new(0, topo, store_a.clone(), meter_a.clone());
        let b = PsClient::new(0, topo, store_b.clone(), meter_b.clone());
        let mut scratch = PsScratch::new();
        let g = [0.25f32, -0.5, 0.125, 0.0625];
        for round in 0..5 {
            for k in [1u64, 0, 3, 9].map(ParamKey) {
                try_push(&a, k, &g, &Sgd { lr: 0.1 }).unwrap();
                try_push_with(&b, k, &g, &Sgd { lr: 0.1 }, &mut scratch).unwrap();
            }
            let mut ra = [0.0f32; 4];
            let mut rb = [0.0f32; 4];
            try_pull(&a, ParamKey(round), &mut ra).unwrap();
            try_pull_with(&b, ParamKey(round), &mut rb, &mut scratch).unwrap();
            assert_eq!(ra, rb);
        }
        assert_eq!(meter_a.snapshot(), meter_b.snapshot());
        let mut all_a = Vec::new();
        store_a.for_each_row(|k, row| all_a.push((k, row.to_vec())));
        let mut all_b = Vec::new();
        store_b.for_each_row(|k, row| all_b.push((k, row.to_vec())));
        assert_eq!(all_a, all_b);
    }

    #[test]
    fn compress_off_scratch_is_identical_to_a_plain_scratch() {
        let run = |set_off: bool| {
            let (store, topo) = setup(2);
            let meter = Arc::new(TrafficMeter::new());
            let client = PsClient::new(0, topo, store.clone(), meter.clone());
            let mut scratch = PsScratch::new();
            if set_off {
                scratch.set_compression(CompressionMode::Off);
            }
            let keys: Vec<ParamKey> = (0..8).map(ParamKey).collect();
            let g = [0.1f32; 4];
            let grads: Vec<&[f32]> = keys.iter().map(|_| &g[..]).collect();
            for _ in 0..4 {
                client
                    .try_push_batch_with(&keys, &grads, &Sgd { lr: 0.1 }, &mut scratch)
                    .unwrap();
                try_push_with(&client, ParamKey(2), &g, &Sgd { lr: 0.1 }, &mut scratch).unwrap();
            }
            assert!(scratch.compression_stats().is_none());
            let mut rows = Vec::new();
            store.for_each_row(|k, row| {
                rows.push((k, row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
            });
            (meter.snapshot(), rows)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn corrupted_compressed_frames_are_detected_and_never_ingested() {
        // The chaos differential for compressed frames: under a corrupting
        // plan the encoded-byte checksum must catch every damaged frame and
        // retransmission must deliver the sealed bytes, so the store ends
        // bit-identical to a fault-free run of the same compressed pushes.
        let run = |plan: FaultPlan| {
            let (store, topo) = setup(2);
            let meter = Arc::new(TrafficMeter::new());
            let inj = injector(plan);
            let client =
                PsClient::new(0, topo, store.clone(), meter.clone()).with_faults(inj.clone());
            let mut scratch = PsScratch::new();
            scratch.set_compression(CompressionMode::TopK);
            let keys: Vec<ParamKey> = (0..8).map(ParamKey).collect();
            for round in 0..12 {
                let g = vec![0.01 * (round as f32 + 1.0), -0.02, 0.005, 0.001];
                let refs: Vec<&[f32]> = keys.iter().map(|_| g.as_slice()).collect();
                client
                    .try_push_batch_with(&keys, &refs, &Sgd { lr: 0.1 }, &mut scratch)
                    .unwrap();
            }
            let mut rows = Vec::new();
            store.for_each_row(|k, row| {
                rows.push((k, row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
            });
            (rows, inj.stats())
        };
        let (clean, _) = run(FaultPlan::default());
        let (faulty, stats) = run(FaultPlan::corrupting(9, 0.5));
        assert!(stats.corrupt_frames > 0, "the plan did corrupt frames");
        assert_eq!(
            stats.corrupt_detected, stats.corrupt_frames,
            "the encoded-byte checksum caught every damaged frame"
        );
        assert_eq!(stats.corrupt_ingested, 0);
        assert_eq!(
            clean, faulty,
            "retransmission delivered the sealed bytes bit for bit"
        );
    }

    proptest! {
        /// `staged_pull_cost` is the meter's delta over the pull it prices —
        /// lanes, messages and causes — on 1–4 machines, from either end of
        /// the cluster, over two row widths, and it meters nothing itself:
        /// plain keys (duplicates allowed) leading, booked as misses, and
        /// distinct rows asked about with nothing held behind them, booked
        /// as construction, one message per shard for both. With no fresh
        /// row it is a plain pull's cost; with no plain key, what a
        /// construction has always cost.
        #[test]
        fn plain_pull_cost_is_what_the_pull_is_metered_as(
            machines in 1usize..5,
            last_worker in any::<bool>(),
            plain in prop::collection::vec(0u64..12, 0..24),
            fresh in prop::collection::vec(0u64..12, 0..10),
        ) {
            // TransR-shaped: a relation row is wider than an entity row.
            let router = ShardRouter::round_robin(KeySpace::new(8, 4), machines);
            let store = Arc::new(KvStore::new(router, 4, 6, 0, Init::Uniform { bound: 0.1 }, 1));
            let meter = Arc::new(TrafficMeter::new());
            let worker = if last_worker { machines - 1 } else { 0 };
            let client = PsClient::new(worker, ClusterTopology::new(machines, 1), store, meter.clone());
            let fresh: std::collections::BTreeSet<u64> = fresh.into_iter().collect();
            let keys: Vec<ParamKey> = plain.iter().chain(&fresh).copied().map(ParamKey).collect();
            let mut scratch = PsScratch::new();
            let cost = client.staged_pull_cost(&keys, fresh.len(), &mut scratch);
            prop_assert_eq!(meter.snapshot(), TrafficSnapshot::default());
            let mut got = 0;
            if fresh.is_empty() {
                client.try_pull_batch_with(&keys, &mut scratch, |_, _| got += 1).unwrap();
            } else {
                client
                    .try_pull_newer_with(&keys, fresh.len(), &[], &mut scratch, |_, _, _| got += 1)
                    .unwrap();
            }
            prop_assert_eq!(got, keys.len(), "a row held under no version always comes back");
            prop_assert_eq!(cost, meter.snapshot());
            let row_bytes = |k: &u64| if *k < 8 { 16 } else { 24 };
            let causes = cost.by_cause;
            prop_assert_eq!(
                causes.miss_pull.local + causes.miss_pull.remote,
                plain.iter().map(|k| 8 + row_bytes(k)).sum::<u64>()
            );
            prop_assert_eq!(
                causes.construction.local + causes.construction.remote,
                fresh.iter().map(|k| 24 + row_bytes(k)).sum::<u64>()
            );
        }
    }
}
