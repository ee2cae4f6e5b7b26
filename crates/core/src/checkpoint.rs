//! Deterministic checkpoint/resume for the trainer.
//!
//! Long training runs must survive preemption: the checkpoint captures
//! *everything* that feeds the training stream — model parameters,
//! optimizer moments, the trainer RNG state, the `(epoch, iteration)`
//! cursor, the traffic ledger, the static feature cache and the historical
//! embedding cache — so a resumed run replays the exact batch stream and
//! finishes with bitwise-identical parameters (tested in
//! `tests/checkpoint_resume.rs`).
//!
//! ## Format (version 1)
//!
//! Hand-rolled little-endian binary — the workspace builds offline with no
//! serialization dependency:
//!
//! ```text
//! magic   b"FGNNCKPT"           8 bytes
//! version u32                   currently 1
//! core    u64 len, payload, u64 FNV-1a checksum
//! cache   u64 len, payload, u64 FNV-1a checksum
//! ```
//!
//! The **core** segment (params, optimizer, RNG, cursor, counters, static
//! cache) must decode and checksum exactly — corruption there is a hard
//! [`CheckpointError`]. The **cache** segment holds only the historical
//! embedding cache, which is an accelerator, not correctness state: if it
//! is missing or corrupt the load still succeeds with
//! [`Checkpoint::cache`]` = None` and `cache_degraded = true`, and the
//! trainer resumes with a cold cache (see DESIGN.md "Fault model &
//! recovery").

use crate::cache::{CacheSnapshot, RingSnapshot};
use fgnn_memsim::TrafficCounters;
use fgnn_nn::model::Arch;
use fgnn_nn::OptimizerState;
use fgnn_tensor::Matrix;
use std::fmt;
use std::path::Path;

/// File magic.
pub const MAGIC: [u8; 8] = *b"FGNNCKPT";
/// Current format version. v2 added the NIC byte/time fields to the
/// traffic-counter segment (cluster simulation).
pub const VERSION: u32 = 2;

/// Why a checkpoint failed to save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The file's format version is not readable by this build.
    UnsupportedVersion(u32),
    /// A segment's checksum does not match its payload.
    ChecksumMismatch {
        /// Which segment failed (`"core"` / `"cache"`).
        segment: &'static str,
    },
    /// The file ended before a declared segment/field was complete.
    Truncated,
    /// A payload decoded but violates a structural invariant.
    Malformed(String),
    /// The checkpoint is valid but belongs to a differently-shaped
    /// trainer (arch/dims mismatch).
    ShapeMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a FreshGNN checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch { segment } => {
                write!(f, "checkpoint {segment} segment failed its checksum")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::ShapeMismatch(m) => {
                write!(f, "checkpoint does not fit this trainer: {m}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A fully-decoded trainer checkpoint.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Model architecture (sanity-checked on restore).
    pub arch: Arch,
    /// Layer dimensions `[in, hidden.., out]` (sanity-checked on restore).
    pub dims: Vec<usize>,
    /// Flat model parameters ([`fgnn_nn::Model::export_parameters`] order).
    pub params: Vec<f32>,
    /// Optimizer moments and counters.
    pub optimizer: OptimizerState,
    /// Trainer RNG state — resuming continues the exact shuffle/sample
    /// stream.
    pub rng_state: [u64; 4],
    /// Completed epochs at checkpoint time.
    pub epoch: u32,
    /// Global iteration cursor at checkpoint time.
    pub iter: u32,
    /// Cumulative traffic/time ledger.
    pub counters: TrafficCounters,
    /// Static feature cache residency bitmap.
    pub static_resident: Vec<bool>,
    /// Historical embedding cache contents; `None` when the segment was
    /// missing or corrupt (graceful degradation — resume cold).
    pub cache: Option<CacheSnapshot>,
    /// Whether the cache segment had to be dropped during load.
    pub cache_degraded: bool,
}

impl Checkpoint {
    /// Serialize to the version-1 binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let core = encode_core(self);
        let cache = encode_cache(self.cache.as_ref());
        let mut out = Vec::with_capacity(core.len() + cache.len() + 48);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for seg in [&core, &cache] {
            out.extend_from_slice(&(seg.len() as u64).to_le_bytes());
            out.extend_from_slice(seg);
            out.extend_from_slice(&fnv1a(seg).to_le_bytes());
        }
        out
    }

    /// Decode a checkpoint. Core-segment problems are hard errors; a bad
    /// cache segment degrades (`cache = None`, `cache_degraded = true`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let core = read_segment(&mut r).ok_or(CheckpointError::Truncated)?;
        let core = core.ok_or(CheckpointError::ChecksumMismatch { segment: "core" })?;
        let mut ckpt = decode_core(&core)?;
        // Cache segment: any failure here — truncation, checksum, decode —
        // degrades instead of erroring.
        ckpt.cache = match read_segment(&mut r) {
            Some(Some(payload)) => decode_cache(&payload).ok().flatten(),
            _ => None,
        };
        ckpt.cache_degraded = ckpt.cache.is_none();
        Ok(ckpt)
    }

    /// Write to `path` (atomically via a sibling temp file, so a crash
    /// mid-save never leaves a half-written checkpoint in place).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read and decode from `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(&std::fs::read(path)?)
    }
}

/// FNV-1a 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Read one `len + payload + checksum` segment. Outer `None` = truncated;
/// inner `None` = checksum mismatch.
fn read_segment(r: &mut Reader<'_>) -> Option<Option<Vec<u8>>> {
    let len = r.u64().ok()? as usize;
    let payload = r.take(len).ok()?.to_vec();
    let want = r.u64().ok()?;
    Some((fnv1a(&payload) == want).then_some(payload))
}

// ---------------------------------------------------------------- encoding

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32_slice(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    fn u32_slice(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }
    fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for &x in m.as_slice() {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    fn bools(&mut self, v: &[bool]) {
        // Bit-packed: the static-cache bitmap is O(|V|).
        self.u64(v.len() as u64);
        let mut byte = 0u8;
        for (i, &b) in v.iter().enumerate() {
            if b {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !v.len().is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }
    /// The next `n` bytes. A length field read from corrupt bytes may be
    /// anything, so the end is computed with checked arithmetic.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Guard a declared element count against the bytes actually left, so
    /// a corrupt length cannot trigger a huge allocation.
    fn checked_len(&self, n: u64, elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = n as usize;
        match n
            .checked_mul(elem_bytes)
            .and_then(|t| t.checked_add(self.pos))
        {
            Some(end) if end <= self.bytes.len() => Ok(n),
            _ => Err(CheckpointError::Truncated),
        }
    }
    fn f32_slice(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.u64()?;
        let n = self.checked_len(n, 4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
    fn u32_slice(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.u64()?;
        let n = self.checked_len(n, 4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
    fn matrix(&mut self) -> Result<Matrix, CheckpointError> {
        let rows = self.u64()?;
        let cols = self.u64()?;
        let n = self.checked_len(rows.saturating_mul(cols), 4)?;
        if rows != 0 && n / rows as usize != cols as usize {
            return Err(CheckpointError::Malformed("matrix shape overflow".into()));
        }
        let raw = self.take(n * 4)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Matrix::from_vec(rows as usize, cols as usize, data))
    }
    fn bools(&mut self) -> Result<Vec<bool>, CheckpointError> {
        let n = self.u64()? as usize;
        let raw = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| raw[i / 8] & (1 << (i % 8)) != 0).collect())
    }
}

fn encode_arch(a: Arch) -> u8 {
    match a {
        Arch::Gcn => 0,
        Arch::Sage => 1,
        Arch::Gat => 2,
    }
}

fn decode_arch(b: u8) -> Result<Arch, CheckpointError> {
    match b {
        0 => Ok(Arch::Gcn),
        1 => Ok(Arch::Sage),
        2 => Ok(Arch::Gat),
        _ => Err(CheckpointError::Malformed(format!("unknown arch tag {b}"))),
    }
}

fn encode_counters(w: &mut Writer, c: &TrafficCounters) {
    w.u64(c.host_to_gpu_bytes);
    w.u64(c.gpu_to_gpu_bytes);
    w.u64(c.cache_hit_bytes);
    w.u64(c.index_bytes);
    w.u64(c.num_transfers);
    w.f64(c.transfer_seconds);
    w.f64(c.compute_seconds);
    w.f64(c.sample_seconds);
    w.f64(c.prune_seconds);
    w.u64(c.retries);
    w.f64(c.retry_seconds);
    w.u64(c.failed_transfers);
    w.u64(c.nic_bytes);
    w.f64(c.nic_seconds);
}

fn decode_counters(r: &mut Reader<'_>) -> Result<TrafficCounters, CheckpointError> {
    Ok(TrafficCounters {
        host_to_gpu_bytes: r.u64()?,
        gpu_to_gpu_bytes: r.u64()?,
        cache_hit_bytes: r.u64()?,
        index_bytes: r.u64()?,
        num_transfers: r.u64()?,
        transfer_seconds: r.f64()?,
        compute_seconds: r.f64()?,
        sample_seconds: r.f64()?,
        prune_seconds: r.f64()?,
        retries: r.u64()?,
        retry_seconds: r.f64()?,
        failed_transfers: r.u64()?,
        nic_bytes: r.u64()?,
        nic_seconds: r.f64()?,
    })
}

fn encode_core(c: &Checkpoint) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(encode_arch(c.arch));
    w.u64(c.dims.len() as u64);
    for &d in &c.dims {
        w.u64(d as u64);
    }
    w.f32_slice(&c.params);
    w.u64(c.optimizer.counters.len() as u64);
    for &x in &c.optimizer.counters {
        w.u64(x);
    }
    w.u64(c.optimizer.tensors.len() as u64);
    for m in &c.optimizer.tensors {
        w.matrix(m);
    }
    for &s in &c.rng_state {
        w.u64(s);
    }
    w.u32(c.epoch);
    w.u32(c.iter);
    encode_counters(&mut w, &c.counters);
    w.bools(&c.static_resident);
    w.buf
}

fn decode_core(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let mut r = Reader::new(bytes);
    let arch = decode_arch(r.u8()?)?;
    let ndims = r.u64()?;
    let ndims = r.checked_len(ndims, 8)?;
    let dims = (0..ndims)
        .map(|_| r.u64().map(|d| d as usize))
        .collect::<Result<Vec<_>, _>>()?;
    if dims.len() < 2 {
        return Err(CheckpointError::Malformed(format!(
            "{} layer dims; a model needs at least 2",
            dims.len()
        )));
    }
    let params = r.f32_slice()?;
    let ncounters = r.u64()?;
    let ncounters = r.checked_len(ncounters, 8)?;
    let counters_vec = (0..ncounters)
        .map(|_| r.u64())
        .collect::<Result<Vec<_>, _>>()?;
    let ntensors = r.u64()? as usize;
    let mut tensors = Vec::new();
    for _ in 0..ntensors {
        tensors.push(r.matrix()?);
    }
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r.u64()?;
    }
    if rng_state.iter().all(|&w| w == 0) {
        return Err(CheckpointError::Malformed("all-zero RNG state".into()));
    }
    let epoch = r.u32()?;
    let iter = r.u32()?;
    let counters = decode_counters(&mut r)?;
    let static_resident = r.bools()?;
    Ok(Checkpoint {
        arch,
        dims,
        params,
        optimizer: OptimizerState {
            counters: counters_vec,
            tensors,
        },
        rng_state,
        epoch,
        iter,
        counters,
        static_resident,
        cache: None,
        cache_degraded: false,
    })
}

fn encode_ring(w: &mut Writer, s: &RingSnapshot) {
    w.matrix(&s.table);
    w.u32_slice(&s.slot_of);
    w.u32_slice(&s.node_of);
    w.u32_slice(&s.stamp);
    w.u64(s.head as u64);
    w.u64(s.stale_evictions);
    w.u64(s.grad_evictions);
    w.u64(s.overwrites);
}

fn decode_ring(r: &mut Reader<'_>) -> Result<RingSnapshot, CheckpointError> {
    Ok(RingSnapshot {
        table: r.matrix()?,
        slot_of: r.u32_slice()?,
        node_of: r.u32_slice()?,
        stamp: r.u32_slice()?,
        head: r.u64()? as usize,
        stale_evictions: r.u64()?,
        grad_evictions: r.u64()?,
        overwrites: r.u64()?,
    })
}

fn encode_cache(snapshot: Option<&CacheSnapshot>) -> Vec<u8> {
    let mut w = Writer::new();
    let Some(s) = snapshot else {
        w.u8(0);
        return w.buf;
    };
    w.u8(1);
    w.u64(s.levels.len() as u64);
    for level in &s.levels {
        match level {
            Some(ring) => {
                w.u8(1);
                encode_ring(&mut w, ring);
            }
            None => w.u8(0),
        }
    }
    w.u32(s.t_stale);
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.admits);
    w.u64(s.keeps);
    w.buf
}

fn decode_cache(bytes: &[u8]) -> Result<Option<CacheSnapshot>, CheckpointError> {
    let mut r = Reader::new(bytes);
    if r.u8()? == 0 {
        return Ok(None);
    }
    let nlevels = r.u64()? as usize;
    let mut levels = Vec::new();
    for _ in 0..nlevels {
        levels.push(if r.u8()? == 1 {
            Some(decode_ring(&mut r)?)
        } else {
            None
        });
    }
    Ok(Some(CacheSnapshot {
        levels,
        t_stale: r.u32()?,
        hits: r.u64()?,
        misses: r.u64()?,
        admits: r.u64()?,
        keeps: r.u64()?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            arch: Arch::Sage,
            dims: vec![16, 8, 4],
            params: (0..32).map(|i| i as f32 * 0.5).collect(),
            optimizer: OptimizerState {
                counters: vec![7],
                tensors: vec![Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32)],
            },
            rng_state: [1, 2, 3, 4],
            epoch: 3,
            iter: 17,
            counters: {
                let mut c = TrafficCounters::new();
                c.host_to_gpu_bytes = 12345;
                c.transfer_seconds = 0.5;
                c.retries = 2;
                c.retry_seconds = 0.01;
                c
            },
            static_resident: (0..37).map(|i| i % 3 == 0).collect(),
            cache: Some(CacheSnapshot {
                levels: vec![
                    Some(crate::cache::RingCache::new(37, 4, 8).snapshot()),
                    None,
                ],
                t_stale: 50,
                hits: 9,
                misses: 4,
                admits: 6,
                keeps: 2,
            }),
            cache_degraded: false,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let c = sample_checkpoint();
        let d = Checkpoint::from_bytes(&c.to_bytes()).expect("round trip");
        assert_eq!(d.arch, c.arch);
        assert_eq!(d.dims, c.dims);
        assert_eq!(d.params, c.params);
        assert_eq!(d.optimizer, c.optimizer);
        assert_eq!(d.rng_state, c.rng_state);
        assert_eq!(d.epoch, 3);
        assert_eq!(d.iter, 17);
        assert_eq!(d.counters.host_to_gpu_bytes, 12345);
        assert_eq!(d.counters.retries, 2);
        assert_eq!(d.static_resident, c.static_resident);
        assert_eq!(d.cache, c.cache);
        assert!(!d.cache_degraded);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn corrupt_core_segment_is_a_hard_error() {
        let bytes = sample_checkpoint().to_bytes();
        // Flip a byte inside the core payload (after magic+version+len).
        let mut bad = bytes.clone();
        bad[25] ^= 0xFF;
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::ChecksumMismatch { segment: "core" })
        ));
    }

    #[test]
    fn corrupt_cache_segment_degrades_gracefully() {
        let c = sample_checkpoint();
        let bytes = c.to_bytes();
        // The cache payload occupies the run before its trailing checksum.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 12] ^= 0xFF;
        let d = Checkpoint::from_bytes(&bad).expect("core still loads");
        assert!(d.cache.is_none());
        assert!(d.cache_degraded);
        assert_eq!(d.params, c.params, "core state intact");
    }

    #[test]
    fn truncated_cache_segment_degrades_gracefully() {
        let c = sample_checkpoint();
        let core_only_len = {
            // magic + version + (len + core + sum): recompute from parts.
            let core = encode_core(&c);
            8 + 4 + 8 + core.len() + 8
        };
        let bytes = c.to_bytes();
        let d = Checkpoint::from_bytes(&bytes[..core_only_len + 3]).expect("core loads");
        assert!(d.cache_degraded);
    }

    #[test]
    fn truncated_core_is_truncation_error() {
        let bytes = sample_checkpoint().to_bytes();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes[..20]),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("fgnn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.ckpt");
        let c = sample_checkpoint();
        c.save(&path).expect("save");
        let d = Checkpoint::load(&path).expect("load");
        assert_eq!(d.params, c.params);
        std::fs::remove_file(&path).ok();
    }

    /// A core segment length of `u64::MAX` (bytes 12..20) is truncation,
    /// not an overflowing `pos + len`.
    #[test]
    fn huge_segment_length_is_truncation() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn corrupt_length_field_does_not_overallocate() {
        // A corrupt u64 length must hit Truncated, not abort on an OOM
        // allocation. (Lengths are validated against remaining bytes.)
        let c = sample_checkpoint();
        let core = encode_core(&c);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(core.len() as u64).to_le_bytes());
        let mut bad_core = core.clone();
        // params length lives right after arch (1) + ndims (8) + dims (3*8).
        bad_core[33..41].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&bad_core);
        bytes.extend_from_slice(&fnv1a(&bad_core).to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Truncated)
        ));
    }
}
