//! Durable checkpoints of the online diagnosis state.
//!
//! FlowDiff is meant to run continuously; a panic or process kill must
//! not throw away the streaming state (in-flight episodes, the
//! incremental model, the epoch grid) and force a cold rebuild. This
//! module provides:
//!
//! * a **guarded container** format shared by every persisted artifact
//!   — magic, version, payload length, CRC-32 — so a stale, foreign,
//!   torn, or bit-flipped file is a typed [`PersistError`], never
//!   silently-wrong state,
//! * an **atomic write** helper (tmp + fsync + rename) so a crash
//!   mid-write can never leave a torn file at the destination path,
//! * [`Checkpoint`]: the complete [`OnlineDiffer`] streaming state plus
//!   the number of input events consumed, and the two inputs it ran
//!   against named rather than carried — a fingerprint of the
//!   [`FlowDiffConfig`] and the [`BaselineBundle::identity`] of the
//!   baseline. Both come back from the caller at resume, and a
//!   different one is a typed error, not silent corruption,
//! * [`BaselineBundle`]: a precomputed baseline model + stability
//!   report, so watchers can skip the baseline build on restart.
//!
//! [`Checkpoint`] and [`ShardedCheckpoint`] are the two byte layouts;
//! the running system writes and reads them only through
//! [`Differ::checkpoint`](crate::engine::Differ::checkpoint) and
//! [`Differ::restore`](crate::engine::Differ::restore). A decoded
//! checkpoint is streaming state without a baseline: it becomes a
//! running differ only when `resume` installs the caller's.
//!
//! The recovery contract: kill the process at any epoch, restore the
//! last checkpoint, replay the input from the checkpoint's event
//! offset, and every subsequent [`EpochSnapshot`](crate::diff::EpochSnapshot)
//! is byte-identical to the uninterrupted run (the round-trip property
//! test in `tests/streaming_equivalence.rs` and
//! `engine::tests::supervised_run_survives_planned_kills_byte_identically`
//! both enforce this).

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::diff::{OnlineDiffer, ShardState, ShardedDiffer};
use crate::model::BehaviorModel;
use crate::stability::StabilityReport;

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"FDIFFCKP";
/// Current checkpoint format version: the sharded layout (a shared
/// core plus independently-guarded per-shard segments).
pub const CHECKPOINT_VERSION: u32 = 8;
/// The single-pipeline checkpoint layout [`Checkpoint`] writes and
/// reads; [`Differ::restore`](crate::engine::Differ::restore)
/// dispatches on the stamped version, so a run resumes whatever shape
/// its previous incarnation wrote. Every older version is refused,
/// never decoded: 1 (single) and 2 (sharded) are the layouts from
/// before the [`Sequencer`](crate::records::Sequencer) took the arrival
/// state out of the assemblers, 3 and 4 those from before its time-jump
/// check was anchored on the first admitted event, 5 and 6 those that
/// carried a copy of the baseline and a sequencer that never
/// re-anchored after a clock step.
pub const CHECKPOINT_SINGLE: u32 = 7;
/// Magic prefix of one shard's segment inside a segmented checkpoint.
pub const SEGMENT_MAGIC: [u8; 8] = *b"FDIFFSEG";
/// Current per-shard segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Magic prefix of a baseline-bundle file.
pub const BASELINE_MAGIC: [u8; 8] = *b"FDIFFBAS";
/// Current baseline-bundle format version.
pub const BASELINE_VERSION: u32 = 1;

/// Why a persisted artifact could not be written or trusted.
#[derive(Debug)]
pub enum PersistError {
    /// The file does not start with the expected magic (foreign or
    /// garbage file offered where a checkpoint/baseline was expected).
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 8],
        /// The first bytes actually found (zero-padded when shorter).
        found: [u8; 8],
    },
    /// The magic matched but the version is one this build cannot read.
    UnsupportedVersion {
        /// The newest version this build understands.
        supported: u32,
        /// The version stamped in the file.
        found: u32,
    },
    /// The file ends before the length its header promises (torn
    /// write, truncated copy).
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The payload bytes do not hash to the stored CRC-32 (bit rot or
    /// in-place corruption).
    CrcMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The container was intact but the payload failed to decode.
    Decode(serde::Error),
    /// The checkpoint was written under a different [`FlowDiffConfig`]
    /// than the one offered at resume.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        stored: u64,
        /// Fingerprint of the config offered at resume.
        offered: u64,
    },
    /// The checkpoint was written against a different baseline than the
    /// one offered at resume: its verdicts would be another baseline's.
    BaselineMismatch {
        /// [`BaselineBundle::identity`] stored in the checkpoint.
        stored: u64,
        /// Identity of the baseline offered at resume.
        offered: u64,
    },
    /// One shard's segment inside a sharded checkpoint was corrupt —
    /// named so operators know exactly which worker's state is at
    /// stake. Strict loads surface this; salvaging loads replace the
    /// segment with a fresh shard instead.
    ShardSegment {
        /// The shard whose segment failed validation.
        shard: usize,
        /// What was wrong with the segment.
        error: Box<PersistError>,
    },
    /// Filesystem-level failure while reading or writing.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            PersistError::UnsupportedVersion { supported, found } => write!(
                f,
                "unsupported format version {found} (this build reads up to {supported})"
            ),
            PersistError::Truncated { expected, found } => write!(
                f,
                "truncated: header promises {expected} payload bytes, file holds {found}"
            ),
            PersistError::CrcMismatch { stored, computed } => write!(
                f,
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::Decode(e) => write!(f, "payload decode failed: {e}"),
            PersistError::ConfigMismatch { stored, offered } => write!(
                f,
                "config mismatch: checkpoint written under fingerprint {stored:#018x}, \
                 resume offered {offered:#018x}"
            ),
            PersistError::BaselineMismatch { stored, offered } => write!(
                f,
                "checkpoint was written against a different baseline: identity {stored:#018x}, \
                 resume offered {offered:#018x}"
            ),
            PersistError::ShardSegment { shard, error } => {
                write!(f, "shard {shard} segment: {error}")
            }
            PersistError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde::Error> for PersistError {
    fn from(e: serde::Error) -> Self {
        PersistError::Decode(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
/// same checksum zlib/PNG use. Implemented in-tree because the build
/// is offline; a 256-entry table is computed on first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frames `payload` in the guarded container: `magic (8) | version
/// (u32 LE) | payload length (u64 LE) | CRC-32 of payload (u32 LE) |
/// payload`.
pub fn seal(magic: [u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The fixed 24-byte header every guarded container starts with, and
/// whatever follows it.
pub(crate) struct Header<'a> {
    /// The stamped format version (not yet judged readable).
    pub(crate) version: u32,
    /// Bytes the CRC-guarded region is promised to hold.
    len: usize,
    /// Stored CRC-32 of that region.
    crc: u32,
    /// Everything after the header.
    body: &'a [u8],
}

impl<'a> Header<'a> {
    /// The first `len` bytes of the body, CRC-checked, and what trails
    /// them.
    fn guarded(&self) -> Result<(&'a [u8], &'a [u8]), PersistError> {
        if self.body.len() < self.len {
            return Err(PersistError::Truncated {
                expected: self.len,
                found: self.body.len(),
            });
        }
        let (guarded, tail) = self.body.split_at(self.len);
        let computed = crc32(guarded);
        if computed != self.crc {
            return Err(PersistError::CrcMismatch {
                stored: self.crc,
                computed,
            });
        }
        Ok((guarded, tail))
    }
}

/// Reads a guarded container's header: the magic must match and all 24
/// header bytes must be present. Nothing past the header is judged.
///
/// # Errors
///
/// [`PersistError::BadMagic`] or [`PersistError::Truncated`].
pub(crate) fn read_header(magic: [u8; 8], bytes: &[u8]) -> Result<Header<'_>, PersistError> {
    if bytes.len() < 8 || bytes[..8] != magic {
        let mut found = [0u8; 8];
        let n = bytes.len().min(8);
        found[..n].copy_from_slice(&bytes[..n]);
        return Err(PersistError::BadMagic {
            expected: magic,
            found,
        });
    }
    if bytes.len() < 24 {
        return Err(PersistError::Truncated {
            expected: 24,
            found: bytes.len(),
        });
    }
    Ok(Header {
        version: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
        len: u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize,
        crc: u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes")),
        body: &bytes[24..],
    })
}

/// Validates a guarded container and returns its payload: the magic
/// must match, the version must be readable (`<= supported`), the
/// length must be exactly what remains, and the CRC must agree.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`UnsupportedVersion`](PersistError::UnsupportedVersion),
/// [`Truncated`](PersistError::Truncated) (also for trailing garbage),
/// or [`CrcMismatch`](PersistError::CrcMismatch).
pub fn unseal(magic: [u8; 8], supported: u32, bytes: &[u8]) -> Result<&[u8], PersistError> {
    let header = read_header(magic, bytes)?;
    if header.version == 0 || header.version > supported {
        return Err(PersistError::UnsupportedVersion {
            supported,
            found: header.version,
        });
    }
    if header.body.len() > header.len {
        return Err(PersistError::Truncated {
            expected: header.len,
            found: header.body.len(),
        });
    }
    Ok(header.guarded()?.0)
}

/// Writes `bytes` to `path` atomically: the content lands in a sibling
/// temporary file first, is fsynced, and only then renamed over the
/// destination — a crash at any instant leaves either the old file or
/// the new one, never a torn mixture. The parent directory is synced
/// after the rename so the new directory entry itself is durable.
///
/// # Errors
///
/// Any underlying filesystem error, wrapped in [`PersistError::Io`].
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Some(dir) = dir {
        // Directory fsync makes the rename itself durable; best-effort
        // on filesystems that refuse to sync directories.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// FNV-1a over `bytes`: the 64-bit hash behind [`config_fingerprint`],
/// [`BaselineBundle::identity`] and the engine tests' per-epoch
/// snapshot traces.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A stable 64-bit fingerprint of the part of a [`FlowDiffConfig`] that
/// differ state depends on ([`fnv1a`] over its serialized bytes), so a
/// checkpoint can refuse to resume under thresholds it was not built
/// with. The supervisor and transport knobs — how often to checkpoint,
/// how to restart, how the sockets queue and stall — shape no
/// differ state and read as their defaults here: resuming under a
/// different `--checkpoint-every` or `--stall-ms` is not a mismatch.
/// Every other field, present and future, is covered — the window
/// among them, which is also how long a lossy restore warms up.
/// A checkpoint stores this fingerprint and not the config: a resumed
/// differ judges under the caller's config, which the fingerprint
/// proves equal on every field a verdict reads.
pub fn config_fingerprint(config: &FlowDiffConfig) -> u64 {
    let neutral = FlowDiffConfig::default();
    fnv1a(&serde::to_vec(&FlowDiffConfig {
        checkpoint_every_epochs: neutral.checkpoint_every_epochs,
        restart_budget: neutral.restart_budget,
        restart_backoff_us: neutral.restart_backoff_us,
        ingest_queue_events: neutral.ingest_queue_events,
        ingest_stall_timeout_us: neutral.ingest_stall_timeout_us,
        ingest_heartbeat_us: neutral.ingest_heartbeat_us,
        ..config.clone()
    }))
}

/// Refuses a checkpoint written under another config or against another
/// baseline than the ones offered at resume: state built under other
/// thresholds, or judged against another baseline, would diff apples
/// against oranges without any visible symptom. Returns the offered
/// baseline's identity, for the restored differ to keep.
fn check_inputs(
    (config_stored, baseline_stored): (u64, u64),
    config: &FlowDiffConfig,
    baseline: &BaselineBundle,
) -> Result<u64, PersistError> {
    let offered = config_fingerprint(config);
    if offered != config_stored {
        return Err(PersistError::ConfigMismatch {
            stored: config_stored,
            offered,
        });
    }
    let offered = baseline.identity();
    if offered != baseline_stored {
        return Err(PersistError::BaselineMismatch {
            stored: baseline_stored,
            offered,
        });
    }
    Ok(offered)
}

/// The complete durable state of one online diagnosis run: the
/// [`OnlineDiffer`]'s streaming state (sequencer, assembler,
/// incremental builder, epoch grid, warm-up state), how many input
/// events it has consumed, and the two inputs it runs against by name —
/// the config by fingerprint and the baseline by identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Fingerprint of the [`FlowDiffConfig`] the differ was built with.
    pub config_fingerprint: u64,
    /// [`BaselineBundle::identity`] of the baseline the differ judges
    /// against.
    pub baseline_id: u64,
    /// Input events consumed when the checkpoint was taken — the
    /// replay offset: feed events `[events_consumed..]` to the
    /// restored differ to catch up losslessly.
    pub events_consumed: u64,
    /// The differ's streaming state without its baseline, decoded by
    /// [`Checkpoint::resume`] once the baseline is back.
    state: Vec<u8>,
}

impl Checkpoint {
    /// Captures the differ's current state (serialized; the live differ
    /// keeps running) with the given replay offset.
    pub fn capture(differ: &OnlineDiffer, events_consumed: u64, config: &FlowDiffConfig) -> Self {
        Checkpoint {
            config_fingerprint: config_fingerprint(config),
            baseline_id: differ.baseline_id(),
            events_consumed,
            state: differ.state_to_bytes(),
        }
    }

    /// Serializes into the guarded container (format version
    /// [`CHECKPOINT_SINGLE`], the single-pipeline layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(CHECKPOINT_MAGIC, CHECKPOINT_SINGLE, &serde::to_vec(self))
    }

    /// Parses a guarded container produced by [`Checkpoint::to_bytes`].
    /// Only reads the single-pipeline layout;
    /// [`Differ::restore`](crate::engine::Differ::restore) reads either.
    ///
    /// # Errors
    ///
    /// Every container-level [`PersistError`] plus
    /// [`PersistError::Decode`] for a payload that fails to parse.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, PersistError> {
        let payload = unseal(CHECKPOINT_MAGIC, CHECKPOINT_SINGLE, bytes)?;
        Ok(serde::from_slice(payload)?)
    }

    /// Installs `baseline` into the checkpointed state: a running differ
    /// and its replay offset, judging under `config`. Both must be the
    /// ones the checkpoint was written with.
    ///
    /// # Errors
    ///
    /// [`PersistError::ConfigMismatch`] or
    /// [`PersistError::BaselineMismatch`] when a stored name disagrees
    /// with what is offered, [`PersistError::Decode`] for a state that
    /// fails to parse.
    pub fn resume(
        self,
        baseline: &Arc<BaselineBundle>,
        config: &FlowDiffConfig,
    ) -> Result<(OnlineDiffer, u64), PersistError> {
        let stored = (self.config_fingerprint, self.baseline_id);
        let id = check_inputs(stored, config, baseline)?;
        let differ = OnlineDiffer::from_state(&self.state, Arc::clone(baseline), id, config)?;
        Ok((differ, self.events_consumed))
    }
}

/// The CRC-guarded index section of a segmented checkpoint: run
/// identity, the differ's shared core bytes, and the byte length of
/// every shard segment that follows. Segment framing lives here — in
/// CRC-protected territory — so corruption *inside* one segment can
/// never desynchronize the walk over the others.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardedManifest {
    config_fingerprint: u64,
    baseline_id: u64,
    events_consumed: u64,
    core: Vec<u8>,
    segment_lens: Vec<u64>,
}

/// The durable state of a sharded online diagnosis run, persisted as
/// FDIFFCKP [`CHECKPOINT_VERSION`]: the guarded header's CRC covers a manifest
/// (run identity + the [`ShardedDiffer`]'s shared core + segment
/// framing), and each shard's worker state follows as its *own* sealed
/// [`SEGMENT_MAGIC`] container with an independent CRC. Like
/// [`Checkpoint`], it names its config and baseline instead of
/// carrying them, and [`ShardedCheckpoint::resume`] takes both from the
/// caller.
///
/// The layout exists for blast-radius control: a bit flip in one
/// shard's segment fails *that segment's* CRC only. A strict load
/// ([`ShardedCheckpoint::from_bytes`]) names the shard in
/// [`PersistError::ShardSegment`]; a salvaging load
/// ([`ShardedCheckpoint::from_bytes_salvaging`]) reports the corrupt
/// shards in `salvaged_shards`, and [`ShardedCheckpoint::resume`]
/// replaces them with fresh workers and holds every verdict back for
/// one window (see [`SignatureHealth::Warming`](crate::diff::SignatureHealth::Warming))
/// — the other N-1 workers resume with full state instead of the whole
/// fleet rebuilding cold.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedCheckpoint {
    /// Fingerprint of the [`FlowDiffConfig`] the differ was built with.
    pub config_fingerprint: u64,
    /// [`BaselineBundle::identity`] of the baseline the differ judges
    /// against.
    pub baseline_id: u64,
    /// Input events consumed when the checkpoint was taken — the
    /// replay offset.
    pub events_consumed: u64,
    /// The differ's shared core without its baseline.
    core: Vec<u8>,
    /// Each shard's worker state; `None` for a salvaged segment.
    shards: Vec<Option<ShardState>>,
    /// Shards whose segments were corrupt and come back as fresh
    /// workers. Empty for strict loads and for clean salvaging loads.
    pub salvaged_shards: Vec<usize>,
}

impl ShardedCheckpoint {
    /// Captures the differ's current state (copied; the live differ
    /// keeps running) with the given replay offset. The copy quiesces
    /// the persistent worker pool first — every buffered step is
    /// drained through the channels before any shard is copied — so
    /// the captured segments are exactly the stop-the-world states (a
    /// restored differ respawns its own pool lazily).
    pub fn capture(differ: &ShardedDiffer, events_consumed: u64, config: &FlowDiffConfig) -> Self {
        ShardedCheckpoint {
            config_fingerprint: config_fingerprint(config),
            baseline_id: differ.baseline_id(),
            events_consumed,
            core: differ.core_to_bytes(),
            shards: differ.shard_states().into_iter().map(Some).collect(),
            salvaged_shards: Vec::new(),
        }
    }

    /// Serializes into the segmented layout: guarded manifest, then one
    /// sealed segment per shard. A salvaged shard is written as an empty
    /// segment, which every later load salvages again.
    pub fn to_bytes(&self) -> Vec<u8> {
        let segments: Vec<Vec<u8>> = (self.shards.iter())
            .map(|shard| {
                let payload = shard.as_ref().map_or_else(Vec::new, serde::to_vec);
                seal(SEGMENT_MAGIC, SEGMENT_VERSION, &payload)
            })
            .collect();
        let manifest = serde::to_vec(&ShardedManifest {
            config_fingerprint: self.config_fingerprint,
            baseline_id: self.baseline_id,
            events_consumed: self.events_consumed,
            core: self.core.clone(),
            segment_lens: segments.iter().map(|s| s.len() as u64).collect(),
        });
        let mut out = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &manifest);
        for segment in &segments {
            out.extend_from_slice(segment);
        }
        out
    }

    /// Strict parse of a segmented checkpoint: any corrupt segment is a typed
    /// [`PersistError::ShardSegment`] naming the shard.
    ///
    /// # Errors
    ///
    /// Every container-level [`PersistError`],
    /// [`PersistError::Decode`], or
    /// [`PersistError::ShardSegment`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardedCheckpoint, PersistError> {
        Self::parse(bytes, false)
    }

    /// Salvaging parse of a segmented checkpoint: a corrupt segment is
    /// recorded in `salvaged_shards`, for [`ShardedCheckpoint::resume`]
    /// to replace with a fresh worker under warm-up gating.
    /// Manifest-level corruption is still fatal — with the core gone
    /// there is nothing to salvage around.
    ///
    /// # Errors
    ///
    /// Container-level and manifest-level [`PersistError`]s only;
    /// segment corruption is absorbed.
    pub fn from_bytes_salvaging(bytes: &[u8]) -> Result<ShardedCheckpoint, PersistError> {
        Self::parse(bytes, true)
    }

    fn parse(bytes: &[u8], salvage: bool) -> Result<ShardedCheckpoint, PersistError> {
        // The header is seal()'s layout, but the CRC-guarded region is
        // the manifest alone — segments trail it, each self-guarded.
        let header = read_header(CHECKPOINT_MAGIC, bytes)?;
        if header.version != CHECKPOINT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                supported: CHECKPOINT_VERSION,
                found: header.version,
            });
        }
        let (manifest_bytes, mut segments_bytes) = header.guarded()?;
        let manifest: ShardedManifest = serde::from_slice(manifest_bytes)?;
        let expected_tail: u64 = manifest.segment_lens.iter().sum();
        if segments_bytes.len() as u64 != expected_tail {
            return Err(PersistError::Truncated {
                expected: expected_tail as usize,
                found: segments_bytes.len(),
            });
        }
        let mut shards: Vec<Option<ShardState>> = Vec::with_capacity(manifest.segment_lens.len());
        let mut salvaged = Vec::new();
        for (shard, len) in manifest.segment_lens.iter().enumerate() {
            let (segment, tail) = segments_bytes.split_at(*len as usize);
            segments_bytes = tail;
            let state = unseal(SEGMENT_MAGIC, SEGMENT_VERSION, segment)
                .and_then(|payload| Ok(serde::from_slice::<ShardState>(payload)?));
            match state {
                Ok(state) => shards.push(Some(state)),
                Err(_) if salvage => {
                    shards.push(None);
                    salvaged.push(shard);
                }
                Err(error) => {
                    return Err(PersistError::ShardSegment {
                        shard,
                        error: Box::new(error),
                    });
                }
            }
        }
        Ok(ShardedCheckpoint {
            config_fingerprint: manifest.config_fingerprint,
            baseline_id: manifest.baseline_id,
            events_consumed: manifest.events_consumed,
            core: manifest.core,
            shards,
            salvaged_shards: salvaged,
        })
    }

    /// Installs `baseline` into the checkpointed state: a running differ
    /// and its replay offset, judging under `config` — the
    /// [`Checkpoint::resume`] contract. A salvaged shard comes back as a
    /// fresh worker, and the differ then holds every verdict back for
    /// one window of log time.
    ///
    /// # Errors
    ///
    /// [`PersistError::ConfigMismatch`] or
    /// [`PersistError::BaselineMismatch`] when a stored name disagrees
    /// with what is offered, [`PersistError::Decode`] for a core that
    /// fails to parse or does not fit the segments.
    pub fn resume(
        self,
        baseline: &Arc<BaselineBundle>,
        config: &FlowDiffConfig,
    ) -> Result<(ShardedDiffer, u64), PersistError> {
        let stored = (self.config_fingerprint, self.baseline_id);
        let id = check_inputs(stored, config, baseline)?;
        let differ = ShardedDiffer::from_core_and_shards(
            &self.core,
            self.shards,
            Arc::clone(baseline),
            id,
            config,
        )?;
        Ok((differ, self.events_consumed))
    }
}

/// A precomputed baseline: the reference [`BehaviorModel`] and its
/// [`StabilityReport`], persisted in the guarded container so a watch
/// loop can validate (magic, version, CRC) and load it instead of
/// trusting an arbitrary file and rebuilding the model on every start.
/// A running differ holds one shared copy of it, and a checkpoint names
/// it by [`BaselineBundle::identity`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineBundle {
    /// The reference model diffs are taken against.
    pub model: BehaviorModel,
    /// Its stability gates.
    pub stability: StabilityReport,
}

impl BaselineBundle {
    /// The bundle's content identity: [`fnv1a`] over exactly the payload
    /// [`BaselineBundle::to_bytes`] seals. The serialization is
    /// canonical — a bundle built from a capture and the same bundle
    /// loaded back from its `.fbas` file serialize to the same bytes —
    /// so both name the same baseline.
    pub fn identity(&self) -> u64 {
        fnv1a(&serde::to_vec(self))
    }

    /// Serializes into the guarded container.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(BASELINE_MAGIC, BASELINE_VERSION, &serde::to_vec(self))
    }

    /// Parses a guarded container produced by
    /// [`BaselineBundle::to_bytes`].
    ///
    /// # Errors
    ///
    /// Every container-level [`PersistError`] plus
    /// [`PersistError::Decode`].
    pub fn from_bytes(bytes: &[u8]) -> Result<BaselineBundle, PersistError> {
        let payload = unseal(BASELINE_MAGIC, BASELINE_VERSION, bytes)?;
        Ok(serde::from_slice(payload)?)
    }

    /// Atomically writes the bundle to `path`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        atomic_write(path, &self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Differ;
    use crate::stability::StabilityReport;
    use netsim::config::SimConfig;
    use netsim::engine::Simulation;
    use netsim::flows::FlowSpec;
    use netsim::log::ControllerLog;
    use netsim::topology::Topology;
    use openflow::match_fields::FlowKey;
    use openflow::types::Timestamp;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("flowdiff-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// `flows` short TCP flows between two lab hosts, one a second.
    fn flows_log(flows: u16) -> ControllerLog {
        let topo = Topology::lab();
        let hosts: Vec<_> = topo.hosts().map(|(id, _)| topo.host_ip(id)).collect();
        let mut sim = Simulation::new(topo, SimConfig::default(), 1);
        for i in 0..flows {
            let key = FlowKey::tcp(hosts[0], 4_000 + i, hosts[hosts.len() - 1], 80);
            let at = Timestamp::from_secs(1 + u64::from(i));
            sim.schedule_flow(at, FlowSpec::new(key, 6_000, 5_000));
        }
        sim.run_until(Timestamp::from_secs(10 + u64::from(flows)));
        sim.take_log()
    }

    /// The ungated baseline modeled from `log`.
    fn baseline_of(log: &ControllerLog, config: &FlowDiffConfig) -> Arc<BaselineBundle> {
        let model = BehaviorModel::build(log, config);
        let stability = StabilityReport::all_stable(&model);
        Arc::new(BaselineBundle { model, stability })
    }

    /// A fresh copy of the baseline modeled from no events: every call
    /// is another `Arc`, equal in content.
    fn empty_baseline(config: &FlowDiffConfig) -> Arc<BaselineBundle> {
        baseline_of(&ControllerLog::new(), config)
    }

    fn small_differ(config: &FlowDiffConfig) -> OnlineDiffer {
        OnlineDiffer::try_new(empty_baseline(config), config).unwrap()
    }

    fn small_sharded_differ(config: &FlowDiffConfig, n_shards: usize) -> ShardedDiffer {
        ShardedDiffer::try_new(empty_baseline(config), config, n_shards).unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"hello flowdiff".to_vec();
        let sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &payload);
        let back = unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed).unwrap();
        assert_eq!(back, &payload[..]);
    }

    #[test]
    fn unseal_rejects_foreign_magic() {
        let sealed = seal(BASELINE_MAGIC, BASELINE_VERSION, b"x");
        match unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed) {
            Err(PersistError::BadMagic { expected, found }) => {
                assert_eq!(expected, CHECKPOINT_MAGIC);
                assert_eq!(found, BASELINE_MAGIC);
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unseal_rejects_garbage_and_short_input() {
        assert!(matches!(
            unseal(
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                b"not a checkpoint file"
            ),
            Err(PersistError::BadMagic { .. })
        ));
        assert!(matches!(
            unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &CHECKPOINT_MAGIC[..5]),
            Err(PersistError::BadMagic { .. })
        ));
        // Magic intact but header cut off.
        let sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, b"payload");
        assert!(matches!(
            unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed[..12]),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn unseal_rejects_future_version() {
        let mut sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, b"payload");
        sealed[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        match unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed) {
            Err(PersistError::UnsupportedVersion { supported, found }) => {
                assert_eq!(supported, CHECKPOINT_VERSION);
                assert_eq!(found, CHECKPOINT_VERSION + 1);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn unseal_rejects_truncated_payload_at_every_cut() {
        let sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, b"0123456789abcdef");
        for cut in 24..sealed.len() {
            assert!(
                matches!(
                    unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed[..cut]),
                    Err(PersistError::Truncated { .. })
                ),
                "cut at {cut} must be rejected as truncated"
            );
        }
        // Trailing garbage is a length mismatch too, not silently read.
        let mut long = sealed.clone();
        long.push(0xAA);
        assert!(matches!(
            unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &long),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn unseal_rejects_every_single_bit_flip_in_payload() {
        let sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, b"guarded payload");
        for byte in 24..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &bad),
                        Err(PersistError::CrcMismatch { .. })
                    ),
                    "flip of byte {byte} bit {bit} must fail the CRC"
                );
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = FlowDiffConfig::default();
        let b = FlowDiffConfig {
            online_epoch_us: 7_000_000,
            ..FlowDiffConfig::default()
        };
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn fingerprint_covers_differ_state_and_ignores_deployment_knobs() {
        let config = FlowDiffConfig::default();
        let bytes = Checkpoint::capture(&small_differ(&config), 4, &config).to_bytes();
        let baseline = empty_baseline(&config);
        let resumes =
            |c: &FlowDiffConfig| Differ::restore(&bytes, &baseline, c).map(|r| r.events_consumed);
        // Knobs that shape differ state are still refused ...
        for changed in [
            FlowDiffConfig {
                reorder_slack_us: 5_000,
                ..config.clone()
            },
            FlowDiffConfig {
                max_time_jump_us: 60_000_000,
                ..config.clone()
            },
            FlowDiffConfig {
                online_window_us: 60_000_000,
                ..config.clone()
            },
        ] {
            assert!(
                matches!(resumes(&changed), Err(PersistError::ConfigMismatch { .. })),
                "{changed:?} must be refused"
            );
        }
        // ... the supervisor's and the transport's are not.
        for neutral in [
            FlowDiffConfig {
                checkpoint_every_epochs: 7,
                ..config.clone()
            },
            FlowDiffConfig {
                restart_budget: 9,
                ..config.clone()
            },
            FlowDiffConfig {
                restart_backoff_us: 1,
                ..config.clone()
            },
            FlowDiffConfig {
                ingest_queue_events: 3,
                ..config.clone()
            },
            FlowDiffConfig {
                ingest_stall_timeout_us: 900_000,
                ..config.clone()
            },
            FlowDiffConfig {
                ingest_heartbeat_us: 1,
                ..config.clone()
            },
        ] {
            assert_eq!(resumes(&neutral).unwrap(), 4, "{neutral:?} must resume");
        }
    }

    #[test]
    fn checkpoint_roundtrips_and_rejects_mismatched_config() {
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let ckpt = Checkpoint::capture(&differ, 17, &config);
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        let baseline = empty_baseline(&config);
        let (resumed, offset) = back.resume(&baseline, &config).unwrap();
        assert_eq!(offset, 17);
        assert_eq!(resumed, differ);

        let other = FlowDiffConfig {
            fs_rel_change: 0.75,
            ..FlowDiffConfig::default()
        };
        let again = Checkpoint::from_bytes(&bytes).unwrap();
        assert!(matches!(
            again.resume(&baseline, &other),
            Err(PersistError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn checkpoint_save_load_through_disk() {
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let path = tmp_path("roundtrip.ckpt");
        atomic_write(&path, &Checkpoint::capture(&differ, 3, &config).to_bytes()).unwrap();
        let loaded = Checkpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(loaded.events_consumed, 3);
        let (resumed, _) = loaded.resume(&empty_baseline(&config), &config).unwrap();
        assert_eq!(resumed, differ);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let path = tmp_path("atomic.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "temporary must be gone after the rename"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_checkpoints_stay_readable_through_any_checkpoint() {
        // Whatever layout a checkpoint is in, `Differ::restore` reads it.
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let bytes = Checkpoint::capture(&differ, 11, &config).to_bytes();
        assert_eq!(
            read_header(CHECKPOINT_MAGIC, &bytes).unwrap().version,
            CHECKPOINT_SINGLE
        );
        let restored = Differ::restore(&bytes, &empty_baseline(&config), &config).unwrap();
        assert_eq!(restored.events_consumed, 11);
        assert!(restored.salvaged_shards.is_empty());
        match restored.differ {
            Differ::Single(resumed) => assert_eq!(resumed, differ),
            Differ::Sharded(_) => panic!("single-layout bytes must restore the single pipeline"),
        }
    }

    #[test]
    fn layouts_from_before_the_sequencer_are_refused_undecoded() {
        // Versions 1 and 2 put the arrival state inside the assemblers;
        // 3 and 4 hold a sequencer whose jump reference starts at zero;
        // 5 and 6 carry a copy of the baseline and a sequencer without
        // a refused timestamp to re-anchor on. The CRC guards the
        // payload only, so a re-stamped current file is exactly what
        // such a file looks like to the header check.
        let config = FlowDiffConfig::default();
        let single = Checkpoint::capture(&small_differ(&config), 0, &config).to_bytes();
        let sharded =
            ShardedCheckpoint::capture(&small_sharded_differ(&config, 2), 0, &config).to_bytes();
        let baseline = empty_baseline(&config);
        for old in 1..CHECKPOINT_SINGLE {
            let mut bytes = if old % 2 == 1 { &single } else { &sharded }.clone();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                Differ::restore(&bytes, &baseline, &config),
                Err(PersistError::UnsupportedVersion { found, .. }) if found == old
            ));
        }
    }

    #[test]
    fn restore_refuses_another_baseline_in_both_layouts() {
        let config = FlowDiffConfig::default();
        let (ours, theirs) = (empty_baseline(&config), baseline_of(&flows_log(3), &config));
        let single = Checkpoint::capture(&small_differ(&config), 0, &config).to_bytes();
        let sharded =
            ShardedCheckpoint::capture(&small_sharded_differ(&config, 2), 0, &config).to_bytes();
        for bytes in [&single, &sharded] {
            match Differ::restore(bytes, &theirs, &config) {
                Err(PersistError::BaselineMismatch { stored, offered }) => {
                    assert_eq!((stored, offered), (ours.identity(), theirs.identity()));
                }
                other => panic!("expected BaselineMismatch, got {other:?}"),
            }
            assert!(Differ::restore(bytes, &ours, &config).is_ok());
        }
    }

    #[test]
    fn checkpoints_name_the_baseline_instead_of_carrying_it() {
        // The same stream judged against a small and a large baseline
        // leaves checkpoints of equal length in both layouts.
        let config = FlowDiffConfig::default();
        let (small, large) = (empty_baseline(&config), baseline_of(&flows_log(8), &config));
        assert!(large.to_bytes().len() > small.to_bytes().len() + 1_000);
        let stream = flows_log(4);
        let lengths = |baseline: &Arc<BaselineBundle>| {
            let mut single = OnlineDiffer::try_new(Arc::clone(baseline), &config).unwrap();
            let mut sharded = ShardedDiffer::try_new(Arc::clone(baseline), &config, 2).unwrap();
            for event in stream.events() {
                single.observe(event);
                sharded.observe(event);
            }
            let n = stream.len() as u64;
            (
                Checkpoint::capture(&single, n, &config).to_bytes().len(),
                ShardedCheckpoint::capture(&sharded, n, &config)
                    .to_bytes()
                    .len(),
            )
        };
        assert_eq!(lengths(&small), lengths(&large));
    }

    #[test]
    fn baseline_identity_is_canonical() {
        // A rebuild and an `.fbas` round trip name the same baseline;
        // another capture names another.
        let config = FlowDiffConfig::default();
        let log = flows_log(3);
        let built = baseline_of(&log, &config);
        let loaded = BaselineBundle::from_bytes(&built.to_bytes()).unwrap();
        assert_eq!(loaded.identity(), built.identity());
        assert_eq!(baseline_of(&log, &config).identity(), built.identity());
        assert_ne!(
            baseline_of(&flows_log(4), &config).identity(),
            built.identity()
        );
    }

    #[test]
    fn sharded_checkpoint_roundtrips_and_rejects_mismatched_config() {
        let config = FlowDiffConfig::default();
        let differ = small_sharded_differ(&config, 3);
        let ckpt = ShardedCheckpoint::capture(&differ, 29, &config);
        let bytes = ckpt.to_bytes();
        assert_eq!(
            read_header(CHECKPOINT_MAGIC, &bytes).unwrap().version,
            CHECKPOINT_VERSION
        );
        let back = ShardedCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        let baseline = empty_baseline(&config);
        let (resumed, offset) = back.resume(&baseline, &config).unwrap();
        assert_eq!(offset, 29);
        assert_eq!(resumed, differ);

        let other = FlowDiffConfig {
            fs_rel_change: 0.75,
            ..FlowDiffConfig::default()
        };
        let again = ShardedCheckpoint::from_bytes(&bytes).unwrap();
        assert!(matches!(
            again.resume(&baseline, &other),
            Err(PersistError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn sharded_checkpoint_save_load_through_disk() {
        let config = FlowDiffConfig::default();
        let differ = small_sharded_differ(&config, 2);
        let path = tmp_path("sharded-roundtrip.ckpt");
        let bytes = ShardedCheckpoint::capture(&differ, 5, &config).to_bytes();
        atomic_write(&path, &bytes).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let restored = Differ::restore(&bytes, &empty_baseline(&config), &config).unwrap();
        assert_eq!(restored.events_consumed, 5);
        match restored.differ {
            Differ::Sharded(resumed) => assert_eq!(resumed, differ),
            Differ::Single(_) => panic!("segmented file must restore the sharded pipeline"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_segment_is_named_strictly_and_salvaged_leniently() {
        let config = FlowDiffConfig::default();
        let differ = small_sharded_differ(&config, 3);
        let mut bytes = ShardedCheckpoint::capture(&differ, 7, &config).to_bytes();
        // Flip a byte inside the LAST shard's segment payload: the
        // file tail is deep inside segment 2, past its own 24-byte
        // header.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;

        match ShardedCheckpoint::from_bytes(&bytes) {
            Err(PersistError::ShardSegment { shard, error }) => {
                assert_eq!(shard, 2, "the corrupt shard is named");
                assert!(
                    matches!(*error, PersistError::CrcMismatch { .. }),
                    "segment CRC catches the flip: {error:?}"
                );
            }
            other => panic!("strict load must fail on shard 2, got {other:?}"),
        }

        let salvaged = ShardedCheckpoint::from_bytes_salvaging(&bytes).unwrap();
        assert_eq!(salvaged.salvaged_shards, vec![2]);
        assert_eq!(salvaged.events_consumed, 7);
        assert_eq!(salvaged.shards.len(), 3);
        // The other two workers kept their state; the differ as a
        // whole is flagged as a lossy restore (warm-up gating).
        let (resumed, _) = salvaged.resume(&empty_baseline(&config), &config).unwrap();
        assert_eq!(resumed.n_shards(), 3);
        assert_ne!(
            resumed, differ,
            "lossy-restore warm-up distinguishes the salvaged differ"
        );
    }

    #[test]
    fn manifest_corruption_is_fatal_even_when_salvaging() {
        let config = FlowDiffConfig::default();
        let differ = small_sharded_differ(&config, 2);
        let mut bytes = ShardedCheckpoint::capture(&differ, 1, &config).to_bytes();
        // Byte 30 sits inside the manifest (run identity + core).
        bytes[30] ^= 0x01;
        assert!(matches!(
            ShardedCheckpoint::from_bytes_salvaging(&bytes),
            Err(PersistError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn any_checkpoint_rejects_future_versions_and_foreign_files() {
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let mut bytes = Checkpoint::capture(&differ, 0, &config).to_bytes();
        bytes[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        let baseline = empty_baseline(&config);
        assert!(matches!(
            Differ::restore(&bytes, &baseline, &config),
            Err(PersistError::UnsupportedVersion {
                supported: CHECKPOINT_VERSION,
                ..
            })
        ));
        assert!(matches!(
            Differ::restore(b"FDIFFBASnot a checkpoint", &baseline, &config),
            Err(PersistError::BadMagic { .. })
        ));
    }

    #[test]
    fn baseline_bundle_roundtrips_and_guards() {
        let config = FlowDiffConfig::default();
        let log = ControllerLog::new();
        let model = BehaviorModel::build(&log, &config);
        let stability = StabilityReport::all_stable(&model);
        let bundle = BaselineBundle { model, stability };
        let bytes = bundle.to_bytes();
        assert_eq!(BaselineBundle::from_bytes(&bytes).unwrap(), bundle);
        // A checkpoint offered as a baseline is a foreign file.
        let differ = small_differ(&config);
        let ckpt_bytes = Checkpoint::capture(&differ, 0, &config).to_bytes();
        assert!(matches!(
            BaselineBundle::from_bytes(&ckpt_bytes),
            Err(PersistError::BadMagic { .. })
        ));
        // A corrupted payload byte fails the CRC, not the decoder.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            BaselineBundle::from_bytes(&bad),
            Err(PersistError::CrcMismatch { .. })
        ));
    }
}
