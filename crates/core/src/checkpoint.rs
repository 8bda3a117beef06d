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
//! * [`Checkpoint`]: the complete streaming state of the online differ
//!   plus the number of input events consumed, and the two inputs it
//!   ran against named rather than
//!   carried — a fingerprint of the [`FlowDiffConfig`] and the
//!   [`BaselineBundle::identity`] of the baseline. Both come back from
//!   the caller at resume, and a different one is a typed error, not
//!   silent corruption,
//! * [`BaselineBundle`]: a precomputed baseline model + stability
//!   report, so watchers can skip the baseline build on restart.
//!
//! [`Checkpoint`] is the one byte layout, FDIFFCKP [`CHECKPOINT_VERSION`].
//! The running system writes it with [`Checkpoint::capture`] and reads
//! it back with [`resume_from`](crate::engine::resume_from). A decoded
//! checkpoint is streaming state without a baseline: it becomes a
//! running differ only when [`Checkpoint::resume`] installs the
//! caller's.
//!
//! One corruption policy: the CRC covers every payload byte, so a
//! flipped bit anywhere refuses the whole file as a typed
//! [`PersistError`]. No part of a damaged file is kept — a differ
//! missing part of its state could only hold its verdicts back until
//! that state had aged out of the window.
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
use crate::diff::OnlineDiffer;
use crate::model::BehaviorModel;
use crate::stability::StabilityReport;

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"FDIFFCKP";
/// The checkpoint format version, and the only one this build reads.
/// Every other version is refused, never decoded: 1 (single) and 2
/// (sharded) are the layouts from before the
/// [`Sequencer`](crate::records::Sequencer) took the arrival state out
/// of the assemblers, 3 and 4 those from before its time-jump check was
/// anchored on the first admitted event, 5 and 6 those that carried a
/// copy of the baseline and a sequencer that never re-anchored after a
/// clock step, 7 and 8 the single and per-shard-segmented layouts of
/// before one format served both differ shapes, 9 that format with its
/// shape tag, written while a sharded differ still existed, 10 the
/// layout whose model builder carried a copy of the config, and 11 the
/// one whose reorder buffer held full OpenFlow messages rather than
/// [`FlowEvent`](netsim::log::FlowEvent)s. With the buffer empty, as at
/// slack 0, a version-12 file is a version-11 file with a new number.
pub const CHECKPOINT_VERSION: u32 = 12;
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
    /// The magic matched but the version is not the one this build
    /// reads.
    UnsupportedVersion {
        /// The version this build reads.
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
                "unsupported format version {found} (this build reads version {supported})"
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

/// Validates a guarded container and returns its payload: the magic
/// must match, the version must be exactly `version`, the length must
/// be exactly what remains, and the CRC must agree.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`UnsupportedVersion`](PersistError::UnsupportedVersion),
/// [`Truncated`](PersistError::Truncated) (also for trailing garbage),
/// or [`CrcMismatch`](PersistError::CrcMismatch).
pub fn unseal(magic: [u8; 8], version: u32, bytes: &[u8]) -> Result<&[u8], PersistError> {
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
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(PersistError::UnsupportedVersion {
            supported: version,
            found,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let stored = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let payload = &bytes[24..];
    if payload.len() != len {
        return Err(PersistError::Truncated {
            expected: len,
            found: payload.len(),
        });
    }
    let computed = crc32(payload);
    if computed != stored {
        return Err(PersistError::CrcMismatch { stored, computed });
    }
    Ok(payload)
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
/// Every other field, present and future, is covered — the epoch and
/// the window among them, which lay out the grid a checkpoint resumes.
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

/// The complete durable state of one online diagnosis run: the
/// differ's streaming state (its sequencer, assembler, incremental
/// builder and epoch grid), how many input events it has consumed, and
/// the two inputs it runs against by name — the config by fingerprint
/// and the baseline by identity.
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

    /// Serializes into the guarded container, format version
    /// [`CHECKPOINT_VERSION`].
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &serde::to_vec(self))
    }

    /// Parses a guarded container produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Every container-level [`PersistError`] — any version but
    /// [`CHECKPOINT_VERSION`] is [`PersistError::UnsupportedVersion`],
    /// never decoded — plus [`PersistError::Decode`] for a payload that
    /// fails to parse.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, PersistError> {
        let payload = unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes)?;
        Ok(serde::from_slice(payload)?)
    }

    /// Installs `baseline` into the checkpointed state: a running differ
    /// and its replay offset, judging under `config`. Both must be the
    /// ones the checkpoint was written with.
    ///
    /// # Errors
    ///
    /// [`PersistError::ConfigMismatch`] when `config` is not the one the
    /// checkpoint was written under, [`PersistError::BaselineMismatch`]
    /// when `baseline` is not the one it was written against, and
    /// [`PersistError::Decode`] for a state that fails to parse.
    pub fn resume(
        self,
        baseline: &Arc<BaselineBundle>,
        config: &FlowDiffConfig,
    ) -> Result<(OnlineDiffer, u64), PersistError> {
        let offered = config_fingerprint(config);
        if offered != self.config_fingerprint {
            return Err(PersistError::ConfigMismatch {
                stored: self.config_fingerprint,
                offered,
            });
        }
        let id = baseline.identity();
        if id != self.baseline_id {
            return Err(PersistError::BaselineMismatch {
                stored: self.baseline_id,
                offered: id,
            });
        }
        let differ = OnlineDiffer::from_state(&self.state, Arc::clone(baseline), id, config)?;
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
    use crate::stability::StabilityReport;
    use netsim::config::Deployment;
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
        let mut sim = Simulation::new(topo, Deployment::Reactive, 1);
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

    /// Checkpoint bytes of a fresh differ.
    fn small_checkpoint(config: &FlowDiffConfig) -> Vec<u8> {
        Checkpoint::capture(&small_differ(config), 0, config).to_bytes()
    }

    /// What `--resume` does with a checkpoint file's bytes.
    fn restore(
        bytes: &[u8],
        baseline: &Arc<BaselineBundle>,
        config: &FlowDiffConfig,
    ) -> Result<(OnlineDiffer, u64), PersistError> {
        Checkpoint::from_bytes(bytes)?.resume(baseline, config)
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
        let resumes = |c: &FlowDiffConfig| restore(&bytes, &baseline, c).map(|(_, at)| at);
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
            // ... and leave no trace in the state: the config is named,
            // not carried.
            let theirs = Checkpoint::capture(&small_differ(&neutral), 4, &neutral).to_bytes();
            assert!(theirs == bytes, "{neutral:?} must capture the same bytes");
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
            min_sup: 0.75,
            ..FlowDiffConfig::default()
        };
        let again = Checkpoint::from_bytes(&bytes).unwrap();
        assert!(matches!(
            again.resume(&baseline, &other),
            Err(PersistError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn checkpoint_bytes_survive_a_resume() {
        // Mid-capture the state holds open episodes, pending mods and LU
        // series in hash containers, which a resume rebuilds under fresh
        // hash seeds: the bytes must not follow their iteration order.
        let lab = workloads::testbeds::Lab::new();
        let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
        let baseline = baseline_of(&lab.webshop(1, 20).run().log, &config);
        let current = lab.webshop(2, 20).run().log;
        let half = current.len() / 2;
        let mut differ = OnlineDiffer::try_new(Arc::clone(&baseline), &config).unwrap();
        for event in &current.events()[..half] {
            differ.observe(event);
        }
        let first = Checkpoint::capture(&differ, half as u64, &config).to_bytes();
        let (resumed, offset) = restore(&first, &baseline, &config).unwrap();
        let again = Checkpoint::capture(&resumed, offset, &config).to_bytes();
        assert!(first == again, "re-captured checkpoint bytes differ");
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
        // The one format, written and restored.
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let bytes = Checkpoint::capture(&differ, 11, &config).to_bytes();
        assert_eq!(bytes[8..12], CHECKPOINT_VERSION.to_le_bytes());
        let (restored, at) = restore(&bytes, &empty_baseline(&config), &config).unwrap();
        assert_eq!(at, 11);
        assert_eq!(restored, differ);
    }

    #[test]
    fn layouts_from_before_the_sequencer_are_refused_undecoded() {
        // Versions 1 and 2 put the arrival state inside the assemblers;
        // 3 and 4 hold a sequencer whose jump reference starts at zero;
        // 5 and 6 carry a copy of the baseline and a sequencer without
        // a refused timestamp to re-anchor on; 7 and 8 are the single
        // and per-shard-segmented layouts; 9 tags the state with the
        // differ shape; 10 carries the model builder's copy of the
        // config; 11 holds full messages in the reorder buffer. A
        // re-stamped current file is exactly what such a file looks like
        // to the header check, and no version but the current one may be
        // decoded.
        let config = FlowDiffConfig::default();
        let baseline = empty_baseline(&config);
        let current = small_checkpoint(&config);
        for old in 1..CHECKPOINT_VERSION {
            let mut bytes = current.clone();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                restore(&bytes, &baseline, &config),
                Err(PersistError::UnsupportedVersion { found, .. }) if found == old
            ));
        }
        // A real v9 file, as a three-shard differ wrote it.
        let v9 = include_bytes!("../tests/data/fdiffckp_v9_sharded3.bin");
        let err = restore(v9, &baseline, &config).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported format version 9 (this build reads version 12)"
        );
        // A real v10 file: a differ half way through three lab flows.
        let v10 = include_bytes!("../tests/data/fdiffckp_v10_flows3.bin");
        let err = restore(v10, &baseline, &config).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported format version 10 (this build reads version 12)"
        );
    }

    #[test]
    fn corrupt_checkpoints_are_refused_alike_in_every_shape() {
        // One CRC over every payload byte: a flip in the last byte of
        // the differ's state fails the whole file.
        let config = FlowDiffConfig::default();
        let mut bytes = small_checkpoint(&config);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        assert!(matches!(
            restore(&bytes, &empty_baseline(&config), &config),
            Err(PersistError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn restore_refuses_another_baseline_in_both_layouts() {
        let config = FlowDiffConfig::default();
        let (ours, theirs) = (empty_baseline(&config), baseline_of(&flows_log(3), &config));
        let bytes = small_checkpoint(&config);
        match restore(&bytes, &theirs, &config) {
            Err(PersistError::BaselineMismatch { stored, offered }) => {
                assert_eq!((stored, offered), (ours.identity(), theirs.identity()));
            }
            other => panic!("expected BaselineMismatch, got {other:?}"),
        }
        assert!(restore(&bytes, &ours, &config).is_ok());
    }

    #[test]
    fn checkpoints_name_the_baseline_instead_of_carrying_it() {
        // The same stream judged against a small and a large baseline
        // leaves checkpoints of equal length.
        let config = FlowDiffConfig::default();
        let (small, large) = (empty_baseline(&config), baseline_of(&flows_log(8), &config));
        assert!(large.to_bytes().len() > small.to_bytes().len() + 1_000);
        let stream = flows_log(4);
        let length = |baseline: &Arc<BaselineBundle>| {
            let mut differ = OnlineDiffer::try_new(Arc::clone(baseline), &config).unwrap();
            for event in stream.events() {
                differ.observe(event);
            }
            let n = stream.len() as u64;
            Checkpoint::capture(&differ, n, &config).to_bytes().len()
        };
        assert_eq!(length(&small), length(&large));
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
    fn any_checkpoint_rejects_future_versions_and_foreign_files() {
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let mut bytes = Checkpoint::capture(&differ, 0, &config).to_bytes();
        bytes[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        let baseline = empty_baseline(&config);
        assert!(matches!(
            restore(&bytes, &baseline, &config),
            Err(PersistError::UnsupportedVersion {
                supported: CHECKPOINT_VERSION,
                ..
            })
        ));
        assert!(matches!(
            restore(b"FDIFFBASnot a checkpoint", &baseline, &config),
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
