//! Versioned, CRC-guarded, atomically written checkpoint snapshots.
//!
//! # On-disk format (version 1)
//!
//! ```text
//! magic    8 bytes   b"EEHCKPT\x01"
//! body     N bytes   scenario_hash u64
//!                    section count u64
//!                    per section: name (len-prefixed str),
//!                                 payload (len-prefixed bytes)
//! crc32    4 bytes   CRC-32/ISO-HDLC of magic+body, little-endian
//! ```
//!
//! All integers are little-endian (see [`crate::codec`]); payload
//! semantics belong to the caller (`eagleeye_exec::run_items` stores
//! one section per completed work item, `item/<index>`).
//!
//! # Atomicity
//!
//! [`Snapshot::write_atomic`] writes `<path>.tmp`, fsyncs the file,
//! renames it over `<path>`, then fsyncs the parent directory, so a
//! crash at any point leaves either the previous snapshot or the new
//! one — never a torn file. A crash injected *during* the write (site
//! `checkpoint_write`) is part of the crash-replay CI sweep.
//!
//! # Scenario binding
//!
//! Every snapshot stores the scenario hash it was taken under;
//! [`Snapshot::load_expecting`] rejects a resume against a different
//! scenario (different seed, workload, horizon, …) instead of silently
//! merging incompatible partial results.

use crate::codec::{ByteReader, ByteWriter};
use crate::crc::crc32;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix: file type tag plus format version byte.
const MAGIC: &[u8; 8] = b"EEHCKPT\x01";

/// Why a snapshot failed to load or write.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure (open, write, fsync, rename).
    Io(io::Error),
    /// The file is not a snapshot or uses an unknown format version.
    BadMagic,
    /// The CRC trailer does not match the body — torn write or
    /// corruption.
    ChecksumMismatch {
        /// CRC stored in the file trailer.
        stored: u32,
        /// CRC recomputed over the file body.
        computed: u32,
    },
    /// The body failed to decode (truncated or malformed).
    Malformed(&'static str),
    /// The snapshot was taken under a different scenario.
    ScenarioMismatch {
        /// Hash stored in the snapshot.
        stored: u64,
        /// Hash of the scenario being resumed.
        expected: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            SnapshotError::BadMagic => {
                write!(f, "not an EagleEye checkpoint (bad magic or version)")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) \
                 — torn write or corruption; delete the file to start cold"
            ),
            SnapshotError::Malformed(context) => {
                write!(f, "checkpoint body malformed at {context}")
            }
            SnapshotError::ScenarioMismatch { stored, expected } => write!(
                f,
                "checkpoint was taken under scenario {stored:#018x} but this run is scenario \
                 {expected:#018x} — refusing to resume a different scenario"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// An in-memory checkpoint: a scenario hash plus named byte sections.
///
/// Sections are ordered (`BTreeMap`) so [`Snapshot::to_bytes`] is
/// deterministic: equal snapshots encode byte-identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Hash of the scenario this snapshot belongs to.
    pub scenario_hash: u64,
    sections: BTreeMap<String, Vec<u8>>,
}

impl Snapshot {
    /// An empty snapshot bound to a scenario.
    pub fn new(scenario_hash: u64) -> Self {
        Snapshot {
            scenario_hash,
            sections: BTreeMap::new(),
        }
    }

    /// Stores (or replaces) a named section.
    pub fn put(&mut self, name: &str, payload: Vec<u8>) {
        self.sections.insert(name.to_string(), payload);
    }

    /// The payload of a named section, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections.get(name).map(Vec::as_slice)
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections are stored.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Iterates sections in name order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Encodes the snapshot (magic + body + CRC trailer).
    /// Deterministic: equal snapshots encode byte-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let Snapshot {
            scenario_hash,
            sections,
        } = self;
        let mut w = ByteWriter::new();
        for &b in MAGIC {
            w.u8(b);
        }
        w.u64(*scenario_hash);
        w.usize(sections.len());
        for (name, payload) in sections {
            w.str(name);
            w.bytes(payload);
        }
        let crc = crc32(&w.clone().into_bytes());
        w.u32(crc);
        w.into_bytes()
    }

    /// Decodes a snapshot, verifying magic and CRC.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::ChecksumMismatch`],
    /// or [`SnapshotError::Malformed`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(body);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut r = ByteReader::new(&body[MAGIC.len()..]);
        let scenario_hash = r.u64().map_err(|e| SnapshotError::Malformed(e.context))?;
        let mut sections = BTreeMap::new();
        let count = r.usize().map_err(|e| SnapshotError::Malformed(e.context))?;
        for _ in 0..count {
            let name = r
                .str()
                .map_err(|e| SnapshotError::Malformed(e.context))?
                .to_string();
            let payload = r
                .bytes()
                .map_err(|e| SnapshotError::Malformed(e.context))?
                .to_vec();
            sections.insert(name, payload);
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Malformed("trailing bytes after sections"));
        }
        Ok(Snapshot {
            scenario_hash,
            sections,
        })
    }

    /// Writes the snapshot atomically: `<path>.tmp` + fsync + rename +
    /// parent-directory fsync. A crash at any point leaves either the
    /// old snapshot or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`SnapshotError::Io`].
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let bytes = self.to_bytes();
        let tmp = tmp_path(path);
        {
            let mut file = fs::File::create(&tmp)?;
            io::Write::write_all(&mut file, &bytes)?;
            file.sync_all()?;
        }
        // Crash-injection site: a process killed between writing the
        // tmp file and publishing it must leave the previous snapshot
        // intact — the crash-replay sweep asserts exactly that.
        crate::crash::crash_point("checkpoint_write");
        fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            // Directory fsync persists the rename itself; best-effort
            // on filesystems that reject directory handles.
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Loads and verifies a snapshot from disk.
    ///
    /// # Errors
    ///
    /// I/O, magic, checksum, and decode failures; see [`SnapshotError`].
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        Snapshot::from_bytes(&fs::read(path)?)
    }

    /// [`Snapshot::load`] plus scenario binding: rejects a snapshot
    /// taken under a different scenario hash.
    ///
    /// # Errors
    ///
    /// Everything [`Snapshot::load`] returns, plus
    /// [`SnapshotError::ScenarioMismatch`].
    pub fn load_expecting(path: &Path, scenario_hash: u64) -> Result<Self, SnapshotError> {
        let snap = Snapshot::load(path)?;
        if snap.scenario_hash != scenario_hash {
            return Err(SnapshotError::ScenarioMismatch {
                stored: snap.scenario_hash,
                expected: scenario_hash,
            });
        }
        Ok(snap)
    }
}

/// `<path>.tmp` sibling used for the atomic write.
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Where, whether, and how often a supervised run checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Snapshot file path (written atomically; `<path>.tmp` sibling).
    pub path: PathBuf,
    /// Load `path` before running and skip items it already holds.
    /// A missing file is a cold start, not an error; a corrupt or
    /// scenario-mismatched file is an error.
    pub resume: bool,
    /// Write a checkpoint after every `cadence` newly completed items
    /// (0 = only the final checkpoint). A final checkpoint is always
    /// written, including on degraded runs.
    pub cadence: usize,
}

impl CheckpointSpec {
    /// A spec with resume enabled and the given cadence.
    pub fn new(path: impl Into<PathBuf>, cadence: usize) -> Self {
        CheckpointSpec {
            path: path.into(),
            resume: true,
            cadence,
        }
    }
}

/// FNV-1a over a byte stream — the workspace's scenario-hash
/// primitive. Stable across platforms and processes (unlike
/// `DefaultHasher`, whose keys are randomized per process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioHasher {
    state: u64,
}

impl Default for ScenarioHasher {
    fn default() -> Self {
        ScenarioHasher::new()
    }
}

impl ScenarioHasher {
    /// FNV-1a offset basis.
    pub fn new() -> Self {
        ScenarioHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds raw bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds an `f64`'s raw bits into the hash.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a string (length-delimited) into the hash.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds a [`FieldHash`] value into the hash.
    pub fn field<T: FieldHash + ?Sized>(&mut self, v: &T) -> &mut Self {
        v.hash_fields(self);
        self
    }

    /// The final hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Field-wise folding into a [`ScenarioHasher`], for the nested types
/// of a scenario digest. An impl destructures its struct with no `..`
/// (or matches its enum exhaustively, one tag per variant), so a field
/// added to the type fails to compile until the impl hashes it or
/// binds it to `_` with its reason.
pub trait FieldHash {
    /// Folds every result-shaping field of `self` into `h`.
    fn hash_fields(&self, h: &mut ScenarioHasher);
}

impl FieldHash for usize {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        h.u64(*self as u64);
    }
}

impl FieldHash for f64 {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        h.f64(*self);
    }
}

/// `None` and `Some` fold distinct tags ahead of the payload.
impl<T: FieldHash> FieldHash for Option<T> {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        match self {
            None => h.u64(0),
            Some(v) => h.u64(1).field(v),
        };
    }
}

/// Length-delimited, so adjacent sequences cannot trade elements.
impl<T: FieldHash> FieldHash for [T] {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        h.u64(self.len() as u64);
        for v in self {
            h.field(v);
        }
    }
}

impl<T: FieldHash + ?Sized> FieldHash for std::sync::Arc<T> {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        h.field(&**self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eagleeye_harden_{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// Every name and payload differs from every other, so a codec
    /// that swapped two reads would not round-trip.
    fn sample() -> Snapshot {
        let mut s = Snapshot::new(0xABCD_EF01_2345_6789);
        s.put("item/0", vec![1, 2, 3]);
        s.put("item/1", vec![]);
        s.put("meta", b"hello".to_vec());
        s
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        // Deterministic encoding.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn sections_are_readable_and_ordered() {
        let s = sample();
        assert_eq!(s.get("item/0"), Some(&[1u8, 2, 3][..]));
        assert_eq!(s.get("missing"), None);
        let names: Vec<&str> = s.sections().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["item/0", "item/1", "meta"]);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_bad_magic_are_detected() {
        let bytes = sample().to_bytes();
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::ChecksumMismatch { .. }) | Err(SnapshotError::Malformed(_))
        ));
        assert!(matches!(
            Snapshot::from_bytes(b"NOTACKPT"),
            Err(SnapshotError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[7] = 0x02;
        assert!(matches!(
            Snapshot::from_bytes(&wrong_version),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn write_load_round_trip() {
        let path = temp_file("roundtrip.ckpt");
        let s = sample();
        s.write_atomic(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), s);
        assert!(!tmp_path(&path).exists(), "tmp file must be renamed away");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn scenario_mismatch_is_rejected() {
        let path = temp_file("scenario.ckpt");
        sample().write_atomic(&path).unwrap();
        assert!(Snapshot::load_expecting(&path, 0xABCD_EF01_2345_6789).is_ok());
        assert!(matches!(
            Snapshot::load_expecting(&path, 42),
            Err(SnapshotError::ScenarioMismatch { .. })
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_previous_snapshot() {
        let path = temp_file("rewrite.ckpt");
        sample().write_atomic(&path).unwrap();
        let mut s2 = Snapshot::new(7);
        s2.put("only", vec![9]);
        s2.write_atomic(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), s2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn scenario_hasher_is_stable_and_sensitive() {
        let h = |f: &dyn Fn(&mut ScenarioHasher)| {
            let mut s = ScenarioHasher::new();
            f(&mut s);
            s.finish()
        };
        let a = h(&|s| {
            s.u64(1).f64(2.5).str("ships");
        });
        let b = h(&|s| {
            s.u64(1).f64(2.5).str("ships");
        });
        assert_eq!(a, b);
        assert_ne!(
            a,
            h(&|s| {
                s.u64(2).f64(2.5).str("ships");
            })
        );
        assert_ne!(
            a,
            h(&|s| {
                s.u64(1).f64(2.5).str("planes");
            })
        );
        // Known FNV-1a vector: empty input is the offset basis.
        assert_eq!(ScenarioHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn field_hash_tags_options_and_delimits_slices() {
        let h = |f: &dyn Fn(&mut ScenarioHasher)| {
            let mut s = ScenarioHasher::new();
            f(&mut s);
            s.finish()
        };
        let none = h(&|s| {
            s.field(&None::<usize>);
        });
        assert_ne!(
            none,
            h(&|s| {
                s.field(&Some(0usize));
            })
        );
        assert_ne!(
            h(&|s| {
                s.field(&[1usize][..]).field(&[][..] as &[usize]);
            }),
            h(&|s| {
                s.field(&[][..] as &[usize]).field(&[1usize][..]);
            })
        );
        assert_eq!(
            h(&|s| {
                s.field(&std::sync::Arc::new(2.5f64));
            }),
            h(&|s| {
                s.f64(2.5);
            })
        );
    }
}
