//! Write-ahead log, base image and checkpoint persistence for
//! `epplan serve`.
//!
//! ## On-disk format
//!
//! The WAL (`wal.log`), the base image (`snapshot.bin`), the
//! checkpoint (`checkpoint.bin`) and the dead-letter log
//! (`dead_letter.log`) are sequences of self-delimiting *frames*:
//!
//! ```text
//! [ tag: u8 ][ len: u32 LE ][ checksum: u32 LE ][ payload: len bytes ]
//! ```
//!
//! The payload is the JSON encoding of the record; the checksum is
//! FNV-1a over the payload bytes. Five tags exist: `1` = op record
//! (a [`SequencedOp`], appended *before* the op is applied), `2` =
//! outcome record (op id + [`OutcomeMeta`], appended *after* the op
//! is decided — including `shed` and `quarantine` decisions, which
//! are durable before they are acted on), `3` = base image (a
//! [`Snapshot`] of the whole daemon state, sole frame of
//! `snapshot.bin`), `4` = dead-letter record (a quarantined op,
//! appended to `dead_letter.log`), `5` = checkpoint (a
//! [`Checkpoint`]: the plan-side state and the identity of the base
//! it extends, sole frame of `checkpoint.bin`).
//!
//! ## Base, checkpoints and the log
//!
//! The instance is written whole only in the base image, at start and
//! at compaction. The WAL holds every op since the base. A checkpoint
//! holds no instance: restore rebuilds it from the base and the
//! instance transitions of the logged ops up to the checkpoint, then
//! takes the plan from the checkpoint. Compaction writes a new base
//! and truncates the WAL.
//!
//! ## Crash semantics
//!
//! * A *torn tail* — the file ends mid-frame because the process died
//!   during an append — is tolerated: the reader stops at the last
//!   complete frame. This is the expected shape after a `SIGKILL`.
//! * A *checksum mismatch* or *unknown tag* before the tail is
//!   corruption and is reported as a typed error (CLI exit code 4)
//!   naming the byte offset and frame tag of the damaged frame;
//!   recovery never silently skips a damaged record.
//! * Base images and checkpoints are written to a `.tmp` file,
//!   synced, then atomically renamed into place — a crash mid-write
//!   leaves the previous good file. A compaction writes the base,
//!   removes the checkpoint, then truncates the WAL; a crash between
//!   any two steps is safe because replay skips ops at or below the
//!   base's `last_op_id` and a checkpoint of another base is ignored.
//! * The dead-letter log is append-only and never truncated — a
//!   quarantined op must survive every later compaction so
//!   `--dump-dead-letter` can export it.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use epplan_core::incremental::SequencedOp;
use epplan_core::model::Instance;
use epplan_core::plan::Plan;
use serde::{Content, Deserialize, Serialize};

use crate::overload::OverloadState;
use crate::ServeError;

/// WAL file name inside the state directory.
pub const WAL_FILE: &str = "wal.log";
/// Base-image file name inside the state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary base-image name; only ever observed after a crash
/// between write and rename, and ignored by recovery.
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.bin.tmp";
/// Checkpoint file name inside the state directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Temporary checkpoint name, ignored by recovery like
/// [`SNAPSHOT_TMP_FILE`].
pub const CHECKPOINT_TMP_FILE: &str = "checkpoint.bin.tmp";
/// Dead-letter log file name inside the state directory.
pub const DEAD_LETTER_FILE: &str = "dead_letter.log";
/// Version stamp embedded in every snapshot; bumped on layout change
/// or when replaying the same WAL would rebuild a different state.
/// v2 added the overload-controller state ([`OverloadState`]); v3:
/// re-solves run the gap-based pipeline at every brownout level, so a
/// v2 WAL's LNS re-solves would replay to different plans.
pub const FORMAT_VERSION: u32 = 3;
/// Version stamp embedded in every checkpoint.
pub const CHECKPOINT_VERSION: u32 = 1;

const TAG_OP: u8 = 1;
const TAG_OUTCOME: u8 = 2;
const TAG_SNAPSHOT: u8 = 3;
const TAG_DEADLETTER: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
const FRAME_HEADER_LEN: usize = 9;

/// 32-bit FNV-1a over `bytes` — the frame checksum. Deliberately a
/// tiny self-contained function: the WAL must be readable with no
/// dependencies beyond the standard library.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// How an op was ultimately processed — recorded in the WAL so replay
/// retraces the *decision*, not just the input. Budget escalation and
/// drift triggers involve wall-clock time and are therefore not
/// re-derivable; the recorded mode makes replay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeMode {
    /// The op was repaired incrementally (IEP) and certified.
    Repair,
    /// Repaired, then the accumulated drift crossed the threshold and
    /// a certified full re-solve was swapped in.
    RepairResolve,
    /// Repair failed or was rejected by certification; a certified
    /// full re-solve replaced the plan.
    Resolve,
    /// The op was rejected; the previous certified plan is retained
    /// and only the op cursor advanced.
    Reject,
    /// Admission control shed the op unexecuted — it exceeded its
    /// ops-denominated staleness bound. Only the op cursor advanced.
    Shed,
    /// The op was quarantined to the dead-letter log after repeatedly
    /// dying mid-execution. Only the op cursor advanced.
    Quarantine,
}

impl OutcomeMode {
    /// Stable on-disk keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            OutcomeMode::Repair => "repair",
            OutcomeMode::RepairResolve => "repair_resolve",
            OutcomeMode::Resolve => "resolve",
            OutcomeMode::Reject => "reject",
            OutcomeMode::Shed => "shed",
            OutcomeMode::Quarantine => "quarantine",
        }
    }

    /// Parses a stable keyword back; `None` on unknown input.
    pub fn from_keyword(s: &str) -> Option<Self> {
        match s {
            "repair" => Some(OutcomeMode::Repair),
            "repair_resolve" => Some(OutcomeMode::RepairResolve),
            "resolve" => Some(OutcomeMode::Resolve),
            "reject" => Some(OutcomeMode::Reject),
            "shed" => Some(OutcomeMode::Shed),
            "quarantine" => Some(OutcomeMode::Quarantine),
            _ => None,
        }
    }
}

/// Everything the daemon decided about one op, recorded durably so
/// recovery replays the decisions instead of re-making them. The
/// overload controller ([`OverloadState::absorb`]) folds exactly
/// these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeMeta {
    /// Id of the op this outcome belongs to.
    pub id: u64,
    /// How the op was processed.
    pub mode: OutcomeMode,
    /// Budget-escalation retries this op consumed.
    pub retries: u32,
    /// Whether the windowed p99 was burning the SLO when the op
    /// completed — the only wall-clock input to the brownout
    /// controller, recorded so replay never re-derives it.
    pub burn: bool,
    /// Brownout level *after* this op (the level the controller
    /// decided to record, even if a fault suppressed a live step).
    pub level: u8,
    /// A drift-triggered re-solve was attempted for this op and
    /// failed; the outcome stayed `Repair` but backoff must advance.
    pub rsfail: bool,
}

impl OutcomeMeta {
    /// A metadata record with no overload activity — what the daemon
    /// writes when every overload knob is off.
    pub fn plain(id: u64, mode: OutcomeMode) -> Self {
        OutcomeMeta {
            id,
            mode,
            retries: 0,
            burn: false,
            level: 0,
            rsfail: false,
        }
    }

    /// Whether processing this op involved a full re-solve attempt,
    /// successful or not — the expensive path the work clock charges
    /// [`crate::overload::RESOLVE_WORK_OPS`] extra for. A `Reject`
    /// implies the fallback re-solve ran and failed.
    pub fn resolve_attempted(&self) -> bool {
        self.rsfail
            || matches!(
                self.mode,
                OutcomeMode::Resolve | OutcomeMode::RepairResolve | OutcomeMode::Reject
            )
    }
}

/// JSON payload of an outcome frame. A named struct rather than a
/// tagged enum: the op id plus the mode keyword. The overload fields
/// default to their inert values so v1 logs (which never wrote them)
/// decode unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OutcomeRec {
    id: u64,
    mode: String,
    #[serde(default)]
    retries: u32,
    #[serde(default)]
    burn: bool,
    #[serde(default)]
    level: u8,
    #[serde(default)]
    rsfail: bool,
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An op was durably logged before being applied.
    Op(SequencedOp),
    /// The op finished processing with the recorded decisions.
    Outcome(OutcomeMeta),
}

/// One quarantined op, exported by `epplan serve --dump-dead-letter`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadLetterRec {
    /// Id of the poisoned op.
    pub id: u64,
    /// How many attempts died mid-execution before quarantine.
    pub attempts: u32,
    /// The op itself, for offline diagnosis or manual replay.
    pub op: SequencedOp,
}

/// The base image: the full daemon state, written at start and at
/// compaction. Restoring it and replaying the WAL reproduces the
/// pre-crash certified plan bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Layout version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Highest op id folded into this snapshot (0 = initial solve).
    pub last_op_id: u64,
    /// Accumulated `dif` since the last full solve.
    pub drift: u64,
    /// Overload-controller state as of `last_op_id`.
    #[serde(default)]
    pub overload: OverloadState,
    /// The instance as of `last_op_id`.
    pub instance: Instance,
    /// The certified plan as of `last_op_id`.
    pub plan: Plan,
}

/// A [`Snapshot`] of borrowed state: what the daemon encodes, so a
/// base write copies neither the instance nor the plan. Encodes to the
/// same bytes as the owned [`Snapshot`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnapshotRef<'a> {
    /// Layout version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Highest op id folded into the image.
    pub last_op_id: u64,
    /// Accumulated `dif` since the last full solve.
    pub drift: u64,
    /// Overload-controller state as of `last_op_id`.
    pub overload: &'a OverloadState,
    /// The instance as of `last_op_id`.
    pub instance: &'a Instance,
    /// The certified plan as of `last_op_id`.
    pub plan: &'a Plan,
}

// Hand-written (the serde shim derives no borrowed fields): the
// derived layout of `Snapshot`, field for field.
impl Serialize for SnapshotRef<'_> {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("version".to_string(), self.version.to_content()),
            ("last_op_id".to_string(), self.last_op_id.to_content()),
            ("drift".to_string(), self.drift.to_content()),
            ("overload".to_string(), self.overload.to_content()),
            ("instance".to_string(), self.instance.to_content()),
            ("plan".to_string(), self.plan.to_content()),
        ])
    }
}

impl<'a> From<&'a Snapshot> for SnapshotRef<'a> {
    fn from(snap: &'a Snapshot) -> Self {
        SnapshotRef {
            version: snap.version,
            last_op_id: snap.last_op_id,
            drift: snap.drift,
            overload: &snap.overload,
            instance: &snap.instance,
            plan: &snap.plan,
        }
    }
}

/// Which base image a checkpoint extends: the base's `last_op_id` and
/// the checksum of its frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaseId {
    /// `last_op_id` of the base image.
    pub last_op_id: u64,
    /// FNV-1a checksum of the base image's frame payload.
    pub checksum: u32,
}

/// A base image as read from disk, with its identity and file size.
#[derive(Debug, Clone)]
pub struct Base {
    /// The decoded image.
    pub snapshot: Snapshot,
    /// Its identity, which a checkpoint must name to apply to it.
    pub id: BaseId,
    /// Size of `snapshot.bin` in bytes.
    pub bytes: u64,
}

/// The plan-side daemon state at a checkpoint. It holds no instance:
/// restore rebuilds that from the base image it names and the WAL.
#[derive(Debug, Clone, Deserialize)]
pub struct Checkpoint {
    /// Layout version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The base image this checkpoint extends.
    pub base: BaseId,
    /// Highest op id folded into this checkpoint.
    pub last_op_id: u64,
    /// Accumulated `dif` since the last full solve.
    pub drift: u64,
    /// Overload-controller state as of `last_op_id`.
    pub overload: OverloadState,
    /// The certified plan as of `last_op_id`.
    pub plan: Plan,
}

/// A [`Checkpoint`] of borrowed state: what the daemon encodes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckpointRef<'a> {
    /// The base image this checkpoint extends.
    pub base: BaseId,
    /// Highest op id folded into this checkpoint.
    pub last_op_id: u64,
    /// Accumulated `dif` since the last full solve.
    pub drift: u64,
    /// Overload-controller state as of `last_op_id`.
    pub overload: &'a OverloadState,
    /// The certified plan as of `last_op_id`.
    pub plan: &'a Plan,
}

impl Serialize for CheckpointRef<'_> {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("version".to_string(), CHECKPOINT_VERSION.to_content()),
            ("base".to_string(), self.base.to_content()),
            ("last_op_id".to_string(), self.last_op_id.to_content()),
            ("drift".to_string(), self.drift.to_content()),
            ("overload".to_string(), self.overload.to_content()),
            ("plan".to_string(), self.plan.to_content()),
        ])
    }
}

fn io_err(context: &str, e: std::io::Error) -> ServeError {
    ServeError::io(format!("{context}: {e}"))
}

fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn to_json<T: Serialize>(what: &str, value: &T) -> Result<Vec<u8>, ServeError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| ServeError::corrupt(format!("encoding {what}: {e}")))
}

/// Append-only WAL writer. Every append is flushed to the operating
/// system before returning, so a process kill (the crash model this
/// daemon defends against) loses at most the frame being written —
/// which the reader then treats as a torn tail. Durability against
/// power loss additionally requires [`WalWriter::sync`], which the
/// daemon invokes at snapshot points.
#[derive(Debug)]
pub struct WalWriter {
    out: BufWriter<File>,
    path: PathBuf,
    /// Bytes in the file: what it held when opened plus every append.
    bytes: u64,
}

impl WalWriter {
    /// Creates (truncating) a fresh WAL at `path`.
    pub fn create(path: &Path) -> Result<Self, ServeError> {
        let file = File::create(path)
            .map_err(|e| io_err(&format!("creating WAL {}", path.display()), e))?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            bytes: 0,
        })
    }

    /// Opens the WAL at `path` (creating it if absent) for appending
    /// after its first `intact` bytes, the complete frames
    /// [`read_wal_intact`] found. A torn tail beyond them is cut off:
    /// appended after it, it would sit mid-log, where the next restore
    /// reads it as corruption.
    pub fn open_append(path: &Path, intact: u64) -> Result<Self, ServeError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|f| f.set_len(intact).map(|()| f))
            .map_err(|e| io_err(&format!("opening WAL {}", path.display()), e))?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            bytes: intact,
        })
    }

    /// Size of the log in bytes, appends included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Durably logs an op *before* it is applied. Fault site
    /// `serve.wal.append` fires here, upstream of any write, modelling
    /// a full disk or I/O error at the worst possible moment.
    pub fn append_op(&mut self, sop: &SequencedOp) -> Result<(), ServeError> {
        if let Some(action) = epplan_fault::point("serve.wal.append") {
            return Err(ServeError::io(format!(
                "injected fault at serve.wal.append ({action})"
            )));
        }
        let payload = to_json("op record", sop)?;
        self.append(TAG_OP, &payload)
    }

    /// Logs the outcome record for one op *after* the decision is
    /// made but *before* it is acted on externally — shed and
    /// quarantine decisions are durable first, so `--restore`
    /// retraces them instead of re-deciding.
    pub fn append_outcome(&mut self, meta: &OutcomeMeta) -> Result<(), ServeError> {
        let rec = OutcomeRec {
            id: meta.id,
            mode: meta.mode.keyword().to_string(),
            retries: meta.retries,
            burn: meta.burn,
            level: meta.level,
            rsfail: meta.rsfail,
        };
        let payload = to_json("outcome record", &rec)?;
        self.append(TAG_OUTCOME, &payload)
    }

    fn append(&mut self, tag: u8, payload: &[u8]) -> Result<(), ServeError> {
        let frame = encode_frame(tag, payload);
        self.out
            .write_all(&frame)
            .and_then(|()| self.out.flush())
            .map_err(|e| io_err(&format!("appending to WAL {}", self.path.display()), e))?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Forces the log to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.out
            .flush()
            .and_then(|()| self.out.get_ref().sync_data())
            .map_err(|e| io_err(&format!("syncing WAL {}", self.path.display()), e))
    }
}

/// Appends one quarantined op to the dead-letter log in `dir`, fully
/// synced — a quarantine decision must never be lost to a crash.
/// Fault site `serve.deadletter.append` fires before any write.
pub fn append_dead_letter(dir: &Path, rec: &DeadLetterRec) -> Result<(), ServeError> {
    if let Some(action) = epplan_fault::point("serve.deadletter.append") {
        return Err(ServeError::io(format!(
            "injected fault at serve.deadletter.append ({action})"
        )));
    }
    let path = dir.join(DEAD_LETTER_FILE);
    let payload = to_json("dead-letter record", rec)?;
    let frame = encode_frame(TAG_DEADLETTER, &payload);
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| io_err(&format!("opening dead-letter log {}", path.display()), e))?;
    file.write_all(&frame)
        .and_then(|()| file.sync_data())
        .map_err(|e| io_err(&format!("appending to dead-letter log {}", path.display()), e))
}

/// Reads every record of the dead-letter log in `dir`. A missing file
/// is an empty log; a torn tail is tolerated (the crash model allows
/// dying mid-append); corruption before the tail is an error.
pub fn read_dead_letters(dir: &Path) -> Result<Vec<DeadLetterRec>, ServeError> {
    let path = dir.join(DEAD_LETTER_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| io_err(&format!("reading dead-letter log {}", path.display()), e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(io_err(
                &format!("opening dead-letter log {}", path.display()),
                e,
            ))
        }
    }
    let source = format!("dead-letter log {}", path.display());
    let mut records = Vec::new();
    for (tag, off, payload) in decode_frames(&bytes, &source)? {
        if tag != TAG_DEADLETTER {
            return Err(ServeError::corrupt(format!(
                "{source}: unknown frame tag {tag} at byte {off}"
            )));
        }
        let text = std::str::from_utf8(&payload)
            .map_err(|e| ServeError::corrupt(format!("{source}: non-UTF-8 payload: {e}")))?;
        let rec: DeadLetterRec = serde_json::from_str(text).map_err(|e| {
            ServeError::corrupt(format!("{source}: undecodable dead-letter record: {e}"))
        })?;
        records.push(rec);
    }
    Ok(records)
}

/// Decodes every frame of the byte buffer `bytes` (from `source`, for
/// error context) into `(tag, byte offset, payload)` triples. A torn
/// tail is tolerated; everything before it must checksum.
fn decode_frames(bytes: &[u8], source: &str) -> Result<Vec<(u8, usize, Vec<u8>)>, ServeError> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        if bytes.len() - off < FRAME_HEADER_LEN {
            break; // torn header at the tail — crash mid-append
        }
        let tag = bytes[off];
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&bytes[off + 1..off + 5]);
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut crc_buf = [0u8; 4];
        crc_buf.copy_from_slice(&bytes[off + 5..off + 9]);
        let crc = u32::from_le_bytes(crc_buf);
        let start = off + FRAME_HEADER_LEN;
        if bytes.len() - start < len {
            break; // torn payload at the tail
        }
        let payload = &bytes[start..start + len];
        if fnv1a(payload) != crc {
            return Err(ServeError::corrupt(format!(
                "{source}: checksum mismatch in frame tag {tag} at byte {off} \
                 (stored {crc:#010x}, computed {:#010x})",
                fnv1a(payload)
            )));
        }
        frames.push((tag, off, payload.to_vec()));
        off = start + len;
    }
    Ok(frames)
}

/// Reads and validates the whole WAL. A missing file is an empty log;
/// a torn tail is tolerated; corruption anywhere else is an error.
pub fn read_wal(path: &Path) -> Result<Vec<WalRecord>, ServeError> {
    Ok(read_wal_intact(path)?.0)
}

/// [`read_wal`], plus the byte length of the log's complete frames:
/// everything after it is a torn tail.
pub fn read_wal_intact(path: &Path) -> Result<(Vec<WalRecord>, u64), ServeError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| io_err(&format!("reading WAL {}", path.display()), e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(io_err(&format!("opening WAL {}", path.display()), e)),
    }
    let source = format!("WAL {}", path.display());
    let frames = decode_frames(&bytes, &source)?;
    let intact = frames
        .last()
        .map_or(0, |(_, off, payload)| off + FRAME_HEADER_LEN + payload.len());
    let mut records = Vec::new();
    for (tag, off, payload) in frames {
        let text = std::str::from_utf8(&payload)
            .map_err(|e| ServeError::corrupt(format!("{source}: non-UTF-8 payload: {e}")))?;
        match tag {
            TAG_OP => {
                let sop: SequencedOp = serde_json::from_str(text).map_err(|e| {
                    ServeError::corrupt(format!("{source}: undecodable op record: {e}"))
                })?;
                records.push(WalRecord::Op(sop));
            }
            TAG_OUTCOME => {
                let rec: OutcomeRec = serde_json::from_str(text).map_err(|e| {
                    ServeError::corrupt(format!("{source}: undecodable outcome record: {e}"))
                })?;
                let mode = OutcomeMode::from_keyword(&rec.mode).ok_or_else(|| {
                    ServeError::corrupt(format!(
                        "{source}: unknown outcome mode {:?}",
                        rec.mode
                    ))
                })?;
                records.push(WalRecord::Outcome(OutcomeMeta {
                    id: rec.id,
                    mode,
                    retries: rec.retries,
                    burn: rec.burn,
                    level: rec.level,
                    rsfail: rec.rsfail,
                }));
            }
            other => {
                return Err(ServeError::corrupt(format!(
                    "{source}: unknown frame tag {other} at byte {off}"
                )));
            }
        }
    }
    Ok((records, intact as u64))
}

/// What an atomic single-frame write put on disk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Written {
    /// FNV-1a checksum of the frame payload.
    pub checksum: u32,
    /// File size in bytes.
    pub bytes: u64,
}

/// Writes `value` as the sole `tag` frame of `dir/name` atomically:
/// `dir/tmp`, sync, rename. Fault site `serve.snapshot.write` fires
/// before the temp file is created, so an injected failure leaves the
/// previous file (and the WAL) fully intact.
fn write_frame_file<T: Serialize>(
    dir: &Path,
    tmp: &str,
    name: &str,
    tag: u8,
    value: &T,
) -> Result<Written, ServeError> {
    if let Some(action) = epplan_fault::point("serve.snapshot.write") {
        return Err(ServeError::io(format!(
            "injected fault at serve.snapshot.write ({action})"
        )));
    }
    let payload = to_json(name, value)?;
    let frame = encode_frame(tag, &payload);
    let tmp = dir.join(tmp);
    let fin = dir.join(name);
    let mut file = File::create(&tmp)
        .map_err(|e| io_err(&format!("creating temp file {}", tmp.display()), e))?;
    file.write_all(&frame)
        .and_then(|()| file.sync_all())
        .map_err(|e| io_err(&format!("writing temp file {}", tmp.display()), e))?;
    drop(file);
    fs::rename(&tmp, &fin).map_err(|e| {
        io_err(
            &format!("renaming {} -> {}", tmp.display(), fin.display()),
            e,
        )
    })?;
    // The payload checksum `encode_frame` stored in the header.
    let mut checksum = [0u8; 4];
    checksum.copy_from_slice(&frame[5..FRAME_HEADER_LEN]);
    Ok(Written {
        checksum: u32::from_le_bytes(checksum),
        bytes: frame.len() as u64,
    })
}

/// Writes `snap` atomically into `dir` as the base image.
pub fn write_snapshot(dir: &Path, snap: &Snapshot) -> Result<(), ServeError> {
    write_base(dir, &SnapshotRef::from(snap)).map(|_| ())
}

/// Writes the base image `snap` atomically into `dir` (see
/// [`write_frame_file`] for the fault site) and returns its checksum
/// and size.
pub(crate) fn write_base(dir: &Path, snap: &SnapshotRef<'_>) -> Result<Written, ServeError> {
    write_frame_file(dir, SNAPSHOT_TMP_FILE, SNAPSHOT_FILE, TAG_SNAPSHOT, snap)
}

/// Writes the checkpoint `ckpt` atomically into `dir`, through the
/// same `serve.snapshot.write` fault site as a base image.
pub(crate) fn write_checkpoint(dir: &Path, ckpt: &CheckpointRef<'_>) -> Result<(), ServeError> {
    write_frame_file(
        dir,
        CHECKPOINT_TMP_FILE,
        CHECKPOINT_FILE,
        TAG_CHECKPOINT,
        ckpt,
    )
    .map(|_| ())
}

/// Deletes the checkpoint in `dir`, if there is one.
pub(crate) fn remove_checkpoint(dir: &Path) -> Result<(), ServeError> {
    let path = dir.join(CHECKPOINT_FILE);
    match fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(
            &format!("removing checkpoint {}", path.display()),
            e,
        )),
        _ => Ok(()),
    }
}

/// Reads the sole `tag` frame of `dir/name` and decodes its payload.
/// `Ok(None)` when the file does not exist; a damaged, torn, extra or
/// mistagged frame is corruption — these files are written atomically
/// and must never be torn.
fn read_frame_file<T: Deserialize>(
    dir: &Path,
    name: &str,
    tag: u8,
) -> Result<Option<(T, Written)>, ServeError> {
    let path = dir.join(name);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| io_err(&format!("reading {}", path.display()), e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&format!("opening {}", path.display()), e)),
    }
    let source = path.display().to_string();
    let frames = decode_frames(&bytes, &source)?;
    let (found, payload) = match frames.as_slice() {
        [single] => (single.0, &single.2),
        _ => {
            return Err(ServeError::corrupt(format!(
                "{source}: expected exactly one complete frame, found {}",
                frames.len()
            )));
        }
    };
    if found != tag {
        return Err(ServeError::corrupt(format!(
            "{source}: unexpected frame tag {found} at byte 0"
        )));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| ServeError::corrupt(format!("{source}: non-UTF-8 payload: {e}")))?;
    let value = serde_json::from_str(text)
        .map_err(|e| ServeError::corrupt(format!("{source}: undecodable frame tag {tag}: {e}")))?;
    let written = Written {
        checksum: fnv1a(payload),
        bytes: bytes.len() as u64,
    };
    Ok(Some((value, written)))
}

/// Loads the base image from `dir`. `Ok(None)` when there is none;
/// corruption (bad checksum, torn frame, version mismatch) is an
/// error.
pub fn read_base(dir: &Path) -> Result<Option<Base>, ServeError> {
    let Some((snapshot, written)) = read_frame_file::<Snapshot>(dir, SNAPSHOT_FILE, TAG_SNAPSHOT)?
    else {
        return Ok(None);
    };
    if snapshot.version != FORMAT_VERSION {
        return Err(ServeError::corrupt(format!(
            "base image in {}: format version {} (supported: {FORMAT_VERSION})",
            dir.display(),
            snapshot.version
        )));
    }
    let id = BaseId {
        last_op_id: snapshot.last_op_id,
        checksum: written.checksum,
    };
    Ok(Some(Base {
        snapshot,
        id,
        bytes: written.bytes,
    }))
}

/// Loads the base image from `dir` (see [`read_base`]).
pub fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>, ServeError> {
    Ok(read_base(dir)?.map(|base| base.snapshot))
}

/// Loads the checkpoint from `dir`, whichever base it names.
/// `Ok(None)` when there is none; corruption is an error.
pub fn read_checkpoint(dir: &Path) -> Result<Option<Checkpoint>, ServeError> {
    let Some((ckpt, _)) = read_frame_file::<Checkpoint>(dir, CHECKPOINT_FILE, TAG_CHECKPOINT)?
    else {
        return Ok(None);
    };
    if ckpt.version != CHECKPOINT_VERSION {
        return Err(ServeError::corrupt(format!(
            "checkpoint in {}: format version {} (supported: {CHECKPOINT_VERSION})",
            dir.display(),
            ckpt.version
        )));
    }
    Ok(Some(ckpt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeErrorKind;
    use epplan_core::incremental::{AtomicOp, SequencedOp};
    use epplan_core::model::EventId;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "epplan-wal-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops() -> Vec<SequencedOp> {
        vec![
            SequencedOp::new(
                1,
                AtomicOp::EtaDecrease {
                    event: EventId(0),
                    new_upper: 3,
                },
            ),
            SequencedOp::new(
                2,
                AtomicOp::UtilityChange {
                    user: epplan_core::model::UserId(0),
                    event: EventId(0),
                    new_utility: 0.5,
                },
            ),
        ]
    }

    #[test]
    fn wal_round_trips_ops_and_outcomes() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let ops = sample_ops();
        let rich = OutcomeMeta {
            id: 2,
            mode: OutcomeMode::Resolve,
            retries: 3,
            burn: true,
            level: 2,
            rsfail: true,
        };
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append_op(&ops[0]).unwrap();
            w.append_outcome(&OutcomeMeta::plain(1, OutcomeMode::Repair))
                .unwrap();
            w.append_op(&ops[1]).unwrap();
            w.append_outcome(&rich).unwrap();
            w.sync().unwrap();
        }
        let records = read_wal(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], WalRecord::Op(ops[0].clone()));
        assert_eq!(
            records[1],
            WalRecord::Outcome(OutcomeMeta::plain(1, OutcomeMode::Repair))
        );
        assert_eq!(records[2], WalRecord::Op(ops[1].clone()));
        // Every overload field round-trips bit-for-bit.
        assert_eq!(records[3], WalRecord::Outcome(rich));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shed_and_quarantine_keywords_round_trip() {
        for mode in [OutcomeMode::Shed, OutcomeMode::Quarantine] {
            assert_eq!(OutcomeMode::from_keyword(mode.keyword()), Some(mode));
        }
        // v1 outcome records (no overload fields) decode with inert
        // defaults via serde.
        let rec: OutcomeRec = serde_json::from_str(r#"{"id":7,"mode":"repair"}"#).unwrap();
        assert_eq!(rec.retries, 0);
        assert!(!rec.burn && !rec.rsfail);
        assert_eq!(rec.level, 0);
    }

    #[test]
    fn torn_tail_is_tolerated_but_mid_file_corruption_is_not() {
        let dir = tmp_dir("torn");
        let path = dir.join(WAL_FILE);
        let ops = sample_ops();
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append_op(&ops[0]).unwrap();
            w.append_outcome(&OutcomeMeta::plain(1, OutcomeMode::Repair))
                .unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let full = fs::read(&path).unwrap();
        for cut in [1, 5, full.len() / 2] {
            fs::write(&path, &full[..full.len() - cut]).unwrap();
            let records = read_wal(&path).unwrap();
            assert!(records.len() < 2, "cut {cut} should drop the tail record");
        }
        // Flip a payload byte in the middle: corruption, not a tear.
        // The error must name the frame's byte offset and tag.
        let mut evil = full.clone();
        evil[FRAME_HEADER_LEN + 2] ^= 0xff;
        fs::write(&path, &evil).unwrap();
        let err = read_wal(&path).unwrap_err();
        assert_eq!(err.kind, ServeErrorKind::Corrupt);
        assert_eq!(err.exit_code(), 4);
        let msg = err.to_string();
        assert!(msg.contains("at byte 0"), "no offset in: {msg}");
        assert!(msg.contains("frame tag 1"), "no tag in: {msg}");
        // Unknown tag: also corruption, also located by offset.
        let mut unk = full;
        unk[0] = 9;
        fs::write(&path, &unk).unwrap();
        // checksum still matches payload, so the tag check fires
        let err = read_wal(&path).unwrap_err();
        assert_eq!(err.kind, ServeErrorKind::Corrupt);
        let msg = err.to_string();
        assert!(msg.contains("unknown frame tag 9"), "no tag in: {msg}");
        assert!(msg.contains("at byte 0"), "no offset in: {msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wal_reads_as_empty() {
        let dir = tmp_dir("missing");
        assert!(read_wal(&dir.join(WAL_FILE)).unwrap().is_empty());
        assert!(read_snapshot(&dir).unwrap().is_none());
        assert!(read_dead_letters(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn borrowed_snapshot_encodes_like_the_owned_one() {
        let instance = epplan_datagen::paper_example();
        let mut plan = Plan::for_instance(&instance);
        plan.add(epplan_core::model::UserId(1), EventId(2));
        let mut overload = OverloadState::default();
        overload.absorb(&OutcomeMeta::plain(5, OutcomeMode::Repair));
        let snap = Snapshot {
            version: FORMAT_VERSION,
            last_op_id: 5,
            drift: 3,
            overload,
            instance,
            plan,
        };
        assert_eq!(
            to_json("owned", &snap).unwrap(),
            to_json("borrowed", &SnapshotRef::from(&snap)).unwrap()
        );
    }

    #[test]
    fn checkpoint_round_trips_and_is_removed_without_a_trace() {
        let dir = tmp_dir("checkpoint");
        assert!(read_checkpoint(&dir).unwrap().is_none());
        let instance = epplan_datagen::paper_example();
        let plan = Plan::for_instance(&instance);
        let overload = OverloadState::default();
        let base = BaseId {
            last_op_id: 0,
            checksum: 7,
        };
        let ckpt = CheckpointRef {
            base,
            last_op_id: 9,
            drift: 4,
            overload: &overload,
            plan: &plan,
        };
        write_checkpoint(&dir, &ckpt).unwrap();
        assert!(!dir.join(CHECKPOINT_TMP_FILE).exists());
        let back = read_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(back.base, base);
        assert_eq!((back.last_op_id, back.drift), (9, 4));
        assert_eq!(back.overload, overload);
        assert_eq!(back.plan, plan);
        remove_checkpoint(&dir).unwrap();
        assert!(read_checkpoint(&dir).unwrap().is_none());
        // Removing an absent checkpoint is not an error.
        remove_checkpoint(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_round_trips_and_rejects_wrong_version() {
        let dir = tmp_dir("snap");
        let instance = epplan_datagen::paper_example();
        let plan = Plan::for_instance(&instance);
        let mut overload = OverloadState::default();
        overload.absorb(&OutcomeMeta::plain(42, OutcomeMode::Resolve));
        let snap = Snapshot {
            version: FORMAT_VERSION,
            last_op_id: 42,
            drift: 7,
            overload: overload.clone(),
            instance,
            plan,
        };
        let written = write_base(&dir, &SnapshotRef::from(&snap)).unwrap();
        let base = read_base(&dir).unwrap().unwrap();
        assert_eq!(base.id.checksum, written.checksum);
        assert_eq!(base.id.last_op_id, 42);
        assert_eq!(
            base.bytes,
            fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len()
        );
        let back = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(back.last_op_id, 42);
        assert_eq!(back.drift, 7);
        assert_eq!(back.overload, overload);
        // Temp file must not linger after the rename.
        assert!(!dir.join(SNAPSHOT_TMP_FILE).exists());

        let wrong = Snapshot {
            version: FORMAT_VERSION + 1,
            ..snap
        };
        write_snapshot(&dir, &wrong).unwrap();
        let err = read_snapshot(&dir).unwrap_err();
        assert_eq!(err.kind, ServeErrorKind::Corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dead_letter_log_round_trips_and_survives_appends() {
        let dir = tmp_dir("deadletter");
        let ops = sample_ops();
        let first = DeadLetterRec {
            id: 1,
            attempts: 3,
            op: ops[0].clone(),
        };
        let second = DeadLetterRec {
            id: 2,
            attempts: 5,
            op: ops[1].clone(),
        };
        append_dead_letter(&dir, &first).unwrap();
        append_dead_letter(&dir, &second).unwrap();
        let back = read_dead_letters(&dir).unwrap();
        assert_eq!(back, vec![first, second]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_faults_surface_as_io_errors() {
        let dir = tmp_dir("fault");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        epplan_fault::install(
            epplan_fault::FaultPlan::single(
                "serve.wal.append",
                epplan_fault::FaultAction::TypedError,
            )
            .unwrap(),
        );
        let err = w.append_op(&sample_ops()[0]).unwrap_err();
        epplan_fault::clear();
        assert_eq!(err.kind, ServeErrorKind::Io);
        assert_eq!(err.exit_code(), 3);

        let instance = epplan_datagen::paper_example();
        let plan = Plan::for_instance(&instance);
        let snap = Snapshot {
            version: FORMAT_VERSION,
            last_op_id: 0,
            drift: 0,
            overload: OverloadState::default(),
            instance,
            plan,
        };
        epplan_fault::install(
            epplan_fault::FaultPlan::single(
                "serve.snapshot.write",
                epplan_fault::FaultAction::TypedError,
            )
            .unwrap(),
        );
        let err = write_snapshot(&dir, &snap).unwrap_err();
        epplan_fault::clear();
        assert_eq!(err.kind, ServeErrorKind::Io);
        // The failed attempt must not have disturbed the directory.
        assert!(!dir.join(SNAPSHOT_FILE).exists());
        assert!(!dir.join(SNAPSHOT_TMP_FILE).exists());

        // The dead-letter fault site blocks the append before any
        // write, so the log file is never even created.
        epplan_fault::install(
            epplan_fault::FaultPlan::single(
                "serve.deadletter.append",
                epplan_fault::FaultAction::TypedError,
            )
            .unwrap(),
        );
        let rec = DeadLetterRec {
            id: 9,
            attempts: 2,
            op: sample_ops()[0].clone(),
        };
        let err = append_dead_letter(&dir, &rec).unwrap_err();
        epplan_fault::clear();
        assert_eq!(err.kind, ServeErrorKind::Io);
        assert!(!dir.join(DEAD_LETTER_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
