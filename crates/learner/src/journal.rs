//! The journaled observation store: an append-only binary segment log,
//! the one on-disk format for cross-run persistence.
//!
//! The paper's workloads re-learn the same protocol implementations over
//! and over; at campaign scale the observation cache holds hundreds of
//! thousands of `(input, output, terminal)` paths, so rewriting the whole
//! store on every save would dominate warm start.  A [`JournalStore`]
//! keys its entries by `(SUL id, implementation version, alphabet hash)`
//! ([`StoreKey`]) and persists *deltas*: a save appends only the paths
//! the file does not already cover, framed in a compact binary record
//! format, instead of rewriting the whole document.
//!
//! # File layout
//!
//! ```text
//! magic  "PGNJRNL1"                                  (8 bytes)
//! frame* := tag (1 byte) | payload_len varint | payload | fnv32 (4 bytes LE)
//!
//! tag 0x01  segment header — payload:
//!     sul_id        varint len | bytes
//!     impl_version  varint len | bytes
//!     alphabet_hash u64 LE
//!     symbol_count  varint, then per symbol: varint len | bytes
//! tag 0x02  record — payload (belongs to the most recent segment header):
//!     flags         1 byte (bit0 = terminal)
//!     step_count    varint, then per step:
//!         input_symbol   varint len | bytes
//!         output_symbol  varint len | bytes
//! ```
//!
//! Varints are unsigned LEB128; `fnv32` is the low 32 bits of FNV-1a-64
//! over the payload, so every frame is independently checkable.  Replay
//! stops at the first frame that is short, unknown, or fails its checksum
//! — a torn tail from a crash mid-append costs at most the interrupted
//! record, never the store (crash-safe appends).  The next writer
//! truncates the torn tail before appending, so the file always converges
//! back to a clean frame sequence.
//!
//! # Streaming replay
//!
//! Opening, verifying and tail re-syncing all replay through one reader
//! with a fixed 1 MiB window, never the whole file at once; a frame that
//! straddles a window boundary is carried over into the next read.
//! Records decode straight into the tries' symbol ids: each distinct
//! spelling is UTF-8-checked once per replay, each segment header
//! resolves its key's trie once, and each entry maps a spelling to its
//! interner ids once, after the first record using it has decoded fully.
//! A tail re-sync seeks to the synced offset and reads only what grew.
//!
//! # Compaction
//!
//! Appending deltas means superseded paths accumulate: a path that was
//! later extended (its terminal marker and symbols now implied by a longer
//! path) still occupies a record frame.  When the journal holds at least
//! [`COMPACT_MIN_RECORDS`] record frames *and* more than twice as many
//! frames as there are live maximal paths, the store rewrites itself: one
//! segment per key, one record per live path, swapped in by the same
//! fsync-then-rename dance every durable write in this crate uses.
//!
//! # Concurrency and determinism
//!
//! All mutation happens under a per-path process-wide writer lock, and
//! every mutating call re-syncs from the file first (tail replay when it
//! grew, full replay when it was compacted or replaced), so many in-process handles — one per campaign task — append
//! deltas without a load-merge-rewrite critical section and without losing
//! each other's observations.  Readers clone `Arc` snapshots; a warm
//! snapshot is shared, never copied.  Replayed tries depend only on file
//! content, so warm-started learns stay bit-identical to cold ones.
//!
//! A single learning run opens the store once and works through a
//! [`Checkout`]: [`JournalStore::checkout`] moves its key's trie out of
//! the store uncopied and keeps only the trie's lineage (a
//! [`TrieMark`] and the synced file offset), and [`Checkout::commit`]
//! persists the grown trie through the same handle.  Tries only ever
//! append nodes and set terminal markers, so while the file is still
//! exactly at the checkout offset the delta is read off the lineage —
//! the paths ending in a new or newly terminal node, the same records
//! [`JournalStore::save_merged`] would append, in the same order — and a
//! run that learned nothing new writes nothing, found in `O(1)`.  When
//! the file moved meanwhile (another handle appended), the commit
//! re-reads it and merges like `save_merged`, so concurrent runs still
//! leave the union of their observations.
//!
//! # Files that are not journals
//!
//! A file that does not open with the magic bytes — an older JSON cache,
//! a truncated write, random bytes — opens as an empty store, and the
//! first write replaces it with a journal: a cache only ever accelerates
//! a run.  [`JournalStore::verify`] reports such a file as an error.

use crate::cache::{atomic_write_durable, hold_path_lock, path_write_lock, CacheError, StoreKey};
use crate::trie::{PathCoverage, PrefixTrie, TrieMark};
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::interner::SymbolId;
use prognosis_automata::word::{InputWord, OutputWord};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic bytes opening every journal file; the trailing digit is the
/// journal format version.
pub const JOURNAL_MAGIC: &[u8; 8] = b"PGNJRNL1";

/// Frame tag: a segment header carrying a [`StoreKey`].
const FRAME_SEGMENT: u8 = 0x01;
/// Frame tag: one `(input, output, terminal)` observation path.
const FRAME_RECORD: u8 = 0x02;

/// Compaction never triggers below this many record frames — tiny stores
/// rewrite so fast that append-only bookkeeping isn't worth churning.
pub const COMPACT_MIN_RECORDS: usize = 1024;

/// FNV-1a-64 (same function the cache key uses for alphabets).
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The per-frame checksum: FNV-1a-64 truncated to its low 32 bits.
fn frame_checksum(payload: &[u8]) -> u32 {
    fnv1a(payload) as u32
}

fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn read_bytes<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = usize::try_from(read_varint(bytes, pos)?).ok()?;
    let slice = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(slice)
}

fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    std::str::from_utf8(read_bytes(bytes, pos)?).ok()
}

fn push_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
}

fn encode_segment_header(key: &StoreKey) -> Vec<u8> {
    let mut payload = Vec::new();
    write_bytes(&mut payload, key.sul_id().as_bytes());
    write_bytes(&mut payload, key.impl_version().as_bytes());
    payload.extend_from_slice(&key.alphabet_hash().to_le_bytes());
    write_varint(&mut payload, key.alphabet().len() as u64);
    for symbol in key.alphabet() {
        write_bytes(&mut payload, symbol.as_bytes());
    }
    payload
}

fn decode_segment_header(payload: &[u8]) -> Option<StoreKey> {
    let mut pos = 0;
    let sul_id = read_str(payload, &mut pos)?.to_string();
    let impl_version = read_str(payload, &mut pos)?.to_string();
    let hash_bytes = payload.get(pos..pos + 8)?;
    let alphabet_hash = u64::from_le_bytes(hash_bytes.try_into().ok()?);
    pos += 8;
    let count = read_varint(payload, &mut pos)? as usize;
    let mut alphabet = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        alphabet.push(read_str(payload, &mut pos)?.to_string());
    }
    (pos == payload.len())
        .then(|| StoreKey::from_parts(sul_id, impl_version, alphabet, alphabet_hash))
}

fn encode_record(input: &[Symbol], output: &[Symbol], terminal: bool) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(u8::from(terminal));
    write_varint(&mut payload, input.len() as u64);
    for (i, o) in input.iter().zip(output.iter()) {
        write_bytes(&mut payload, i.as_str().as_bytes());
        write_bytes(&mut payload, o.as_str().as_bytes());
    }
    payload
}

/// One replay's table of distinct symbol spellings.  Each spelling is
/// UTF-8-checked and turned into a [`Symbol`] once; records then refer to
/// spellings by index, and each entry's trie resolves an index to its own
/// symbol id once.
#[derive(Default)]
struct Spellings {
    index: HashMap<Box<[u8]>, u32>,
    symbols: Vec<Symbol>,
}

impl Spellings {
    /// The index of spelling `bytes`, or `None` when they are not UTF-8.
    fn index_of(&mut self, bytes: &[u8]) -> Option<u32> {
        if let Some(&index) = self.index.get(bytes) {
            return Some(index);
        }
        let symbol = Symbol::new(std::str::from_utf8(bytes).ok()?);
        let index = self.symbols.len() as u32;
        self.symbols.push(symbol);
        self.index.insert(bytes.into(), index);
        Some(index)
    }
}

/// Decodes a record payload into `steps` as `(input, output)` spelling
/// indices and returns its terminal flag, or `None` when the record is
/// malformed.
fn decode_record(
    payload: &[u8],
    spellings: &mut Spellings,
    steps: &mut Vec<(u32, u32)>,
) -> Option<bool> {
    let flags = *payload.first()?;
    if flags > 1 {
        return None;
    }
    let mut pos = 1;
    let count = read_varint(payload, &mut pos)?;
    steps.clear();
    // Every step consumes payload bytes, so a corrupt count ends the loop
    // at the payload's end.
    for _ in 0..count {
        let input = spellings.index_of(read_bytes(payload, &mut pos)?)?;
        let output = spellings.index_of(read_bytes(payload, &mut pos)?)?;
        steps.push((input, output));
    }
    (pos == payload.len()).then_some(flags == 1)
}

/// `memo[spelling]`, filled through `intern` on the first lookup.
fn memo_id(
    memo: &mut Vec<Option<SymbolId>>,
    spelling: u32,
    intern: impl FnOnce() -> SymbolId,
) -> SymbolId {
    let slot = spelling as usize;
    if memo.len() <= slot {
        memo.resize(slot + 1, None);
    }
    *memo[slot].get_or_insert_with(intern)
}

/// Where the bytes behind a store's in-memory state came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFormat {
    /// A binary journal.
    Journal,
    /// No file, or one without the journal magic — treated as absent, the
    /// universal "a cache must only ever accelerate" rule; the first write
    /// replaces it.
    Absent,
}

/// What a save keeps besides the entry it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetainPolicy {
    /// Drop every other key — the single-run pipeline semantics, where a
    /// cache file follows its run's key and a key change (new alphabet,
    /// new SUL) soundly invalidates the whole file.
    OnlyThisKey,
    /// Keep all keys side by side — the campaign semantics, where one
    /// shared store accumulates every `(SUL, version, alphabet)` cell.
    All,
}

/// Bytes the streaming replay reads at a time.  A frame straddling a
/// chunk boundary is carried over into the next read; a frame larger than
/// the buffer grows it.
const REPLAY_CHUNK: usize = 1 << 20;

/// Longest frame head: the tag byte plus a varint of at most ten bytes.
const FRAME_HEAD_MAX: usize = 11;

/// A forward-only window over a byte stream.  Replay reads frames through
/// it a chunk at a time instead of buffering the whole file.
struct FrameReader<R> {
    source: R,
    buf: Vec<u8>,
    /// The unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// Stream offset of `buf[0]`.
    base: u64,
    eof: bool,
}

impl<R: Read> FrameReader<R> {
    /// A reader over `source`, whose first byte sits at stream offset
    /// `offset`, reading `chunk` bytes at a time.
    fn new(source: R, offset: u64, chunk: usize) -> Self {
        FrameReader {
            source,
            buf: vec![0; chunk.max(1)],
            start: 0,
            end: 0,
            base: offset,
            eof: false,
        }
    }

    /// Stream offset of the next unconsumed byte.
    fn offset(&self) -> u64 {
        self.base + self.start as u64
    }

    /// The unconsumed bytes, after reading until there are at least `need`
    /// of them or the stream ends.
    fn fill(&mut self, need: usize) -> std::io::Result<&[u8]> {
        while self.end - self.start < need && !self.eof {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.base += self.start as u64;
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                // A frame larger than the buffer: grow as its bytes arrive,
                // never by the (untrusted) length it claims.
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.source.read(&mut self.buf[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(&self.buf[self.start..self.end])
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
    }

    /// Whether the stream starts with [`JOURNAL_MAGIC`]; consumes it if so.
    fn take_magic(&mut self) -> std::io::Result<bool> {
        let found = self.fill(JOURNAL_MAGIC.len())?.starts_with(JOURNAL_MAGIC);
        if found {
            self.consume(JOURNAL_MAGIC.len());
        }
        Ok(found)
    }

    /// How many bytes are left in the stream, reading through them.
    fn count_remaining(mut self) -> std::io::Result<u64> {
        let buffered = (self.end - self.start) as u64;
        Ok(buffered + std::io::copy(&mut self.source, &mut std::io::sink())?)
    }
}

/// One key's replay target: its trie — created by the key's first record,
/// so a header without records leaves no entry — and the memos resolving
/// spelling indices to this trie's symbol ids.
struct Segment {
    key: StoreKey,
    trie: Option<Arc<PrefixTrie>>,
    input_ids: Vec<Option<SymbolId>>,
    output_ids: Vec<Option<SymbolId>>,
}

/// Replay state: the decoded entries plus enough context to continue
/// replaying appended frames later (tail replay).
struct Replay {
    segments: Vec<Segment>,
    by_key: BTreeMap<StoreKey, usize>,
    /// Segment of the most recent header, resolved once per header.
    current: Option<usize>,
    record_frames: usize,
    contradictions: usize,
    spellings: Spellings,
    /// Per-record buffers, reused across records.
    steps: Vec<(u32, u32)>,
    inputs: Vec<SymbolId>,
    outputs: Vec<SymbolId>,
}

impl Replay {
    fn empty() -> Self {
        Replay {
            segments: Vec::new(),
            by_key: BTreeMap::new(),
            current: None,
            record_frames: 0,
            contradictions: 0,
            spellings: Spellings::default(),
            steps: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Continues from a synced state (tail replay), taking its entries.
    fn resume(state: &mut State) -> Self {
        let mut replay = Replay::empty();
        for (key, trie) in std::mem::take(&mut state.entries) {
            let index = replay.segment(key);
            replay.segments[index].trie = Some(trie);
        }
        replay.current = state.last_header_key.take().map(|key| replay.segment(key));
        replay.record_frames = state.record_frames;
        replay
    }

    /// The index of `key`'s segment, adding an empty one on first sight.
    fn segment(&mut self, key: StoreKey) -> usize {
        if let Some(&index) = self.by_key.get(&key) {
            return index;
        }
        let index = self.segments.len();
        self.by_key.insert(key.clone(), index);
        self.segments.push(Segment {
            key,
            trie: None,
            input_ids: Vec::new(),
            output_ids: Vec::new(),
        });
        index
    }

    /// Replays frames from `reader` and returns the stream offset just past
    /// the last good frame.  Stops (without error) at the first short,
    /// unknown, malformed or checksum-failing frame — that is the
    /// crash-safe torn-tail rule.  Errors only when reading fails.
    fn replay<R: Read>(&mut self, reader: &mut FrameReader<R>) -> std::io::Result<u64> {
        loop {
            let frame_start = reader.offset();
            let head = reader.fill(FRAME_HEAD_MAX)?;
            let Some(&tag) = head.first() else {
                return Ok(frame_start);
            };
            let mut pos = 1;
            let Some(frame_len) = read_varint(head, &mut pos)
                .and_then(|len| usize::try_from(len).ok())
                .and_then(|len| len.checked_add(pos + 4))
            else {
                return Ok(frame_start);
            };
            let Some(frame) = reader.fill(frame_len)?.get(pos..frame_len) else {
                return Ok(frame_start);
            };
            let Some((payload, stored)) = frame.split_last_chunk::<4>() else {
                return Ok(frame_start);
            };
            if u32::from_le_bytes(*stored) != frame_checksum(payload) {
                return Ok(frame_start);
            }
            let applied = match tag {
                FRAME_SEGMENT => self.apply_header(payload),
                FRAME_RECORD => self.apply_record(payload),
                _ => false,
            };
            if !applied {
                return Ok(frame_start);
            }
            reader.consume(frame_len);
        }
    }

    fn apply_header(&mut self, payload: &[u8]) -> bool {
        match decode_segment_header(payload) {
            Some(key) => {
                self.current = Some(self.segment(key));
                true
            }
            None => false,
        }
    }

    fn apply_record(&mut self, payload: &[u8]) -> bool {
        // A record before any segment header is not a valid stream; treat
        // it as the torn tail.
        let Some(current) = self.current else {
            return false;
        };
        let Some(terminal) = decode_record(payload, &mut self.spellings, &mut self.steps) else {
            return false;
        };
        self.record_frames += 1;
        let Segment {
            trie,
            input_ids,
            output_ids,
            ..
        } = &mut self.segments[current];
        // `make_mut` is a plain deref while replay owns the entry, which it
        // does except when a caller still holds a previously loaded
        // snapshot.
        let trie = Arc::make_mut(trie.get_or_insert_with(Default::default));
        // The record decoded fully, so only now do its spellings reach the
        // trie's interners — once per spelling and entry.
        let symbols = &self.spellings.symbols;
        self.inputs.clear();
        self.outputs.clear();
        for &(input, output) in &self.steps {
            self.inputs.push(memo_id(input_ids, input, || {
                trie.intern_input(&symbols[input as usize])
            }));
            self.outputs.push(memo_id(output_ids, output, || {
                trie.intern_output(&symbols[output as usize])
            }));
        }
        match trie.apply_path_ids(&self.inputs, &self.outputs, terminal) {
            Ok(PathCoverage::Contradicts) => self.contradictions += 1,
            Ok(_) => {}
            Err(_) => return false,
        }
        true
    }

    /// The synced journal state this replay amounts to, with appends
    /// continuing at `synced_len`.
    fn into_state(self, synced_len: u64) -> State {
        let last_header_key = self.current.map(|i| self.segments[i].key.clone());
        State {
            entries: self
                .segments
                .into_iter()
                .filter_map(|s| Some((s.key, s.trie?)))
                .collect(),
            synced_len,
            record_frames: self.record_frames,
            last_header_key,
            source: StoreFormat::Journal,
        }
    }
}

/// The store's synced view of its file.
struct State {
    entries: BTreeMap<StoreKey, Arc<PrefixTrie>>,
    /// File length the state reflects — the offset appends continue at
    /// (everything past it is a torn tail to truncate).
    synced_len: u64,
    /// Record frames replayed (including superseded/covered ones) — the
    /// compaction trigger's numerator.
    record_frames: usize,
    /// Key of the file's most recent segment header; appending records
    /// for a different key must write a fresh header first.
    last_header_key: Option<StoreKey>,
    source: StoreFormat,
}

impl State {
    fn empty() -> Self {
        State {
            entries: BTreeMap::new(),
            synced_len: 0,
            record_frames: 0,
            last_header_key: None,
            source: StoreFormat::Absent,
        }
    }

    fn live_paths(&self) -> usize {
        self.entries.values().map(|t| t.path_count()).sum()
    }
}

/// Summary counters for one keyed entry, as reported by
/// [`JournalStore::stats`].
#[derive(Clone, Debug)]
pub struct EntryStats {
    /// The entry's key.
    pub key: StoreKey,
    /// Maximal observation paths the entry replays to.
    pub paths: usize,
    /// Words recorded as full queries.
    pub terminal_words: usize,
    /// Trie nodes (cached symbols, plus the root).
    pub nodes: usize,
}

/// What [`JournalStore::stats`] reports about a store file.
#[derive(Clone, Debug)]
pub struct JournalStats {
    /// The on-disk format the file was read as.
    pub format: StoreFormat,
    /// File size in bytes (0 when absent).
    pub file_bytes: u64,
    /// Record frames in the journal (0 when absent).
    pub record_frames: usize,
    /// Live maximal paths across all entries — what a fresh compaction
    /// would write.
    pub live_paths: usize,
    /// Per-entry breakdowns, in deterministic key order.
    pub entries: Vec<EntryStats>,
}

/// What [`JournalStore::verify`] reports about a store file's integrity.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The on-disk format the file was read as.
    pub format: StoreFormat,
    /// Bytes of well-formed frames, magic included.
    pub sound_bytes: u64,
    /// Bytes past the last good frame — a torn tail from an interrupted
    /// append (0 for a clean file).
    pub torn_bytes: u64,
    /// Records skipped because they contradicted earlier records under the
    /// same key (first record wins; should be 0 for stores written solely
    /// by this crate).
    pub contradictions: usize,
    /// Keys whose stored alphabet hash does not match a fresh hash of the
    /// spelled-out symbols (corrupt or hand-edited headers).
    pub inconsistent_keys: Vec<StoreKey>,
}

impl VerifyReport {
    /// Whether the store is fully sound: no torn tail, no contradictions,
    /// no inconsistent keys.
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0 && self.contradictions == 0 && self.inconsistent_keys.is_empty()
    }
}

/// The outcome of a [`JournalStore::compact`] call.
#[derive(Clone, Copy, Debug)]
pub struct CompactOutcome {
    /// File size before compaction (0 when the file was absent).
    pub before_bytes: u64,
    /// File size after compaction.
    pub after_bytes: u64,
    /// Record frames before compaction.
    pub before_records: usize,
    /// Record frames after — exactly the live path count.
    pub after_records: usize,
}

/// A handle on a journaled observation store at one path.  Cheap to open
/// (one replay), cheap to read (snapshots are shared `Arc`s), and safe to
/// hold many of in one process: every mutation re-syncs from the file
/// under the path's process-wide writer lock before appending its delta.
pub struct JournalStore {
    path: PathBuf,
    lock: Arc<Mutex<()>>,
    state: Mutex<State>,
}

impl JournalStore {
    /// Opens the store at `path`, replaying the journal.  A missing file,
    /// or one without the journal magic, is an empty store; a corrupt
    /// journal loads its sound prefix.  Pure loads never modify the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheError> {
        let path = path.as_ref().to_path_buf();
        let lock = path_write_lock(&path);
        let mut state = State::empty();
        read_into(&mut state, &path)?;
        Ok(JournalStore {
            path,
            lock,
            state: Mutex::new(state),
        })
    }

    /// [`JournalStore::open`], degrading any read error to an empty store
    /// — the cache-must-only-accelerate rule.
    pub fn open_or_empty(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().to_path_buf();
        JournalStore::open(&path).unwrap_or_else(|_| JournalStore {
            lock: path_write_lock(&path),
            path,
            state: Mutex::new(State::empty()),
        })
    }

    /// The path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The on-disk format the store was read as.
    pub fn format(&self) -> StoreFormat {
        self.state.lock().expect("journal state poisoned").source
    }

    /// The trie cached for exactly `key`, as a shared snapshot (cloning
    /// the `Arc`, not the trie).  Reflects the file as of open / the last
    /// mutation through *this* handle.
    pub fn snapshot(&self, key: &StoreKey) -> Option<Arc<PrefixTrie>> {
        self.state
            .lock()
            .expect("journal state poisoned")
            .entries
            .get(key)
            .cloned()
    }

    /// All entries as shared snapshots, in deterministic key order — the
    /// campaign-start warm view every cell reads from.
    pub fn snapshot_entries(&self) -> BTreeMap<StoreKey, Arc<PrefixTrie>> {
        self.state
            .lock()
            .expect("journal state poisoned")
            .entries
            .clone()
    }

    /// One-shot warm-start read: the trie persisted for `key` at `path`,
    /// or `None` on any miss (no file, unreadable, no such key).  The
    /// store is dropped right after, so the entry moves out uncopied.
    pub fn load_matching(path: impl AsRef<Path>, key: &StoreKey) -> Option<PrefixTrie> {
        let store = JournalStore::open(path).ok()?;
        let mut state = store.state.into_inner().expect("journal state poisoned");
        state.entries.remove(key).map(Arc::unwrap_or_clone)
    }

    /// Checks `key`'s entry out for one learning run, consuming the handle.
    ///
    /// With `warm` the entry's trie moves out of the store uncopied to seed
    /// the run (an empty trie when the store has none), and the checkout
    /// keeps only its lineage: a [`TrieMark`] plus the synced file offset.
    /// Without `warm` the run starts from an empty trie and the entry
    /// stays in the store.  Either way the run ends with
    /// [`Checkout::commit`] through the same handle.
    pub fn checkout(self, key: StoreKey, warm: bool) -> (PrefixTrie, Checkout) {
        let (trie, lineage) = if warm {
            let mut state = self.state.lock().expect("journal state poisoned");
            let entry = state.entries.remove(&key);
            let had_entry = entry.is_some();
            let trie = entry.map(Arc::unwrap_or_clone).unwrap_or_default();
            let lineage = Lineage {
                mark: trie.mark(),
                synced_len: state.synced_len,
                had_entry,
            };
            (trie, Some(lineage))
        } else {
            (PrefixTrie::new(), None)
        };
        let checkout = Checkout {
            store: self,
            key,
            lineage,
        };
        (trie, checkout)
    }

    /// Persists `trie` under `key`: merges over what the file already
    /// holds for that key and appends only the *delta* — the paths the
    /// store does not cover yet.  An up-to-date store costs zero writes.
    ///
    /// Falls back to a full (atomic, durable) rewrite when appending
    /// can't express the change: a contradictory existing entry is
    /// replaced wholesale by the live trie (a stale cache never mixes with
    /// live answers), [`RetainPolicy::OnlyThisKey`] drops other keys, an
    /// absent or non-journal file is written out as a journal, and a
    /// journal past its compaction threshold is compacted on the way out.
    ///
    /// The whole resync-merge-append runs under the path's process-wide
    /// writer lock, so concurrent savers through any number of handles
    /// leave the union of their observations on disk.
    pub fn save_merged(
        &self,
        key: &StoreKey,
        trie: &PrefixTrie,
        retain: RetainPolicy,
    ) -> Result<(), CacheError> {
        let lock = Arc::clone(&self.lock);
        let _guard = hold_path_lock(&lock);
        let mut state = self.state.lock().expect("journal state poisoned");
        resync(&mut state, &self.path)?;
        merge_synced(&mut state, &self.path, key, Cow::Borrowed(trie), retain)
    }

    /// One-shot persistence write: open, merge, save.
    pub fn save_merged_at(
        path: impl AsRef<Path>,
        key: &StoreKey,
        trie: &PrefixTrie,
        retain: RetainPolicy,
    ) -> Result<(), CacheError> {
        JournalStore::open_or_empty(path).save_merged(key, trie, retain)
    }

    /// Rewrites the store as one segment per key holding only live paths,
    /// regardless of thresholds.  Returns the before/after sizes.
    pub fn compact(&self) -> Result<CompactOutcome, CacheError> {
        let lock = Arc::clone(&self.lock);
        let _guard = hold_path_lock(&lock);
        let mut state = self.state.lock().expect("journal state poisoned");
        resync(&mut state, &self.path)?;
        let before_bytes = state.synced_len;
        let before_records = state.record_frames;
        rewrite(&mut state, &self.path)?;
        Ok(CompactOutcome {
            before_bytes,
            after_bytes: state.synced_len,
            before_records,
            after_records: state.record_frames,
        })
    }

    /// Summarizes the store: format, sizes, per-entry path counts.
    pub fn stats(&self) -> JournalStats {
        let state = self.state.lock().expect("journal state poisoned");
        JournalStats {
            format: state.source,
            file_bytes: std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0),
            record_frames: state.record_frames,
            live_paths: state.live_paths(),
            entries: state
                .entries
                .iter()
                .map(|(key, trie)| EntryStats {
                    key: key.clone(),
                    paths: trie.path_count(),
                    terminal_words: trie.terminal_words(),
                    nodes: trie.num_nodes(),
                })
                .collect(),
        }
    }

    /// Integrity-checks the file at `path` without modifying it: frame
    /// checksums, torn tail, replay contradictions, key-hash consistency.
    /// A missing file reports clean as [`StoreFormat::Absent`]; a file
    /// without the journal magic is a [`CacheError::Format`] error.
    pub fn verify(path: impl AsRef<Path>) -> Result<VerifyReport, CacheError> {
        let file = match std::fs::File::open(path.as_ref()) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(VerifyReport {
                    format: StoreFormat::Absent,
                    sound_bytes: 0,
                    torn_bytes: 0,
                    contradictions: 0,
                    inconsistent_keys: Vec::new(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        let mut reader = FrameReader::new(file, 0, REPLAY_CHUNK);
        if !reader.take_magic()? {
            return Err(CacheError::Format(
                "not a journal (no PGNJRNL1 magic)".into(),
            ));
        }
        let mut replay = Replay::empty();
        let good_len = replay.replay(&mut reader)?;
        let contradictions = replay.contradictions;
        let inconsistent_keys = replay
            .into_state(good_len)
            .entries
            .into_keys()
            .filter(|k| !k.hash_consistent())
            .collect();
        Ok(VerifyReport {
            format: StoreFormat::Journal,
            sound_bytes: good_len,
            torn_bytes: reader.count_remaining()?,
            contradictions,
            inconsistent_keys,
        })
    }
}

/// Where a warm checkout's trie came from: its place in the trie's
/// append-only history and the file offset the store was synced to.
struct Lineage {
    mark: TrieMark,
    synced_len: u64,
    /// Whether the store held an entry for the key at all.
    had_entry: bool,
}

/// One learning run's hold on a [`JournalStore`] entry, from
/// [`JournalStore::checkout`] to [`Checkout::commit`].
pub struct Checkout {
    store: JournalStore,
    key: StoreKey,
    lineage: Option<Lineage>,
}

impl Checkout {
    /// The path the checked-out store persists to.
    pub fn path(&self) -> &Path {
        self.store.path()
    }

    /// Persists the run's final trie, which for a warm checkout must be
    /// the checked-out trie grown by the run.
    ///
    /// While the file is still exactly as the checkout saw it, the delta is
    /// read off the trie's lineage: the paths whose end node is new or
    /// newly terminal since the checkout
    /// ([`PrefixTrie::for_each_path_since`]), which are the paths
    /// [`JournalStore::save_merged`] would append, in the same order and
    /// bytes.  A run that added nothing writes nothing, found in `O(1)`.
    /// Anything else — the file moved, an absent or non-journal source,
    /// [`RetainPolicy::OnlyThisKey`] dropping other keys, a cold checkout —
    /// goes through the [`JournalStore::save_merged`] merge.
    pub fn commit(self, trie: PrefixTrie, retain: RetainPolicy) -> Result<(), CacheError> {
        let Checkout {
            store,
            key,
            lineage,
        } = self;
        let lock = Arc::clone(&store.lock);
        let _guard = hold_path_lock(&lock);
        let mut state = store.state.lock().expect("journal state poisoned");
        let Some(lineage) = lineage else {
            resync(&mut state, &store.path)?;
            return merge_synced(&mut state, &store.path, &key, Cow::Owned(trie), retain);
        };
        let file_len = match std::fs::metadata(&store.path) {
            Ok(meta) => Some(meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        // The checked-out key is no longer in `entries`: any entry left is
        // another key's.
        let drops_other_keys = retain == RetainPolicy::OnlyThisKey && !state.entries.is_empty();
        let in_place = state.source == StoreFormat::Journal
            && file_len == Some(lineage.synced_len)
            && !drops_other_keys;
        if !in_place {
            // The checked-out entry left this handle's state, so rebuild
            // the state from the file before merging.
            read_into(&mut state, &store.path)?;
            return merge_synced(&mut state, &store.path, &key, Cow::Owned(trie), retain);
        }
        if lineage.had_entry && trie.unchanged_since(&lineage.mark) {
            return Ok(()); // Fully covered: zero writes.
        }
        let mut bytes = Vec::new();
        if state.last_header_key.as_ref() != Some(&key) {
            push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(&key));
        }
        let mut records = 0;
        trie.for_each_path_since(&lineage.mark, |input, output, terminal| {
            push_frame(
                &mut bytes,
                FRAME_RECORD,
                &encode_record(input, output, terminal),
            );
            records += 1;
        });
        append_delta(
            &mut state,
            &store.path,
            &key,
            Arc::new(trie),
            &bytes,
            records,
        )
    }
}

/// The merge half of [`JournalStore::save_merged`], on a state already
/// synced with the file: classifies the live trie's paths against the
/// stored entry, then appends the fresh ones or rewrites the file.
fn merge_synced(
    state: &mut State,
    path: &Path,
    key: &StoreKey,
    trie: Cow<'_, PrefixTrie>,
    retain: RetainPolicy,
) -> Result<(), CacheError> {
    // Take the stored entry out while merging, so growing it copies
    // nothing unless a caller still holds a snapshot of it.
    let existing = state.entries.remove(key);
    let had_entry = existing.is_some();
    // Classify the live trie's paths against the stored entry.
    let mut fresh: Vec<(Vec<Symbol>, Vec<Symbol>, bool)> = Vec::new();
    let mut contradicts = false;
    trie.for_each_path(|input, output, terminal| {
        if contradicts {
            return;
        }
        match existing
            .as_ref()
            .map_or(PathCoverage::Fresh, |e| e.coverage(input, output, terminal))
        {
            PathCoverage::Covered => {}
            PathCoverage::Fresh => fresh.push((input.to_vec(), output.to_vec(), terminal)),
            PathCoverage::Contradicts => contradicts = true,
        }
    });

    // Decide the merged entry value.
    let merged: Arc<PrefixTrie> = match existing {
        Some(mut existing) if !contradicts => {
            if !fresh.is_empty() {
                let merged = Arc::make_mut(&mut existing);
                for (input, output, terminal) in &fresh {
                    let input = InputWord::from(input.clone());
                    let output = OutputWord::from(output.clone());
                    merged.insert(&input, &output);
                    if *terminal {
                        merged.mark_terminal(&input);
                    }
                }
            }
            existing
        }
        // No stored entry, or one that disagrees with what the SUL just
        // answered: the live trie becomes the entry, dropping a
        // contradicting one wholesale rather than persisting a mixture.
        _ => Arc::new(trie.into_owned()),
    };

    let drops_other_keys =
        retain == RetainPolicy::OnlyThisKey && state.entries.keys().any(|k| k != key);
    let needs_rewrite = contradicts || drops_other_keys || state.source != StoreFormat::Journal;

    if needs_rewrite {
        if retain == RetainPolicy::OnlyThisKey {
            state.entries.clear();
        }
        state.entries.insert(key.clone(), merged);
        return rewrite(state, path);
    }

    if fresh.is_empty() && had_entry {
        state.entries.insert(key.clone(), merged);
        return Ok(()); // Fully covered: zero writes.
    }

    // Append the delta: a segment header when the file's current segment
    // is for a different key, then one record per fresh path.
    let mut bytes = Vec::new();
    if state.last_header_key.as_ref() != Some(key) {
        push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(key));
    }
    for (input, output, terminal) in &fresh {
        push_frame(
            &mut bytes,
            FRAME_RECORD,
            &encode_record(input, output, *terminal),
        );
    }
    append_delta(state, path, key, merged, &bytes, fresh.len())
}

/// Appends `bytes`, a delta of `records` record frames for `key`, then
/// records `merged` as the key's entry.  Compacts once superseded records
/// outnumber live paths 2:1 — past [`COMPACT_MIN_RECORDS`], so small
/// stores never churn.
fn append_delta(
    state: &mut State,
    path: &Path,
    key: &StoreKey,
    merged: Arc<PrefixTrie>,
    bytes: &[u8],
    records: usize,
) -> Result<(), CacheError> {
    if let Err(e) = append_durable(path, state.synced_len, bytes) {
        // What reached the file is unknown: drop the synced view so the
        // next mutation re-reads the file.
        *state = State::empty();
        return Err(e);
    }
    state.synced_len += bytes.len() as u64;
    state.record_frames += records;
    state.last_header_key = Some(key.clone());
    state.entries.insert(key.clone(), merged);
    if state.record_frames >= COMPACT_MIN_RECORDS && state.record_frames > 2 * state.live_paths() {
        rewrite(state, path)?;
    }
    Ok(())
}

/// Reads the file at `path` into `state` (full replay).  A missing file,
/// or one without the journal magic, leaves the state empty; the first
/// write then replaces the file.
fn read_into(state: &mut State, path: &Path) -> Result<(), CacheError> {
    let file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            *state = State::empty();
            return Ok(());
        }
        Err(e) => return Err(e.into()),
    };
    let mut reader = FrameReader::new(file, 0, REPLAY_CHUNK);
    if !reader.take_magic()? {
        *state = State::empty();
        return Ok(());
    }
    let mut replay = Replay::empty();
    let good_len = replay.replay(&mut reader)?;
    *state = replay.into_state(good_len);
    Ok(())
}

/// Brings `state` up to date with the file before a mutation.  Same
/// length and source ⇒ already synced; a grown journal gets a cheap tail
/// replay from the synced offset; anything else (shrunk, replaced, not a
/// journal) gets a full re-read.
fn resync(state: &mut State, path: &Path) -> Result<(), CacheError> {
    let file_len = match std::fs::metadata(path) {
        Ok(meta) => meta.len(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            *state = State::empty();
            return Ok(());
        }
        Err(e) => return Err(e.into()),
    };
    if state.source == StoreFormat::Journal && file_len == state.synced_len {
        return Ok(());
    }
    if state.source == StoreFormat::Journal && file_len > state.synced_len {
        // The journal grew (another handle appended): replay just the
        // tail, reading nothing before the synced offset but the magic.
        // Frame boundaries are stable because every writer appends at its
        // synced offset under the same path lock.
        let mut file = std::fs::File::open(path)?;
        let mut magic = [0u8; JOURNAL_MAGIC.len()];
        if file.read_exact(&mut magic).is_ok() && &magic == JOURNAL_MAGIC {
            file.seek(SeekFrom::Start(state.synced_len))?;
            let mut reader = FrameReader::new(file, state.synced_len, REPLAY_CHUNK);
            let mut replay = Replay::resume(state);
            return match replay.replay(&mut reader) {
                Ok(good_len) => {
                    *state = replay.into_state(good_len);
                    Ok(())
                }
                Err(e) => {
                    // The entries went into the failed replay: forget
                    // them, so the next mutation re-reads the whole file.
                    *state = State::empty();
                    Err(e.into())
                }
            };
        }
    }
    read_into(state, path)
}

/// Appends `bytes` at `offset`, truncating any torn tail past it first,
/// and fsyncs — the append half of crash-safe persistence (a crash
/// mid-append leaves a torn tail the next replay skips and the next
/// append truncates).
fn append_durable(path: &Path, offset: u64, bytes: &[u8]) -> Result<(), CacheError> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    let mut file = file;
    if file.metadata()?.len() != offset {
        file.set_len(offset)?;
    }
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(())
}

/// Serializes the state's entries as a fresh journal — one segment per
/// key, one record per live path — and atomically, durably swaps it in.
/// This is both the compaction path and the replace-the-file path.
fn rewrite(state: &mut State, path: &Path) -> Result<(), CacheError> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(JOURNAL_MAGIC);
    let mut records = 0;
    let mut last_key = None;
    for (key, trie) in &state.entries {
        push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(key));
        trie.for_each_path(|input, output, terminal| {
            push_frame(
                &mut bytes,
                FRAME_RECORD,
                &encode_record(input, output, terminal),
            );
            records += 1;
        });
        last_key = Some(key.clone());
    }
    atomic_write_durable(path, &bytes)?;
    state.synced_len = bytes.len() as u64;
    state.record_frames = records;
    state.last_header_key = last_key;
    state.source = StoreFormat::Journal;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::alphabet::Alphabet;
    use proptest::prelude::*;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "prognosis-journal-test-{}-{name}",
            std::process::id()
        ))
    }

    fn key(alphabet: &Alphabet) -> StoreKey {
        StoreKey::new("sul-1", "", alphabet)
    }

    fn sample_trie() -> PrefixTrie {
        let mut trie = PrefixTrie::new();
        trie.insert(
            &InputWord::from_symbols(["a", "b"]),
            &OutputWord::from_symbols(["1", "2"]),
        );
        trie.mark_terminal(&InputWord::from_symbols(["a", "b"]));
        trie
    }

    #[test]
    fn save_and_reload_round_trips_the_trie() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let bigger = Alphabet::from_symbols(["a", "b", "c"]);
        // Each later key differs from the first on exactly one axis: SUL
        // id, implementation version ("" vs "v2"), alphabet.
        let keys = [
            key(&alphabet),
            StoreKey::new("sul-2", "", &alphabet),
            StoreKey::new("sul-1", "v2", &alphabet),
            key(&bigger),
        ];
        let path = tmp_path("roundtrip.journal");
        for saved in &keys {
            std::fs::remove_file(&path).ok();
            JournalStore::save_merged_at(&path, saved, &sample_trie(), RetainPolicy::OnlyThisKey)
                .unwrap();
            // Only the exact key hits, through both read paths.
            for probe in &keys {
                let hit = probe == saved;
                let loaded = JournalStore::load_matching(&path, probe);
                assert_eq!(
                    loaded.is_some(),
                    hit,
                    "load_matching {probe:?} after {saved:?}"
                );
                let (warm, _checkout) = JournalStore::open(&path)
                    .unwrap()
                    .checkout(probe.clone(), true);
                let expected = if hit {
                    sample_trie()
                } else {
                    PrefixTrie::new()
                };
                assert_eq!(
                    warm.paths(),
                    expected.paths(),
                    "checkout {probe:?} after {saved:?}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn covered_saves_write_nothing() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("covered.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        let store = JournalStore::open_or_empty(&path);
        store
            .save_merged(&k, &sample_trie(), RetainPolicy::OnlyThisKey)
            .unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        store
            .save_merged(&k, &sample_trie(), RetainPolicy::OnlyThisKey)
            .unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len,
            "a fully covered save must append no bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deltas_append_instead_of_rewriting() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("delta.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        let store = JournalStore::open_or_empty(&path);
        store
            .save_merged(&k, &sample_trie(), RetainPolicy::All)
            .unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let mut grown = sample_trie();
        grown.insert(
            &InputWord::from_symbols(["b"]),
            &OutputWord::from_symbols(["9"]),
        );
        grown.mark_terminal(&InputWord::from_symbols(["b"]));
        store.save_merged(&k, &grown, RetainPolicy::All).unwrap();
        let grown_len = std::fs::metadata(&path).unwrap().len();
        assert!(grown_len > len, "a fresh path must append");
        // The append was a delta: no second segment header, one record.
        let reread = JournalStore::open(&path).unwrap();
        assert_eq!(
            reread.snapshot(&k).unwrap().paths(),
            grown.paths(),
            "the reread store must replay to the merged trie"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn key_mismatch_with_only_this_key_replaces_the_file() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let bigger = Alphabet::from_symbols(["a", "b", "c"]);
        let path = tmp_path("replace.journal");
        std::fs::remove_file(&path).ok();
        let k1 = key(&alphabet);
        let k2 = key(&bigger);
        JournalStore::save_merged_at(&path, &k1, &sample_trie(), RetainPolicy::OnlyThisKey)
            .unwrap();
        JournalStore::save_merged_at(&path, &k2, &sample_trie(), RetainPolicy::OnlyThisKey)
            .unwrap();
        assert!(JournalStore::load_matching(&path, &k1).is_none());
        assert!(JournalStore::load_matching(&path, &k2).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retain_all_keeps_keys_side_by_side() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("retain-all.journal");
        std::fs::remove_file(&path).ok();
        let k1 = StoreKey::new("sul-1", "v1", &alphabet);
        let k2 = StoreKey::new("sul-1", "v2", &alphabet);
        let mut other = PrefixTrie::new();
        other.insert(
            &InputWord::from_symbols(["b"]),
            &OutputWord::from_symbols(["3"]),
        );
        other.mark_terminal(&InputWord::from_symbols(["b"]));
        // Either write order replays the same entries.
        let mut replays = Vec::new();
        for order in [
            [(&k1, sample_trie()), (&k2, other.clone())],
            [(&k2, other), (&k1, sample_trie())],
        ] {
            std::fs::remove_file(&path).ok();
            for (k, trie) in &order {
                JournalStore::save_merged_at(&path, k, trie, RetainPolicy::All).unwrap();
            }
            let entries = JournalStore::open(&path).unwrap().snapshot_entries();
            assert_eq!(entries.len(), 2);
            replays.push(
                entries
                    .into_iter()
                    .map(|(k, trie)| (k, trie.paths()))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(replays[0], replays[1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn contradictory_existing_entry_is_replaced_wholesale() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("contradiction.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        JournalStore::save_merged_at(&path, &k, &sample_trie(), RetainPolicy::All).unwrap();
        let mut live = PrefixTrie::new();
        live.insert(
            &InputWord::from_symbols(["a", "b"]),
            &OutputWord::from_symbols(["9", "2"]),
        );
        live.mark_terminal(&InputWord::from_symbols(["a", "b"]));
        JournalStore::save_merged_at(&path, &k, &live, RetainPolicy::All).unwrap();
        let loaded = JournalStore::load_matching(&path, &k).unwrap();
        assert_eq!(
            loaded.lookup(&InputWord::from_symbols(["a", "b"])),
            Some(OutputWord::from_symbols(["9", "2"]))
        );
        assert_eq!(loaded.terminal_words(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn files_without_the_magic_open_empty_and_are_replaced() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let k = key(&alphabet);
        let path = tmp_path("no-magic.journal");
        // An older JSON cache holding this very key, and plain noise.
        let json = format!(
            r#"{{"version":2,"sul_id":"sul-1","impl_version":"","alphabet":["a","b"],"alphabet_hash":{},"trie":[[["a","b"],["1","2"],true]]}}"#,
            k.alphabet_hash()
        );
        let noise: Vec<u8> = (0u32..200)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8)
            .collect();
        for bytes in [json.into_bytes(), noise] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                JournalStore::verify(&path),
                Err(CacheError::Format(_))
            ));
            let store = JournalStore::open(&path).unwrap();
            assert_eq!(store.format(), StoreFormat::Absent);
            assert!(store.snapshot_entries().is_empty());
            assert!(JournalStore::load_matching(&path, &k).is_none());
            // Pure reads leave the file alone; the first write replaces it.
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
            store
                .save_merged(&k, &sample_trie(), RetainPolicy::All)
                .unwrap();
            assert!(std::fs::read(&path).unwrap().starts_with(JOURNAL_MAGIC));
            assert!(JournalStore::verify(&path).unwrap().is_clean());
            let loaded = JournalStore::load_matching(&path, &k).unwrap();
            assert_eq!(loaded.paths(), sample_trie().paths());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_shrinks_and_replays_identically() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("compact.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        let store = JournalStore::open_or_empty(&path);
        // Grow one un-terminal word a symbol at a time: each round's
        // record (the trie's single maximal leaf path) supersedes the
        // previous round's shorter one, so the journal accumulates dead
        // frames while exactly one path stays live.
        let symbols: Vec<String> = (0..40).map(|i| ["a", "b"][i % 2].to_string()).collect();
        let mut trie = PrefixTrie::new();
        for n in 1..=symbols.len() {
            let input = InputWord::from_symbols(symbols[..n].iter().cloned());
            let output = OutputWord::from_symbols((0..n).map(|i| format!("o{i}")));
            trie.insert(&input, &output);
            store.save_merged(&k, &trie, RetainPolicy::All).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let outcome = store.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(
            after < before,
            "compaction must shrink ({before} -> {after})"
        );
        assert_eq!(outcome.after_bytes, after);
        assert!(outcome.after_records < outcome.before_records);
        let replayed = JournalStore::load_matching(&path, &k).unwrap();
        assert_eq!(
            replayed.paths(),
            trie.paths(),
            "the compacted store must replay to the identical trie"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_reports_clean_stores_and_torn_tails() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("verify.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        JournalStore::save_merged_at(&path, &k, &sample_trie(), RetainPolicy::All).unwrap();
        assert!(JournalStore::verify(&path).unwrap().is_clean());
        // Torn tail: chop bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let report = JournalStore::verify(&path).unwrap();
        assert!(!report.is_clean());
        assert!(report.torn_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    /// What two replays must agree on: entries, synced length, record
    /// frames, contradictions and the last header's key.
    type ReplaySummary = (
        Vec<(StoreKey, Vec<(InputWord, OutputWord, bool)>)>,
        u64,
        usize,
        usize,
        Option<StoreKey>,
    );

    /// Replays `bytes` (a whole journal file) through a reader of `chunk`
    /// bytes, as [`read_into`] does with [`REPLAY_CHUNK`].
    fn replay_bytes(bytes: &[u8], chunk: usize) -> ReplaySummary {
        let mut reader = FrameReader::new(bytes, 0, chunk);
        assert!(reader.take_magic().unwrap());
        let mut replay = Replay::empty();
        let good_len = replay.replay(&mut reader).unwrap();
        let contradictions = replay.contradictions;
        let state = replay.into_state(good_len);
        (
            state
                .entries
                .iter()
                .map(|(key, trie)| (key.clone(), trie.paths()))
                .collect(),
            state.synced_len,
            state.record_frames,
            contradictions,
            state.last_header_key,
        )
    }

    /// One generated frame: kind 0 is a segment header (for the key its
    /// step count selects), anything else a record of `(input, output)`
    /// spelling picks with a terminal flag.
    type FrameSpec = (u8, Vec<(u8, u8)>, bool);

    /// A journal opening with `keys[0]`'s header, then headers for `keys`
    /// and records over three input spellings with two outputs, so records
    /// under one key often contradict each other.
    fn journal_bytes(frames: &[FrameSpec], keys: &[StoreKey]) -> Vec<u8> {
        let spell = |i: u8| Symbol::new(["a", "b", "ñ"][i as usize % 3]);
        let mut bytes = JOURNAL_MAGIC.to_vec();
        push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(&keys[0]));
        for (kind, steps, terminal) in frames {
            if *kind == 0 {
                let key = &keys[steps.len() % keys.len()];
                push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(key));
            } else {
                let input: Vec<Symbol> = steps.iter().map(|&(i, _)| spell(i)).collect();
                let output: Vec<Symbol> = steps.iter().map(|&(_, o)| spell(o % 2)).collect();
                push_frame(
                    &mut bytes,
                    FRAME_RECORD,
                    &encode_record(&input, &output, *terminal),
                );
            }
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Streaming replay is chunk-size independent: any buffer size down
        // to one byte, with frames straddling every boundary, replays the
        // same entries, synced length, record count, contradictions and
        // last header as one buffer holding the whole file — with or
        // without a torn or garbage tail.
        #[test]
        fn streaming_replay_matches_a_single_buffer_replay(
            frames in prop::collection::vec(
                (0u8..4, prop::collection::vec((0u8..3, 0u8..2), 0..6), any::<bool>()),
                0..40,
            ),
            cut in 0u64..=10_000,
            junk in prop::collection::vec(any::<u8>(), 0..8),
            chunk in 1usize..64,
        ) {
            let alphabet = Alphabet::from_symbols(["a", "b"]);
            let keys = [key(&alphabet), StoreKey::new("sul-2", "v2", &alphabet)];
            let mut bytes = journal_bytes(&frames, &keys);
            let body = (bytes.len() - JOURNAL_MAGIC.len()) as u64;
            bytes.truncate(JOURNAL_MAGIC.len() + (cut * body / 10_000) as usize);
            bytes.extend_from_slice(&junk);
            let whole = replay_bytes(&bytes, bytes.len());
            for size in [1, chunk, REPLAY_CHUNK] {
                prop_assert_eq!(&replay_bytes(&bytes, size), &whole);
            }
        }
    }

    #[test]
    fn varints_round_trip() {
        for value in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, value);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), Some(value));
            assert_eq!(pos, out.len());
        }
    }
}
