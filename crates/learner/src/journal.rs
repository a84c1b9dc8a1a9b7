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
//! magic  "PGNJRNL2"                                  (8 bytes)
//! frame* := tag (1 byte) | payload_len varint | payload | fnv32 (4 bytes LE)
//!
//! tag 0x04  generation — payload: u64 LE.  A rewrite's first frame, and
//!           only valid there: the stamp re-syncing handles compare.
//! tag 0x01  segment header — payload:
//!     sul_id        varint len | bytes
//!     impl_version  varint len | bytes
//!     alphabet_hash u64 LE
//!     symbol_count  varint, then per symbol: varint len | bytes
//! tag 0x03  checkpoint — payload (the most recent segment header's whole
//!           entry, replacing whatever replay held for it):
//!     input_count   varint, then per input symbol:  varint len | bytes
//!     output_count  varint, then per output symbol: varint len | bytes
//!     node_count    varint, then the trie's nodes in preorder:
//!         root        varint (child_count << 1 | terminal)
//!         other node  input index varint | output index varint |
//!                     varint (child_count << 1 | terminal)
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
//! A checkpoint lists symbols in string order and each node's children in
//! string order of their inputs, so its bytes depend only on the entry's
//! observations, and replay rebuilds the trie in one bulk arena fill
//! instead of re-walking spelled paths.  A checkpoint whose symbol lists or
//! sibling inputs are not strictly ascending (every writer sorts them, and
//! the order makes each check `O(1)`, so replay stays linear in the
//! payload), whose indices fall outside its symbol lists, or whose node
//! count or child counts do not match its nodes ends the replay at that
//! frame, as a torn tail does.
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
//! # Checkpoints and the record tail
//!
//! A rewrite writes the generation frame, then per key a segment header
//! and one checkpoint.  Saves after it append record frames — the *tail*
//! — holding only paths the store does not cover yet.  Once the tail's
//! bytes would exceed the checkpoints' bytes, the save rewrites the store
//! instead of appending, through the same fsync-then-rename dance every
//! durable write in this crate uses.  A replay therefore reads at most
//! about twice the checkpoints, and rewrites cost amortised `O(1)` per
//! appended byte.  [`JournalStore::compact`] forces a rewrite.
//!
//! A `PGNJRNL1` file from an older build holds only segment headers and
//! records, a subset of today's frames: it replays as a journal whose tail
//! is the whole file, so it still warm-starts, and the first save that
//! writes anything (or a compaction) rewrites it as `PGNJRNL2`.  Older
//! builds see a `PGNJRNL2` file as not a journal and start cold.
//!
//! # Concurrency and determinism
//!
//! All mutation happens under a per-path process-wide writer lock, and
//! every mutating call re-syncs from the file first, so many in-process
//! handles — one per campaign task — append deltas without a
//! load-merge-rewrite critical section and without losing each other's
//! observations.  Every rewrite stamps the next generation, and a handle
//! trusts its synced view only while the file carries the generation it
//! synced: same generation and length ⇒ synced, same generation and longer
//! ⇒ tail replay from the synced offset, anything else (another handle
//! rewrote or replaced the file, whatever its new length) ⇒ full replay.
//! Readers clone `Arc` snapshots; a warm snapshot is shared, never copied.
//! Replayed tries depend only on file content, so warm-started learns stay
//! bit-identical to cold ones.
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
//! the file moved meanwhile (another handle appended or rewrote it), the
//! commit re-reads it and merges like `save_merged`, so concurrent runs
//! still leave the union of their observations.
//!
//! # Files that are not journals
//!
//! A file that does not open with the magic bytes — an older JSON cache,
//! a truncated write, random bytes — opens as an empty store, and the
//! first write replaces it with a journal: a cache only ever accelerates
//! a run.  [`JournalStore::verify`] reports such a file as an error.

use crate::cache::{atomic_write_durable, hold_path_lock, path_write_lock, CacheError, StoreKey};
use crate::trie::{PathCoverage, PrefixTrie, PreorderFill, PreorderNode, TrieMark};
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::interner::{Interner, SymbolId};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic bytes opening every journal file this build writes; the
/// trailing digit is the journal format version.
pub const JOURNAL_MAGIC: &[u8; 8] = b"PGNJRNL2";

/// Magic of the first format, whose frames (segment headers and records)
/// are a subset of today's: such a file still replays.
const JOURNAL_MAGIC_V1: &[u8; 8] = b"PGNJRNL1";

/// Frame tag: a segment header carrying a [`StoreKey`].
const FRAME_SEGMENT: u8 = 0x01;
/// Frame tag: one `(input, output, terminal)` observation path.
const FRAME_RECORD: u8 = 0x02;
/// Frame tag: one key's whole trie as preorder nodes.
const FRAME_CHECKPOINT: u8 = 0x03;
/// Frame tag: the generation stamp opening a rewritten file.
const FRAME_GENERATION: u8 = 0x04;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 (same function the cache key uses for alphabets).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = [FNV_OFFSET];
    fnv1a_lanes(&mut hash, [bytes]);
    hash[0]
}

/// Continues the FNV-1a-64 `hashes` over their equally long `lanes` in
/// one interleaved loop: each hash is a serial multiply chain, and
/// independent chains overlap in the CPU.
#[inline]
fn fnv1a_lanes<const N: usize>(hashes: &mut [u64; N], lanes: [&[u8]; N]) {
    let len = lanes.first().map_or(0, |lane| lane.len());
    let lanes = lanes.map(|lane| &lane[..len]);
    for i in 0..len {
        for (hash, lane) in hashes.iter_mut().zip(&lanes) {
            *hash = (*hash ^ u64::from(lane[i])).wrapping_mul(FNV_PRIME);
        }
    }
}

/// The per-frame checksum: FNV-1a-64 truncated to its low 32 bits.
fn frame_checksum(payload: &[u8]) -> u32 {
    fnv1a(payload) as u32
}

/// The [`frame_checksum`]s of four payloads, interleaved: all four
/// chains run over the shortest payload's length, the three longest over
/// the next one's, and so on.
fn frame_checksums(payloads: [&[u8]; 4]) -> [u32; 4] {
    let mut order = [0, 1, 2, 3];
    order.sort_by_key(|&lane| payloads[lane].len());
    let [a, b, c, d] = order.map(|lane| payloads[lane]);
    let mut h4 = [FNV_OFFSET; 4];
    fnv1a_lanes(&mut h4, [a, &b[..a.len()], &c[..a.len()], &d[..a.len()]]);
    let mut h3 = [h4[1], h4[2], h4[3]];
    fnv1a_lanes(
        &mut h3,
        [&b[a.len()..], &c[a.len()..b.len()], &d[a.len()..b.len()]],
    );
    let mut h2 = [h3[1], h3[2]];
    fnv1a_lanes(&mut h2, [&c[b.len()..], &d[b.len()..c.len()]]);
    let mut h1 = [h2[1]];
    fnv1a_lanes(&mut h1, [&d[c.len()..]]);
    let by_length = [h4[0], h3[0], h2[0], h1[0]];
    let mut sums = [0; 4];
    for (hash, lane) in by_length.into_iter().zip(order) {
        sums[lane] = hash as u32;
    }
    sums
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

/// Reads an unsigned LEB128 varint at `pos`, moving `pos` past it.
/// Nearly every varint a journal holds is a single byte below `0x80`
/// (node fields, spelling lengths), so that case returns before the loop.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let byte = *bytes.get(*pos)?;
    if byte < 0x80 {
        *pos += 1;
        return Some(u64::from(byte));
    }
    read_varint_loop(bytes, pos)
}

/// The general case of [`read_varint`]: seven bits a byte, low bits first.
/// An overlong encoding decodes to its value; a tenth byte contributes
/// only its lowest bit, and an eleventh ends the read with `None`.
fn read_varint_loop(bytes: &[u8], pos: &mut usize) -> Option<u64> {
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
    push_frame_with(out, tag, |out| out.extend_from_slice(payload));
}

/// Appends a frame whose payload `write` appends to `out` itself, so a
/// large payload is built in place instead of in a buffer of its own.
fn push_frame_with(out: &mut Vec<u8>, tag: u8, write: impl FnOnce(&mut Vec<u8>)) {
    let frame = out.len();
    out.resize(frame + FRAME_HEAD_MAX, 0);
    write(out);
    let payload_len = out.len() - frame - FRAME_HEAD_MAX;
    let mut head = Vec::with_capacity(FRAME_HEAD_MAX);
    head.push(tag);
    write_varint(&mut head, payload_len as u64);
    // Close the gap the widest head would have needed.
    out.copy_within(frame + FRAME_HEAD_MAX.., frame + head.len());
    out[frame..frame + head.len()].copy_from_slice(&head);
    out.truncate(frame + head.len() + payload_len);
    let checksum = frame_checksum(&out[frame + head.len()..]);
    out.extend_from_slice(&checksum.to_le_bytes());
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
struct Spellings {
    index: HashMap<Box<[u8]>, u32>,
    symbols: Vec<Symbol>,
    /// A direct-mapped cache in front of `index`: the spelling last found
    /// in each slot (`u32::MAX` for none).  A record tail spells the same
    /// few symbols over and over, and a hit costs one word mix and one
    /// byte comparison instead of a SipHash lookup.  A miss falls back to
    /// `index`, so a file crafted to collide costs no more than before.
    recent: [u32; RECENT_SLOTS],
}

/// Slots of [`Spellings::recent`], a power of two.
const RECENT_SLOTS: usize = 64;

impl Default for Spellings {
    fn default() -> Self {
        Spellings {
            index: HashMap::new(),
            symbols: Vec::new(),
            recent: [u32::MAX; RECENT_SLOTS],
        }
    }
}

/// The [`Spellings::recent`] slot of `bytes`: a multiplicative mix of
/// their length and first and last eight bytes (of all of them, when
/// fewer).
fn recent_slot(bytes: &[u8]) -> usize {
    let (head, tail) = match (bytes.first_chunk::<8>(), bytes.last_chunk::<8>()) {
        (Some(head), Some(tail)) => (u64::from_le_bytes(*head), u64::from_le_bytes(*tail)),
        _ => (bytes.iter().fold(0, |word, &b| word << 8 | u64::from(b)), 0),
    };
    let mixed =
        (head ^ tail.rotate_left(29) ^ bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - RECENT_SLOTS.trailing_zeros())) as usize
}

impl Spellings {
    /// The index of spelling `bytes`, or `None` when they are not UTF-8.
    fn index_of(&mut self, bytes: &[u8]) -> Option<u32> {
        let slot = recent_slot(bytes);
        let cached = self.recent[slot];
        if self
            .symbols
            .get(cached as usize)
            .is_some_and(|symbol| symbol.as_str().as_bytes() == bytes)
        {
            return Some(cached);
        }
        let index = match self.index.get(bytes) {
            Some(&index) => index,
            None => {
                let symbol = Symbol::new(std::str::from_utf8(bytes).ok()?);
                let index = self.symbols.len() as u32;
                self.symbols.push(symbol);
                self.index.insert(bytes.into(), index);
                index
            }
        };
        self.recent[slot] = index;
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

fn write_symbols<'a>(out: &mut Vec<u8>, symbols: impl ExactSizeIterator<Item = &'a Symbol>) {
    write_varint(out, symbols.len() as u64);
    for symbol in symbols {
        write_bytes(out, symbol.as_str().as_bytes());
    }
}

/// Appends a checkpoint payload holding all of `trie` to `payload`.
fn write_checkpoint(payload: &mut Vec<u8>, trie: &PrefixTrie) {
    write_symbols(payload, trie.input_symbols());
    write_symbols(payload, trie.output_symbols());
    write_varint(payload, trie.num_nodes() as u64);
    trie.for_each_node_preorder(|node| {
        if let Some((input, output)) = node.edge {
            write_varint(payload, input.into());
            write_varint(payload, output.into());
        }
        write_varint(
            payload,
            (node.children as u64) << 1 | u64::from(node.terminal),
        );
    });
}

/// A little over the bytes a rewrite spends on `trie`'s segment: its
/// checkpoint takes about three bytes a node over small alphabets, plus
/// its symbols and the segment header.
fn checkpoint_size_hint(trie: &Arc<PrefixTrie>) -> usize {
    let symbols: usize = (trie.input_symbols().map(|s| s.as_str().len() + 1))
        .chain(trie.output_symbols().map(|s| s.as_str().len() + 1))
        .sum();
    4 * trie.num_nodes() + symbols + 256
}

/// Reads a checkpoint's symbol list straight from the replay's spellings
/// into an interner of its own, so list index `i` is symbol id `i`.
/// `None` when the list is malformed or names a symbol twice; the order
/// is [`PreorderFill::new`]'s to check.
fn read_symbols(payload: &[u8], pos: &mut usize, spellings: &mut Spellings) -> Option<Interner> {
    let count = read_varint(payload, pos)?;
    let mut interner = Interner::new();
    for index in 0..count {
        let spelling = spellings.index_of(read_bytes(payload, pos)?)?;
        let id = interner.intern(&spellings.symbols[spelling as usize]);
        if id.index() as u64 != index {
            return None;
        }
    }
    Some(interner)
}

fn read_u32(payload: &[u8], pos: &mut usize) -> Option<u32> {
    u32::try_from(read_varint(payload, pos)?).ok()
}

/// Decodes a checkpoint payload into its trie, or `None` when it is
/// malformed: see [`PreorderFill`] for what a node stream must satisfy.
fn decode_checkpoint(payload: &[u8], spellings: &mut Spellings) -> Option<PrefixTrie> {
    let mut pos = 0;
    let inputs = read_symbols(payload, &mut pos, spellings)?;
    let outputs = read_symbols(payload, &mut pos, spellings)?;
    let count = read_varint(payload, &mut pos)?;
    // Every node takes at least one byte, so the payload bounds the arena
    // whatever the count claims, and a corrupt count ends the loop at the
    // payload's end.
    let max_nodes = usize::try_from(count).ok()?.min(payload.len() - pos);
    let mut fill = PreorderFill::new(inputs, outputs, max_nodes).ok()?;
    for index in 0..count {
        let edge = match index {
            0 => None,
            _ => Some((read_u32(payload, &mut pos)?, read_u32(payload, &mut pos)?)),
        };
        let flags = read_varint(payload, &mut pos)?;
        fill.push(PreorderNode {
            edge,
            terminal: flags & 1 == 1,
            children: usize::try_from(flags >> 1).ok()?,
        })
        .ok()?;
    }
    let trie = fill.finish().ok()?;
    (pos == payload.len()).then_some(trie)
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
    /// The frames from `start` up to here passed their checksums.
    checked: usize,
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
            checked: 0,
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
                self.checked = self.checked.saturating_sub(self.start);
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

    /// Whether the stream starts with a journal magic, [`JOURNAL_MAGIC`]
    /// or the first format's; consumes it if so.
    fn take_magic(&mut self) -> std::io::Result<bool> {
        let head = self.fill(JOURNAL_MAGIC.len())?;
        let found = head.starts_with(JOURNAL_MAGIC) || head.starts_with(JOURNAL_MAGIC_V1);
        if found {
            self.consume(JOURNAL_MAGIC.len());
        }
        Ok(found)
    }

    /// The next frame as `(tag, payload, frame length)`, without consuming
    /// it; `None` at the end of the stream and at a frame that is short,
    /// has an unreadable length or fails its checksum.
    fn next_frame(&mut self) -> std::io::Result<Option<(u8, &[u8], usize)>> {
        let head = self.fill(FRAME_HEAD_MAX)?;
        let Some(&tag) = head.first() else {
            return Ok(None);
        };
        let mut pos = 1;
        let Some(frame_len) = read_varint(head, &mut pos)
            .and_then(|len| usize::try_from(len).ok())
            .and_then(|len| len.checked_add(pos + 4))
        else {
            return Ok(None);
        };
        if self.fill(frame_len)?.len() < frame_len {
            return Ok(None);
        }
        if self.start + frame_len > self.checked {
            self.check_ahead();
            if self.start + frame_len > self.checked {
                return Ok(None);
            }
        }
        let payload = &self.buf[self.start + pos..self.start + frame_len - 4];
        Ok(Some((tag, payload, frame_len)))
    }

    /// Checks the next four frames the buffer holds whole, the first of
    /// which must be, in one interleaved pass, and moves `checked` past
    /// those that pass up to the first that fails.  A replay reads a
    /// record tail as thousands of small frames, so the frames' checksum
    /// chains overlap instead of running one after another.
    fn check_ahead(&mut self) {
        let buffered = &self.buf[..self.end];
        // `(payload start, payload end, stored checksum)` of each frame.
        let mut frames = [(0, 0, 0); 4];
        let mut count = 0;
        let mut at = self.start;
        for frame in &mut frames {
            let mut pos = at + 1;
            let Some(frame_end) = read_varint(buffered, &mut pos)
                .and_then(|len| usize::try_from(len).ok())
                .and_then(|len| len.checked_add(pos + 4))
                .filter(|&end| end <= buffered.len())
            else {
                break;
            };
            let stored = buffered[frame_end - 4..frame_end]
                .try_into()
                .expect("4 bytes");
            *frame = (pos, frame_end - 4, u32::from_le_bytes(stored));
            at = frame_end;
            count += 1;
        }
        let sums = frame_checksums(frames.map(|(start, end, _)| &buffered[start..end]));
        for ((_, end, stored), sum) in frames.into_iter().zip(sums).take(count) {
            if sum != stored {
                break;
            }
            self.checked = end + 4;
        }
    }

    /// How many bytes are left in the stream, reading through them.
    fn count_remaining(mut self) -> std::io::Result<u64> {
        let buffered = (self.end - self.start) as u64;
        Ok(buffered + std::io::copy(&mut self.source, &mut std::io::sink())?)
    }
}

/// One key's replay target: its trie — created by the key's first record,
/// so a header without records leaves no entry — the memos resolving
/// spelling indices to this trie's symbol ids, and the trie path of the
/// segment's last record.
struct Segment {
    key: StoreKey,
    trie: Option<Arc<PrefixTrie>>,
    input_ids: Vec<Option<SymbolId>>,
    output_ids: Vec<Option<SymbolId>>,
    /// The nodes the last record walked (see
    /// [`PrefixTrie::apply_path_ids_along`]): records are written in path
    /// order, so the next one mostly starts down the same path.
    path: Vec<u32>,
}

/// Replay state: the decoded entries plus enough context to continue
/// replaying appended frames later (tail replay).
struct Replay {
    segments: Vec<Segment>,
    by_key: BTreeMap<StoreKey, usize>,
    /// Segment of the most recent header, resolved once per header.
    current: Option<usize>,
    layout: Layout,
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
            layout: Layout::empty(),
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
        replay.layout = state.layout;
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
            path: Vec::new(),
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
            let Some((tag, payload, frame_len)) = reader.next_frame()? else {
                return Ok(frame_start);
            };
            let frame_end = frame_start + frame_len as u64;
            let applied = match tag {
                FRAME_SEGMENT => self.apply_header(payload),
                FRAME_RECORD => self.apply_record(payload),
                FRAME_CHECKPOINT => self.apply_checkpoint(payload, frame_start, frame_end),
                FRAME_GENERATION if frame_start == JOURNAL_MAGIC.len() as u64 => {
                    self.apply_generation(payload, frame_end)
                }
                _ => false,
            };
            if !applied {
                return Ok(frame_start);
            }
            reader.consume(frame_len);
        }
    }

    fn apply_generation(&mut self, payload: &[u8], frame_end: u64) -> bool {
        match decode_generation(payload) {
            Some(generation) => {
                self.layout.generation = generation;
                self.layout.tail_start = frame_end;
                true
            }
            None => false,
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

    fn apply_checkpoint(&mut self, payload: &[u8], frame_start: u64, frame_end: u64) -> bool {
        let Some(current) = self.current else {
            return false;
        };
        let Some(trie) = decode_checkpoint(payload, &mut self.spellings) else {
            return false;
        };
        let segment = &mut self.segments[current];
        segment.trie = Some(Arc::new(trie));
        // The memos and the path held the replaced trie's ids.
        segment.input_ids.clear();
        segment.output_ids.clear();
        segment.path.clear();
        let layout = &mut self.layout;
        layout.checkpoint_bytes += frame_end - frame_start;
        layout.tail_start = frame_end;
        layout.tail_records = 0;
        true
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
        self.layout.tail_records += 1;
        let Segment {
            trie,
            input_ids,
            output_ids,
            path,
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
        match trie.apply_path_ids_along(&self.inputs, &self.outputs, terminal, path) {
            Ok((PathCoverage::Contradicts, _)) => self.contradictions += 1,
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
            layout: self.layout,
            last_header_key,
            source: StoreFormat::Journal,
        }
    }
}

fn decode_generation(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.try_into().ok()?))
}

/// Where a journal's checkpoints end and its record tail begins.
#[derive(Clone, Copy, Debug)]
struct Layout {
    /// The generation stamp of the rewrite that wrote the file (0 when it
    /// has none: a `PGNJRNL1` file, or one only ever appended to).
    generation: u64,
    /// Offset just past the last checkpoint (or the file's opening
    /// frames): the record tail runs from here to the synced length.
    tail_start: u64,
    /// Bytes of checkpoint frames — what the tail is weighed against.
    checkpoint_bytes: u64,
    /// Record frames in the tail, superseded ones included.
    tail_records: usize,
}

impl Layout {
    fn empty() -> Self {
        Layout {
            generation: 0,
            tail_start: JOURNAL_MAGIC.len() as u64,
            checkpoint_bytes: 0,
            tail_records: 0,
        }
    }
}

/// The store's synced view of its file.
struct State {
    entries: BTreeMap<StoreKey, Arc<PrefixTrie>>,
    /// File length the state reflects — the offset appends continue at
    /// (everything past it is a torn tail to truncate).
    synced_len: u64,
    layout: Layout,
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
            layout: Layout::empty(),
            last_header_key: None,
            source: StoreFormat::Absent,
        }
    }

    /// Bytes of the record tail.
    fn tail_bytes(&self) -> u64 {
        self.synced_len.saturating_sub(self.layout.tail_start)
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
    /// Bytes of checkpoint frames: what a replay decodes in bulk.
    pub checkpoint_bytes: u64,
    /// Bytes of the record tail after the last checkpoint; a save that
    /// would take it past `checkpoint_bytes` rewrites the store instead.
    pub tail_bytes: u64,
    /// Record frames in the tail, superseded ones included.
    pub tail_records: usize,
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
    /// Record frames in the tail before compaction.
    pub before_records: usize,
    /// Record frames in the tail after — 0: compaction folds every record
    /// into its key's checkpoint.
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
    /// Taking the mark is `O(1)`: it reads no node, and the trie logs the
    /// run's changes to the nodes it had, which only a commit that writes
    /// something reads.
    /// Without `warm` the run starts from an empty trie and the entry
    /// stays in the store.  Either way the run ends with
    /// [`Checkout::commit`] through the same handle.
    pub fn checkout(self, key: StoreKey, warm: bool) -> (PrefixTrie, Checkout) {
        let (trie, lineage) = if warm {
            let mut state = self.state.lock().expect("journal state poisoned");
            let entry = state.entries.remove(&key);
            let had_entry = entry.is_some();
            let mut trie = entry.map(Arc::unwrap_or_clone).unwrap_or_default();
            let lineage = Lineage {
                mark: trie.mark(),
                synced_len: state.synced_len,
                generation: state.layout.generation,
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
    /// absent or non-journal file is written out as a journal, and a delta
    /// that would make the record tail outweigh the checkpoints is folded
    /// into fresh checkpoints instead of appended.
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

    /// Rewrites the store as one checkpoint per key, whatever the tail
    /// weighs.  Returns the before/after sizes.
    pub fn compact(&self) -> Result<CompactOutcome, CacheError> {
        let lock = Arc::clone(&self.lock);
        let _guard = hold_path_lock(&lock);
        let mut state = self.state.lock().expect("journal state poisoned");
        resync(&mut state, &self.path)?;
        let before_bytes = state.synced_len;
        let before_records = state.layout.tail_records;
        rewrite(&mut state, &self.path)?;
        Ok(CompactOutcome {
            before_bytes,
            after_bytes: state.synced_len,
            before_records,
            after_records: state.layout.tail_records,
        })
    }

    /// Summarizes the store: format, checkpoint and tail sizes, per-entry
    /// path counts.
    pub fn stats(&self) -> JournalStats {
        let state = self.state.lock().expect("journal state poisoned");
        JournalStats {
            format: state.source,
            file_bytes: std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0),
            checkpoint_bytes: state.layout.checkpoint_bytes,
            tail_bytes: state.tail_bytes(),
            tail_records: state.layout.tail_records,
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
                "not a journal (no PGNJRNL2 or PGNJRNL1 magic)".into(),
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
    generation: u64,
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
    /// While the file is still exactly as the checkout saw it (the same
    /// generation stamp and length), the delta is
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
        let head = open_head(&store.path)?.map(|(_, len, generation)| (len, generation));
        // The checked-out key is no longer in `entries`: any entry left is
        // another key's.
        let drops_other_keys = retain == RetainPolicy::OnlyThisKey && !state.entries.is_empty();
        let in_place = state.source == StoreFormat::Journal
            && head == Some((lineage.synced_len, Some(lineage.generation)))
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
/// synced with the file: applies the live trie's paths to the stored entry
/// in one pass, writing a record frame per fresh path, then appends those
/// or, on the first contradicting path, rewrites the file around the live
/// trie.
fn merge_synced(
    state: &mut State,
    path: &Path,
    key: &StoreKey,
    trie: Cow<'_, PrefixTrie>,
    retain: RetainPolicy,
) -> Result<(), CacheError> {
    // Take the stored entry out while merging, so growing it copies
    // nothing unless a caller still holds a snapshot of it.
    let mut entry = state.entries.remove(key);
    let had_entry = entry.is_some();
    let drops_other_keys =
        retain == RetainPolicy::OnlyThisKey && state.entries.keys().any(|k| k != key);
    let append = !drops_other_keys && state.source == StoreFormat::Journal;
    // A delta to append opens with a segment header when the file's
    // current segment is for a different key.
    let mut bytes = Vec::new();
    if append && state.last_header_key.as_ref() != Some(key) {
        push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(key));
    }
    let (mut records, mut contradicts) = (0, false);
    let mut note = |input: &[Symbol], output: &[Symbol], terminal, class| {
        let fresh = class == PathCoverage::Fresh;
        if fresh && append {
            let record = encode_record(input, output, terminal);
            push_frame(&mut bytes, FRAME_RECORD, &record);
        }
        records += usize::from(fresh);
        contradicts = class == PathCoverage::Contradicts;
        !contradicts
    };
    match entry.as_mut() {
        Some(entry) => Arc::make_mut(entry).apply_paths_of(&trie, &mut note),
        None if append => trie.for_each_path(|input, output, terminal| {
            note(input, output, terminal, PathCoverage::Fresh);
        }),
        None => {}
    }

    // No stored entry, or one that disagrees with what the SUL just
    // answered: the live trie becomes the entry, dropping a contradicting
    // one wholesale rather than persisting a mixture.
    let merged = match entry {
        Some(entry) if !contradicts => entry,
        _ => Arc::new(trie.into_owned()),
    };
    if contradicts || !append {
        if retain == RetainPolicy::OnlyThisKey {
            state.entries.clear();
        }
        state.entries.insert(key.clone(), merged);
        return rewrite(state, path);
    }
    if records == 0 && had_entry {
        state.entries.insert(key.clone(), merged);
        return Ok(()); // Fully covered: zero writes.
    }
    append_delta(state, path, key, merged, &bytes, records)
}

/// Records `merged` as `key`'s entry and persists `bytes`, a delta of
/// `records` record frames for it: appended, unless the record tail would
/// then outweigh the checkpoints — then the store is rewritten as fresh
/// checkpoints instead, so a replay never reads much more than twice the
/// checkpoints.
fn append_delta(
    state: &mut State,
    path: &Path,
    key: &StoreKey,
    merged: Arc<PrefixTrie>,
    bytes: &[u8],
    records: usize,
) -> Result<(), CacheError> {
    state.entries.insert(key.clone(), merged);
    if state.tail_bytes() + bytes.len() as u64 > state.layout.checkpoint_bytes {
        return rewrite(state, path);
    }
    if let Err(e) = append_durable(path, state.synced_len, bytes) {
        // What reached the file is unknown: drop the synced view so the
        // next mutation re-reads the file.
        *state = State::empty();
        return Err(e);
    }
    state.synced_len += bytes.len() as u64;
    state.layout.tail_records += records;
    state.last_header_key = Some(key.clone());
    Ok(())
}

/// Reads the file at `path` into `state` (full replay).  A missing file,
/// or one without the journal magic, leaves the state empty; the first
/// write then replaces the file.
fn read_into(state: &mut State, path: &Path) -> Result<(), CacheError> {
    match File::open(path) {
        Ok(file) => *state = read_journal(file)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => *state = State::empty(),
        Err(e) => return Err(e.into()),
    }
    Ok(())
}

/// Replays a whole journal from `source`; empty without the magic.
fn read_journal(source: impl Read) -> std::io::Result<State> {
    let mut reader = FrameReader::new(source, 0, REPLAY_CHUNK);
    if !reader.take_magic()? {
        return Ok(State::empty());
    }
    let mut replay = Replay::empty();
    let good_len = replay.replay(&mut reader)?;
    Ok(replay.into_state(good_len))
}

/// Bytes [`open_head`] reads: the magic and a generation frame.
const HEAD_CHUNK: usize = 32;

/// Opens the file at `path` and reads what tells whether a synced view
/// still describes it: its length and generation stamp (`None` without
/// the journal magic, 0 for a journal that does not open with a stamp).
/// `None` when there is no file.
fn open_head(path: &Path) -> Result<Option<(File, u64, Option<u64>)>, CacheError> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let len = file.metadata()?.len();
    let mut reader = FrameReader::new(&mut file, 0, HEAD_CHUNK);
    let generation = if reader.take_magic()? {
        Some(match reader.next_frame()? {
            Some((FRAME_GENERATION, payload, _)) => decode_generation(payload).unwrap_or(0),
            _ => 0,
        })
    } else {
        None
    };
    Ok(Some((file, len, generation)))
}

/// Brings `state` up to date with the file before a mutation.  The same
/// generation stamp and length ⇒ already synced; the same stamp and a
/// longer file ⇒ another handle appended, so a cheap tail replay from the
/// synced offset; anything else (rewritten or replaced whatever its new
/// length, shrunk, not a journal) ⇒ a full re-read.
fn resync(state: &mut State, path: &Path) -> Result<(), CacheError> {
    let Some((mut file, file_len, generation)) = open_head(path)? else {
        *state = State::empty();
        return Ok(());
    };
    let same_file =
        state.source == StoreFormat::Journal && generation == Some(state.layout.generation);
    if same_file && file_len == state.synced_len {
        return Ok(());
    }
    if same_file && file_len > state.synced_len {
        // Read nothing before the synced offset but the head.  Frame
        // boundaries are stable within a generation because every writer
        // appends at its synced offset under the same path lock.
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
    file.rewind()?;
    *state = read_journal(file)?;
    Ok(())
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

/// Serializes the state's entries as a fresh journal — the next
/// generation stamp, then per key a segment header and one checkpoint —
/// and atomically, durably swaps it in.  This is the compaction path, the
/// replace-the-file path and the heavy-tail path alike.
fn rewrite(state: &mut State, path: &Path) -> Result<(), CacheError> {
    let generation = state.layout.generation + 1;
    // One buffer sized up front for the whole file, the checkpoints
    // written into it in place.
    let size_hint: usize = state.entries.values().map(checkpoint_size_hint).sum();
    let mut bytes = Vec::with_capacity(size_hint);
    bytes.extend_from_slice(JOURNAL_MAGIC);
    push_frame(&mut bytes, FRAME_GENERATION, &generation.to_le_bytes());
    let mut checkpoint_bytes = 0;
    let mut last_key = None;
    for (key, trie) in &state.entries {
        push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(key));
        let start = bytes.len();
        push_frame_with(&mut bytes, FRAME_CHECKPOINT, |out| {
            write_checkpoint(out, trie)
        });
        checkpoint_bytes += (bytes.len() - start) as u64;
        last_key = Some(key.clone());
    }
    if let Err(e) = atomic_write_durable(path, &bytes) {
        // The entries may hold what never reached the file: re-read it
        // on the next mutation.
        *state = State::empty();
        return Err(e.into());
    }
    state.synced_len = bytes.len() as u64;
    state.layout = Layout {
        generation,
        tail_start: state.synced_len,
        checkpoint_bytes,
        tail_records: 0,
    };
    state.last_header_key = last_key;
    state.source = StoreFormat::Journal;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::alphabet::Alphabet;
    use prognosis_automata::word::{InputWord, OutputWord};
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

    #[test]
    fn interleaved_checksums_match_one_at_a_time() {
        let bytes: Vec<u8> = (0..600u32).map(|i| (i * 37 % 251) as u8).collect();
        for lengths in [
            [0, 0, 0, 0],
            [5, 0, 300, 17],
            [600, 599, 1, 64],
            [9, 9, 9, 9],
        ] {
            let payloads = lengths.map(|len| &bytes[600 - len..]);
            assert_eq!(frame_checksums(payloads), payloads.map(frame_checksum));
        }
    }

    #[test]
    fn spellings_resolve_through_their_front_cache() {
        let mut spellings = Spellings::default();
        // More spellings than cache slots, short and long, so slots are
        // shared and evicted.
        let words: Vec<String> = (0..3 * RECENT_SLOTS)
            .map(|i| "x".repeat(i % 11) + &i.to_string())
            .collect();
        let first: Vec<u32> = words
            .iter()
            .map(|w| spellings.index_of(w.as_bytes()).unwrap())
            .collect();
        assert_eq!(first, (0..words.len() as u32).collect::<Vec<_>>());
        for (word, &index) in words
            .iter()
            .zip(&first)
            .rev()
            .chain(words.iter().zip(&first))
        {
            assert_eq!(spellings.index_of(word.as_bytes()), Some(index));
            assert_eq!(spellings.symbols[index as usize].as_str(), word);
        }
        assert_eq!(spellings.index_of(&[0xff, 0xfe]), None);
        assert_eq!(spellings.symbols.len(), words.len());
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

        // Two paths the stored entry lacks, the ε query and a·a, come before
        // the contradicting a·b in path order: the merge has grown the
        // stored entry when it meets the contradiction.
        JournalStore::save_merged_at(&path, &k, &sample_trie(), RetainPolicy::OnlyThisKey).unwrap();
        let mut live = PrefixTrie::new();
        let words: [(&[&str], &[&str]); 3] = [
            (&[], &[]),
            (&["a", "a"], &["1", "5"]),
            (&["a", "b"], &["1", "9"]),
        ];
        for (input, output) in words {
            let input = InputWord::from_symbols(input.iter().copied());
            live.insert(&input, &OutputWord::from_symbols(output.iter().copied()));
            live.mark_terminal(&input);
        }
        let store = JournalStore::open(&path).unwrap();
        let before = store.snapshot(&k).unwrap();
        store.save_merged(&k, &live, RetainPolicy::All).unwrap();
        assert_eq!(before.paths(), sample_trie().paths());
        assert_eq!(store.snapshot(&k).unwrap().paths(), live.paths());
        let loaded = JournalStore::load_matching(&path, &k).unwrap();
        assert_eq!(loaded.paths(), live.paths());
        assert_eq!(loaded.num_nodes(), live.num_nodes());
        assert_eq!(loaded.terminal_words(), 3);
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

    /// What two replays must agree on: entries, synced length, tail
    /// start, checkpoint bytes, tail records, contradictions and the last
    /// header's key.
    type ReplaySummary = (
        Vec<(StoreKey, Vec<(InputWord, OutputWord, bool)>)>,
        (u64, u64, u64, usize),
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
            (
                state.synced_len,
                state.layout.tail_start,
                state.layout.checkpoint_bytes,
                state.layout.tail_records,
            ),
            contradictions,
            state.last_header_key,
        )
    }

    /// One generated frame: kind 0 is a segment header (for the key its
    /// step count selects), kind 1 a checkpoint of the trie holding its
    /// steps as one path, anything else a record of `(input, output)`
    /// spelling picks with a terminal flag.
    type FrameSpec = (u8, Vec<(u8, u8)>, bool);

    /// A journal opening with a generation stamp and `keys[0]`'s header,
    /// then headers for `keys`, checkpoints, and records over three input
    /// spellings with two outputs, so records under one key often
    /// contradict each other.
    fn journal_bytes(frames: &[FrameSpec], keys: &[StoreKey]) -> Vec<u8> {
        let spell = |i: u8| Symbol::new(["a", "b", "ñ"][i as usize % 3]);
        let mut bytes = JOURNAL_MAGIC.to_vec();
        push_frame(&mut bytes, FRAME_GENERATION, &7u64.to_le_bytes());
        push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(&keys[0]));
        for (kind, steps, terminal) in frames {
            if *kind == 0 {
                let key = &keys[steps.len() % keys.len()];
                push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(key));
            } else if *kind == 1 {
                let input: Vec<Symbol> = steps.iter().map(|&(i, _)| spell(i)).collect();
                let output: Vec<Symbol> = steps.iter().map(|&(_, o)| spell(o % 2)).collect();
                let mut trie = PrefixTrie::new();
                trie.apply_path(&input, &output, *terminal).unwrap();
                push_frame_with(&mut bytes, FRAME_CHECKPOINT, |out| {
                    write_checkpoint(out, &trie)
                });
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
                (0u8..5, prop::collection::vec((0u8..3, 0u8..2), 0..6), any::<bool>()),
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

    /// A store written in the first format (records only) replays as a
    /// journal whose tail is the whole file; its first rewrite yields a
    /// current-format file holding one checkpoint, no tail, and the same
    /// observations.
    #[test]
    fn a_v1_file_replays_and_its_first_rewrite_upgrades_it() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("v1-upgrade.journal");
        let k = key(&alphabet);
        let mut trie = sample_trie();
        trie.insert(
            &InputWord::from_symbols(["b", "a"]),
            &OutputWord::from_symbols(["9", "8"]),
        );
        let mut v1 = JOURNAL_MAGIC_V1.to_vec();
        push_frame(&mut v1, FRAME_SEGMENT, &encode_segment_header(&k));
        trie.for_each_path(|input, output, terminal| {
            push_frame(
                &mut v1,
                FRAME_RECORD,
                &encode_record(input, output, terminal),
            );
        });
        std::fs::write(&path, &v1).unwrap();
        assert!(JournalStore::verify(&path).unwrap().is_clean());
        let store = JournalStore::open(&path).unwrap();
        assert_eq!(store.snapshot(&k).unwrap().paths(), trie.paths());
        let stats = store.stats();
        assert_eq!(
            (stats.checkpoint_bytes, stats.tail_bytes, stats.tail_records),
            (0, (v1.len() - JOURNAL_MAGIC_V1.len()) as u64, 2)
        );

        let outcome = store.compact().unwrap();
        assert_eq!((outcome.before_records, outcome.after_records), (2, 0));
        let upgraded = std::fs::read(&path).unwrap();
        assert!(upgraded.starts_with(JOURNAL_MAGIC));
        let stats = JournalStore::open(&path).unwrap().stats();
        assert!(stats.checkpoint_bytes > 0);
        assert_eq!((stats.tail_bytes, stats.tail_records), (0, 0));
        assert_eq!(
            JournalStore::load_matching(&path, &k).unwrap().paths(),
            trie.paths()
        );
        assert!(JournalStore::verify(&path).unwrap().is_clean());
        std::fs::remove_file(&path).ok();
    }

    /// Saves append records while the tail stays lighter than the
    /// checkpoints, and fold them into a rewrite once it would not.
    #[test]
    fn a_tail_heavier_than_the_checkpoints_is_rewritten() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("tail-rule.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        let store = JournalStore::open_or_empty(&path);
        let mut trie = PrefixTrie::new();
        let mut appended = 0;
        for n in 0..64 {
            let word: Vec<&str> = (0..6).map(|i| ["a", "b"][(n >> i) & 1]).collect();
            let input = InputWord::from_symbols(word.iter().copied());
            let output = OutputWord::from_symbols(word.iter().map(|s| s.to_uppercase()));
            trie.insert(&input, &output);
            trie.mark_terminal(&input);
            let before = store.stats();
            store.save_merged(&k, &trie, RetainPolicy::All).unwrap();
            let after = store.stats();
            assert!(
                after.tail_bytes <= after.checkpoint_bytes,
                "a save never leaves the tail heavier than the checkpoints"
            );
            if after.tail_records > before.tail_records {
                appended += 1;
                assert_eq!(after.checkpoint_bytes, before.checkpoint_bytes);
            } else {
                assert_eq!((after.tail_bytes, after.tail_records), (0, 0));
            }
            assert_eq!(after.file_bytes, std::fs::metadata(&path).unwrap().len());
        }
        assert!(appended > 0, "some saves append");
        assert!(appended < 63, "some saves rewrite");
        assert_eq!(
            JournalStore::load_matching(&path, &k).unwrap().paths(),
            trie.paths()
        );
        std::fs::remove_file(&path).ok();
    }

    /// `read_varint` without its one-byte fast path: the loop it must
    /// read exactly like.
    fn read_varint_reference(bytes: &[u8], pos: &mut usize) -> Option<u64> {
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

    /// `value` as a varint of exactly `len` bytes (overlong when longer
    /// than needed), with `junk` or-ed into the last byte.
    fn varint_of_len(value: u64, len: usize, junk: u8) -> Vec<u8> {
        let mut bytes: Vec<u8> = (0..len)
            .map(|i| (value.checked_shr(7 * i as u32).unwrap_or(0) & 0x7f) as u8 | 0x80)
            .collect();
        bytes[len - 1] = bytes[len - 1] & 0x7f | junk;
        bytes
    }

    /// Encodings of `value`: canonical, overlong up to ten bytes, ten
    /// bytes with bits past the 64th set, and eleven bytes.
    fn varint_encodings(value: u64) -> Vec<Vec<u8>> {
        let mut canonical = Vec::new();
        write_varint(&mut canonical, value);
        let mut encodings = vec![canonical.clone()];
        encodings.extend((canonical.len() + 1..=11).map(|len| varint_of_len(value, len, 0)));
        encodings.push(varint_of_len(value, 10, 0x7e));
        encodings
    }

    #[test]
    fn the_one_byte_fast_path_reads_like_the_loop() {
        let check = |bytes: &[u8]| {
            for start in 0..=bytes.len() {
                let (mut fast, mut reference) = (start, start);
                assert_eq!(
                    (read_varint(bytes, &mut fast), fast),
                    (read_varint_reference(bytes, &mut reference), reference),
                    "{bytes:02x?} from {start}"
                );
            }
        };
        for first in 0..=u8::MAX {
            check(&[first]);
            for second in 0..=u8::MAX {
                check(&[first, second]);
            }
        }
        // Random inputs of up to 11 bytes, most bytes continuation bytes
        // so that long and over-long reads are common.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200_000 {
            let len = (next() % 12) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    let byte = next();
                    (byte >> 8) as u8 | if byte % 8 == 0 { 0 } else { 0x80 }
                })
                .collect();
            check(&bytes);
        }
        for value in [0, 1, 127, 128, 300, 1 << 35, u64::MAX >> 1, u64::MAX] {
            for encoding in varint_encodings(value) {
                check(&encoding);
            }
        }
    }

    /// For each varint field of a payload `build` writes (through the
    /// writer it is given, field by field), and each encoding of that
    /// field's value: `decode` must read the payload as it reads the
    /// canonical one when the reference loop reads the encoding as the
    /// value, and must fail when it fails.
    fn check_varint_fields<T: PartialEq + std::fmt::Debug>(
        build: impl Fn(&mut dyn FnMut(&mut Vec<u8>, u64)) -> Vec<u8>,
        decode: impl Fn(&[u8]) -> Option<T>,
    ) {
        let canonical = build(&mut |out, value| write_varint(out, value));
        let expected = decode(&canonical);
        assert!(expected.is_some(), "the canonical payload decodes");
        let mut fields = 0;
        build(&mut |_, _| fields += 1);
        for field in 0..fields {
            let mut value_of_field = 0;
            let mut seen = 0;
            build(&mut |_, value| {
                if seen == field {
                    value_of_field = value;
                }
                seen += 1;
            });
            for encoding in varint_encodings(value_of_field) {
                let mut seen = 0;
                let payload = build(&mut |out, value| {
                    if seen == field {
                        out.extend_from_slice(&encoding);
                    } else {
                        write_varint(out, value);
                    }
                    seen += 1;
                });
                let mut pos = 0;
                let read = read_varint_reference(&encoding, &mut pos);
                let want = if read == Some(value_of_field) && pos == encoding.len() {
                    &expected
                } else {
                    &None
                };
                assert_eq!(&decode(&payload), want, "field {field} as {encoding:02x?}");
            }
        }
    }

    #[test]
    fn record_and_checkpoint_decoders_read_varints_like_the_loop() {
        let spelled = |out: &mut Vec<u8>, var: &mut dyn FnMut(&mut Vec<u8>, u64), s: &str| {
            var(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        };
        check_varint_fields(
            |var| {
                let mut out = vec![1];
                var(&mut out, 2);
                for symbol in ["syn", "SYN+ACK", "ack", "NIL"] {
                    spelled(&mut out, var, symbol);
                }
                out
            },
            |payload| {
                let mut spellings = Spellings::default();
                let mut steps = Vec::new();
                let terminal = decode_record(payload, &mut spellings, &mut steps)?;
                let spell = |index: u32| spellings.symbols[index as usize].as_str().to_string();
                let steps: Vec<(String, String)> =
                    steps.iter().map(|&(i, o)| (spell(i), spell(o))).collect();
                Some((terminal, steps))
            },
        );
        // The checkpoint of a root (terminal, two children) over a chain
        // `a → x`, `b → y · a → x` (terminal).
        check_varint_fields(
            |var| {
                let mut out = Vec::new();
                for list in [["a", "b"], ["x", "y"]] {
                    var(&mut out, 2);
                    for symbol in list {
                        spelled(&mut out, var, symbol);
                    }
                }
                var(&mut out, 4);
                let nodes = [
                    (None, 2 << 1 | 1),
                    (Some((0, 0)), 0),
                    (Some((1, 1)), 1 << 1),
                    (Some((0, 0)), 1),
                ];
                for (edge, flags) in nodes {
                    if let Some((input, output)) = edge {
                        var(&mut out, input);
                        var(&mut out, output);
                    }
                    var(&mut out, flags);
                }
                out
            },
            |payload| decode_checkpoint(payload, &mut Spellings::default()).map(|t| t.paths()),
        );
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
