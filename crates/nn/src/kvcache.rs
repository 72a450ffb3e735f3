//! Block-paged KV cache for continuous-batching decode.
//!
//! A [`KvArena`] owns a slab of fixed-size **pages**; each page stores
//! `block` consecutive sequence positions of K and V rows for *every*
//! layer (`n_layers × block × d_model` floats per cache), so one
//! per-sequence block table covers the whole model. Sequences join and
//! leave in O(1) (amortized): joining claims a slot, leaving pushes the
//! sequence's pages onto the arena-internal free list, so memory scales
//! with **live tokens**, not with max-budget × queue depth. Page buffers
//! come from the `axcore_parallel::arena` scratch free-list and are
//! recycled through the arena's own page free list on leave (keeping
//! page churn out of the depth-bounded per-thread cache).
//!
//! # Quantize-on-fill
//!
//! With [`KvPageConfig::quant`] set, a page is **sealed** the moment the
//! sequence's committed length covers it entirely: every head's K block
//! is quantized with the configured [`KvQuantConfig`] (grouped along the
//! head dimension, the accumulation axis of `Q·Kᵀ`) and its V block
//! along the position axis (the accumulation axis of `P·V`), then
//! dequantized back in place. Resident KV beyond the hot tail is thereby
//! exactly 4-bit-representable — the accuracy consequence the paper's
//! §6.5.2 measures — while the gather/attention path stays a single FP
//! kernel (a hardware port would store the codes and dequantize in the
//! PE; the value stream is identical). The hot tail (the most recent,
//! partially filled page) stays FP until it fills.
//!
//! With `quant: None` (the default), pages are plain FP32 and paged
//! decode is **byte-identical** to the serial non-cached forward — the
//! bit-exactness contract `tests/paged_decode.rs` pins.
//!
//! # Hardening (DESIGN.md §13)
//!
//! The arena is the system's largest piece of mutable at-rest state, so
//! misuse and memory faults are **typed, recoverable conditions** rather
//! than panics or silent corruption:
//!
//! * **Fallible API** — [`try_join`](KvArena::try_join),
//!   [`try_append`](KvArena::try_append),
//!   [`try_commit`](KvArena::try_commit) and
//!   [`try_gather`](KvArena::try_gather) return [`KvError`] for dead
//!   handles, shape mismatches, out-of-range positions, capacity
//!   exhaustion and detected corruption.
//! * **Capacity bound** — [`KvPageConfig::max_pages`]
//!   (`AXCORE_KV_PAGES`, default derived from a byte budget) caps the
//!   page slab. Allocation beyond the cap fails with
//!   [`KvError::CapacityExhausted`] so the scheduler backs off / evicts
//!   instead of OOMing.
//! * **Page integrity** — every committed page region carries a
//!   [`mix`]-folded checksum bound to its owner `(sequence, table
//!   index, covered length)`. Sealed (fully covered, possibly
//!   quantized) pages are checksummed at seal time, the hot FP tail at
//!   every commit. `try_gather` re-folds and compares under the active
//!   [`VerifyPolicy`] (`Off`/`Sample(p)`/`Full`); a mismatch — a
//!   flipped page bit *or* a flipped block-table entry, which the owner
//!   binding catches — surfaces as [`KvError::CorruptPage`] naming the
//!   poisoned sequence, and the scheduler heals it by recomputation.
//! * **Hot-window integrity** — positions appended but not yet
//!   committed (the in-pass hot window that `try_gather` may
//!   legitimately read before `try_commit`) carry a per-layer rolling
//!   checksum refolded on every [`try_append`](KvArena::try_append) and
//!   verified by any gather that reads past the committed length, so no
//!   resident KV bytes are ever unprotected.
//! * **Erasure coding** (DESIGN.md §14) — with
//!   [`KvPageConfig::parity`] set (`AXCORE_KV_PARITY`, default group
//!   size 8), sealed pages join fixed-size **parity groups**, each
//!   owning one XOR parity page maintained incrementally as members
//!   seal and free. A detected [`KvError::CorruptPage`] whose page
//!   binding matches the gather first attempts in-place
//!   **reconstruction** from parity + surviving siblings — O(one page)
//!   instead of the O(prefix) recompute — accepting the result only if
//!   the owner-bound checksum re-verifies. Degraded groups (parity
//!   page itself corrupt, or ≥ 2 losses) fall back to the recompute
//!   path. [`scrub`](KvArena::scrub) walks cold pages and parity pages
//!   under a caller-supplied budget so latent corruption is repaired
//!   before a gather trips over it.

use axcore::reliability::{mix, VerifyPolicy, CHECKSUM_SEED};
use axcore_parallel::arena::{self, ArenaVec};
use axcore_parallel::env;
use axcore_quant::KvQuantConfig;

/// Default positions per KV page (`AXCORE_KV_BLOCK` overrides).
pub const DEFAULT_KV_BLOCK: usize = 16;

/// Default byte budget (K + V page payload) from which
/// [`KvPageConfig::max_pages`] is derived when not set explicitly:
/// `max_pages = budget / page_bytes`, floored at one page.
pub const DEFAULT_KV_BUDGET_BYTES: usize = 64 << 20;

/// Default sealed pages per XOR parity group (`AXCORE_KV_PARITY`
/// overrides; `off` disables erasure coding).
pub const DEFAULT_KV_PARITY: usize = 8;

/// Default scrub budget: integrity targets (data or parity pages) the
/// scheduler verifies per step boundary (`AXCORE_KV_SCRUB` overrides;
/// 0 disables the scrubber).
pub const DEFAULT_KV_SCRUB: usize = 1;

/// Typed failure of a [`KvArena`] operation. Every variant is
/// recoverable by construction: callers reset or retire the offending
/// sequence (the scheduler's repair/backpressure paths) instead of
/// unwinding through the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The [`SeqId`] does not name a live sequence (never joined, or
    /// already left).
    DeadSequence,
    /// `k_rows` and `v_rows` disagree on the number of rows.
    RowMismatch {
        /// K floats supplied.
        k: usize,
        /// V floats supplied.
        v: usize,
    },
    /// Row slices are not a whole number of `d_model`-wide rows.
    NotRowAligned {
        /// Floats supplied.
        len: usize,
        /// Model width the arena was built for.
        d: usize,
    },
    /// A commit or gather addressed positions beyond the sequence's
    /// allocated pages.
    OutOfBounds {
        /// First position that does not exist.
        pos: usize,
        /// Positions the sequence's block table can hold.
        capacity: usize,
    },
    /// Allocating another page would exceed [`KvPageConfig::max_pages`].
    /// Recoverable backpressure: evict/stall and retry, never OOM.
    CapacityExhausted {
        /// Pages the operation needed in total.
        needed: usize,
        /// Pages currently owned by live sequences.
        live: usize,
        /// The configured hard cap.
        max_pages: usize,
    },
    /// `max_pages` was zero at config construction.
    ZeroCapacity,
    /// A checksum mismatch (or an out-of-slab block-table entry) was
    /// detected while gathering: the sequence's cached state can no
    /// longer be trusted and must be recomputed.
    CorruptPage {
        /// The poisoned sequence.
        seq: SeqId,
        /// Block-table index of the failing page.
        index: usize,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::DeadSequence => write!(f, "dead KV sequence"),
            KvError::RowMismatch { k, v } => {
                write!(f, "K/V row count mismatch ({k} vs {v} floats)")
            }
            KvError::NotRowAligned { len, d } => {
                write!(f, "KV rows must be d_model ({d}) wide, got {len} floats")
            }
            KvError::OutOfBounds { pos, capacity } => {
                write!(f, "KV position {pos} beyond allocated capacity {capacity}")
            }
            KvError::CapacityExhausted { needed, live, max_pages } => write!(
                f,
                "KV arena full: need {needed} pages, {live} live of {max_pages} max"
            ),
            KvError::ZeroCapacity => write!(f, "KV page capacity must be positive"),
            KvError::CorruptPage { seq, index } => {
                write!(f, "corrupt KV page detected (seq {}, table index {index})", seq.0)
            }
        }
    }
}

impl std::error::Error for KvError {}

/// How the paged KV cache stores resident (filled-page) entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvPageConfig {
    /// `None`: FP32 pages (bit-exact vs the serial path). `Some(cfg)`:
    /// quantize each page's K/V blocks with `cfg` when the page fills.
    pub quant: Option<KvQuantConfig>,
    /// Positions per page.
    pub block: usize,
    /// Hard cap on simultaneously live pages (`AXCORE_KV_PAGES`).
    /// `None` derives the cap from [`DEFAULT_KV_BUDGET_BYTES`] and the
    /// model's page size at arena construction. Use
    /// [`with_max_pages`](KvPageConfig::with_max_pages) to set it with
    /// zero rejected as a typed error.
    pub max_pages: Option<usize>,
    /// KV-integrity verification override for this arena. `None` (the
    /// default) follows the `verify` field of the ambient
    /// [`ExecConfig`](axcore_parallel::ExecConfig) — the same
    /// `AXCORE_VERIFY` setting and `with_exec` scope that drive GEMM
    /// verification. `Some(p)` pins the arena's own policy, which
    /// benches use to isolate KV-check overhead.
    pub verify: Option<VerifyPolicy>,
    /// Sealed pages per XOR parity group (`AXCORE_KV_PARITY`).
    /// `Some(g)` groups every sealed page with up to `g - 1` siblings
    /// behind one parity page so a single lost page reconstructs in
    /// place; `None` disables erasure coding (corruption always heals
    /// by recomputation).
    pub parity: Option<usize>,
    /// Integrity targets the scheduler scrubs per step boundary
    /// (`AXCORE_KV_SCRUB`; 0 disables proactive scrubbing).
    pub scrub: usize,
}

impl Default for KvPageConfig {
    fn default() -> Self {
        KvPageConfig {
            quant: None,
            block: DEFAULT_KV_BLOCK,
            max_pages: None,
            verify: None,
            parity: Some(DEFAULT_KV_PARITY),
            scrub: DEFAULT_KV_SCRUB,
        }
    }
}

impl KvPageConfig {
    /// Config from the environment: `AXCORE_KV` selects the page format
    /// (`fp32` — the default — or `q4-opt` / `q4-llama` for the paper's
    /// per-family 4-bit formats), `AXCORE_KV_BLOCK` the positions per
    /// page, `AXCORE_KV_PAGES` the hard page-capacity bound (zero is
    /// rejected loudly; unset derives the bound from
    /// [`DEFAULT_KV_BUDGET_BYTES`]). Unset or unparsable variables keep
    /// the defaults.
    pub fn from_env() -> Self {
        let mut cfg = KvPageConfig::default();
        if let Some(quant) = env::parse("AXCORE_KV", "fp32 | q4-opt | q4-llama", |s| {
            match s.to_ascii_lowercase().as_str() {
                "fp32" | "fp" | "" => Some(None),
                "q4-opt" | "opt" => Some(Some(KvQuantConfig::opt())),
                "q4-llama" | "llama" => Some(Some(KvQuantConfig::llama())),
                _ => None,
            }
        }) {
            cfg.quant = quant;
        }
        if let Some(block) = env::parse_usize("AXCORE_KV_BLOCK") {
            cfg.block = block.max(1);
        }
        if let Some(pages) = env::parse_usize("AXCORE_KV_PAGES") {
            match cfg.with_max_pages(pages) {
                Ok(c) => cfg = c,
                Err(e) => eprintln!(
                    "axcore: ignoring AXCORE_KV_PAGES={pages}: {e} \
                     (keeping the byte-budget default)"
                ),
            }
        }
        if let Some(parity) = env::parse("AXCORE_KV_PARITY", "off | group size", |s| {
            match s.to_ascii_lowercase().as_str() {
                "off" | "none" | "0" => Some(None),
                other => other.parse::<usize>().ok().filter(|&g| g > 0).map(Some),
            }
        }) {
            cfg.parity = parity;
        }
        if let Some(scrub) = env::parse_usize("AXCORE_KV_SCRUB") {
            cfg.scrub = scrub;
        }
        cfg
    }

    /// This config with an explicit page-capacity bound. Zero — an
    /// arena that could never hold a token — is rejected as
    /// [`KvError::ZeroCapacity`].
    pub fn with_max_pages(self, max_pages: usize) -> Result<Self, KvError> {
        if max_pages == 0 {
            return Err(KvError::ZeroCapacity);
        }
        Ok(KvPageConfig { max_pages: Some(max_pages), ..self })
    }
}

/// A sequence's handle into a [`KvArena`]. Valid until `leave`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqId(usize);

/// Fault-injection site names the arena understands (the KV counterpart
/// of the prepared engines' at-rest regions): sealed — fully covered,
/// checksummed-at-seal — K and V page regions, the committed hot-FP-tail
/// K and V regions, the per-sequence block tables, the uncommitted
/// append→first-commit hot window, and the XOR parity pages of the
/// sequence's groups.
pub const KV_FAULT_SITES: [&str; 7] = [
    "kv-k-sealed",
    "kv-v-sealed",
    "kv-k-tail",
    "kv-v-tail",
    "kv-table",
    "kv-hot",
    "kv-parity",
];

/// One page: `block` positions × all layers of K and V rows, plus the
/// integrity state of its committed region.
struct Page {
    k: ArenaVec<f32>,
    v: ArenaVec<f32>,
    /// Owning sequence slot, `usize::MAX` when free. Reclamation walks
    /// this record instead of the owner's block table, so a corrupted
    /// table entry can never double-free another sequence's page or
    /// leak the page it displaced.
    owner: usize,
    /// The owner's block-table index this page backs — the page-side
    /// half of the owner binding, which reconstruction and scrubbing
    /// use to re-derive the expected checksum without trusting the
    /// (possibly corrupt) block table.
    index: usize,
    /// Committed positions this page's checksum covers (≤ block).
    covered: usize,
    /// [`mix`] fold over `(owner slot, table index, covered, K words,
    /// V words)` of the covered region. Bound to the owner so a flipped
    /// block-table entry — which lands the gather on a *self-consistent
    /// but wrong* page — still mismatches.
    sum: u64,
    /// Parity group this page belongs to, `usize::MAX` when ungrouped
    /// (parity off, or not yet sealed to full coverage).
    group: usize,
}

/// One XOR parity group: the bitwise XOR of every member page's K and V
/// words, maintained incrementally as members join (on reaching full
/// coverage) and leave (on free/reset). Any single member reconstructs
/// as `parity ⊕ (XOR of surviving members)`.
struct ParityGroup {
    k: ArenaVec<f32>,
    v: ArenaVec<f32>,
    /// Member page ids (≤ the configured group size).
    members: Vec<usize>,
    /// [`mix`] fold over the parity words (domain-separated from page
    /// checksums), so a flipped parity bit is itself detectable —
    /// reconstruction from a silently corrupt parity page would
    /// manufacture garbage.
    sum: u64,
}

struct Seq {
    /// Page ids, in position order: position `p` lives in
    /// `table[p / block]` at in-page offset `p % block`.
    table: Vec<usize>,
    /// Committed positions (rows written for every layer).
    len: usize,
    /// Pages already quantize-sealed (a prefix of `table`).
    sealed: usize,
    /// Per-layer rolling checksum over the uncommitted hot window
    /// `[len, hot_high[layer])`, refolded on every append. 0 when the
    /// layer's window is empty.
    hot: Vec<u64>,
    /// Per-layer high-water mark of appended (not yet committed)
    /// positions; the window is empty when `hot_high[layer] <= len`.
    hot_high: Vec<usize>,
}

/// A block-paged, optionally quantized KV cache shared by every
/// sequence in a continuous batch. See the module docs.
pub struct KvArena {
    n_layers: usize,
    d: usize,
    n_heads: usize,
    quant: Option<KvQuantConfig>,
    block: usize,
    max_pages: usize,
    verify: Option<VerifyPolicy>,
    /// Sealed pages per parity group, `None` when erasure coding is off.
    parity: Option<usize>,
    pages: Vec<Page>,
    free: Vec<usize>,
    seqs: Vec<Option<Seq>>,
    free_seqs: Vec<usize>,
    groups: Vec<ParityGroup>,
    /// Groups still accepting members (len < parity group size).
    open_groups: Vec<usize>,
    /// Emptied group slots awaiting reuse.
    free_groups: Vec<usize>,
    /// Round-robin position of the scrubber over `pages ++ groups`.
    scrub_cursor: usize,
    live_pages: usize,
    peak_pages: usize,
    /// `try_gather` calls — the sampling clock for `VerifyPolicy::Sample`.
    gathers: u64,
    /// Pages whose checksum was re-folded and compared.
    pages_verified: u64,
    /// Checksum mismatches (and out-of-slab table entries) detected.
    corruptions: u64,
    /// Corrupt pages healed in place from parity + siblings.
    reconstructions: u64,
    /// Reconstruction attempts abandoned (ungrouped page, degraded
    /// group, or the rebuilt bits failed re-verification).
    reconstruct_failures: u64,
    /// Parity pages rebuilt from their members (corrupt parity found by
    /// the scrubber, or a member freed while itself corrupt).
    parity_rebuilds: u64,
    /// Integrity targets (data or parity pages) verified by `scrub`.
    pages_scrubbed: u64,
    /// Corruptions the scrubber both found and repaired in place.
    scrub_repairs: u64,
}

impl std::fmt::Debug for KvArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvArena")
            .field("block", &self.block)
            .field("live_pages", &self.live_pages)
            .field("peak_pages", &self.peak_pages)
            .field("max_pages", &self.max_pages)
            .field("quant", &self.quant.is_some())
            .finish()
    }
}

impl KvArena {
    /// An empty arena for a model of `n_layers` layers, width `d`, and
    /// `n_heads` heads per layer.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not divisible by `n_heads`, `cfg.block` is 0, or
    /// `cfg.max_pages` is `Some(0)` (construct capacities through
    /// [`KvPageConfig::with_max_pages`], which rejects zero as a typed
    /// error).
    pub fn new(n_layers: usize, d: usize, n_heads: usize, cfg: KvPageConfig) -> KvArena {
        assert!(d.is_multiple_of(n_heads.max(1)), "d_model must divide into heads");
        assert!(cfg.block > 0, "KV page block must be positive");
        assert!(cfg.max_pages != Some(0), "KV page capacity must be positive");
        let page_bytes = 2 * n_layers.max(1) * cfg.block * d.max(1) * std::mem::size_of::<f32>();
        let max_pages = cfg
            .max_pages
            .unwrap_or_else(|| (DEFAULT_KV_BUDGET_BYTES / page_bytes).max(1));
        KvArena {
            n_layers,
            d,
            n_heads,
            quant: cfg.quant,
            block: cfg.block,
            max_pages,
            verify: cfg.verify,
            parity: cfg.parity.filter(|&g| g > 0),
            pages: Vec::new(),
            free: Vec::new(),
            seqs: Vec::new(),
            free_seqs: Vec::new(),
            groups: Vec::new(),
            open_groups: Vec::new(),
            free_groups: Vec::new(),
            scrub_cursor: 0,
            live_pages: 0,
            peak_pages: 0,
            gathers: 0,
            pages_verified: 0,
            corruptions: 0,
            reconstructions: 0,
            reconstruct_failures: 0,
            parity_rebuilds: 0,
            pages_scrubbed: 0,
            scrub_repairs: 0,
        }
    }

    /// Positions per page.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Pages currently owned by live sequences.
    pub fn live_pages(&self) -> usize {
        self.live_pages
    }

    /// High-water mark of simultaneously live pages.
    pub fn peak_pages(&self) -> usize {
        self.peak_pages
    }

    /// The hard cap on simultaneously live pages.
    pub fn max_pages(&self) -> usize {
        self.max_pages
    }

    /// Whether filled pages are quantized in place.
    pub fn quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Pages whose committed region was checksum-verified on gather.
    pub fn pages_verified(&self) -> u64 {
        self.pages_verified
    }

    /// Checksum mismatches (or out-of-slab block-table entries) detected.
    pub fn corruptions_detected(&self) -> u64 {
        self.corruptions
    }

    /// Corrupt pages healed in place from parity + surviving siblings.
    pub fn reconstructions(&self) -> u64 {
        self.reconstructions
    }

    /// Reconstruction attempts that had to fall back (ungrouped page,
    /// degraded group, or failed re-verification).
    pub fn reconstruct_failures(&self) -> u64 {
        self.reconstruct_failures
    }

    /// Parity pages rebuilt wholesale from their members.
    pub fn parity_rebuilds(&self) -> u64 {
        self.parity_rebuilds
    }

    /// Integrity targets verified by [`scrub`](KvArena::scrub).
    pub fn pages_scrubbed(&self) -> u64 {
        self.pages_scrubbed
    }

    /// Corruptions the scrubber found and repaired in place.
    pub fn scrub_repairs(&self) -> u64 {
        self.scrub_repairs
    }

    /// Parity groups currently holding at least one member.
    pub fn parity_groups_live(&self) -> usize {
        self.groups.iter().filter(|g| !g.members.is_empty()).count()
    }

    /// Register a new sequence with no cached positions. Fails with
    /// [`KvError::CapacityExhausted`] when as many sequences are live as
    /// there are pages — beyond that, some sequence could never hold
    /// even one page and the batch only thrashes.
    pub fn try_join(&mut self) -> Result<SeqId, KvError> {
        let live_seqs = self.seqs.iter().filter(|s| s.is_some()).count();
        if live_seqs >= self.max_pages {
            return Err(KvError::CapacityExhausted {
                needed: 1,
                live: self.live_pages,
                max_pages: self.max_pages,
            });
        }
        let seq = Seq {
            table: Vec::new(),
            len: 0,
            sealed: 0,
            hot: vec![0; self.n_layers],
            hot_high: vec![0; self.n_layers],
        };
        Ok(match self.free_seqs.pop() {
            Some(slot) => {
                self.seqs[slot] = Some(seq);
                SeqId(slot)
            }
            None => {
                self.seqs.push(Some(seq));
                SeqId(self.seqs.len() - 1)
            }
        })
    }

    /// Drop a sequence, returning its pages to the free list. Returns
    /// the number of pages freed; a dead or unknown id is a no-op
    /// returning 0 (so `leave` is idempotent).
    pub fn leave(&mut self, id: SeqId) -> usize {
        let freed = self.reset(id);
        if let Some(slot @ Some(_)) = self.seqs.get_mut(id.0) {
            *slot = None;
            self.free_seqs.push(id.0);
        }
        freed
    }

    /// Free a sequence's pages but keep it registered with length 0 —
    /// preemption by recomputation: the caller re-prefills the prefix on
    /// the sequence's next step. Returns the number of pages freed; a
    /// dead id is a no-op returning 0.
    ///
    /// Reclamation sweeps the pages' own owner records rather than the
    /// sequence's block table: after table corruption the table is
    /// untrustworthy, and following it could double-free a page another
    /// sequence owns while leaking the one the flipped entry displaced.
    pub fn reset(&mut self, id: SeqId) -> usize {
        let Some(Some(seq)) = self.seqs.get_mut(id.0) else { return 0 };
        seq.table.clear();
        seq.len = 0;
        seq.sealed = 0;
        seq.hot.iter_mut().for_each(|h| *h = 0);
        seq.hot_high.iter_mut().for_each(|h| *h = 0);
        let owned: Vec<usize> = self
            .pages
            .iter()
            .enumerate()
            .filter(|(_, pg)| pg.owner == id.0)
            .map(|(p, _)| p)
            .collect();
        for &p in &owned {
            // XOR the page back out of its parity group (rebuilding the
            // parity from the survivors if the page itself is corrupt)
            // before its bits are recycled.
            self.group_leave(p);
            // Clear integrity state so a recycled page never carries
            // a stale owner-bound checksum.
            let pg = &mut self.pages[p];
            pg.owner = usize::MAX;
            pg.index = 0;
            pg.covered = 0;
            pg.sum = 0;
            self.free.push(p);
        }
        self.live_pages -= owned.len();
        owned.len()
    }

    /// Committed positions of a sequence.
    pub fn len(&self, id: SeqId) -> usize {
        match self.seqs.get(id.0) {
            Some(Some(seq)) => seq.len,
            _ => 0,
        }
    }

    /// Whether the arena has no live sequences.
    pub fn is_empty(&self) -> bool {
        self.seqs.iter().all(|s| s.is_none())
    }

    /// Pages currently owned by sequence `id` (0 for a dead id).
    pub fn seq_pages(&self, id: SeqId) -> usize {
        match self.seqs.get(id.0) {
            Some(Some(seq)) => seq.table.len(),
            _ => 0,
        }
    }

    fn page_floats(&self) -> usize {
        self.n_layers * self.block * self.d
    }

    /// A free page id claimed for sequence slot `owner`, or `None` when
    /// the capacity bound is reached.
    fn alloc_page(&mut self, owner: usize) -> Option<usize> {
        if self.live_pages >= self.max_pages {
            return None;
        }
        let id = match self.free.pop() {
            // Reused pages keep stale contents; every position is
            // written before `gather` reads it, and `covered`/`sum`
            // were cleared when the page was freed.
            Some(id) => id,
            None => {
                let len = self.page_floats();
                self.pages.push(Page {
                    k: arena::take(len, 0f32),
                    v: arena::take(len, 0f32),
                    owner: usize::MAX,
                    index: 0,
                    covered: 0,
                    sum: 0,
                    group: usize::MAX,
                });
                self.pages.len() - 1
            }
        };
        self.pages[id].owner = owner;
        self.live_pages += 1;
        self.peak_pages = self.peak_pages.max(self.live_pages);
        Some(id)
    }

    /// Write `m` K/V rows (each `d` floats) for `layer` at positions
    /// `start..start + m` of sequence `id`, allocating pages as needed.
    /// Every layer of a forward pass appends the same position range;
    /// [`try_commit`](KvArena::try_commit) advances the committed length
    /// once the pass completes.
    ///
    /// Fails with [`KvError::CapacityExhausted`] when the write needs a
    /// page past [`KvPageConfig::max_pages`]; pages already claimed stay
    /// in the table (the caller resets or retires the sequence, both of
    /// which reclaim them). A block-table entry pointing outside the
    /// page slab — only possible through corruption of the table — fails
    /// with [`KvError::CorruptPage`] instead of writing wild.
    pub fn try_append(
        &mut self,
        id: SeqId,
        layer: usize,
        start: usize,
        k_rows: &[f32],
        v_rows: &[f32],
    ) -> Result<(), KvError> {
        let d = self.d;
        if k_rows.len() != v_rows.len() {
            return Err(KvError::RowMismatch { k: k_rows.len(), v: v_rows.len() });
        }
        if !k_rows.len().is_multiple_of(d) {
            return Err(KvError::NotRowAligned { len: k_rows.len(), d });
        }
        if self.seq(id).is_none() {
            return Err(KvError::DeadSequence);
        }
        let m = k_rows.len() / d;
        let need_pages = (start + m).div_ceil(self.block);
        while self.seq_pages(id) < need_pages {
            let Some(page) = self.alloc_page(id.0) else {
                return Err(KvError::CapacityExhausted {
                    needed: need_pages,
                    live: self.live_pages,
                    max_pages: self.max_pages,
                });
            };
            let mut index = 0;
            if let Some(Some(seq)) = self.seqs.get_mut(id.0) {
                seq.table.push(page);
                index = seq.table.len() - 1;
            }
            self.pages[page].index = index;
        }
        let block = self.block;
        let layer_off = layer * block * d;
        for r in 0..m {
            let pos = start + r;
            let idx = pos / block;
            let page = match self.page_at(id, idx) {
                Some(p) if p < self.pages.len() => p,
                Some(_) => {
                    self.corruptions += 1;
                    return Err(KvError::CorruptPage { seq: id, index: idx });
                }
                None => {
                    return Err(KvError::OutOfBounds {
                        pos,
                        capacity: self.seq_pages(id) * block,
                    })
                }
            };
            let off = layer_off + (pos % block) * d;
            let pg = &mut self.pages[page];
            pg.k[off..off + d].copy_from_slice(&k_rows[r * d..(r + 1) * d]);
            pg.v[off..off + d].copy_from_slice(&v_rows[r * d..(r + 1) * d]);
        }
        // Refold the layer's hot-window checksum over everything
        // appended past the committed length. A full refold (rather
        // than an incremental roll) keeps idempotent re-appends of the
        // same positions — the scheduler's retry path — consistent.
        if m > 0 {
            if let Some(Some(seq)) = self.seqs.get_mut(id.0) {
                if start + m > seq.hot_high[layer] {
                    seq.hot_high[layer] = start + m;
                }
            }
            let windowed = self
                .seq(id)
                .is_some_and(|s| s.hot_high.get(layer).copied().unwrap_or(0) > s.len);
            if windowed {
                let sum = self.hot_sum(id, layer);
                if let Some(Some(seq)) = self.seqs.get_mut(id.0) {
                    seq.hot[layer] = sum;
                }
            }
        }
        Ok(())
    }

    /// Fold the hot-window checksum of `layer`: the uncommitted
    /// positions `[len, hot_high[layer])`, bound to the sequence slot,
    /// layer and window bounds (domain-separated from page checksums).
    fn hot_sum(&self, id: SeqId, layer: usize) -> u64 {
        const HOT_TAG: u64 = 0x686f_7477_696e; // "hotwin"
        let Some(seq) = self.seq(id) else { return 0 };
        let (d, block) = (self.d, self.block);
        let (from, to) = (seq.len, seq.hot_high.get(layer).copied().unwrap_or(0));
        let mut h = mix(CHECKSUM_SEED ^ HOT_TAG, id.0 as u64);
        h = mix(h, layer as u64);
        h = mix(h, from as u64);
        h = mix(h, to as u64);
        let mut pos = from;
        while pos < to {
            let idx = pos / block;
            let Some(&page) = seq.table.get(idx) else { break };
            if page >= self.pages.len() {
                break;
            }
            let in_page = pos % block;
            let take = (block - in_page).min(to - pos);
            let off = layer * block * d + in_page * d;
            let pg = &self.pages[page];
            for w in &pg.k[off..off + take * d] {
                h = mix(h, u64::from(w.to_bits()));
            }
            for w in &pg.v[off..off + take * d] {
                h = mix(h, u64::from(w.to_bits()));
            }
            pos += take;
        }
        h
    }

    fn seq(&self, id: SeqId) -> Option<&Seq> {
        match self.seqs.get(id.0) {
            Some(Some(seq)) => Some(seq),
            _ => None,
        }
    }

    /// The page id at table index `idx`, or `None` for a dead sequence
    /// or an index past its table.
    fn page_at(&self, id: SeqId, idx: usize) -> Option<usize> {
        self.seq(id).and_then(|seq| seq.table.get(idx).copied())
    }

    /// Advance a sequence's committed length to `len` (all layers
    /// appended), sealing — quantizing in place — any page the commit
    /// fully covers when the arena is quantized, then (re)folding the
    /// integrity checksum of every page region the commit extended: the
    /// newly sealed pages and the hot FP tail. Commits are monotonic; a
    /// `len` at or under the current committed length (including a
    /// zero-length commit on a fresh sequence) is a no-op.
    pub fn try_commit(&mut self, id: SeqId, len: usize) -> Result<(), KvError> {
        let block = self.block;
        let filled = len / block;
        let (old_len, to_seal, already) = match self.seqs.get_mut(id.0) {
            Some(Some(seq)) => {
                if len <= seq.len {
                    return Ok(());
                }
                if len > seq.table.len() * block {
                    return Err(KvError::OutOfBounds {
                        pos: len,
                        capacity: seq.table.len() * block,
                    });
                }
                let old = seq.len;
                seq.len = len;
                let already = seq.sealed;
                seq.sealed = filled.min(seq.table.len());
                (old, seq.sealed, already)
            }
            _ => return Err(KvError::DeadSequence),
        };
        if self.quant.is_some() {
            for idx in already..to_seal {
                match self.page_at(id, idx) {
                    Some(page) if page < self.pages.len() => self.seal_page(page),
                    Some(_) => {
                        self.corruptions += 1;
                        return Err(KvError::CorruptPage { seq: id, index: idx });
                    }
                    None => {}
                }
            }
        }
        // Checksum every page whose committed coverage grew: from the
        // page holding the old tail through the page holding the new
        // one. Runs after sealing so the fold sees the QDQ'd bits.
        let first = old_len / block;
        let last = (len - 1) / block;
        for idx in first..=last {
            let covered = (len - idx * block).min(block);
            let Some(page) = self.page_at(id, idx) else { continue };
            if page >= self.pages.len() {
                self.corruptions += 1;
                return Err(KvError::CorruptPage { seq: id, index: idx });
            }
            if covered > self.pages[page].covered {
                self.pages[page].index = idx;
                self.pages[page].sum = self.page_sum(id.0, idx, page, covered);
                self.pages[page].covered = covered;
                // A page reaching full coverage is final (sealed bits
                // never change until free) — fold it into a parity
                // group exactly once.
                if covered == block {
                    self.group_join(page);
                }
            }
        }
        // Refold the hot-window checksums for whatever remains
        // uncommitted past the new length.
        for layer in 0..self.n_layers {
            let windowed = self
                .seq(id)
                .is_some_and(|s| s.hot_high.get(layer).copied().unwrap_or(0) > s.len);
            let sum = if windowed { self.hot_sum(id, layer) } else { 0 };
            if let Some(Some(seq)) = self.seqs.get_mut(id.0) {
                if seq.hot_high[layer] < seq.len {
                    seq.hot_high[layer] = seq.len;
                }
                seq.hot[layer] = sum;
            }
        }
        Ok(())
    }

    /// Fold the owner-bound checksum of a page's committed region: the
    /// owning sequence slot, the table index, the covered length, and
    /// the covered K and V words of every layer.
    fn page_sum(&self, slot: usize, idx: usize, page: usize, covered: usize) -> u64 {
        let (d, block) = (self.d, self.block);
        let pg = &self.pages[page];
        let mut h = mix(CHECKSUM_SEED, slot as u64);
        h = mix(h, idx as u64);
        h = mix(h, covered as u64);
        for layer in 0..self.n_layers {
            let off = layer * block * d;
            for w in &pg.k[off..off + covered * d] {
                h = mix(h, u64::from(w.to_bits()));
            }
            for w in &pg.v[off..off + covered * d] {
                h = mix(h, u64::from(w.to_bits()));
            }
        }
        h
    }

    /// A page's checksum re-derived from its *own* binding record
    /// (owner, index, covered) — what scrubbing and reconstruction
    /// compare against the stored sum without consulting any block
    /// table.
    fn page_self_sum(&self, page: usize) -> u64 {
        let pg = &self.pages[page];
        self.page_sum(pg.owner, pg.index, page, pg.covered)
    }

    /// Fold the integrity checksum of a parity page, domain-separated
    /// from page checksums and bound to the group id and member count.
    fn parity_fold(&self, g: usize) -> u64 {
        const PARITY_TAG: u64 = 0x7061_7269_7479; // "parity"
        let grp = &self.groups[g];
        let mut h = mix(CHECKSUM_SEED ^ PARITY_TAG, g as u64);
        h = mix(h, grp.members.len() as u64);
        for w in grp.k.iter() {
            h = mix(h, u64::from(w.to_bits()));
        }
        for w in grp.v.iter() {
            h = mix(h, u64::from(w.to_bits()));
        }
        h
    }

    /// XOR page `page`'s words into (or back out of — XOR is its own
    /// inverse) group `g`'s parity page.
    fn parity_xor(&mut self, g: usize, page: usize) {
        let (pages, groups) = (&self.pages, &mut self.groups);
        let pg = &pages[page];
        let grp = &mut groups[g];
        for w in 0..pg.k.len() {
            grp.k[w] = f32::from_bits(grp.k[w].to_bits() ^ pg.k[w].to_bits());
            grp.v[w] = f32::from_bits(grp.v[w].to_bits() ^ pg.v[w].to_bits());
        }
    }

    /// Add a freshly sealed (fully covered, checksummed) page to the
    /// open parity group, creating or recycling a group as needed.
    /// No-op with parity off or for a page already grouped.
    fn group_join(&mut self, page: usize) {
        let Some(gsize) = self.parity else { return };
        if self.pages[page].group != usize::MAX {
            return;
        }
        let g = match self.open_groups.last().copied() {
            Some(g) => g,
            None => {
                let g = match self.free_groups.pop() {
                    Some(g) => {
                        // Recycled parity buffers carry stale bits;
                        // the XOR identity needs an all-zero start.
                        let grp = &mut self.groups[g];
                        grp.k.iter_mut().for_each(|w| *w = 0.0);
                        grp.v.iter_mut().for_each(|w| *w = 0.0);
                        grp.members.clear();
                        g
                    }
                    None => {
                        let len = self.page_floats();
                        self.groups.push(ParityGroup {
                            k: arena::take_filled(len, 0f32),
                            v: arena::take_filled(len, 0f32),
                            members: Vec::new(),
                            sum: 0,
                        });
                        self.groups.len() - 1
                    }
                };
                self.open_groups.push(g);
                g
            }
        };
        self.parity_xor(g, page);
        self.groups[g].members.push(page);
        self.pages[page].group = g;
        if self.groups[g].members.len() >= gsize {
            self.open_groups.pop();
        }
        self.groups[g].sum = self.parity_fold(g);
    }

    /// Remove a page from its parity group ahead of free/reset. A
    /// healthy member XORs back out; a member that no longer matches
    /// its own checksum would poison the parity, so the parity is
    /// rebuilt from the survivors instead.
    fn group_leave(&mut self, page: usize) {
        let g = self.pages[page].group;
        if g == usize::MAX {
            return;
        }
        self.pages[page].group = usize::MAX;
        let gsize = self.parity.unwrap_or(usize::MAX);
        let was_full = self.groups[g].members.len() >= gsize;
        let healthy = self.page_self_sum(page) == self.pages[page].sum;
        self.groups[g].members.retain(|&m| m != page);
        if healthy {
            self.parity_xor(g, page);
        } else {
            self.rebuild_parity(g);
        }
        if self.groups[g].members.is_empty() {
            self.open_groups.retain(|&x| x != g);
            self.free_groups.push(g);
            self.groups[g].sum = 0;
        } else {
            if was_full {
                self.open_groups.push(g);
            }
            self.groups[g].sum = self.parity_fold(g);
        }
    }

    /// Recompute group `g`'s parity page as the XOR of its current
    /// members, discarding whatever the buffer held.
    fn rebuild_parity(&mut self, g: usize) {
        {
            let grp = &mut self.groups[g];
            grp.k.iter_mut().for_each(|w| *w = 0.0);
            grp.v.iter_mut().for_each(|w| *w = 0.0);
        }
        let members = self.groups[g].members.clone();
        for m in members {
            self.parity_xor(g, m);
        }
        self.groups[g].sum = self.parity_fold(g);
        self.parity_rebuilds += 1;
    }

    /// Attempt in-place reconstruction of a corrupt page from its
    /// parity group: candidate bits are `parity ⊕ (XOR of surviving
    /// siblings)`, accepted only if the result re-verifies against the
    /// page's stored owner-bound checksum. Returns `false` — leaving
    /// the recompute fallback to the caller — for ungrouped pages and
    /// degraded groups (parity page corrupt, or a sibling also failing
    /// its own checksum, i.e. ≥ 2 losses in the group).
    fn try_reconstruct(&mut self, victim: usize) -> bool {
        let g = self.pages[victim].group;
        if g == usize::MAX || g >= self.groups.len() {
            self.reconstruct_failures += 1;
            return false;
        }
        if self.parity_fold(g) != self.groups[g].sum {
            self.reconstruct_failures += 1;
            return false;
        }
        let members = self.groups[g].members.clone();
        for &m in &members {
            if m != victim && self.page_self_sum(m) != self.pages[m].sum {
                self.reconstruct_failures += 1;
                return false;
            }
        }
        let len = self.page_floats();
        let mut kbits: Vec<u32> = self.groups[g].k.iter().map(|w| w.to_bits()).collect();
        let mut vbits: Vec<u32> = self.groups[g].v.iter().map(|w| w.to_bits()).collect();
        for &m in &members {
            if m == victim {
                continue;
            }
            let pg = &self.pages[m];
            for w in 0..len {
                kbits[w] ^= pg.k[w].to_bits();
                vbits[w] ^= pg.v[w].to_bits();
            }
        }
        {
            let pg = &mut self.pages[victim];
            for w in 0..len {
                pg.k[w] = f32::from_bits(kbits[w]);
                pg.v[w] = f32::from_bits(vbits[w]);
            }
        }
        if self.page_self_sum(victim) == self.pages[victim].sum {
            self.reconstructions += 1;
            true
        } else {
            self.reconstruct_failures += 1;
            false
        }
    }

    /// Verify up to `budget` integrity targets — committed data pages
    /// and live parity pages — advancing a round-robin cursor across
    /// calls (one full cycle per call at most). A corrupt data page is
    /// reconstructed in place when its group allows; otherwise its
    /// `(owner, table index)` is returned so the caller can heal the
    /// sequence by recomputation. A corrupt parity page is rebuilt from
    /// its members. Healthy state is never touched, so scrubbing
    /// preserves bit-exactness.
    pub fn scrub(&mut self, budget: usize) -> Vec<(SeqId, usize)> {
        let mut failed = Vec::new();
        let total = self.pages.len() + self.groups.len();
        if budget == 0 || total == 0 {
            return failed;
        }
        let mut visited = 0usize;
        let mut checked = 0usize;
        while checked < budget && visited < total {
            let t = self.scrub_cursor % total;
            self.scrub_cursor = (self.scrub_cursor + 1) % total;
            visited += 1;
            if t < self.pages.len() {
                if self.pages[t].owner == usize::MAX || self.pages[t].covered == 0 {
                    continue;
                }
                checked += 1;
                self.pages_scrubbed += 1;
                if self.page_self_sum(t) == self.pages[t].sum {
                    continue;
                }
                self.corruptions += 1;
                if self.try_reconstruct(t) {
                    self.scrub_repairs += 1;
                } else {
                    failed.push((SeqId(self.pages[t].owner), self.pages[t].index));
                }
            } else {
                let g = t - self.pages.len();
                if self.groups[g].members.is_empty() {
                    continue;
                }
                checked += 1;
                self.pages_scrubbed += 1;
                if self.parity_fold(g) == self.groups[g].sum {
                    continue;
                }
                self.corruptions += 1;
                self.rebuild_parity(g);
                self.scrub_repairs += 1;
            }
        }
        failed
    }

    /// Quantize-dequantize one filled page in place, per layer per head.
    fn seal_page(&mut self, page: usize) {
        let Some(cfg) = self.quant else { return };
        let (d, nh, block) = (self.d, self.n_heads, self.block);
        let dh = d / nh;
        let mut kc = vec![0f32; dh * block];
        let mut vc = vec![0f32; block * dh];
        for layer in 0..self.n_layers {
            let off = layer * block * d;
            for h in 0..nh {
                let pg = &mut self.pages[page];
                for i in 0..block {
                    for e in 0..dh {
                        // K transposed to dh × block: grouped along the
                        // head dimension, the Q·Kᵀ accumulation axis.
                        kc[e * block + i] = pg.k[off + i * d + h * dh + e];
                        vc[i * dh + e] = pg.v[off + i * d + h * dh + e];
                    }
                }
                let kd = cfg.quantize_k(&kc, dh, block).dequant_all();
                let vd = cfg.quantize_v(&vc, block, dh).dequant_all();
                for i in 0..block {
                    for e in 0..dh {
                        pg.k[off + i * d + h * dh + e] = kd[e * block + i];
                        pg.v[off + i * d + h * dh + e] = vd[i * dh + e];
                    }
                }
            }
        }
    }

    /// Whether this gather verifies checksums, per the arena's pinned
    /// policy or the ambient [`VerifyPolicy`]. Advances the sampling
    /// clock.
    fn should_verify(&mut self) -> bool {
        let policy = self.verify.unwrap_or_else(|| axcore_parallel::current_exec().verify);
        self.gathers = self.gathers.wrapping_add(1);
        match policy {
            VerifyPolicy::Off => false,
            VerifyPolicy::Full => true,
            VerifyPolicy::Sample(p) => self.gathers.is_multiple_of(u64::from(p.max(1))),
        }
    }

    /// Copy the first `len` cached K/V rows of `layer` into contiguous
    /// `len × d` buffers (resized as needed). Positions beyond the
    /// committed length may be read immediately after
    /// [`try_append`](KvArena::try_append) within the same forward pass
    /// (the FP hot tail).
    ///
    /// Under the active [`VerifyPolicy`] (the arena's pinned
    /// [`KvPageConfig::verify`], else the ambient policy) the committed
    /// region of every page touched is checksum-verified; a mismatch
    /// fails with [`KvError::CorruptPage`] naming the poisoned sequence,
    /// and the output buffers must be considered garbage.
    pub fn try_gather(
        &mut self,
        id: SeqId,
        layer: usize,
        len: usize,
        k_out: &mut Vec<f32>,
        v_out: &mut Vec<f32>,
    ) -> Result<(), KvError> {
        let (d, block) = (self.d, self.block);
        let Some(seq) = self.seq(id) else { return Err(KvError::DeadSequence) };
        let (committed, capacity) = (seq.len, seq.table.len() * block);
        if len > capacity {
            return Err(KvError::OutOfBounds { pos: len, capacity });
        }
        let verify = self.should_verify();
        // Reading past the committed length enters the hot window;
        // verify its rolling checksum so the uncommitted tail is as
        // protected as the pages behind it.
        if verify && len > committed {
            let hot_high = match self.seq(id) {
                Some(s) => s.hot_high.get(layer).copied().unwrap_or(0),
                None => 0,
            };
            if hot_high > committed {
                let stored = match self.seq(id) {
                    Some(s) => s.hot.get(layer).copied().unwrap_or(0),
                    None => 0,
                };
                if self.hot_sum(id, layer) != stored {
                    self.corruptions += 1;
                    return Err(KvError::CorruptPage { seq: id, index: committed / block });
                }
            }
        }
        k_out.resize(len * d, 0.0);
        v_out.resize(len * d, 0.0);
        let layer_off = layer * block * d;
        let mut pos = 0usize;
        while pos < len {
            let idx = pos / block;
            let Some(page) = self.page_at(id, idx).filter(|&p| p < self.pages.len()) else {
                // A block-table entry pointing outside the slab can only
                // come from corruption of the table itself.
                self.corruptions += 1;
                return Err(KvError::CorruptPage { seq: id, index: idx });
            };
            if verify {
                let covered = committed.saturating_sub(idx * block).min(block);
                if covered > 0 {
                    self.pages_verified += 1;
                    if self.page_sum(id.0, idx, page, covered) != self.pages[page].sum {
                        self.corruptions += 1;
                        // Repair decision tree (DESIGN.md §14): when the
                        // page's own binding record agrees with what the
                        // gather expects, the page *content* flipped —
                        // try the O(one page) parity reconstruction. A
                        // binding disagreement means the block table (or
                        // the binding) flipped, which parity cannot
                        // arbitrate; and a degraded group refuses. Both
                        // fall through to the recompute path.
                        let pg = &self.pages[page];
                        let bound_ok =
                            pg.owner == id.0 && pg.index == idx && pg.covered == covered;
                        if !(bound_ok && self.try_reconstruct(page)) {
                            return Err(KvError::CorruptPage { seq: id, index: idx });
                        }
                    }
                }
            }
            let in_page = pos % block;
            let take = (block - in_page).min(len - pos);
            let src = layer_off + in_page * d;
            let pg = &self.pages[page];
            k_out[pos * d..(pos + take) * d].copy_from_slice(&pg.k[src..src + take * d]);
            v_out[pos * d..(pos + take) * d].copy_from_slice(&pg.v[src..src + take * d]);
            pos += take;
        }
        Ok(())
    }

    /// Words (f32 words for page sites, table entries for `kv-table`)
    /// sequence `id` exposes at fault-injection `site` — the at-rest
    /// surface `crates/faults` sweeps. Sealed pages, the committed
    /// hot-tail prefix, and table entries backing committed positions
    /// count for their sites; `kv-hot` exposes the uncommitted
    /// append→first-commit window (empty at step boundaries), and
    /// `kv-parity` the parity pages of every group holding at least one
    /// of the sequence's pages. Unknown sites and dead ids have an
    /// empty surface.
    pub fn seq_fault_surface(&self, id: SeqId, site: &str) -> usize {
        let Some(seq) = self.seq(id) else { return 0 };
        let (block, d, nl) = (self.block, self.d, self.n_layers);
        let sealed = (seq.len / block).min(seq.table.len());
        let tail = seq.len - sealed * block;
        match site {
            "kv-k-sealed" | "kv-v-sealed" => sealed * nl * block * d,
            "kv-k-tail" | "kv-v-tail" => nl * tail * d,
            "kv-table" => seq.len.div_ceil(block).min(seq.table.len()),
            "kv-hot" => (0..nl)
                .map(|l| seq.hot_high[l].saturating_sub(seq.len) * d * 2)
                .sum(),
            "kv-parity" => self.seq_parity_groups(id.0).len() * 2 * self.page_floats(),
            _ => 0,
        }
    }

    /// Group ids holding at least one page owned by sequence slot
    /// `slot`, in group-id order.
    fn seq_parity_groups(&self, slot: usize) -> Vec<usize> {
        (0..self.groups.len())
            .filter(|&g| {
                self.groups[g]
                    .members
                    .iter()
                    .any(|&m| self.pages[m].owner == slot)
            })
            .collect()
    }

    /// Flip one bit of sequence `id`'s at-rest state at `site` — word
    /// `word` of [`seq_fault_surface`](KvArena::seq_fault_surface), bit
    /// `bit` (< 32 for f32 page words, < 64 for table entries). Returns
    /// whether a bit was flipped. Checksums are deliberately **not**
    /// updated: this models an SEU, and the next verified gather must
    /// detect it.
    pub fn inject_seq_fault(&mut self, id: SeqId, site: &str, word: usize, bit: u32) -> bool {
        if word >= self.seq_fault_surface(id, site) {
            return false;
        }
        let (block, d, nl) = (self.block, self.d, self.n_layers);
        let Some(seq) = self.seq(id) else { return false };
        let sealed = (seq.len / block).min(seq.table.len());
        let tail = seq.len - sealed * block;
        match site {
            "kv-k-sealed" | "kv-v-sealed" => {
                let per_page = nl * block * d;
                let Some(&page) = seq.table.get(word / per_page) else { return false };
                let off = word % per_page;
                let pg = &mut self.pages[page];
                let cell = if site == "kv-k-sealed" { &mut pg.k[off] } else { &mut pg.v[off] };
                *cell = f32::from_bits(cell.to_bits() ^ (1 << (bit % 32)));
                true
            }
            "kv-k-tail" | "kv-v-tail" => {
                let Some(&page) = seq.table.get(sealed) else { return false };
                let per_layer = tail * d;
                let off = (word / per_layer) * block * d + word % per_layer;
                let pg = &mut self.pages[page];
                let cell = if site == "kv-k-tail" { &mut pg.k[off] } else { &mut pg.v[off] };
                *cell = f32::from_bits(cell.to_bits() ^ (1 << (bit % 32)));
                true
            }
            "kv-table" => {
                let Some(Some(seq)) = self.seqs.get_mut(id.0) else { return false };
                seq.table[word] ^= 1 << (bit % 64);
                true
            }
            "kv-hot" => {
                // Resolve (layer, page, offset) immutably first; the
                // window spans the uncommitted positions of each layer,
                // K words before V words.
                let mut target = None;
                let mut w = word;
                for l in 0..nl {
                    let span = seq.hot_high[l].saturating_sub(seq.len) * d;
                    if w < 2 * span {
                        let is_k = w < span;
                        let in_region = w % span.max(1);
                        let pos = seq.len + in_region / d;
                        let e = in_region % d;
                        let Some(&page) = seq.table.get(pos / block) else { return false };
                        let off = l * block * d + (pos % block) * d + e;
                        target = Some((page, off, is_k));
                        break;
                    }
                    w -= 2 * span;
                }
                let Some((page, off, is_k)) = target else { return false };
                let pg = &mut self.pages[page];
                let cell = if is_k { &mut pg.k[off] } else { &mut pg.v[off] };
                *cell = f32::from_bits(cell.to_bits() ^ (1 << (bit % 32)));
                true
            }
            "kv-parity" => {
                let pf = self.page_floats();
                let groups = self.seq_parity_groups(id.0);
                let Some(&g) = groups.get(word / (2 * pf)) else { return false };
                let off = word % (2 * pf);
                let grp = &mut self.groups[g];
                let cell = if off < pf { &mut grp.k[off] } else { &mut grp.v[off - pf] };
                *cell = f32::from_bits(cell.to_bits() ^ (1 << (bit % 32)));
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> KvArena {
        KvArena::new(2, 8, 2, KvPageConfig { quant: None, block: 4, ..Default::default() })
    }

    fn rows(m: usize, d: usize, salt: f32) -> Vec<f32> {
        (0..m * d).map(|i| (i as f32 * 0.37 + salt).sin()).collect()
    }

    #[test]
    fn append_commit_gather_round_trips_across_page_boundaries() {
        let mut a = arena();
        let s = a.try_join().expect("join");
        let d = 8;
        // 6 positions span two 4-position pages; two layers.
        let (k0, v0) = (rows(6, d, 1.0), rows(6, d, 2.0));
        let (k1, v1) = (rows(6, d, 3.0), rows(6, d, 4.0));
        a.try_append(s, 0, 0, &k0, &v0).expect("append");
        a.try_append(s, 1, 0, &k1, &v1).expect("append");
        a.try_commit(s, 6).expect("commit");
        assert_eq!(a.len(s), 6);
        assert_eq!(a.live_pages(), 2);
        let (mut k, mut v) = (Vec::new(), Vec::new());
        a.try_gather(s, 0, 6, &mut k, &mut v).expect("gather");
        assert_eq!(k, k0);
        assert_eq!(v, v0);
        a.try_gather(s, 1, 6, &mut k, &mut v).expect("gather");
        assert_eq!(k, k1);
        assert_eq!(v, v1);
    }

    #[test]
    fn incremental_appends_match_bulk() {
        let mut a = arena();
        let bulk = a.try_join().expect("join");
        let inc = a.try_join().expect("join");
        let d = 8;
        let (k, v) = (rows(7, d, 5.0), rows(7, d, 6.0));
        a.try_append(bulk, 0, 0, &k, &v).expect("append");
        a.try_commit(bulk, 7).expect("commit");
        for p in 0..7 {
            a.try_append(inc, 0, p, &k[p * d..(p + 1) * d], &v[p * d..(p + 1) * d])
                .expect("append");
            a.try_commit(inc, p + 1).expect("commit");
        }
        let (mut kb, mut vb) = (Vec::new(), Vec::new());
        let (mut ki, mut vi) = (Vec::new(), Vec::new());
        a.try_gather(bulk, 0, 7, &mut kb, &mut vb).expect("gather");
        a.try_gather(inc, 0, 7, &mut ki, &mut vi).expect("gather");
        assert_eq!(kb, ki);
        assert_eq!(vb, vi);
    }

    #[test]
    fn leave_recycles_pages_and_peak_tracks_high_water() {
        let mut a = arena();
        let d = 8;
        let s1 = a.try_join().expect("join");
        a.try_append(s1, 0, 0, &rows(8, d, 0.5), &rows(8, d, 0.6)).expect("append");
        a.try_commit(s1, 8).expect("commit");
        assert_eq!(a.live_pages(), 2);
        assert_eq!(a.leave(s1), 2);
        assert_eq!(a.live_pages(), 0);
        assert_eq!(a.peak_pages(), 2);
        // A new sequence reuses the freed pages without growing the slab.
        let s2 = a.try_join().expect("join");
        a.try_append(s2, 0, 0, &rows(5, d, 0.7), &rows(5, d, 0.8)).expect("append");
        a.try_commit(s2, 5).expect("commit");
        assert_eq!(a.live_pages(), 2);
        assert_eq!(a.peak_pages(), 2);
        let (mut k, mut v) = (Vec::new(), Vec::new());
        a.try_gather(s2, 0, 5, &mut k, &mut v).expect("gather");
        assert_eq!(k, rows(5, d, 0.7));
    }

    #[test]
    fn reset_frees_pages_but_keeps_the_sequence() {
        let mut a = arena();
        let s = a.try_join().expect("join");
        a.try_append(s, 0, 0, &rows(5, 8, 1.5), &rows(5, 8, 1.6)).expect("append");
        a.try_commit(s, 5).expect("commit");
        assert_eq!(a.reset(s), 2);
        assert_eq!(a.len(s), 0);
        // The sequence can re-prefill from scratch.
        a.try_append(s, 0, 0, &rows(3, 8, 1.7), &rows(3, 8, 1.8)).expect("append");
        a.try_commit(s, 3).expect("commit");
        assert_eq!(a.len(s), 3);
    }

    #[test]
    fn quantized_pages_seal_on_fill_and_spare_the_hot_tail() {
        let mut a = KvArena::new(
            1,
            8,
            2,
            KvPageConfig { quant: Some(KvQuantConfig::opt()), block: 4, ..Default::default() },
        );
        let s = a.try_join().expect("join");
        let d = 8;
        let (k, v) = (rows(6, d, 9.0), rows(6, d, 10.0));
        a.try_append(s, 0, 0, &k, &v).expect("append");
        a.try_commit(s, 6).expect("commit");
        let (mut kq, mut vq) = (Vec::new(), Vec::new());
        a.try_gather(s, 0, 6, &mut kq, &mut vq).expect("gather");
        // Page 0 (positions 0..4) sealed: values changed by QDQ but close.
        let sealed_changed = (0..4 * d).any(|i| kq[i] != k[i]) || (0..4 * d).any(|i| vq[i] != v[i]);
        assert!(sealed_changed, "sealed page must be quantized in place");
        for i in 0..4 * d {
            assert!((kq[i] - k[i]).abs() < 0.5, "K QDQ error bounded at {i}");
            assert!((vq[i] - v[i]).abs() < 0.5, "V QDQ error bounded at {i}");
        }
        // The partial page (positions 4..6) is untouched FP.
        assert_eq!(&kq[4 * d..], &k[4 * d..], "hot tail stays FP");
        assert_eq!(&vq[4 * d..], &v[4 * d..], "hot tail stays FP");
        // Re-committing does not re-seal (idempotent).
        a.try_commit(s, 6).expect("commit");
        let (mut k2, mut v2) = (Vec::new(), Vec::new());
        a.try_gather(s, 0, 6, &mut k2, &mut v2).expect("gather");
        assert_eq!(kq, k2);
        assert_eq!(vq, v2);
    }

    #[test]
    fn env_config_parses_families() {
        // Only exercises the pure default here; env parsing is covered by
        // axcore_parallel::env tests.
        let cfg = KvPageConfig::default();
        assert_eq!(cfg.block, DEFAULT_KV_BLOCK);
        assert!(cfg.quant.is_none());
        assert!(cfg.max_pages.is_none() && cfg.verify.is_none());
    }

    #[test]
    fn zero_capacity_rejected_typed_at_config_construction() {
        assert_eq!(
            KvPageConfig::default().with_max_pages(0),
            Err(KvError::ZeroCapacity)
        );
        let cfg = KvPageConfig::default().with_max_pages(3).expect("positive cap");
        assert_eq!(cfg.max_pages, Some(3));
    }

    #[test]
    fn capacity_bound_is_typed_and_recoverable() {
        let cfg = KvPageConfig { quant: None, block: 4, ..Default::default() }
            .with_max_pages(2)
            .expect("cap");
        let mut a = KvArena::new(2, 8, 2, cfg);
        let s = a.try_join().expect("join");
        // 8 positions fit exactly in 2 pages; the 9th needs a 3rd.
        a.try_append(s, 0, 0, &rows(8, 8, 0.1), &rows(8, 8, 0.2)).expect("append");
        a.try_commit(s, 8).expect("commit");
        let err = a.try_append(s, 0, 8, &rows(1, 8, 0.3), &rows(1, 8, 0.4));
        assert_eq!(
            err,
            Err(KvError::CapacityExhausted { needed: 3, live: 2, max_pages: 2 })
        );
        assert!(a.live_pages() <= a.max_pages());
        // Recoverable: reset reclaims the pages and the write fits again.
        a.reset(s);
        a.try_append(s, 0, 0, &rows(4, 8, 0.5), &rows(4, 8, 0.6)).expect("append");
        a.try_commit(s, 4).expect("commit");
    }

    #[test]
    fn dead_sequence_and_shape_misuse_are_typed() {
        let mut a = arena();
        let s = a.try_join().expect("join");
        a.leave(s);
        let (k, v) = (rows(1, 8, 0.0), rows(1, 8, 0.0));
        assert_eq!(a.try_append(s, 0, 0, &k, &v), Err(KvError::DeadSequence));
        assert_eq!(a.try_commit(s, 1), Err(KvError::DeadSequence));
        let (mut ko, mut vo) = (Vec::new(), Vec::new());
        assert_eq!(a.try_gather(s, 0, 1, &mut ko, &mut vo), Err(KvError::DeadSequence));
        let s2 = a.try_join().expect("join");
        assert_eq!(
            a.try_append(s2, 0, 0, &k, &v[..4]),
            Err(KvError::RowMismatch { k: 8, v: 4 })
        );
        assert_eq!(
            a.try_append(s2, 0, 0, &k[..5], &v[..5]),
            Err(KvError::NotRowAligned { len: 5, d: 8 })
        );
        assert_eq!(
            a.try_gather(s2, 0, 3, &mut ko, &mut vo),
            Err(KvError::OutOfBounds { pos: 3, capacity: 0 })
        );
    }

    /// Build a verified arena with one sequence: 6 positions appended
    /// and committed (one sealed page + a 2-position tail per layer).
    fn faulted_fixture(parity: Option<usize>) -> (KvArena, SeqId) {
        let cfg = KvPageConfig {
            quant: None,
            block: 4,
            verify: Some(VerifyPolicy::Full),
            parity,
            ..Default::default()
        };
        let mut a = KvArena::new(2, 8, 2, cfg);
        let s = a.try_join().expect("join");
        for layer in 0..2 {
            a.try_append(s, layer, 0, &rows(6, 8, 1.0), &rows(6, 8, 2.0)).expect("append");
        }
        a.try_commit(s, 6).expect("commit");
        (a, s)
    }

    #[test]
    fn flipped_page_bits_are_detected_on_verified_gather() {
        // Without parity every flip is detected and surfaces as a typed
        // error; tail flips (partial, ungrouped pages) do so even with
        // parity on.
        for site in ["kv-k-sealed", "kv-v-sealed", "kv-k-tail", "kv-v-tail"] {
            let (mut a, s) = faulted_fixture(None);
            let (mut k, mut v) = (Vec::new(), Vec::new());
            a.try_gather(s, 0, 6, &mut k, &mut v).expect("pristine gather verifies");
            let surface = a.seq_fault_surface(s, site);
            assert!(surface > 0, "{site} has a committed surface");
            assert!(a.inject_seq_fault(s, site, surface / 2, 7));
            let hit = (0..2).any(|layer| {
                a.try_gather(s, layer, 6, &mut k, &mut v).is_err()
            });
            assert!(hit, "{site} flip detected under VerifyPolicy::Full");
            assert!(a.corruptions_detected() >= 1);
            assert_eq!(a.reconstructions(), 0, "no parity, no reconstruction");
        }
        for site in ["kv-k-tail", "kv-v-tail"] {
            let (mut a, s) = faulted_fixture(Some(DEFAULT_KV_PARITY));
            let (mut k, mut v) = (Vec::new(), Vec::new());
            let surface = a.seq_fault_surface(s, site);
            assert!(a.inject_seq_fault(s, site, surface / 2, 7));
            let hit = (0..2).any(|layer| {
                a.try_gather(s, layer, 6, &mut k, &mut v).is_err()
            });
            assert!(hit, "{site} flip still errors with parity on");
        }
    }

    #[test]
    fn sealed_flip_reconstructs_in_place_bit_exact() {
        for site in ["kv-k-sealed", "kv-v-sealed"] {
            let (mut a, s) = faulted_fixture(Some(DEFAULT_KV_PARITY));
            let (mut k0, mut v0) = (Vec::new(), Vec::new());
            let (mut k1, mut v1) = (Vec::new(), Vec::new());
            a.try_gather(s, 0, 6, &mut k0, &mut v0).expect("pristine");
            a.try_gather(s, 1, 6, &mut k1, &mut v1).expect("pristine");
            let surface = a.seq_fault_surface(s, site);
            // Flip inside the sealed page (first nl·block·d words).
            assert!(a.inject_seq_fault(s, site, surface / 4, 9));
            let (mut k, mut v) = (Vec::new(), Vec::new());
            for (layer, (rk, rv)) in [(&k0, &v0), (&k1, &v1)].into_iter().enumerate() {
                a.try_gather(s, layer, 6, &mut k, &mut v)
                    .expect("sealed flip heals in place via parity");
                assert_eq!(&k, rk, "{site} K bits restored");
                assert_eq!(&v, rv, "{site} V bits restored");
            }
            assert!(a.corruptions_detected() >= 1, "flip counted as a corruption");
            assert_eq!(a.reconstructions(), 1, "exactly one page reconstructed");
            assert_eq!(a.reconstruct_failures(), 0);
        }
    }

    #[test]
    fn hot_window_flip_is_detected_and_reappend_heals() {
        let cfg = KvPageConfig {
            quant: None,
            block: 4,
            verify: Some(VerifyPolicy::Full),
            ..Default::default()
        };
        let mut a = KvArena::new(2, 8, 2, cfg);
        let s = a.try_join().expect("join");
        let (k6, v6) = (rows(6, 8, 1.0), rows(6, 8, 2.0));
        for layer in 0..2 {
            a.try_append(s, layer, 0, &k6, &v6).expect("append");
        }
        // Commit one short of the appended high-water mark: position 5
        // stays in the FP hot window, exactly the mid-pass state.
        a.try_commit(s, 5).expect("commit");
        let (mut k, mut v) = (Vec::new(), Vec::new());
        for layer in 0..2 {
            a.try_gather(s, layer, 6, &mut k, &mut v).expect("pristine hot gather");
        }
        let surface = a.seq_fault_surface(s, "kv-hot");
        assert_eq!(surface, 2 * 8 * 2, "one uncommitted position per layer, K and V");
        assert!(a.inject_seq_fault(s, "kv-hot", 3, 11));
        let hit = (0..2).any(|layer| {
            a.try_gather(s, layer, 6, &mut k, &mut v)
                == Err(KvError::CorruptPage { seq: s, index: 1 })
        });
        assert!(hit, "hot-window flip trips the rolling checksum");
        assert!(a.corruptions_detected() >= 1);
        // The repair is the caller redoing the pass: re-append the
        // pristine rows over the window, after which gathers verify and
        // the bits match.
        for layer in 0..2 {
            a.try_append(s, layer, 5, &k6[40..], &v6[40..]).expect("re-append");
        }
        for layer in 0..2 {
            a.try_gather(s, layer, 6, &mut k, &mut v).expect("healed");
            assert_eq!(k, k6);
            assert_eq!(v, v6);
        }
        // Committing past the window closes it: no hot surface remains.
        a.try_commit(s, 6).expect("commit");
        assert_eq!(a.seq_fault_surface(s, "kv-hot"), 0);
    }

    #[test]
    fn scrub_repairs_sealed_and_parity_flips_proactively() {
        let (mut a, s) = faulted_fixture(Some(DEFAULT_KV_PARITY));
        // Sealed-page flip: the scrubber finds it without any gather and
        // heals it in place.
        assert!(a.inject_seq_fault(s, "kv-k-sealed", 3, 5));
        let failures = a.scrub(64);
        assert!(failures.is_empty(), "single sealed flip repaired by scrub");
        assert_eq!(a.reconstructions(), 1);
        assert_eq!(a.scrub_repairs(), 1);
        assert!(a.pages_scrubbed() > 0);
        // Parity-page flip: scrub detects the stale fold and rebuilds
        // the parity page from its healthy members.
        assert!(a.inject_seq_fault(s, "kv-parity", 2, 19));
        assert!(a.scrub(64).is_empty(), "parity flip repaired by rebuild");
        assert_eq!(a.parity_rebuilds(), 1);
        assert_eq!(a.scrub_repairs(), 2);
        // The rebuilt parity still reconstructs a subsequent page loss.
        assert!(a.inject_seq_fault(s, "kv-v-sealed", 7, 23));
        assert!(a.scrub(64).is_empty());
        assert_eq!(a.reconstructions(), 2);
    }

    #[test]
    fn double_fault_in_one_group_refuses_reconstruction() {
        let cfg = KvPageConfig {
            quant: None,
            block: 4,
            verify: Some(VerifyPolicy::Full),
            ..Default::default()
        };
        let mut a = KvArena::new(1, 8, 2, cfg);
        let s = a.try_join().expect("join");
        // Two sealed pages, both members of the same size-8 group.
        a.try_append(s, 0, 0, &rows(8, 8, 1.0), &rows(8, 8, 2.0)).expect("append");
        a.try_commit(s, 8).expect("commit");
        assert_eq!(a.parity_groups_live(), 1);
        let per_page = 4 * 8; // 1 layer × block × d
        assert!(a.inject_seq_fault(s, "kv-k-sealed", 1, 3));
        assert!(a.inject_seq_fault(s, "kv-k-sealed", per_page + 1, 3));
        let (mut k, mut v) = (Vec::new(), Vec::new());
        assert!(
            a.try_gather(s, 0, 8, &mut k, &mut v).is_err(),
            "degraded group falls through to the typed error"
        );
        assert_eq!(a.reconstructions(), 0, "no reconstruction from a degraded group");
        assert!(a.reconstruct_failures() >= 1, "the refusal is counted");
    }

    #[test]
    fn freeing_a_corrupt_member_rebuilds_parity_from_survivors() {
        let cfg = KvPageConfig {
            quant: None,
            block: 4,
            verify: Some(VerifyPolicy::Full),
            ..Default::default()
        };
        let mut a = KvArena::new(1, 8, 2, cfg);
        // Two sequences sealing one page each into the same open group.
        let s1 = a.try_join().expect("join");
        let s2 = a.try_join().expect("join");
        let (k2, v2) = (rows(4, 8, 3.0), rows(4, 8, 4.0));
        a.try_append(s1, 0, 0, &rows(4, 8, 1.0), &rows(4, 8, 2.0)).expect("append");
        a.try_commit(s1, 4).expect("commit");
        a.try_append(s2, 0, 0, &k2, &v2).expect("append");
        a.try_commit(s2, 4).expect("commit");
        assert_eq!(a.parity_groups_live(), 1, "both pages share one group");
        // Corrupt s1's page, then free it: XOR-ing the corrupt bits out
        // would poison the parity, so the arena must rebuild from the
        // surviving healthy member instead.
        assert!(a.inject_seq_fault(s1, "kv-k-sealed", 5, 13));
        a.leave(s1);
        assert!(a.parity_rebuilds() >= 1, "unhealthy leave rebuilds parity");
        // The rebuilt parity must still reconstruct s2's page exactly.
        assert!(a.inject_seq_fault(s2, "kv-v-sealed", 9, 21));
        let (mut k, mut v) = (Vec::new(), Vec::new());
        a.try_gather(s2, 0, 4, &mut k, &mut v).expect("reconstructs after rebuild");
        assert_eq!(k, k2);
        assert_eq!(v, v2);
        assert_eq!(a.reconstructions(), 1);
    }

    #[test]
    fn flipped_block_table_entries_are_detected() {
        let cfg = KvPageConfig {
            quant: None,
            block: 4,
            verify: Some(VerifyPolicy::Full),
            ..Default::default()
        };
        let mut a = KvArena::new(1, 8, 2, cfg);
        // Two sequences so a flipped entry can land on a *valid* page of
        // another owner — the self-consistent-but-wrong case the
        // owner-bound checksum exists for.
        let s1 = a.try_join().expect("join");
        let s2 = a.try_join().expect("join");
        for s in [s1, s2] {
            a.try_append(s, 0, 0, &rows(8, 8, 3.0), &rows(8, 8, 4.0)).expect("append");
            a.try_commit(s, 8).expect("commit");
        }
        let (mut k, mut v) = (Vec::new(), Vec::new());
        a.try_gather(s1, 0, 8, &mut k, &mut v).expect("pristine");
        for bit in [0u32, 1, 17, 63] {
            let mut b = KvArena::new(1, 8, 2, cfg);
            let t1 = b.try_join().expect("join");
            let t2 = b.try_join().expect("join");
            for s in [t1, t2] {
                b.try_append(s, 0, 0, &rows(8, 8, 3.0), &rows(8, 8, 4.0)).expect("append");
                b.try_commit(s, 8).expect("commit");
            }
            assert!(b.inject_seq_fault(t1, "kv-table", 1, bit));
            assert!(
                b.try_gather(t1, 0, 8, &mut k, &mut v).is_err(),
                "table flip at bit {bit} detected"
            );
        }
    }

    #[test]
    fn sampled_verification_advances_and_off_skips() {
        let cfg = KvPageConfig {
            quant: None,
            block: 4,
            verify: Some(VerifyPolicy::Sample(2)),
            ..Default::default()
        };
        let mut a = KvArena::new(1, 8, 2, cfg);
        let s = a.try_join().expect("join");
        a.try_append(s, 0, 0, &rows(4, 8, 5.0), &rows(4, 8, 6.0)).expect("append");
        a.try_commit(s, 4).expect("commit");
        let (mut k, mut v) = (Vec::new(), Vec::new());
        for _ in 0..8 {
            a.try_gather(s, 0, 4, &mut k, &mut v).expect("gather");
        }
        assert_eq!(a.pages_verified(), 4, "every 2nd gather verifies its one page");
        let off = KvPageConfig { verify: Some(VerifyPolicy::Off), ..cfg };
        let mut b = KvArena::new(1, 8, 2, off);
        let s = b.try_join().expect("join");
        b.try_append(s, 0, 0, &rows(4, 8, 5.0), &rows(4, 8, 6.0)).expect("append");
        b.try_commit(s, 4).expect("commit");
        for _ in 0..8 {
            b.try_gather(s, 0, 4, &mut k, &mut v).expect("gather");
        }
        assert_eq!(b.pages_verified(), 0, "Off never folds");
    }
}
