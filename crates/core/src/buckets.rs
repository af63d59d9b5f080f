//! The flat, length-indexed clue buckets the stride and compressed
//! backends probe: one open-addressed window per clue length over a
//! shared slot array, with each clue entry's payload inlined in its
//! slot. Clues have at most `A::BITS + 1` distinct lengths (≤33 for
//! IPv4), so a clue consult is "pick the window for this length, one
//! multiply-shift home slot, linear scan" — no SipHash, no FxHash, one
//! predictable cache line in the common case. Both backends probe this
//! one structure through [`ClueBuckets::probe`], so bucket behaviour
//! (and the single mandatory [`Cost::hash_probe`](clue_trie::Cost)
//! charge) cannot drift between them.

use clue_trie::{Address, Prefix};

use crate::backend::NO_TAG;
use crate::frozen::{FrozenEngine, NONE_NODE};
use crate::prefetch::prefetch_read;
use crate::profile::{Meter, Stage};

/// Empty-slot sentinel in a clue bucket (the slot's `cont` field).
const EMPTY_SLOT: u32 = u32::MAX;

/// Occupied-and-final sentinel in a clue bucket's `cont` field: the
/// inlined entry has no Claim-1 continuation. Distinct from
/// [`EMPTY_SLOT`]; real continuation vertices are dense indices far
/// below either sentinel.
pub(crate) const FINAL_SLOT: u32 = u32::MAX - 1;

/// Descriptor of one length's open-addressed region inside the shared
/// flat slot array: clues of length `l` live in
/// `slots[offset .. offset + mask + 1]`, a power-of-two window at most
/// half full, so a multiply-shift home index plus a short linear scan
/// always terminates on an empty slot. Lengths with no clues point at
/// the shared always-empty sentinel slot 0 (`mask == 0`), so the probe
/// needs no emptiness branch. One flat array (instead of a `Vec` per
/// length) keeps the probe to two dependent loads: this 12-byte
/// descriptor, then the slot itself.
#[derive(Debug, Clone, Copy)]
struct BucketDesc {
    offset: u32,
    /// `capacity - 1` of the window (0 for the empty sentinel).
    mask: u32,
    /// `64 - log2(capacity)` — the multiply-shift downshift.
    shift: u32,
}

const EMPTY_DESC: BucketDesc = BucketDesc {
    offset: 0,
    mask: 0,
    shift: 63,
};

/// `fd_len` value marking an absent FD field in a [`BucketSlot`].
const NO_FD: u8 = u8::MAX;

/// One probe slot with the clue entry's payload inlined: a Final-class
/// lookup — the overwhelming steady-state majority — resolves with a
/// single data-dependent load (the frozen path needs the hash slot
/// *and* a separate entry record). The FD prefix is stored unpacked
/// (bits + length, [`NO_FD`] for none) and the struct is 16-aligned so
/// an IPv4 slot is 16 bytes and never straddles a cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
pub(crate) struct BucketSlot<A: Address> {
    pub(crate) key: A,
    /// Bits of the inlined FD field ([`Address::ZERO`] when absent).
    fd_bits: A,
    /// Inlined continuation: a vertex index into the backend's arena,
    /// [`FINAL_SLOT`] when the entry is final, or [`EMPTY_SLOT`] when
    /// the slot is vacant.
    pub(crate) cont: u32,
    /// Length of the inlined FD prefix, [`NO_FD`] when absent.
    fd_len: u8,
}

impl<A: Address> BucketSlot<A> {
    /// Rebuilds the FD field stored in this slot.
    #[inline]
    pub(crate) fn fd(&self) -> Option<Prefix<A>> {
        if self.fd_len == NO_FD {
            None
        } else {
            Some(Prefix::new(self.fd_bits, self.fd_len))
        }
    }
}

/// Fibonacci multiply-shift over the (masked) clue bits; the high bits
/// of the product index the bucket window.
#[inline]
fn fold_hash<A: Address>(bits: A) -> u64 {
    let x = bits.to_u128();
    (((x >> 64) as u64) ^ (x as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The clue buckets compiled from a frozen snapshot: per-length
/// power-of-two probe windows over one shared slot array (slot 0 the
/// always-empty sentinel), with a parallel FD tag array resolving into
/// the snapshot's tag dictionary.
#[derive(Debug)]
pub(crate) struct ClueBuckets<A: Address> {
    /// Per-length probe windows into `slots`, indexed by clue length
    /// (`A::BITS + 1` descriptors).
    desc: Vec<BucketDesc>,
    /// All length windows back to back.
    pub(crate) slots: Vec<BucketSlot<A>>,
    /// Per-slot FD tag ([`NO_TAG`] when the slot has none) — the tagged
    /// twin of the inlined FD payload, kept parallel rather than
    /// widening the probed slot.
    pub(crate) fd_tags: Vec<u32>,
}

impl<A: Address> ClueBuckets<A> {
    /// Builds the buckets in canonical (sorted-clue) order so
    /// compilation stays a pure function of the snapshot. FD tags are
    /// read off the frozen entries — the tag dictionary itself is
    /// assigned at freeze time, shared by every backend compiled from
    /// the snapshot.
    pub(crate) fn build(frozen: &FrozenEngine<A>) -> Self {
        let mut by_len: Vec<Vec<(A, u32)>> = vec![Vec::new(); A::BITS as usize + 1];
        let mut sorted: Vec<_> = frozen
            .raw_map()
            .iter()
            .map(|(clue, &i)| (*clue, i))
            .collect();
        sorted.sort_by_key(|(clue, _)| *clue);
        for (clue, i) in sorted {
            by_len[clue.len() as usize].push((clue.bits(), i));
        }
        let vacant = BucketSlot {
            key: A::ZERO,
            fd_bits: A::ZERO,
            cont: EMPTY_SLOT,
            fd_len: NO_FD,
        };
        let entries = frozen.raw_entries();
        let mut desc_v = Vec::with_capacity(by_len.len());
        let mut slots = vec![vacant];
        let mut fd_tags = vec![NO_TAG];
        for keys in by_len {
            if keys.is_empty() {
                desc_v.push(EMPTY_DESC);
                continue;
            }
            let cap = (keys.len() * 2).next_power_of_two().max(2);
            let desc = BucketDesc {
                offset: slots.len() as u32,
                mask: (cap - 1) as u32,
                shift: 64 - cap.trailing_zeros(),
            };
            slots.resize(slots.len() + cap, vacant);
            fd_tags.resize(slots.len(), NO_TAG);
            for (bits, entry) in keys {
                let e = &entries[entry as usize];
                let cont = if e.cont == NONE_NODE {
                    FINAL_SLOT
                } else {
                    e.cont
                };
                let (fd_bits, fd_len) = match e.fd {
                    Some(p) => (p.bits(), p.len()),
                    None => (A::ZERO, NO_FD),
                };
                let mut k = (fold_hash(bits) >> desc.shift) as u32;
                loop {
                    let i = (desc.offset + (k & desc.mask)) as usize;
                    if slots[i].cont == EMPTY_SLOT {
                        slots[i] = BucketSlot {
                            key: bits,
                            fd_bits,
                            cont,
                            fd_len,
                        };
                        fd_tags[i] = e.fd_tag;
                        break;
                    }
                    debug_assert!(slots[i].key != bits, "duplicate clue in bucket");
                    k = k.wrapping_add(1);
                }
            }
            desc_v.push(desc);
        }
        ClueBuckets {
            desc: desc_v,
            slots,
            fd_tags,
        }
    }

    /// Resident bytes: descriptors, slots and FD tags.
    pub(crate) fn bytes(&self) -> u64 {
        (core::mem::size_of_val(self.desc.as_slice())
            + core::mem::size_of_val(self.slots.as_slice())
            + core::mem::size_of_val(self.fd_tags.as_slice())) as u64
    }

    /// The home probe counter for `bits` in length `len`'s window.
    #[inline]
    pub(crate) fn home(&self, len: u8, bits: A) -> u32 {
        (fold_hash(bits) >> self.desc[len as usize].shift) as u32
    }

    /// Requests the cache line of the slot at probe counter `k` of
    /// length `len`'s window.
    #[inline]
    pub(crate) fn prefetch(&self, len: u8, k: u32) {
        let d = self.desc[len as usize];
        prefetch_read(&self.slots[(d.offset + (k & d.mask)) as usize]);
    }

    /// The clue consult: charges the paper's one
    /// [`Cost::hash_probe`](clue_trie::Cost), then scans length `len`'s
    /// window from counter `k` (the multiply-shift home) for `bits`,
    /// returning the absolute slot index. In the half-full steady state
    /// the scan touches a single slot, and that slot already carries
    /// the entry payload. The [`Stage::ClueProbe`] byte model counts
    /// what the scan dereferenced: the descriptor plus every slot
    /// visited.
    #[inline]
    pub(crate) fn probe<M: Meter>(
        &self,
        len: u8,
        bits: A,
        mut k: u32,
        meter: &mut M,
    ) -> Option<u32> {
        let mark = meter.mark();
        meter.cost().hash_probe();
        let d = self.desc[len as usize];
        let mut scanned = 0u64;
        let hit = loop {
            let i = d.offset + (k & d.mask);
            let slot = &self.slots[i as usize];
            scanned += 1;
            if slot.cont == EMPTY_SLOT {
                break None;
            }
            if slot.key == bits {
                break Some(i);
            }
            k = k.wrapping_add(1);
        };
        let bytes = core::mem::size_of::<BucketDesc>() as u64
            + scanned * core::mem::size_of::<BucketSlot<A>>() as u64;
        meter.stage(Stage::ClueProbe, mark, bytes, 0);
        hit
    }
}
