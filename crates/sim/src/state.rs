//! One state declaration per struct.
//!
//! The simulator captures its whole state three ways — serialized into a
//! snapshot, restored from one, and folded into the explorer's structural
//! hash — and all three must agree on what "the state" is. [`State`] puts
//! the three walks behind one trait, and [`impl_state!`](crate::impl_state)
//! generates all of them from a single field list in which every field
//! carries one of four classes:
//!
//! | class     | snapshot | hash | for |
//! |-----------|----------|------|-----|
//! | `state`   | yes      | yes  | anything that can steer control flow or a checker verdict |
//! | `timing`  | yes      | no   | virtual time, counters, and run-progress values that cannot tell apart two executions the hash already equates |
//! | `config`  | no       | no   | whatever construction re-supplies: configuration, derived constants, handles, host-side caches; `decode` leaves it alone |
//! | `scratch` | no       | no   | in-flight work that is empty at every step boundary: debug-asserted `Default` on `encode`, reset to `Default` on `decode` |
//!
//! Each generated method opens with an exhaustive destructure
//! (`let Self { a, b, c } = self;`, no `..`), so a field added to the
//! struct but not to the list — or listed twice, or given a class that
//! does not exist — is a compile error at the declaration:
//!
//! ```
//! use dsm_sim::{impl_state, CostModel};
//!
//! #[derive(Default)]
//! struct Link { costs: CostModel, sent: u64, busy_ns: u64, queued: Vec<u32> }
//! impl_state!(Link {
//!     config: costs;
//!     state: sent;
//!     timing: busy_ns;
//!     scratch: queued;
//! });
//! ```
//!
//! ```compile_fail
//! # use dsm_sim::impl_state;
//! struct Link { sent: u64, lost: u64 }
//! impl_state!(Link { state: sent; });            // `lost` is not classified
//! ```
//!
//! ```compile_fail
//! # use dsm_sim::impl_state;
//! struct Link { sent: u64 }
//! impl_state!(Link { state: sent; timing: sent; }); // listed twice
//! ```
//!
//! ```compile_fail
//! # use dsm_sim::impl_state;
//! struct Link { sent: u64 }
//! impl_state!(Link { hashed: sent; });           // no such class
//! ```
//!
//! Enums get the same treatment from
//! [`impl_state_enum!`](crate::impl_state_enum), a tag table whose
//! `match`es are exhaustive. Hand-written impls remain only where a type
//! hides an algorithm or an encoding (page frames as delta runs, copysets
//! as pid lists); they open with the same exhaustive destructure, which
//! `dsm-lint`'s `state-rest` rule (a `cargo test` scan) enforces.
//!
//! The container impls below fix the byte conventions once: a `u64` count
//! before variable-length data, hash-container contents sorted by key,
//! key before value, nothing before fixed-size arrays. Boxed slices are
//! fixed geometry — one entry per process or channel — so their count is
//! checked on decode, not obeyed.

use std::collections::BTreeSet;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use crate::fasthash::{FastMap, FastSet};
use crate::snapio::{SnapError, SnapReader, SnapWriter};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain byte-at-a-time FNV-1a (64-bit) of `bytes`. Unlike
/// [`StateHasher`], which folds eight bytes per multiply and whose values
/// are nowhere pinned, these values are printed in committed results
/// (plan and region-table digests) and stored in snapshot headers (the
/// configuration digest), so they must never change.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Tiny incremental FNV-1a hasher (the workspace carries no external
/// dependencies; quality is ample for a visited set whose collisions only
/// cost soundness-preserving over- or under-pruning bounded by budgets).
#[derive(Clone, Copy, Debug)]
pub struct StateHasher {
    acc: u64,
    uncached: bool,
}

impl Default for StateHasher {
    fn default() -> StateHasher {
        StateHasher::new()
    }
}

impl StateHasher {
    pub fn new() -> StateHasher {
        StateHasher::seeded(0)
    }

    /// Continue from a running accumulator ([`StateHasher::state`]); zero
    /// starts fresh.
    pub fn seeded(h: u64) -> StateHasher {
        StateHasher {
            acc: if h == 0 { FNV_OFFSET } else { h },
            uncached: false,
        }
    }

    /// A hasher whose folds bypass every derived-value cache (the
    /// per-frame hash memo): the differential reference that cached
    /// hashing is tested against.
    pub fn uncached() -> StateHasher {
        StateHasher {
            uncached: true,
            ..StateHasher::new()
        }
    }

    /// True when folds must recompute instead of consulting a cache.
    pub fn bypasses_caches(&self) -> bool {
        self.uncached
    }

    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.u64(u64::from(b));
    }

    /// Fold a byte slice, 8 bytes per multiply. Chunking changes hash
    /// *values* relative to byte-at-a-time FNV but not equality semantics:
    /// the hash stays a deterministic function of the folded stream, which
    /// is all the visited set and trace hash rely on — and it makes the
    /// per-event fold (the explorer's hottest loop) ~8x cheaper.
    #[inline]
    pub fn bytes(&mut self, bs: &[u8]) {
        let mut chunks = bs.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.byte(b);
        }
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.acc = (self.acc ^ v).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// The running accumulator, unmixed — what [`StateHasher::seeded`]
    /// resumes from.
    pub fn state(&self) -> u64 {
        self.acc
    }

    pub fn finish(self) -> u64 {
        // A final avalanche (splitmix64 mix) so near-equal inputs spread.
        let mut z = self.acc;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A value that is part of the simulation's state: it can write itself
/// into a snapshot, restore itself in place from one, and fold itself
/// into the structural state hash.
///
/// `decode` works in place because most state-bearing structs also hold
/// configuration a snapshot does not carry; whatever `encode` did not
/// write, `decode` must leave as construction supplied it.
pub trait State {
    fn encode(&self, w: &mut SnapWriter);
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
    fn fold(&self, h: &mut StateHasher);

    /// Slice hooks, as in [`Hash::hash_slice`]: `u8` overrides them so
    /// byte payloads (diff runs) move as one copy, not a byte at a time.
    fn encode_slice(xs: &[Self], w: &mut SnapWriter)
    where
        Self: Sized,
    {
        for x in xs {
            x.encode(w);
        }
    }

    fn decode_slice(xs: &mut [Self], r: &mut SnapReader<'_>) -> Result<(), SnapError>
    where
        Self: Sized,
    {
        xs.iter_mut().try_for_each(|x| x.decode(r))
    }

    fn fold_slice(xs: &[Self], h: &mut StateHasher)
    where
        Self: Sized,
    {
        for x in xs {
            x.fold(h);
        }
    }
}

/// Fold `v` as the hash of its snapshot encoding: equal exactly when the
/// snapshots are, by construction. For hand-written impls of state that is
/// snapshotted but sits on no hashing hot path (the checker's shadows).
pub fn fold_encoding<T: State + ?Sized>(v: &T, h: &mut StateHasher) {
    let mut w = SnapWriter::new();
    v.encode(&mut w);
    h.bytes(&w.into_bytes());
}

/// `page` as an in-memory checkpoint buffer: `prev` (the same page in the
/// checkpoint this one continues from) itself when it holds the same
/// elements, a copy otherwise. Checkpoints along one search path then hold
/// each unchanged page once. A copy overwrites a buffer from `spare`
/// ([`reclaim`]) when one of the right length is there.
pub fn share<T: Copy + PartialEq>(
    page: &[T],
    prev: Option<&Rc<[T]>>,
    spare: &mut Vec<Rc<[T]>>,
) -> Rc<[T]> {
    match prev {
        Some(p) if **p == *page => Rc::clone(p),
        _ => {
            if let Some(mut buf) = spare.pop() {
                if let Some(b) = Rc::get_mut(&mut buf).filter(|b| b.len() == page.len()) {
                    b.copy_from_slice(page);
                    return buf;
                }
            }
            Rc::from(page)
        }
    }
}

/// Hand back a buffer of a dropped checkpoint: onto `spare` for a later
/// [`share`] to overwrite when nothing else holds it. Checkpoint pages
/// then cycle through their owner instead of through the allocator, which
/// would return the memory to the system and fault it in again.
pub fn reclaim<T>(mut buf: Rc<[T]>, spare: &mut Vec<Rc<[T]>>) {
    if Rc::get_mut(&mut buf).is_some() {
        spare.push(buf);
    }
}

/// The `scratch` class's step-boundary condition (for `impl_state!`).
#[doc(hidden)]
pub fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// Generate [`State`] for a struct from its classified field list (see
/// the [module docs](crate::state) for the four classes). Fields are
/// written in list order; a class may appear more than once. Newtypes use
/// the tuple form, `impl_state!(PageId(state));`.
#[macro_export]
macro_rules! impl_state {
    (@encode state $f:ident $w:ident) => { $crate::State::encode($f, $w) };
    (@encode timing $f:ident $w:ident) => { $crate::State::encode($f, $w) };
    (@encode config $f:ident $w:ident) => { let _ = $f; };
    (@encode scratch $f:ident $w:ident) => {
        debug_assert!(
            $crate::state::is_default($f),
            concat!("scratch field `", stringify!($f), "` not empty at a step boundary")
        )
    };
    (@decode state $f:ident $r:ident) => { $crate::State::decode($f, $r)? };
    (@decode timing $f:ident $r:ident) => { $crate::State::decode($f, $r)? };
    (@decode config $f:ident $r:ident) => { let _ = $f; };
    (@decode scratch $f:ident $r:ident) => { *$f = ::core::default::Default::default() };
    (@fold state $f:ident $h:ident) => { $crate::State::fold($f, $h) };
    (@fold timing $f:ident $h:ident) => { let _ = $f; };
    (@fold config $f:ident $h:ident) => { let _ = $f; };
    (@fold scratch $f:ident $h:ident) => { let _ = $f; };
    (@impl $ty:ty, $pat:pat, $( $class:ident $field:ident; )+) => {
        #[allow(unused_variables)]
        impl $crate::State for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                let $pat = self;
                $( $crate::impl_state!(@encode $class $field w); )+
            }
            fn decode(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::SnapError> {
                let $pat = self;
                $( $crate::impl_state!(@decode $class $field r); )+
                Ok(())
            }
            fn fold(&self, h: &mut $crate::StateHasher) {
                let $pat = self;
                $( $crate::impl_state!(@fold $class $field h); )+
            }
        }
    };
    (@$method:ident $class:ident $($rest:tt)*) => {
        compile_error!(concat!(
            "unknown state class `", stringify!($class),
            "`: expected state, timing, config or scratch"
        ))
    };
    ($ty:ident ( $class:ident )) => {
        $crate::impl_state!(@impl $ty, Self(inner), $class inner;);
    };
    ($ty:ty { $( $class:ident : $( $field:ident ),+ $(,)? ; )+ }) => {
        $crate::impl_state!(@impl $ty, Self { $( $( $field, )+ )+ }, $( $( $class $field; )+ )+);
    };
}

/// Generate [`State`] for an enum as a one-byte tag followed by the
/// variant's fields in the order listed (unit variants list none):
/// `impl_state_enum!(OdMode { 0 => Learning, 1 => Overdrive });`,
/// `impl_state_enum!(Shape { 0 => Dot, 1 => Line { from, to } });`. Every
/// `match` is exhaustive over variants and fields alike, so a new variant
/// or field left out of the table is a compile error; an undefined tag in
/// the stream is a `BadTag` error. Field types need `Default` (`decode`
/// builds the variant from scratch).
#[macro_export]
macro_rules! impl_state_enum {
    ($ty:ident { $( $tag:literal => $variant:ident $( { $( $field:ident ),+ } )? ),+ $(,)? }) => {
        impl $crate::State for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $( $ty::$variant $( { $( $field ),+ } )? => {
                        w.u8($tag);
                        $( $( $crate::State::encode($field, w); )+ )?
                    } )+
                }
            }
            fn decode(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::SnapError> {
                *self = match r.u8()? {
                    $( $tag => {
                        $( $( let mut $field = ::core::default::Default::default(); )+
                           $( $crate::State::decode(&mut $field, r)?; )+ )?
                        $ty::$variant $( { $( $field ),+ } )?
                    } )+
                    t => return r.bad_tag(stringify!($ty), u64::from(t)),
                };
                Ok(())
            }
            fn fold(&self, h: &mut $crate::StateHasher) {
                match self {
                    $( $ty::$variant $( { $( $field ),+ } )? => {
                        h.byte($tag);
                        $( $( $crate::State::fold($field, h); )+ )?
                    } )+
                }
            }
        }
    };
}

macro_rules! int_state {
    ($($t:ident)*) => {$(
        impl State for $t {
            #[inline]
            fn encode(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }
            #[inline]
            fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                *self = r.$t()?;
                Ok(())
            }
            #[inline]
            fn fold(&self, h: &mut StateHasher) {
                h.u64(*self as u64);
            }
        }
    )*};
}
int_state!(u16 u32 u64 usize bool);

impl State for u8 {
    fn encode(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = r.u8()?;
        Ok(())
    }
    fn fold(&self, h: &mut StateHasher) {
        h.byte(*self);
    }
    fn encode_slice(xs: &[u8], w: &mut SnapWriter) {
        w.raw(xs);
    }
    fn decode_slice(xs: &mut [u8], r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        xs.copy_from_slice(r.raw(xs.len())?);
        Ok(())
    }
    fn fold_slice(xs: &[u8], h: &mut StateHasher) {
        h.bytes(xs);
    }
}

/// Bit pattern, so restored and hashed values are exact, NaNs included.
impl State for f64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.f64(*self);
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = r.f64()?;
        Ok(())
    }
    fn fold(&self, h: &mut StateHasher) {
        h.u64(self.to_bits());
    }
}

impl State for String {
    fn encode(&self, w: &mut SnapWriter) {
        w.bytes(self.as_bytes());
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match core::str::from_utf8(r.bytes()?) {
            Ok(s) => {
                self.clear();
                self.push_str(s);
                Ok(())
            }
            Err(e) => r.bad_tag("utf-8", e.valid_up_to() as u64),
        }
    }
    fn fold(&self, h: &mut StateHasher) {
        h.usize(self.len());
        h.bytes(self.as_bytes());
    }
}

macro_rules! tuple_state {
    ($($t:ident $i:tt),+) => {
        impl<$($t: State),+> State for ($($t,)+) {
            #[inline]
            fn encode(&self, w: &mut SnapWriter) {
                $( self.$i.encode(w); )+
            }
            #[inline]
            fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                $( self.$i.decode(r)?; )+
                Ok(())
            }
            #[inline]
            fn fold(&self, h: &mut StateHasher) {
                $( self.$i.fold(h); )+
            }
        }
    };
}
tuple_state!(A 0, B 1);
tuple_state!(A 0, B 1, C 2);
tuple_state!(A 0, B 1, C 2, D 3);

/// A presence byte, then the value.
impl<T: State + Default> State for Option<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.bool()? {
            self.get_or_insert_with(T::default).decode(r)
        } else {
            *self = None;
            Ok(())
        }
    }
    fn fold(&self, h: &mut StateHasher) {
        h.byte(u8::from(self.is_some()));
        if let Some(v) = self {
            v.fold(h);
        }
    }
}

/// Fixed size, known to both sides: no count.
impl<T: State, const N: usize> State for [T; N] {
    fn encode(&self, w: &mut SnapWriter) {
        T::encode_slice(self, w);
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        T::decode_slice(self, r)
    }
    fn fold(&self, h: &mut StateHasher) {
        T::fold_slice(self, h);
    }
}

/// Fixed geometry (one entry per process, channel, queue pair): the count
/// is written, and on decode must equal what this run was built with.
impl<T: State> State for Box<[T]> {
    fn encode(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        T::encode_slice(self, w);
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.u64()?;
        r.geometry("table size", self.len() as u64, n)?;
        T::decode_slice(self, r)
    }
    fn fold(&self, h: &mut StateHasher) {
        h.usize(self.len());
        T::fold_slice(self, h);
    }
}

impl<T: State + Default> State for Vec<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        T::encode_slice(self, w);
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.count()?;
        self.resize_with(n, T::default);
        T::decode_slice(self, r)
    }
    fn fold(&self, h: &mut StateHasher) {
        h.usize(self.len());
        T::fold_slice(self, h);
    }
}

/// Hash containers iterate in an unspecified order, and snapshot bytes and
/// hashes must be pure functions of the contents: sets are written sorted
/// (a no-op for the ordered set), maps sorted by key.
fn sorted<'a, T: Ord + 'a>(items: impl Iterator<Item = &'a T>) -> Vec<&'a T> {
    let mut items: Vec<&T> = items.collect();
    items.sort_unstable();
    items
}

// Not generic over the hasher on purpose: the simulator's hash containers
// all use the deterministic `FastBuild`, and clippy.toml bans the std default.
macro_rules! set_state {
    ($( $set:ident )+) => {$(
        #[allow(clippy::implicit_hasher)]
        impl<T: State + Default + Ord + Hash> State for $set<T> {
            fn encode(&self, w: &mut SnapWriter) {
                w.usize(self.len());
                for x in sorted(self.iter()) {
                    x.encode(w);
                }
            }
            fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                self.clear();
                for _ in 0..r.count()? {
                    let mut x = T::default();
                    x.decode(r)?;
                    self.insert(x);
                }
                Ok(())
            }
            fn fold(&self, h: &mut StateHasher) {
                h.usize(self.len());
                for x in sorted(self.iter()) {
                    x.fold(h);
                }
            }
        }
    )+};
}
set_state!(BTreeSet FastSet);

fn sorted_entries<K: Ord, V>(map: &FastMap<K, V>) -> Vec<(&K, &V)> {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries
}

#[allow(clippy::implicit_hasher)]
impl<K: State + Default + Ord + Hash, V: State + Default> State for FastMap<K, V> {
    fn encode(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in sorted_entries(self) {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        for _ in 0..r.count()? {
            let (mut k, mut v) = (K::default(), V::default());
            k.decode(r)?;
            v.decode(r)?;
            self.insert(k, v);
        }
        Ok(())
    }
    fn fold(&self, h: &mut StateHasher) {
        h.usize(self.len());
        for (k, v) in sorted_entries(self) {
            k.fold(h);
            v.fold(h);
        }
    }
}

/// Write a page-indexed table whose untouched slots are `None`: the table
/// length, the live count, then index and `entry` payload for each live
/// slot, ascending. For hand-written impls whose entries need context
/// (a page size, an image page) that a blanket impl could not supply.
pub fn encode_table<T>(
    slots: &[Option<T>],
    w: &mut SnapWriter,
    mut entry: impl FnMut(usize, &T, &mut SnapWriter),
) {
    w.usize(slots.len());
    w.usize(slots.iter().flatten().count());
    for (i, slot) in slots.iter().enumerate() {
        if let Some(t) = slot {
            w.usize(i);
            entry(i, t, w);
        }
    }
}

/// Restore an [`encode_table`] capture in place. `entry` fills the slot it
/// is handed (which may still hold the previous occupant, to reuse its
/// buffers); every slot the snapshot does not list ends up `None`. The
/// length and every index come from the stream, so both are validated.
pub fn decode_table<T>(
    slots: &mut Vec<Option<T>>,
    r: &mut SnapReader<'_>,
    mut entry: impl FnMut(usize, &mut Option<T>, &mut SnapReader<'_>) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    let len = r.table_len()?;
    slots.resize_with(len, || None);
    let mut next = 0;
    for _ in 0..r.count()? {
        let raw = r.u64()?;
        let i = r.index(raw, len)?;
        if i < next {
            return r.bad_tag("table order", raw);
        }
        slots[next..i].fill_with(|| None);
        next = i + 1;
        entry(i, &mut slots[i], r)?;
    }
    slots[next..].fill_with(|| None);
    Ok(())
}

/// A [`FastMap`] in which an entry holding `V::default()` means exactly
/// what no entry means (an empty copyset, a zero count): lookups
/// materialize such entries lazily, so two equal states may differ in
/// which of them exist. The snapshot keeps them (restore is byte-exact);
/// the hash skips them.
#[derive(Clone, Debug, Default)]
pub struct Sparse<K, V>(FastMap<K, V>);

impl<K, V> Deref for Sparse<K, V> {
    type Target = FastMap<K, V>;
    fn deref(&self) -> &FastMap<K, V> {
        &self.0
    }
}

impl<K, V> DerefMut for Sparse<K, V> {
    fn deref_mut(&mut self) -> &mut FastMap<K, V> {
        &mut self.0
    }
}

impl<K, V> State for Sparse<K, V>
where
    K: State + Default + Ord + Hash,
    V: State + Default + PartialEq,
{
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
    }
    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.decode(r)
    }
    fn fold(&self, h: &mut StateHasher) {
        let absent = V::default();
        let mut live = sorted_entries(&self.0);
        live.retain(|e| *e.1 != absent);
        h.usize(live.len());
        for (k, v) in live {
            k.fold(h);
            v.fold(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapio::SnapErrorKind;
    use crate::time::Time;

    fn round_trip<T: State>(v: &T, into: &mut T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        into.decode(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        bytes
    }

    fn hash_of<T: State>(v: &T) -> u64 {
        let mut h = StateHasher::new();
        v.fold(&mut h);
        h.finish()
    }

    #[derive(Default, Debug, PartialEq)]
    struct Demo {
        limit: u32,
        count: u64,
        when: Time,
        names: Vec<String>,
        inbox: Vec<u8>,
    }
    impl_state!(Demo {
        config: limit;
        state: count, names;
        timing: when;
        scratch: inbox;
    });

    #[test]
    fn classes_decide_what_is_written_restored_and_hashed() {
        let a = Demo {
            limit: 7,
            count: 3,
            when: Time::from_us(5),
            names: vec!["x".into(), "yz".into()],
            inbox: Vec::new(),
        };
        let mut b = Demo {
            limit: 9,
            inbox: vec![1],
            ..Demo::default()
        };
        let bytes = round_trip(&a, &mut b);
        // count, names, when: list order; config and scratch absent.
        assert_eq!(bytes.len(), 8 + (8 + (8 + 1) + (8 + 2)) + 8);
        assert_eq!(b.limit, 9, "decode leaves config alone");
        assert!(b.inbox.is_empty(), "decode resets scratch");
        assert_eq!((b.count, b.when, &b.names), (a.count, a.when, &a.names));
        // timing and config never reach the hash; state does.
        b.when = Time::ZERO;
        assert_eq!(hash_of(&a), hash_of(&b));
        b.count += 1;
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scratch field `inbox` not empty")]
    fn scratch_must_be_empty_when_encoded() {
        let d = Demo {
            inbox: vec![1],
            ..Demo::default()
        };
        d.encode(&mut SnapWriter::new());
    }

    #[test]
    fn containers_round_trip_in_place_sorted_by_key() {
        let mut m: FastMap<(u32, u16), u64> = FastMap::default();
        let mut n = m.clone();
        for k in [9u32, 2, 5] {
            m.insert((k, 1), u64::from(k) * 10);
        }
        for k in [5u32, 9, 2] {
            n.insert((k, 1), u64::from(k) * 10);
        }
        assert_eq!(hash_of(&m), hash_of(&n), "insertion order never shows");
        let v = (
            (Some([1u64, 2]), -0.0f64),
            vec![(1u32, 2u16), (3, 4)],
            BTreeSet::from([7u32, 3]),
            m,
        );
        let mut back = ((None, 1.0), vec![(9, 9); 5], BTreeSet::new(), n);
        back.3.insert((1, 1), 1);
        let bytes = round_trip(&v, &mut back);
        assert_eq!(v, back);
        assert!(back.0 .1.is_sign_negative(), "floats restore bit-exactly");
        // Key before value, smallest key first.
        let map_at = bytes.len() - (8 + 3 * 14);
        let mut r = SnapReader::new(&bytes[map_at..]);
        assert_eq!(
            (r.u64(), r.u32(), r.u16(), r.u64()),
            (Ok(3), Ok(2), Ok(1), Ok(20))
        );
        // Byte payloads move as one raw copy behind their count.
        let mut out = vec![0u8; 9];
        assert_eq!(
            round_trip(&vec![1u8, 2, 3], &mut out),
            [3, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3]
        );
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn sparse_hashes_default_entries_as_absent_but_keeps_their_bytes() {
        let mut a: Sparse<u32, u32> = Sparse::default();
        a.insert(1, 5);
        let mut b = a.clone();
        b.insert(2, 0);
        assert_eq!(hash_of(&a), hash_of(&b));
        let mut back = Sparse::default();
        round_trip(&b, &mut back);
        assert_eq!(back.len(), 2, "the zero entry survives the snapshot");
        b.insert(2, 1);
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn tables_restore_in_place_and_validate_what_the_stream_supplies() {
        let table = vec![None, Some(7u32), None, Some(9)];
        let mut w = SnapWriter::new();
        encode_table(&table, &mut w, |_, v, w| v.encode(w));
        let good = w.into_bytes();
        let decode = |bytes: &[u8]| {
            let mut t = vec![Some(1u32); 6];
            decode_table(&mut t, &mut SnapReader::new(bytes), |_, slot, r| {
                slot.get_or_insert(0).decode(r)
            })
            .map(|()| t)
        };
        assert_eq!(decode(&good), Ok(table));
        let mut huge = good.clone();
        huge[5] = 1; // length 2^40 + 4: past MAX_TABLE_LEN
        let mut outside = good.clone();
        outside[16] = 4; // first index == length
        let mut backwards = good.clone();
        backwards[28] = 0; // second index before the first
        for bad in [
            &huge,
            &outside,
            &backwards,
            &good[..good.len() - 1].to_vec(),
        ] {
            assert!(decode(bad).is_err());
        }
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        // A boxed slice is fixed geometry: a different count is a mismatch.
        let four: Box<[u32]> = vec![0; 4].into();
        let mut w = SnapWriter::new();
        four.encode(&mut w);
        let bytes = w.into_bytes();
        let mut three: Box<[u32]> = vec![0; 3].into();
        assert!(matches!(
            three.decode(&mut SnapReader::new(&bytes)).unwrap_err().kind,
            SnapErrorKind::GeometryMismatch {
                expected: 3,
                found: 4,
                ..
            }
        ));
        // A huge count fails before it allocates; a short buffer truncates.
        let mut v: Vec<u64> = Vec::new();
        let huge = u64::MAX.to_le_bytes();
        assert!(v.decode(&mut SnapReader::new(&huge)).is_err());
        assert!(matches!(
            v.decode(&mut SnapReader::new(&bytes[..12]))
                .unwrap_err()
                .kind,
            SnapErrorKind::Truncated { .. }
        ));
        let mut w = SnapWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        assert!(matches!(
            String::new()
                .decode(&mut SnapReader::new(&w.into_bytes()))
                .unwrap_err()
                .kind,
            SnapErrorKind::BadTag { what: "utf-8", .. }
        ));
    }

    #[test]
    fn uncached_hasher_is_flagged_and_otherwise_identical() {
        let mut a = StateHasher::new();
        let mut b = StateHasher::uncached();
        assert!(!a.bypasses_caches() && b.bypasses_caches());
        a.bytes(b"hello, world");
        b.bytes(b"hello, world");
        assert_eq!(a.finish(), b.finish());
        let mut c = StateHasher::seeded(a.state());
        c.u64(1);
        a.u64(1);
        assert_eq!(a.state(), c.state());
    }
}
