//! Snapshot byte primitives.
//!
//! The snapshot format (see `dsm-snap` and DESIGN.md §16) is a flat
//! little-endian byte stream; every layer encodes its own state with these
//! two types so the framing conventions live in exactly one place:
//!
//! * integers are fixed-width little-endian (`u8`/`u16`/`u32`/`u64`);
//! * `f64` is encoded as its IEEE-754 bit pattern (`to_bits`), so restored
//!   values are bit-identical, NaN payloads included;
//! * variable-length data is a `u64` count followed by the elements;
//! * map/set content must be written in sorted key order — the simulator's
//!   `FastMap`/`FastSet` iterate in unspecified order, and the golden-format
//!   test diffs snapshots byte-for-byte.
//!
//! The reader is fallible: every read returns `Result<_, SnapError>` naming
//! the section, the byte offset, and what went wrong. A snapshot is input
//! from outside the process (a committed artifact, a file handed to
//! `travel`), so truncation and corruption are errors, never panics; the
//! [`crate::State`] walk threads them up with `?`.

use core::fmt;

/// What went wrong while decoding a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapErrorKind {
    /// Fewer bytes left than the next fixed-width read needs.
    Truncated { need: usize, have: usize },
    /// A discriminant (bool, enum tag, magic, version, section fourcc,
    /// UTF-8) holds a value the format does not define.
    BadTag { what: &'static str, tag: u64 },
    /// A length prefix claims more elements or bytes than the stream holds.
    LengthExceedsRemaining { len: u64, remaining: usize },
    /// A stream-supplied index points past its container.
    IndexOutOfRange { index: u64, len: usize },
    /// The snapshot was taken from a differently shaped run (process
    /// count, page size, configuration, initial image, section length).
    GeometryMismatch {
        what: &'static str,
        expected: u64,
        found: u64,
    },
}

/// A decoding failure: where in the snapshot, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapError {
    /// Fourcc of the section being decoded (all zero in the file header).
    pub section: [u8; 4],
    /// Byte offset from the start of the snapshot.
    pub offset: usize,
    pub kind: SnapErrorKind,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.section == [0; 4] {
            write!(f, "snapshot header")?;
        } else {
            let tag = String::from_utf8_lossy(&self.section);
            write!(f, "snapshot section {:?}", tag.trim_end_matches('\0'))?;
        }
        write!(f, " at offset {}: ", self.offset)?;
        match self.kind {
            SnapErrorKind::Truncated { need, have } => {
                write!(f, "truncated (need {need} bytes, have {have})")
            }
            SnapErrorKind::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#x}"),
            SnapErrorKind::LengthExceedsRemaining { len, remaining } => {
                write!(f, "length {len} exceeds the {remaining} bytes remaining")
            }
            SnapErrorKind::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            SnapErrorKind::GeometryMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "snapshot from a different {what} (expected {expected:#x}, found {found:#x})"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only snapshot encoder.
#[derive(Default, Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` is always encoded as `u64` so 32- and 64-bit hosts agree.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Raw bytes with no length prefix (the caller frames them).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Open a section: fourcc `tag`, then a `u64` payload length that
    /// [`SnapWriter::end_section`] back-patches. Returns the patch offset.
    pub fn begin_section(&mut self, tag: [u8; 4]) -> usize {
        self.raw(&tag);
        let at = self.len();
        self.u64(0);
        at
    }

    /// Close the section opened at `at`.
    pub fn end_section(&mut self, at: usize) {
        let len = (self.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// Longest sparse page table a snapshot may declare: 16M pages, a 128 GB
/// segment at 8 KB pages — far past any simulated run, and at one pointer
/// per entry a bounded allocation even when the length is garbage.
pub const MAX_TABLE_LEN: usize = 1 << 24;

/// Sequential snapshot decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Section fourcc and the offset of `buf[0]` within the whole
    /// snapshot, so errors locate themselves in the file.
    section: [u8; 4],
    origin: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            buf,
            pos: 0,
            section: [0; 4],
            origin: 0,
        }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An error of `kind` at the current position.
    pub fn error(&self, kind: SnapErrorKind) -> SnapError {
        SnapError {
            section: self.section,
            offset: self.origin + self.pos,
            kind,
        }
    }

    /// Fail with [`SnapErrorKind::BadTag`].
    pub fn bad_tag<T>(&self, what: &'static str, tag: u64) -> Result<T, SnapError> {
        Err(self.error(SnapErrorKind::BadTag { what, tag }))
    }

    /// Validate a stream-supplied `index` against its container length.
    pub fn index(&self, index: u64, len: usize) -> Result<usize, SnapError> {
        match usize::try_from(index) {
            Ok(i) if i < len => Ok(i),
            _ => Err(self.error(SnapErrorKind::IndexOutOfRange { index, len })),
        }
    }

    /// Fail with [`SnapErrorKind::GeometryMismatch`] unless the value read
    /// from the snapshot equals what this run was built with.
    pub fn geometry(&self, what: &'static str, expected: u64, found: u64) -> Result<(), SnapError> {
        if expected == found {
            Ok(())
        } else {
            Err(self.error(SnapErrorKind::GeometryMismatch {
                what,
                expected,
                found,
            }))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(self.error(SnapErrorKind::Truncated {
                need: n,
                have: self.remaining(),
            }));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            self.error(SnapErrorKind::LengthExceedsRemaining {
                len: v,
                remaining: self.remaining(),
            })
        })
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        self.u64().map(f64::from_bits)
    }

    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => self.bad_tag("bool", u64::from(b)),
        }
    }

    /// An element count, bounded by the bytes left: every encoded element
    /// occupies at least one byte, so a larger count is corrupt — caught
    /// here, before anything is allocated for it.
    pub fn count(&mut self) -> Result<usize, SnapError> {
        let len = self.u64()?;
        match usize::try_from(len) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(self.error(SnapErrorKind::LengthExceedsRemaining {
                len,
                remaining: self.remaining(),
            })),
        }
    }

    /// The length of a sparse page-indexed table. Its absent entries occupy
    /// no bytes, so the stream cannot bound it the way [`SnapReader::count`]
    /// is bounded; [`MAX_TABLE_LEN`] does, keeping a corrupt length from
    /// reaching the allocator.
    pub fn table_len(&mut self) -> Result<usize, SnapError> {
        let len = self.u64()?;
        self.index(len, MAX_TABLE_LEN + 1)
    }

    /// Length-prefixed raw bytes (see [`SnapWriter::bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.count()?;
        self.take(n)
    }

    /// Raw bytes with no length prefix.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Enter the section `tag` (see [`SnapWriter::begin_section`]): a
    /// reader over exactly its payload, whose errors name the section.
    pub fn section(&mut self, tag: [u8; 4]) -> Result<SnapReader<'a>, SnapError> {
        let got = self.array::<4>()?;
        if got != tag {
            return self.bad_tag("section", u64::from(u32::from_le_bytes(got)));
        }
        let len = self.count()?;
        let origin = self.origin + self.pos;
        Ok(SnapReader {
            buf: self.take(len)?,
            pos: 0,
            section: tag,
            origin,
        })
    }

    /// Fail unless every byte was consumed (a section, or the whole
    /// snapshot, is exactly as long as its content).
    pub fn finish(&self) -> Result<(), SnapError> {
        self.geometry("length", self.pos as u64, self.buf.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() -> Result<(), SnapError> {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.usize(12345);
        w.f64(-0.125);
        w.bool(true);
        w.bool(false);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8()?, 7);
        assert_eq!(r.u16()?, 0xBEEF);
        assert_eq!(r.u32()?, 0xDEAD_BEEF);
        assert_eq!(r.u64()?, u64::MAX - 3);
        assert_eq!(r.usize()?, 12345);
        assert_eq!(r.f64()?, -0.125);
        assert!(r.bool()?);
        assert!(!r.bool()?);
        r.finish()
    }

    #[test]
    fn f64_is_bit_exact() -> Result<(), SnapError> {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        w.f64(nan);
        w.f64(-0.0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.f64()?.to_bits(), nan.to_bits());
        assert_eq!(r.f64()?.to_bits(), (-0.0f64).to_bits());
        Ok(())
    }

    #[test]
    fn byte_slices_round_trip() -> Result<(), SnapError> {
        let mut w = SnapWriter::new();
        w.bytes(b"hello");
        w.bytes(b"");
        w.raw(b"xyz");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.bytes()?, b"hello");
        assert_eq!(r.bytes()?, b"");
        assert_eq!(r.raw(3)?, b"xyz");
        Ok(())
    }

    #[test]
    fn sections_frame_their_payload() -> Result<(), SnapError> {
        let mut w = SnapWriter::new();
        w.u8(9);
        let at = w.begin_section(*b"BODY");
        w.raw(b"payload");
        w.end_section(at);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8()?, 9);
        let mut body = r.section(*b"BODY")?;
        assert_eq!(body.raw(7)?, b"payload");
        body.finish()?;
        r.finish()?;
        // Errors inside a section name it and count from the file start.
        let e = body.u8().unwrap_err();
        assert_eq!(e.section, *b"BODY");
        assert_eq!(e.offset, bytes.len());
        // A wrong fourcc and an under-consumed section are both errors.
        let mut r = SnapReader::new(&bytes[1..]);
        assert!(matches!(
            r.section(*b"CORE").unwrap_err().kind,
            SnapErrorKind::BadTag {
                what: "section",
                ..
            }
        ));
        let mut r = SnapReader::new(&bytes[1..]);
        let mut body = r.section(*b"BODY")?;
        body.raw(3)?;
        assert!(matches!(
            body.finish().unwrap_err().kind,
            SnapErrorKind::GeometryMismatch { what: "length", .. }
        ));
        Ok(())
    }

    #[test]
    fn truncation_is_an_error() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        let e = r.u64().unwrap_err();
        assert_eq!(e.kind, SnapErrorKind::Truncated { need: 8, have: 3 });
        assert_eq!(e.offset, 0);
        assert!(e.to_string().contains("truncated"), "{e}");
    }

    #[test]
    fn bad_bool_is_an_error() {
        let mut r = SnapReader::new(&[9]);
        let e = r.bool().unwrap_err();
        assert_eq!(
            e.kind,
            SnapErrorKind::BadTag {
                what: "bool",
                tag: 9
            }
        );
    }

    #[test]
    fn counts_and_indices_are_bounded() {
        // A count larger than the bytes behind it never reaches an allocator.
        let mut w = SnapWriter::new();
        w.u64(1 << 40);
        w.raw(&[0; 16]);
        let bytes = w.into_bytes();
        assert!(matches!(
            SnapReader::new(&bytes).count().unwrap_err().kind,
            SnapErrorKind::LengthExceedsRemaining { len, remaining: 16 } if len == 1 << 40
        ));
        assert!(SnapReader::new(&bytes).bytes().is_err());
        let r = SnapReader::new(&bytes);
        assert_eq!(r.index(3, 4), Ok(3));
        assert_eq!(
            r.index(4, 4).unwrap_err().kind,
            SnapErrorKind::IndexOutOfRange { index: 4, len: 4 }
        );
        assert!(r.geometry("nprocs", 4, 4).is_ok());
        assert!(r.geometry("nprocs", 4, 8).is_err());
    }
}
