//! Self-contained tag-length-value wire format.
//!
//! Mobile objects are *self-contained*: when an object migrates or persists
//! itself, it must not depend on marshaling facilities that may differ
//! between hosts. This module is therefore a hand-rolled, versioned,
//! byte-stable encoding that every MROM crate (migration images, simulator
//! payloads, the persistent store) shares.
//!
//! ## Layout
//!
//! A buffer produced by [`encode`] is `MAGIC (2 bytes) | VERSION (1 byte) |
//! value`. A `value` is `tag (1 byte)` followed by a tag-specific payload:
//!
//! | tag | kind | payload |
//! |-----|------|---------|
//! | `0x00` | Null | — |
//! | `0x01` | Bool | 1 byte, `0`/`1` |
//! | `0x02` | Int | varint zig-zag |
//! | `0x03` | Float | 8 bytes IEEE-754 BE |
//! | `0x04` | Str | varint len + UTF-8 bytes |
//! | `0x05` | Bytes | varint len + bytes |
//! | `0x06` | List | varint count + values |
//! | `0x07` | Map | varint count + (str, value) pairs |
//! | `0x08` | ObjectRef | 16 bytes ([`ObjectId::to_bytes`]) |
//!
//! Lengths use LEB128 varints; integers use zig-zag so small negative
//! numbers stay small. Decoding enforces a nesting-depth budget so hostile
//! images cannot blow the stack.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::ValueError;
use crate::id::ObjectId;
use crate::value::{Value, ValueKind};

/// Two magic bytes ("MR") identifying an MROM wire buffer.
pub const MAGIC: [u8; 2] = [0x4d, 0x52];

/// Current format version.
pub const VERSION: u8 = 1;

/// Maximum nesting depth accepted by the decoder.
pub const MAX_DEPTH: usize = 128;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_FLOAT: u8 = 0x03;
const TAG_STR: u8 = 0x04;
const TAG_BYTES: u8 = 0x05;
const TAG_LIST: u8 = 0x06;
const TAG_MAP: u8 = 0x07;
const TAG_OBJREF: u8 = 0x08;

/// Encodes a value into a fresh framed buffer (magic + version + body).
///
/// # Example
///
/// ```
/// use mrom_value::{wire, Value};
///
/// # fn main() -> Result<(), mrom_value::ValueError> {
/// let v = Value::list([Value::Int(-1), Value::from("x")]);
/// let buf = wire::encode(&v);
/// assert_eq!(wire::decode(&buf)?, v);
/// # Ok(())
/// # }
/// ```
pub fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + value.tree_size() * 8);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    encode_value(value, &mut out);
    out
}

/// Appends the *body* encoding of a value (no frame header) to `out`.
///
/// Composite formats (migration images, network envelopes) embed many
/// values in one buffer and frame the whole buffer once.
pub fn encode_value<S: Sink + ?Sized>(value: &Value, out: &mut S) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => write_int_value(*i, out),
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_be_bytes());
        }
        Value::Str(s) => write_str_value(s, out),
        Value::Bytes(b) => write_bytes_value(b, out),
        Value::List(items) => {
            write_list_header(items.len(), out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(m) => {
            out.push(TAG_MAP);
            write_varint(m.len() as u64, out);
            for (k, v) in m {
                write_str(k, out);
                encode_value(v, out);
            }
        }
        Value::ObjectRef(id) => write_object_ref_value(*id, out),
    }
}

/// Appends the body encoding of `Value::Int(i)` without building it.
pub fn write_int_value<S: Sink + ?Sized>(i: i64, out: &mut S) {
    out.push(TAG_INT);
    write_varint(zigzag(i), out);
}

/// Appends the body encoding of `Value::Str(s)` without building it.
pub fn write_str_value<S: Sink + ?Sized>(s: &str, out: &mut S) {
    out.push(TAG_STR);
    write_str(s, out);
}

/// Appends the body encoding of `Value::Str(parts.concat())` without
/// building the string.
pub fn write_str_parts_value<S: Sink + ?Sized>(parts: &[&str], out: &mut S) {
    out.push(TAG_STR);
    write_varint(parts.iter().map(|p| p.len()).sum::<usize>() as u64, out);
    for part in parts {
        out.extend_from_slice(part.as_bytes());
    }
}

/// Appends the body encoding of `Value::Str(id.to_string())` without
/// building the string.
pub fn write_id_str_value<S: Sink + ?Sized>(id: ObjectId, out: &mut S) {
    out.push(TAG_STR);
    write_varint(crate::id::TEXT_LEN as u64, out);
    out.extend_from_slice(&id.text());
}

/// Appends the body encoding of `Value::Bytes(b)` without building it.
pub fn write_bytes_value<S: Sink + ?Sized>(b: &[u8], out: &mut S) {
    out.push(TAG_BYTES);
    write_varint(b.len() as u64, out);
    out.extend_from_slice(b);
}

/// Appends the body encoding of `Value::ObjectRef(id)` without building it.
pub fn write_object_ref_value<S: Sink + ?Sized>(id: ObjectId, out: &mut S) {
    out.push(TAG_OBJREF);
    out.extend_from_slice(&id.to_bytes());
}

/// Appends the header of a `Value::List` of `len` items; the caller then
/// appends exactly `len` item bodies.
pub fn write_list_header<S: Sink + ?Sized>(len: usize, out: &mut S) {
    out.push(TAG_LIST);
    write_varint(len as u64, out);
}

/// Appends the header of a `Value::Map` of `len` entries; the caller then
/// appends exactly `len` (key via [`write_str`], value body) pairs in
/// strictly increasing key order, the order that makes the encoding
/// canonical.
pub fn write_map_header<S: Sink + ?Sized>(len: usize, out: &mut S) {
    out.push(TAG_MAP);
    write_varint(len as u64, out);
}

/// Where the `write_*` functions and [`encode_value`] put their bytes: a
/// buffer (`Vec<u8>`), or a [`Len`] that only counts them, so the one
/// writer of a layout yields both its encoding and its exact length.
pub trait Sink {
    /// Appends one byte.
    fn push(&mut self, byte: u8);
    /// Appends a run of bytes.
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }

    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// A [`Sink`] that counts the bytes written to it: run a writer into a
/// `Len` first and its buffer can be allocated at its exact size.
///
/// ```
/// use mrom_value::{wire, Value};
///
/// let v = Value::list([Value::Int(300), Value::from("abc")]);
/// let mut len = wire::Len::default();
/// wire::encode_value(&v, &mut len);
/// let mut out = Vec::with_capacity(len.0);
/// wire::encode_value(&v, &mut out);
/// assert_eq!((out.len(), out.capacity()), (len.0, len.0));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Len(pub usize);

impl Sink for Len {
    #[inline]
    fn push(&mut self, _byte: u8) {
        self.0 += 1;
    }

    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Writes one framed map (magic + version + map body) entry by entry,
/// straight from borrowed fields: the output is byte-identical to
/// [`encode`] of the equivalent `Value::Map`, without building that map.
///
/// Entries go in strictly increasing key order — the order in which a
/// `Value::Map` iterates, which is what makes the encoding canonical —
/// and exactly as many as announced. Debug builds assert both. Keys are
/// a message's fixed field names, so they are `'static`.
///
/// Over a [`Len`] ([`MapWriter::over`]) the same entry writes count the
/// map's exact framed length instead.
///
/// ```
/// use mrom_value::{wire, Value};
///
/// let mut m = wire::MapWriter::framed(2, 32);
/// wire::write_int_value(7, m.entry("a"));
/// wire::write_str_value("x", m.entry("b"));
/// let v = Value::map([("a", Value::Int(7)), ("b", Value::from("x"))]);
/// assert_eq!(m.finish(), wire::encode(&v));
/// ```
#[derive(Debug)]
pub struct MapWriter<S = Vec<u8>> {
    out: S,
    left: usize,
    /// The previous key, for the order assertion.
    last_key: Option<&'static str>,
}

impl MapWriter {
    /// Starts a framed map of `entries` entries in a buffer of
    /// `capacity` bytes (a hint; the buffer grows as needed).
    pub fn framed(entries: usize, capacity: usize) -> MapWriter {
        MapWriter::over(Vec::with_capacity(capacity), entries)
    }
}

impl<S: Sink> MapWriter<S> {
    /// Starts a framed map of `entries` entries in `out`.
    pub fn over(mut out: S, entries: usize) -> MapWriter<S> {
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(TAG_MAP);
        write_varint(entries as u64, &mut out);
        MapWriter {
            out,
            left: entries,
            last_key: None,
        }
    }

    /// Writes the next key and returns the sink to which the caller
    /// appends exactly one value body (with the `write_*_value` functions
    /// or [`encode_value`]).
    pub fn entry(&mut self, key: &'static str) -> &mut S {
        debug_assert!(
            self.left > 0,
            "map entry {key:?} beyond the announced count"
        );
        debug_assert!(
            self.last_key.is_none_or(|last| last < key),
            "map key {key:?} out of canonical order"
        );
        self.left = self.left.saturating_sub(1);
        self.last_key = Some(key);
        write_str(key, &mut self.out);
        &mut self.out
    }

    /// The finished sink: the buffer, or the counted length.
    pub fn finish(self) -> S {
        debug_assert_eq!(self.left, 0, "map finished with entries missing");
        self.out
    }
}

/// Decodes a framed buffer produced by [`encode`].
///
/// # Errors
///
/// Returns [`ValueError`] when the buffer is unframed, truncated, malformed,
/// from an unknown version, too deep, or has trailing bytes.
pub fn decode(buf: &[u8]) -> Result<Value, ValueError> {
    let mut reader = Reader::new(buf);
    read_frame_header(&mut reader)?;
    let value = decode_value(&mut reader)?;
    expect_end(&reader)?;
    Ok(value)
}

/// Decodes one body value from a [`Reader`], advancing it.
pub fn decode_value(reader: &mut Reader<'_>) -> Result<Value, ValueError> {
    decode_value_at(reader, 0)
}

fn read_frame_header(reader: &mut Reader<'_>) -> Result<(), ValueError> {
    let magic = reader.take(2)?;
    if magic != MAGIC {
        return Err(ValueError::Malformed(format!(
            "bad magic {magic:02x?}, expected {MAGIC:02x?}"
        )));
    }
    let version = reader.take_u8()?;
    if version != VERSION {
        return Err(ValueError::UnsupportedVersion(version));
    }
    Ok(())
}

fn expect_end(reader: &Reader<'_>) -> Result<(), ValueError> {
    match reader.remaining() {
        0 => Ok(()),
        n => Err(ValueError::TrailingBytes(n)),
    }
}

/// Reads a list or map count. A value needs at least one tag byte, so a
/// count beyond the remaining bytes is malformed and must not pre-allocate.
fn read_count(reader: &mut Reader<'_>, what: &str, unit: &str) -> Result<usize, ValueError> {
    let count = reader.read_len()?;
    if count > reader.remaining() {
        return Err(ValueError::Malformed(format!(
            "{what} announces {count} {unit} with {} bytes left",
            reader.remaining()
        )));
    }
    Ok(count)
}

fn decode_value_at(reader: &mut Reader<'_>, depth: usize) -> Result<Value, ValueError> {
    if depth > MAX_DEPTH {
        return Err(ValueError::DepthExceeded(MAX_DEPTH));
    }
    let tag = reader.take_u8()?;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => match reader.take_u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(ValueError::Malformed(format!("bool byte {other}"))),
        },
        TAG_INT => Ok(Value::Int(unzigzag(reader.read_varint()?))),
        TAG_FLOAT => {
            let raw = reader.take(8)?;
            Ok(Value::Float(f64::from_be_bytes(
                raw.try_into().expect("8 bytes"),
            )))
        }
        TAG_STR => Ok(Value::Str(read_str_ref(reader)?.to_owned())),
        TAG_BYTES => Ok(Value::Bytes(read_bytes_ref(reader)?.to_vec())),
        TAG_LIST => {
            let count = read_count(reader, "list", "items")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_value_at(reader, depth + 1)?);
            }
            Ok(Value::List(items))
        }
        TAG_MAP => {
            let count = read_count(reader, "map", "entries")?;
            let mut m = BTreeMap::new();
            for _ in 0..count {
                let k = read_str_ref(reader)?.to_owned();
                let v = decode_value_at(reader, depth + 1)?;
                m.insert(k, v);
            }
            Ok(Value::Map(m))
        }
        TAG_OBJREF => {
            let raw = reader.take(16)?;
            Ok(Value::ObjectRef(ObjectId::from_bytes(
                raw.try_into().expect("16 bytes"),
            )))
        }
        other => Err(ValueError::UnknownTag(other)),
    }
}

/// Reads one framed map (magic + version + map body) entry by entry,
/// borrowing keys and string and byte values from the buffer, so a caller
/// decodes each value in place instead of building a `Value::Map`. Maps
/// and lists nested in a value are read the same way
/// ([`MapValue::entries`], [`MapValue::items`]).
///
/// It accepts exactly the buffers [`decode`] accepts whose top-level value
/// is a map. Every value is validated under the same depth budget (the map
/// sits at depth 0, its values at depth 1), including values the caller
/// leaves unread, and [`MapReader::next_entry`] reports the end only when
/// no trailing bytes remain. Entries come in buffer order, duplicates
/// included: a caller that keeps the last occurrence of a key sees what the
/// decoded `Value::Map` would hold.
///
/// ```
/// use mrom_value::{wire, Value};
///
/// # fn main() -> Result<(), mrom_value::ValueError> {
/// let buf = wire::encode(&Value::map([("n", Value::Int(7)), ("s", Value::from("x"))]));
/// let mut map = wire::MapReader::framed(&buf)?;
/// let (mut n, mut s) = (None, None);
/// while let Some((key, value)) = map.next_entry()? {
///     match key {
///         "n" => n = value.value()?.as_int(),
///         "s" => s = value.str()?,
///         _ => {} // validated and skipped
///     }
/// }
/// assert_eq!((n, s), (Some(7), Some("x")));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MapReader<'a> {
    reader: Reader<'a>,
    left: usize,
    /// A key has been yielded whose value is still unread.
    pending: bool,
}

impl<'a> MapReader<'a> {
    /// Checks the frame header and opens the top-level map.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a bad frame, a top-level value that is not a map,
    /// or a hostile entry count.
    pub fn framed(buf: &'a [u8]) -> Result<MapReader<'a>, ValueError> {
        let mut reader = Reader::new(buf);
        read_frame_header(&mut reader)?;
        match reader.take_u8()? {
            TAG_MAP => {}
            tag => {
                return Err(ValueError::Malformed(format!(
                    "expected a map, found tag {tag:#04x}"
                )))
            }
        }
        let left = read_count(&mut reader, "map", "entries")?;
        Ok(MapReader {
            reader,
            left,
            pending: false,
        })
    }

    /// The next entry's key and value, or `None` once the map and the
    /// buffer are both exhausted. A value left unread is decoded and
    /// dropped first, so it is validated like any other.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed key or skipped value, or trailing
    /// bytes after the map.
    #[inline]
    pub fn next_entry(&mut self) -> Result<Option<(&'a str, MapValue<'_, 'a>)>, ValueError> {
        if self.pending {
            decode_value_at(&mut self.reader, 1)?;
            self.pending = false;
        }
        if self.left == 0 {
            expect_end(&self.reader)?;
            return Ok(None);
        }
        self.left -= 1;
        let key = read_str_ref(&mut self.reader)?;
        self.pending = true;
        Ok(Some((
            key,
            MapValue {
                reader: &mut self.reader,
                pending: &mut self.pending,
                depth: 1,
            },
        )))
    }
}

/// One unread value in a buffer a [`MapReader`] walks: the value of the
/// entry [`MapReader::next_entry`] just yielded, or an entry or item of a
/// map or list read with [`MapValue::entries`] or [`MapValue::items`].
/// Read it with one of the methods below; left unread, it is validated
/// and skipped. Every method reads the bytes exactly as [`decode`] does,
/// so a malformed buffer fails with the same error at the same place.
#[derive(Debug)]
pub struct MapValue<'r, 'a> {
    reader: &'r mut Reader<'a>,
    /// Set while the value is unread; its owner skips it otherwise.
    pending: &'r mut bool,
    /// The nesting depth of the value (the top-level map is 0).
    depth: usize,
}

impl<'r, 'a> MapValue<'r, 'a> {
    /// The value's kind, read from its tag without consuming it; `None`
    /// for a missing or unknown tag.
    #[must_use]
    pub fn kind(&self) -> Option<ValueKind> {
        Some(match self.reader.peek_u8()? {
            TAG_NULL => ValueKind::Null,
            TAG_BOOL => ValueKind::Bool,
            TAG_INT => ValueKind::Int,
            TAG_FLOAT => ValueKind::Float,
            TAG_STR => ValueKind::Str,
            TAG_BYTES => ValueKind::Bytes,
            TAG_LIST => ValueKind::List,
            TAG_MAP => ValueKind::Map,
            TAG_OBJREF => ValueKind::ObjectRef,
            _ => return None,
        })
    }

    /// The value starts with `tag` and sits within the depth budget, so a
    /// typed read takes the same steps as [`decode`].
    #[inline]
    fn is(&self, tag: u8) -> bool {
        self.depth <= MAX_DEPTH && self.reader.peek_u8() == Some(tag)
    }

    /// Decodes the value.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed or too deep value.
    #[inline]
    pub fn value(self) -> Result<Value, ValueError> {
        let value = decode_value_at(self.reader, self.depth)?;
        *self.pending = false;
        Ok(value)
    }

    /// Decodes the value and copies its encoding, so a later reader can
    /// recognise the same bytes with [`MapValue::skip_as`].
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed or too deep value.
    pub fn value_and_span(self) -> Result<(Value, ValidatedSpan), ValueError> {
        let start = self.reader.pos;
        let value = decode_value_at(self.reader, self.depth)?;
        *self.pending = false;
        let span = &self.reader.buf[start..self.reader.pos];
        Ok((
            value,
            ValidatedSpan {
                bytes: span.into(),
                depth: self.depth,
            },
        ))
    }

    /// The unread bytes from this value's first byte on: its encoding,
    /// then the rest of the buffer. Unvalidated.
    fn ahead(&self) -> &'a [u8] {
        &self.reader.buf[self.reader.pos..]
    }

    /// Consumes the value as the first of `spans` that the bytes ahead
    /// begin with, without validating it again, and returns that span's
    /// index; when none matches, the value is handed back unread.
    ///
    /// This is sound because encodings are self-delimiting: a decoder's
    /// every step depends only on the bytes it has read, so bytes that
    /// begin with a complete value that validated at this depth or a
    /// deeper one hold exactly that value here, and validate the same
    /// way. For the same reason at most one span can match.
    ///
    /// # Errors
    ///
    /// The value itself, unread, when no span matches.
    pub fn skip_as<'s>(
        self,
        spans: impl IntoIterator<Item = &'s ValidatedSpan>,
    ) -> Result<usize, Self> {
        let ahead = self.ahead();
        let depth = self.depth;
        let found = spans
            .into_iter()
            .enumerate()
            .find(|(_, span)| span.depth >= depth && ahead.starts_with(&span.bytes));
        let Some((at, span)) = found else {
            return Err(self);
        };
        self.reader.pos += span.bytes.len();
        *self.pending = false;
        Ok(at)
    }

    /// The value if it is an `Int`; any other value is validated and yields
    /// `None`.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed or too deep value.
    #[inline]
    pub fn int(self) -> Result<Option<i64>, ValueError> {
        if !self.is(TAG_INT) {
            return self.value().map(|_| None);
        }
        self.reader.take_u8()?;
        let i = unzigzag(self.reader.read_varint()?);
        *self.pending = false;
        Ok(Some(i))
    }

    /// The value if it is an `ObjectRef`; any other value is validated and
    /// yields `None`.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed or too deep value.
    #[inline]
    pub fn object_ref(self) -> Result<Option<ObjectId>, ValueError> {
        if !self.is(TAG_OBJREF) {
            return self.value().map(|_| None);
        }
        self.reader.take_u8()?;
        let raw = self.reader.take(16)?;
        *self.pending = false;
        Ok(Some(ObjectId::from_bytes(
            raw.try_into().expect("16 bytes"),
        )))
    }

    /// Borrows the value if it is a `Str`; any other value is validated and
    /// yields `None`.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed or too deep value.
    #[inline]
    pub fn str(self) -> Result<Option<&'a str>, ValueError> {
        if !self.is(TAG_STR) {
            return self.value().map(|_| None);
        }
        self.reader.take_u8()?;
        let s = read_str_ref(self.reader)?;
        *self.pending = false;
        Ok(Some(s))
    }

    /// Borrows the value if it is a `Bytes`; any other value is validated
    /// and yields `None`.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed or too deep value.
    #[inline]
    pub fn bytes(self) -> Result<Option<&'a [u8]>, ValueError> {
        if !self.is(TAG_BYTES) {
            return self.value().map(|_| None);
        }
        self.reader.take_u8()?;
        let b = read_bytes_ref(self.reader)?;
        *self.pending = false;
        Ok(Some(b))
    }

    /// Reads the value as a map, handing `f` each entry's key and value in
    /// buffer order, duplicates included; values `f` leaves unread are
    /// validated and skipped. Any other value is validated and yields
    /// `false`.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed or too deep value, or the first
    /// error `f` returns.
    pub fn entries(
        mut self,
        mut f: impl FnMut(&'a str, MapValue<'_, 'a>) -> Result<(), ValueError>,
    ) -> Result<bool, ValueError> {
        if !self.is(TAG_MAP) {
            return self.value().map(|_| false);
        }
        self.reader.take_u8()?;
        let count = read_count(self.reader, "map", "entries")?;
        for _ in 0..count {
            let key = read_str_ref(self.reader)?;
            self.nested(|value| f(key, value))?;
        }
        *self.pending = false;
        Ok(true)
    }

    /// Reads the value as a list, handing `f` each item in order; items
    /// `f` leaves unread are validated and skipped. Any other value is
    /// validated and yields `false`.
    ///
    /// # Errors
    ///
    /// [`ValueError`] for a malformed or too deep value, or the first
    /// error `f` returns.
    pub fn items(
        mut self,
        mut f: impl FnMut(MapValue<'_, 'a>) -> Result<(), ValueError>,
    ) -> Result<bool, ValueError> {
        if !self.is(TAG_LIST) {
            return self.value().map(|_| false);
        }
        self.reader.take_u8()?;
        let count = read_count(self.reader, "list", "items")?;
        for _ in 0..count {
            self.nested(&mut f)?;
        }
        *self.pending = false;
        Ok(true)
    }

    /// Hands `f` the value nested one level below this one, then skips it
    /// if `f` left it unread.
    fn nested(
        &mut self,
        f: impl FnOnce(MapValue<'_, 'a>) -> Result<(), ValueError>,
    ) -> Result<(), ValueError> {
        let mut pending = true;
        let depth = self.depth + 1;
        f(MapValue {
            reader: self.reader,
            pending: &mut pending,
            depth,
        })?;
        if pending {
            decode_value_at(self.reader, depth)?;
        }
        Ok(())
    }
}

/// The encoding of one value that a [`MapReader`] decoded and thereby
/// validated (depth budget, tags, counts, UTF-8), with the depth it
/// validated at: made only by [`MapValue::value_and_span`], recognised by
/// [`MapValue::skip_as`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatedSpan {
    bytes: Arc<[u8]>,
    depth: usize,
}

impl ValidatedSpan {
    /// The encoded bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// A cursor over a wire buffer, used by composite decoders (migration
/// images, protocol envelopes) that interleave their own fields with
/// embedded values.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer; the cursor starts at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Takes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ValueError::Truncated`] if fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ValueError> {
        if self.remaining() < n {
            return Err(ValueError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    fn peek_u8(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    /// Takes a single byte.
    ///
    /// # Errors
    ///
    /// [`ValueError::Truncated`] at end of buffer.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, ValueError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`ValueError::Malformed`] for varints longer than 10 bytes and
    /// [`ValueError::Truncated`] at end of buffer.
    #[inline]
    pub fn read_varint(&mut self) -> Result<u64, ValueError> {
        // Fast path: lengths, counts and small integers fit one byte.
        if let Some(&byte) = self.buf.get(self.pos) {
            if byte & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        let mut shift = 0u32;
        let mut out = 0u64;
        loop {
            let byte = self.take_u8()?;
            if shift >= 64 {
                return Err(ValueError::Malformed("varint longer than 10 bytes".into()));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Reads a varint and checks it fits `usize`.
    ///
    /// # Errors
    ///
    /// Same as [`Reader::read_varint`] plus [`ValueError::Malformed`] on
    /// overflow.
    #[inline]
    pub fn read_len(&mut self) -> Result<usize, ValueError> {
        let raw = self.read_varint()?;
        usize::try_from(raw)
            .map_err(|_| ValueError::Malformed(format!("length {raw} exceeds usize")))
    }
}

/// Appends a LEB128 varint.
pub fn write_varint<S: Sink + ?Sized>(mut v: u64, out: &mut S) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Convenience: encode a UTF-8 string field (varint length + bytes) into a
/// composite buffer.
pub fn write_str<S: Sink + ?Sized>(s: &str, out: &mut S) {
    write_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

/// Convenience: decode a string field written by [`write_str`].
///
/// # Errors
///
/// [`ValueError`] on truncation or invalid UTF-8.
pub fn read_str(reader: &mut Reader<'_>) -> Result<String, ValueError> {
    read_str_ref(reader).map(str::to_owned)
}

fn read_str_ref<'a>(reader: &mut Reader<'a>) -> Result<&'a str, ValueError> {
    std::str::from_utf8(read_bytes_ref(reader)?).map_err(|_| ValueError::InvalidUtf8)
}

fn read_bytes_ref<'a>(reader: &mut Reader<'a>) -> Result<&'a [u8], ValueError> {
    let len = reader.read_len()?;
    reader.take(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{IdGenerator, NodeId};

    fn round_trip(v: Value) {
        let buf = encode(&v);
        assert_eq!(decode(&buf).expect("decode"), v, "value {v}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::Int(0));
        round_trip(Value::Int(-1));
        round_trip(Value::Int(i64::MAX));
        round_trip(Value::Int(i64::MIN));
        round_trip(Value::Float(0.0));
        round_trip(Value::Float(-2.75));
        round_trip(Value::Float(f64::INFINITY));
        round_trip(Value::from(""));
        round_trip(Value::from("héllo ✨"));
        round_trip(Value::Bytes(vec![]));
        round_trip(Value::Bytes((0..=255).collect()));
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let buf = encode(&Value::Float(f64::NAN));
        match decode(&buf).unwrap() {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other}"),
        }
    }

    #[test]
    fn composites_round_trip() {
        let mut gen = IdGenerator::new(NodeId(5));
        round_trip(Value::list([]));
        round_trip(Value::list([Value::Int(1), Value::from("x"), Value::Null]));
        round_trip(Value::map([("a", Value::Int(1)), ("", Value::Null)]));
        round_trip(Value::ObjectRef(gen.next_id()));
        round_trip(Value::list([
            Value::map([("nested", Value::list([Value::Bool(false)]))]),
            Value::ObjectRef(gen.next_id()),
        ]));
    }

    #[test]
    fn small_negative_ints_are_compact() {
        // zig-zag: -1 encodes to a single varint byte.
        let buf = encode(&Value::Int(-1));
        // magic(2) + version(1) + tag(1) + varint(1)
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut buf = encode(&Value::Int(1));
        buf[0] = 0xff;
        assert!(matches!(decode(&buf), Err(ValueError::Malformed(_))));
        let mut buf = encode(&Value::Int(1));
        buf[2] = 99;
        assert_eq!(decode(&buf), Err(ValueError::UnsupportedVersion(99)));
    }

    #[test]
    fn rejects_truncation_at_every_point() {
        let buf = encode(&Value::list([
            Value::from("hello"),
            Value::Int(123456),
            Value::map([("k", Value::Float(1.5))]),
        ]));
        for cut in 0..buf.len() {
            assert!(
                decode(&buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(decode(&buf).is_ok());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut buf = encode(&Value::Int(7));
        buf.push(0);
        assert_eq!(decode(&buf), Err(ValueError::TrailingBytes(1)));
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(0x7e);
        assert_eq!(decode(&buf), Err(ValueError::UnknownTag(0x7e)));
    }

    #[test]
    fn rejects_bogus_bool_byte() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(TAG_BOOL);
        buf.push(7);
        assert!(matches!(decode(&buf), Err(ValueError::Malformed(_))));
    }

    #[test]
    fn rejects_hostile_list_count() {
        // Announce 2^40 items in a 10-byte buffer: must fail fast without
        // allocating.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(TAG_LIST);
        write_varint(1 << 40, &mut buf);
        assert!(matches!(decode(&buf), Err(ValueError::Malformed(_))));
    }

    #[test]
    fn rejects_excessive_depth() {
        let mut v = Value::Int(0);
        for _ in 0..(MAX_DEPTH + 2) {
            v = Value::list([v]);
        }
        let buf = encode(&v);
        assert_eq!(decode(&buf), Err(ValueError::DepthExceeded(MAX_DEPTH)));
    }

    #[test]
    fn accepts_depth_at_limit() {
        let mut v = Value::Int(0);
        for _ in 0..(MAX_DEPTH - 1) {
            v = Value::list([v]);
        }
        let buf = encode(&v);
        assert_eq!(decode(&buf).unwrap(), v);
    }

    #[test]
    fn rejects_invalid_utf8_in_str() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(TAG_STR);
        write_varint(1, &mut buf);
        buf.push(0xff);
        assert_eq!(decode(&buf), Err(ValueError::InvalidUtf8));
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xffu8; 11];
        let mut r = Reader::new(&buf);
        assert!(r.read_varint().is_err());
    }

    #[test]
    fn id_text_is_written_as_its_string() {
        let id = ObjectId::from_parts(crate::NodeId(u64::MAX - 7), 3, u32::MAX);
        let mut out = Vec::new();
        write_id_str_value(id, &mut out);
        let mut want = Vec::new();
        encode_value(&Value::Str(id.to_string()), &mut want);
        assert_eq!(out, want);
    }

    #[test]
    fn zigzag_involution() {
        for i in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    #[test]
    fn str_field_helpers_round_trip() {
        let mut buf = Vec::new();
        write_str("field", &mut buf);
        write_str("", &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(read_str(&mut r).unwrap(), "field");
        assert_eq!(read_str(&mut r).unwrap(), "");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn encoding_is_canonical_for_maps() {
        // BTreeMap ordering makes byte output independent of insertion order.
        let a = Value::map([("x", Value::Int(1)), ("a", Value::Int(2))]);
        let b = Value::map([("a", Value::Int(2)), ("x", Value::Int(1))]);
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn map_writer_matches_encode() {
        let id = IdGenerator::new(NodeId(5)).next_id();
        let mut m = MapWriter::framed(6, 0);
        write_bytes_value(&[1, 2, 3], m.entry(""));
        write_int_value(-300, m.entry("a"));
        let out = m.entry("ab");
        write_list_header(2, out);
        write_str_value("x", out);
        encode_value(&Value::Float(1.5), out);
        write_object_ref_value(id, m.entry("b"));
        write_str_value("héllo", m.entry("s"));
        encode_value(&Value::Bool(true), m.entry("t"));
        let v = Value::map([
            ("", Value::Bytes(vec![1, 2, 3])),
            ("a", Value::Int(-300)),
            ("ab", Value::list([Value::from("x"), Value::Float(1.5)])),
            ("b", Value::ObjectRef(id)),
            ("s", Value::from("héllo")),
            ("t", Value::Bool(true)),
        ]);
        assert_eq!(m.finish(), encode(&v));
        let empty: [(&str, Value); 0] = [];
        assert_eq!(MapWriter::framed(0, 0).finish(), encode(&Value::map(empty)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "canonical order")]
    fn map_writer_asserts_key_order() {
        let mut m = MapWriter::framed(2, 0);
        write_int_value(1, m.entry("b"));
        write_int_value(2, m.entry("a"));
    }

    /// A framed map of hand-written `(key, value body)` entries.
    fn hand_map(entries: &[(&str, &[u8])]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(VERSION);
        out.push(TAG_MAP);
        write_varint(entries.len() as u64, &mut out);
        for (k, body) in entries {
            write_str(k, &mut out);
            out.extend_from_slice(body);
        }
        out
    }

    fn nested_lists(n: usize) -> Vec<u8> {
        let mut body = [TAG_LIST, 1].repeat(n);
        body.push(TAG_NULL);
        body
    }

    #[test]
    fn map_reader_yields_buffer_order_and_borrows() {
        let buf = hand_map(&[
            ("s", &[TAG_STR, 1, b'y']),
            ("b", &[TAG_BYTES, 2, 7, 8]),
            ("s", &[TAG_INT, 2]),
            ("n", &[TAG_INT, 3]),
            ("skip", &[TAG_LIST, 1, TAG_NULL]),
        ]);
        let mut map = MapReader::framed(&buf).unwrap();
        let mut seen = Vec::new();
        while let Some((key, value)) = map.next_entry().unwrap() {
            let got = match key {
                "s" => format!("{:?}", value.str().unwrap()),
                "b" => format!("{:?}", value.bytes().unwrap()),
                "n" => format!("{:?}", value.value().unwrap()),
                _ => "skipped".into(),
            };
            seen.push(format!("{key}={got}"));
        }
        assert_eq!(
            seen,
            [
                "s=Some(\"y\")",
                "b=Some([7, 8])",
                "s=None",
                "n=Int(-2)",
                "skip=skipped"
            ]
        );
        // A mismatched kind is still consumed: the next entry follows it.
        let buf = hand_map(&[("a", &[TAG_STR, 1, b'z']), ("b", &[TAG_INT, 4])]);
        let mut map = MapReader::framed(&buf).unwrap();
        let (_, value) = map.next_entry().unwrap().unwrap();
        assert_eq!(value.bytes().unwrap(), None);
        let (key, value) = map.next_entry().unwrap().unwrap();
        assert_eq!((key, value.value().unwrap()), ("b", Value::Int(2)));
        assert!(map.next_entry().unwrap().is_none());
    }

    /// Reads every entry, decoding the value of `read` and leaving the
    /// rest unread.
    fn read_all(buf: &[u8], read: &str) -> Result<(), ValueError> {
        let mut map = MapReader::framed(buf)?;
        while let Some((key, value)) = map.next_entry()? {
            if key == read {
                value.value()?;
            }
        }
        Ok(())
    }

    #[test]
    fn map_reader_validates_what_decode_validates() {
        let deep = nested_lists(MAX_DEPTH - 1);
        let too_deep = nested_lists(MAX_DEPTH);
        let cases: [(&[u8], bool); 6] = [
            (&deep, true),
            (&too_deep, false),
            (&[TAG_STR, 1, 0xff], false),
            (&[TAG_BOOL, 7], false),
            (&[0x7e], false),
            (&[TAG_MAP, 1, 1, 0xff, TAG_NULL], false),
        ];
        for (body, ok) in cases {
            let buf = hand_map(&[("k", body)]);
            assert_eq!(decode(&buf).is_ok(), ok, "{body:02x?}");
            // Read, skipped, and read through a mismatched typed accessor.
            assert_eq!(read_all(&buf, "k").is_ok(), ok, "{body:02x?} read");
            assert_eq!(read_all(&buf, "other").is_ok(), ok, "{body:02x?} skipped");
            let typed = MapReader::framed(&buf).and_then(|mut map| {
                let (_, value) = map.next_entry()?.expect("one entry");
                value.str()?;
                map.next_entry().map(|_| ())
            });
            assert_eq!(typed.is_ok(), ok, "{body:02x?} typed");
            let spanned = MapReader::framed(&buf).and_then(|mut map| {
                let (_, value) = map.next_entry()?.expect("one entry");
                let (_, span) = value.value_and_span()?;
                map.next_entry().map(|_| span)
            });
            assert_eq!(spanned.is_ok(), ok, "{body:02x?} spanned");
            if let Ok(span) = spanned {
                assert_eq!(span.as_bytes(), body);
            }
        }
    }

    #[test]
    fn validated_spans_are_recognised_and_skipped() {
        let v = Value::map([("a", Value::list([Value::Int(1), Value::from("x")]))]);
        let buf = encode(&Value::map([("k", v.clone()), ("z", Value::Null)]));
        let mut map = MapReader::framed(&buf).unwrap();
        let (_, value) = map.next_entry().unwrap().unwrap();
        let (decoded, span) = value.value_and_span().unwrap();
        assert_eq!(decoded, v);
        assert_eq!(decode_value(&mut Reader::new(span.as_bytes())).unwrap(), v);

        // A second buffer carrying the same value elsewhere: recognised,
        // skipped, and the entries after it still read.
        let again = encode(&Value::map([
            ("a", Value::Int(3)),
            ("k", v),
            ("z", Value::from("after")),
        ]));
        let mut map = MapReader::framed(&again).unwrap();
        let (_, first) = map.next_entry().unwrap().unwrap();
        assert!(!first.ahead().starts_with(span.as_bytes()));
        assert!(
            first.skip_as([&span]).is_err(),
            "a different value stays unread"
        );
        let (_, second) = map.next_entry().unwrap().unwrap();
        assert!(second.ahead().starts_with(span.as_bytes()));
        assert_eq!(second.skip_as([&span, &span]).ok(), Some(0));
        let (key, third) = map.next_entry().unwrap().unwrap();
        assert_eq!((key, third.value().unwrap()), ("z", Value::from("after")));
        assert!(map.next_entry().unwrap().is_none());

        let mut out = Vec::new();
        write_map_header(1, &mut out);
        write_str("a", &mut out);
        write_list_header(2, &mut out);
        write_int_value(1, &mut out);
        write_str_value("x", &mut out);
        assert_eq!(out, span.as_bytes());
    }

    #[test]
    fn map_reader_rejects_bad_frames() {
        let mut trailing = hand_map(&[("k", &[TAG_NULL])]);
        trailing.push(0);
        assert_eq!(read_all(&trailing, "k"), Err(ValueError::TrailingBytes(1)));
        let not_a_map = encode(&Value::list([]));
        assert!(MapReader::framed(&not_a_map).is_err());
        let mut hostile = MAGIC.to_vec();
        hostile.extend([VERSION, TAG_MAP]);
        write_varint(1 << 40, &mut hostile);
        assert!(MapReader::framed(&hostile).is_err());
        let truncated = hand_map(&[("k", &[TAG_STR, 4, b'a'])]);
        assert!(read_all(&truncated, "k").is_err());
        assert!(read_all(&truncated, "other").is_err());
        let short = hand_map(&[("k", &[TAG_NULL])]);
        assert!(read_all(&short[..short.len() - 1], "k").is_err());
    }

    /// Rebuilds a value through the nested readers alone: maps and lists
    /// with `entries`/`items`, scalars with the typed accessors.
    fn rebuild(value: MapValue<'_, '_>) -> Result<Value, ValueError> {
        match value.kind() {
            Some(ValueKind::Map) => {
                let mut m = BTreeMap::new();
                value.entries(|k, v| {
                    m.insert(k.to_owned(), rebuild(v)?);
                    Ok(())
                })?;
                Ok(Value::Map(m))
            }
            Some(ValueKind::List) => {
                let mut items = Vec::new();
                value.items(|v| {
                    items.push(rebuild(v)?);
                    Ok(())
                })?;
                Ok(Value::List(items))
            }
            Some(ValueKind::Str) => Ok(Value::from(value.str()?.expect("a string"))),
            Some(ValueKind::Bytes) => Ok(Value::Bytes(value.bytes()?.expect("bytes").to_vec())),
            Some(ValueKind::Int) => Ok(Value::Int(value.int()?.expect("an int"))),
            Some(ValueKind::ObjectRef) => Ok(Value::ObjectRef(value.object_ref()?.expect("a ref"))),
            _ => value.value(),
        }
    }

    fn rebuild_all(buf: &[u8]) -> Result<Value, ValueError> {
        let mut map = MapReader::framed(buf)?;
        let mut m = BTreeMap::new();
        while let Some((key, value)) = map.next_entry()? {
            m.insert(key.to_owned(), rebuild(value)?);
        }
        Ok(Value::Map(m))
    }

    #[test]
    fn nested_readers_decode_and_fail_exactly_like_decode() {
        let mut gen = IdGenerator::new(NodeId(9));
        let v = Value::map([
            (
                "data",
                Value::map([
                    ("x", Value::map([("value", Value::Bytes(vec![1, 2, 3]))])),
                    (
                        "y",
                        Value::list([Value::from("s"), Value::ObjectRef(gen.next_id())]),
                    ),
                ]),
            ),
            ("f", Value::Float(1.5)),
            ("n", Value::Int(-300)),
            ("t", Value::list([Value::Bool(true), Value::Null])),
        ]);
        let buf = encode(&v);
        assert_eq!(rebuild_all(&buf), Ok(v));
        // Every truncation and every single-bit flip fails (or succeeds)
        // with exactly the error `decode` reports.
        for cut in 0..buf.len() {
            assert_eq!(
                rebuild_all(&buf[..cut]).err(),
                decode(&buf[..cut]).err(),
                "cut {cut}"
            );
        }
        // (Byte 3 is the top-level tag: a non-map there is `framed`'s
        // own error, which callers report through `decode`.)
        for at in (0..buf.len()).filter(|&at| at != 3) {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[at] ^= 1 << bit;
                if let Ok(want @ Value::Map(_)) = decode(&bad) {
                    // Compared as bytes: a flipped float may be a NaN.
                    assert_eq!(rebuild_all(&bad).map(|v| encode(&v)), Ok(encode(&want)));
                } else if let Err(want) = decode(&bad) {
                    assert_eq!(rebuild_all(&bad).err(), Some(want), "flip {at}.{bit}");
                }
            }
        }
        // The depth budget holds for nested reads as for `decode`.
        for depth in [MAX_DEPTH - 1, MAX_DEPTH] {
            let buf = hand_map(&[("k", &nested_lists(depth))]);
            assert_eq!(rebuild_all(&buf).is_ok(), decode(&buf).is_ok(), "{depth}");
        }
        // A span validated deep inside is not taken for a shallower value.
        let inner = Value::list([Value::Int(1)]);
        let buf = encode(&Value::map([
            ("k", Value::list([inner.clone()])),
            ("z", inner),
        ]));
        let mut map = MapReader::framed(&buf).unwrap();
        let (_, outer) = map.next_entry().unwrap().unwrap();
        let mut span = None;
        outer
            .items(|item| {
                span = Some(item.value_and_span()?.1);
                Ok(())
            })
            .unwrap();
        let span = span.unwrap();
        let (_, z) = map.next_entry().unwrap().unwrap();
        assert_eq!(
            z.skip_as([&span]).ok(),
            Some(0),
            "deeper spans fit shallower values"
        );
        let buf = encode(&Value::map([
            ("a", Value::list([Value::Int(1)])),
            ("k", Value::list([Value::list([Value::Int(1)])])),
        ]));
        let mut map = MapReader::framed(&buf).unwrap();
        let (_, a) = map.next_entry().unwrap().unwrap();
        let top = a.value_and_span().unwrap().1;
        let (_, k) = map.next_entry().unwrap().unwrap();
        k.items(|item| {
            assert!(item.ahead().starts_with(top.as_bytes()));
            assert!(
                item.skip_as([&top]).is_err(),
                "a shallower span is not reused deeper"
            );
            Ok(())
        })
        .unwrap();
    }
}
