//! Recursive Length Prefix (RLP) serialization, Ethereum's canonical wire
//! and hashing encoding.
//!
//! Transactions, block headers and Merkle-Patricia-Trie nodes are all
//! RLP-encoded before hashing, so a byte-exact RLP implementation is the
//! foundation of every integrity check in PARP.
//!
//! The decoder is *strict*: it rejects non-minimal encodings (a single byte
//! below `0x80` wrapped in a string header, length fields with leading
//! zeros, trailing garbage), which matters because trie keys and fraud
//! proofs must have exactly one valid encoding. It is also *bounded*:
//! lists nested more than [`MAX_DEPTH`] deep are an error, so hostile
//! input costs a fixed amount of stack.
//!
//! Two shapes of each direction, one set of rules behind both:
//!
//! * **Reading.** [`decode`] builds an owned [`Item`] tree; [`view`]
//!   checks the same input just as strictly (nested items included) and
//!   hands back a [`View`] whose payloads are slices of the input — no
//!   allocation, which is what proof verification walks. Both split
//!   items with the same header parser, so they cannot disagree on what
//!   is well-formed.
//! * **Writing.** `write_*` append to a caller's buffer and `*_len`
//!   say, arithmetically, how many bytes that will be, so a message is
//!   sized once and written once; the `Vec`-returning `encode_*` are
//!   those writers behind an exactly-sized allocation.
//!
//! # Examples
//!
//! ```
//! use parp_rlp::{decode, encode_bytes, encode_list, Item};
//!
//! let dog = encode_bytes(b"dog");
//! assert_eq!(dog, vec![0x83, b'd', b'o', b'g']);
//!
//! let list = encode_list(&[encode_bytes(b"cat"), encode_bytes(b"dog")]);
//! let item = decode(&list).unwrap();
//! assert_eq!(item, Item::List(vec![
//!     Item::Bytes(b"cat".to_vec()),
//!     Item::Bytes(b"dog".to_vec()),
//! ]));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use parp_primitives::{Address, H256, U256};
use std::error::Error;
use std::fmt;

/// A decoded RLP item: either a byte string or a list of items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A byte string (possibly empty).
    Bytes(Vec<u8>),
    /// A list of nested items (possibly empty).
    List(Vec<Item>),
}

impl Item {
    /// Encodes the item tree back to RLP bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Item::Bytes(bytes) => encode_bytes(bytes),
            Item::List(items) => {
                let encoded: Vec<Vec<u8>> = items.iter().map(Item::encode).collect();
                encode_list(&encoded)
            }
        }
    }

    /// Borrows the payload if this is a byte string.
    ///
    /// # Errors
    ///
    /// Fails when the item is a list.
    pub fn as_bytes(&self) -> Result<&[u8], DecodeError> {
        match self {
            Item::Bytes(b) => Ok(b),
            Item::List(_) => Err(DecodeError::ExpectedBytes),
        }
    }

    /// Borrows the children if this is a list.
    ///
    /// # Errors
    ///
    /// Fails when the item is a byte string.
    pub fn as_list(&self) -> Result<&[Item], DecodeError> {
        match self {
            Item::List(items) => Ok(items),
            Item::Bytes(_) => Err(DecodeError::ExpectedList),
        }
    }

    /// Interprets a byte string as a minimal big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails on lists, leading zeros, or values wider than 8 bytes.
    pub fn as_u64(&self) -> Result<u64, DecodeError> {
        let bytes = self.as_bytes()?;
        if bytes.len() > 8 {
            return Err(DecodeError::IntegerOverflow);
        }
        if bytes.first() == Some(&0) {
            return Err(DecodeError::NonMinimalInteger);
        }
        let mut buf = [0u8; 8];
        buf[8 - bytes.len()..].copy_from_slice(bytes);
        Ok(u64::from_be_bytes(buf))
    }

    /// Interprets a byte string as a minimal big-endian [`U256`].
    ///
    /// # Errors
    ///
    /// Fails on lists, leading zeros, or values wider than 32 bytes.
    pub fn as_u256(&self) -> Result<U256, DecodeError> {
        let bytes = self.as_bytes()?;
        if bytes.len() > 32 {
            return Err(DecodeError::IntegerOverflow);
        }
        if bytes.first() == Some(&0) {
            return Err(DecodeError::NonMinimalInteger);
        }
        Ok(U256::from_be_slice(bytes).expect("length checked"))
    }

    /// Interprets a byte string as a 32-byte hash.
    ///
    /// # Errors
    ///
    /// Fails on lists or byte strings that are not exactly 32 bytes.
    pub fn as_h256(&self) -> Result<H256, DecodeError> {
        let bytes = self.as_bytes()?;
        H256::from_slice(bytes).ok_or(DecodeError::WrongLength {
            expected: 32,
            actual: bytes.len(),
        })
    }

    /// Interprets a byte string as a 20-byte address.
    ///
    /// # Errors
    ///
    /// Fails on lists or byte strings that are not exactly 20 bytes.
    pub fn as_address(&self) -> Result<Address, DecodeError> {
        let bytes = self.as_bytes()?;
        Address::from_slice(bytes).ok_or(DecodeError::WrongLength {
            expected: 20,
            actual: bytes.len(),
        })
    }
}

/// Errors produced by the strict RLP decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the announced payload length.
    UnexpectedEof,
    /// Bytes remained after the top-level item.
    TrailingBytes,
    /// A long-form length had leading zeros or encoded a short value.
    NonMinimalLength,
    /// A single byte below 0x80 was wrapped in a string header.
    NonMinimalByte,
    /// An integer field had leading zeros.
    NonMinimalInteger,
    /// An integer field was wider than the target type.
    IntegerOverflow,
    /// Expected a byte string, found a list.
    ExpectedBytes,
    /// Expected a list, found a byte string.
    ExpectedList,
    /// A fixed-size field had the wrong length.
    WrongLength {
        /// Required length in bytes.
        expected: usize,
        /// Length found in the input.
        actual: usize,
    },
    /// A list had the wrong number of elements.
    WrongArity {
        /// Required element count.
        expected: usize,
        /// Count found in the input.
        actual: usize,
    },
    /// Lists were nested more than [`MAX_DEPTH`] deep.
    TooDeep,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of rlp input"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after rlp item"),
            DecodeError::NonMinimalLength => write!(f, "non-minimal rlp length encoding"),
            DecodeError::NonMinimalByte => write!(f, "single byte encoded with a header"),
            DecodeError::NonMinimalInteger => write!(f, "integer encoded with leading zeros"),
            DecodeError::IntegerOverflow => write!(f, "integer does not fit the target type"),
            DecodeError::ExpectedBytes => write!(f, "expected an rlp byte string, found a list"),
            DecodeError::ExpectedList => write!(f, "expected an rlp list, found bytes"),
            DecodeError::WrongLength { expected, actual } => {
                write!(f, "expected {expected}-byte field, found {actual} bytes")
            }
            DecodeError::WrongArity { expected, actual } => {
                write!(f, "expected list of {expected} items, found {actual}")
            }
            DecodeError::TooDeep => write!(f, "rlp lists nested more than {MAX_DEPTH} deep"),
        }
    }
}

impl Error for DecodeError {}

/// Bytes of the minimal big-endian form of `value` (zero → 0).
fn be_len(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).div_ceil(8)
}

/// Size of the length header in front of a `payload_len`-byte payload.
fn header_len(payload_len: usize) -> usize {
    if payload_len <= 55 {
        1
    } else {
        1 + be_len(payload_len as u64)
    }
}

/// Encoded size of a byte string: what [`write_bytes`] appends.
pub fn bytes_len(data: &[u8]) -> usize {
    match data {
        [byte] if *byte < 0x80 => 1,
        _ => header_len(data.len()) + data.len(),
    }
}

/// Encoded size of a list whose items total `payload_len` bytes.
pub fn list_len(payload_len: usize) -> usize {
    header_len(payload_len) + payload_len
}

/// Encoded size of a `u64`: what [`write_u64`] appends.
pub fn u64_len(value: u64) -> usize {
    if value < 0x80 {
        1
    } else {
        1 + be_len(value)
    }
}

/// Encoded size of a [`U256`]: what [`write_u256`] appends.
pub fn u256_len(value: &U256) -> usize {
    match value.to_u64() {
        Some(small) => u64_len(small),
        None => 1 + u256_be_len(value),
    }
}

fn u256_be_len(value: &U256) -> usize {
    (value.bits() as usize).div_ceil(8)
}

fn write_header(len: usize, short_offset: u8, out: &mut Vec<u8>) {
    if len <= 55 {
        out.push(short_offset + len as u8);
    } else {
        let len_bytes = (len as u64).to_be_bytes();
        let minimal = &len_bytes[8 - be_len(len as u64)..];
        out.push(short_offset + 55 + minimal.len() as u8);
        out.extend_from_slice(minimal);
    }
}

/// Appends the encoding of a byte string to `out`.
pub fn write_bytes(data: &[u8], out: &mut Vec<u8>) {
    match data {
        [byte] if *byte < 0x80 => out.push(*byte),
        _ => {
            write_header(data.len(), 0x80, out);
            out.extend_from_slice(data);
        }
    }
}

/// Appends the header of a list whose already-encoded items total
/// `payload_len` bytes; the caller appends the items after it.
pub fn write_list_header(payload_len: usize, out: &mut Vec<u8>) {
    write_header(payload_len, 0xc0, out);
}

/// Appends a `u64` as a minimal big-endian byte string (zero → empty).
pub fn write_u64(value: u64, out: &mut Vec<u8>) {
    write_bytes(&value.to_be_bytes()[8 - be_len(value)..], out);
}

/// Appends a [`U256`] as a minimal big-endian byte string.
pub fn write_u256(value: &U256, out: &mut Vec<u8>) {
    write_bytes(&value.to_be_bytes()[32 - u256_be_len(value)..], out);
}

/// Encodes a byte string.
pub fn encode_bytes(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes_len(data));
    write_bytes(data, &mut out);
    out
}

/// Wraps already-encoded items in a list header.
pub fn encode_list(encoded_items: &[Vec<u8>]) -> Vec<u8> {
    let payload_len: usize = encoded_items.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(list_len(payload_len));
    write_list_header(payload_len, &mut out);
    for item in encoded_items {
        out.extend_from_slice(item);
    }
    out
}

/// Encodes a `u64` as a minimal big-endian byte string (zero → empty).
pub fn encode_u64(value: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(u64_len(value));
    write_u64(value, &mut out);
    out
}

/// Encodes a [`U256`] as a minimal big-endian byte string.
pub fn encode_u256(value: &U256) -> Vec<u8> {
    let mut out = Vec::with_capacity(u256_len(value));
    write_u256(value, &mut out);
    out
}

/// Encodes a 32-byte hash as a byte string.
pub fn encode_h256(value: &H256) -> Vec<u8> {
    encode_bytes(value.as_bytes())
}

/// Encodes a 20-byte address as a byte string.
pub fn encode_address(value: &Address) -> Vec<u8> {
    encode_bytes(value.as_bytes())
}

/// A borrowed view of one RLP item: payload slices over the input, no
/// allocation. [`view`] checks the whole nested structure as strictly as
/// [`decode`] before handing one out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View<'a> {
    /// A byte string's payload.
    Bytes(&'a [u8]),
    /// A list; iterate it for the items.
    List(ListView<'a>),
}

/// The items of a borrowed list, already checked by [`view`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListView<'a> {
    /// The list payload: zero or more well-formed items back to back.
    payload: &'a [u8],
}

impl<'a> ListView<'a> {
    /// Iterates the list's items in order.
    pub fn iter(&self) -> Items<'a> {
        Items { rest: self.payload }
    }
}

impl<'a> IntoIterator for ListView<'a> {
    type Item = View<'a>;
    type IntoIter = Items<'a>;

    fn into_iter(self) -> Items<'a> {
        self.iter()
    }
}

/// Iterator over the items of a [`ListView`].
#[derive(Debug, Clone)]
pub struct Items<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Items<'a> {
    type Item = View<'a>;

    #[inline]
    fn next(&mut self) -> Option<View<'a>> {
        // `view` checked this payload, so the split only fails at its end.
        let (item, rest) = split_item(self.rest).ok()?;
        self.rest = rest;
        Some(item)
    }
}

/// Borrows a complete RLP item without allocating, rejecting exactly the
/// inputs [`decode`] rejects (nested items included).
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed, truncated, non-minimal or too
/// deeply nested input.
///
/// # Examples
///
/// ```
/// use parp_rlp::{encode_bytes, encode_list, view, View};
///
/// let list = encode_list(&[encode_bytes(b"cat"), encode_list(&[])]);
/// let View::List(items) = view(&list).unwrap() else { panic!("a list") };
/// let mut items = items.iter();
/// assert_eq!(items.next(), Some(View::Bytes(b"cat")));
/// assert!(matches!(items.next(), Some(View::List(_))));
/// assert_eq!(items.next(), None);
/// ```
pub fn view(input: &[u8]) -> Result<View<'_>, DecodeError> {
    let (item, rest) = split_nested(input, 0)?;
    if let View::List(list) = item {
        check_items(list.payload, 1)?;
    }
    if !rest.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(item)
}

fn check_items(mut payload: &[u8], depth: usize) -> Result<(), DecodeError> {
    while !payload.is_empty() {
        let (item, rest) = split_nested(payload, depth)?;
        if let View::List(list) = item {
            check_items(list.payload, depth + 1)?;
        }
        payload = rest;
    }
    Ok(())
}

/// How deep lists may nest: the outermost list is depth 1, a list inside
/// it depth 2, and so on.
///
/// [`decode`] and [`view`] recurse once per level, so without a bound a
/// few hundred kilobytes of nested list headers overflow the stack. The
/// deepest thing this protocol encodes is a trie node: a list (1) whose
/// inline children are nodes of under 32 bytes, each level of which
/// spends at least one byte on its header — at most 31 more. The deepest
/// message (a batch response carrying receipts with log topics) nests 8.
/// 64 clears both twice over and keeps the decoder within a few
/// kilobytes of stack.
pub const MAX_DEPTH: usize = 64;

/// [`split_item`] for an item sitting inside `depth` lists — the one way
/// [`decode`] and [`view`] go down a level, and so where [`MAX_DEPTH`]
/// holds for both.
#[inline]
fn split_nested(input: &[u8], depth: usize) -> Result<(View<'_>, &[u8]), DecodeError> {
    let split = split_item(input)?;
    if depth >= MAX_DEPTH && matches!(split.0, View::List(_)) {
        return Err(DecodeError::TooDeep);
    }
    Ok(split)
}

/// Splits the first item off `input`: its header read and checked, its
/// payload borrowed (a list's payload not yet looked into), and the
/// bytes after it. Every header rule of the strict decoder lives here.
#[inline]
fn split_item(input: &[u8]) -> Result<(View<'_>, &[u8]), DecodeError> {
    let (first, after_first) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
    let (is_list, header, len) = match *first {
        0x00..=0x7f => return Ok((View::Bytes(std::slice::from_ref(first)), after_first)),
        byte @ 0x80..=0xb7 => (false, 1, usize::from(byte - 0x80)),
        byte @ 0xb8..=0xbf => {
            let len_of_len = usize::from(byte - 0xb7);
            (false, 1 + len_of_len, read_long_length(input, len_of_len)?)
        }
        byte @ 0xc0..=0xf7 => (true, 1, usize::from(byte - 0xc0)),
        byte @ 0xf8..=0xff => {
            let len_of_len = usize::from(byte - 0xf7);
            (true, 1 + len_of_len, read_long_length(input, len_of_len)?)
        }
    };
    let (item, rest) = header
        .checked_add(len)
        .and_then(|end| input.split_at_checked(end))
        .ok_or(DecodeError::UnexpectedEof)?;
    let payload = item.get(header..).ok_or(DecodeError::UnexpectedEof)?;
    if is_list {
        return Ok((View::List(ListView { payload }), rest));
    }
    match payload {
        [byte] if *byte < 0x80 => Err(DecodeError::NonMinimalByte),
        _ => Ok((View::Bytes(payload), rest)),
    }
}

fn read_long_length(input: &[u8], len_of_len: usize) -> Result<usize, DecodeError> {
    let len_bytes = input
        .get(1..1 + len_of_len)
        .ok_or(DecodeError::UnexpectedEof)?;
    if len_bytes.first() == Some(&0) {
        return Err(DecodeError::NonMinimalLength);
    }
    let len = len_bytes
        .iter()
        .fold(0u64, |len, byte| (len << 8) | u64::from(*byte));
    if len <= 55 {
        return Err(DecodeError::NonMinimalLength);
    }
    usize::try_from(len).map_err(|_| DecodeError::UnexpectedEof)
}

/// Decodes a complete RLP item, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed, truncated, non-minimal or too
/// deeply nested input.
pub fn decode(input: &[u8]) -> Result<Item, DecodeError> {
    let (item, consumed) = decode_prefix(input)?;
    if consumed != input.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(item)
}

/// Decodes the first RLP item of `input`, returning it with the number of
/// bytes consumed.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed, truncated or non-minimal input.
pub fn decode_prefix(input: &[u8]) -> Result<(Item, usize), DecodeError> {
    let (item, rest) = decode_item(input, 0)?;
    Ok((item, input.len() - rest.len()))
}

fn decode_item(input: &[u8], depth: usize) -> Result<(Item, &[u8]), DecodeError> {
    let (item, rest) = split_nested(input, depth)?;
    let item = match item {
        View::Bytes(payload) => Item::Bytes(payload.to_vec()),
        View::List(list) => Item::List(decode_list_payload(list.payload, depth + 1)?),
    };
    Ok((item, rest))
}

fn decode_list_payload(mut payload: &[u8], depth: usize) -> Result<Vec<Item>, DecodeError> {
    let mut items = Vec::new();
    while !payload.is_empty() {
        let (item, rest) = decode_item(payload, depth)?;
        items.push(item);
        payload = rest;
    }
    Ok(items)
}

/// Convenience: decodes a top-level list and checks its arity.
///
/// # Errors
///
/// Fails when the input is not a list of exactly `arity` items.
pub fn decode_list_of(input: &[u8], arity: usize) -> Result<Vec<Item>, DecodeError> {
    let item = decode(input)?;
    match item {
        Item::List(items) if items.len() == arity => Ok(items),
        Item::List(items) => Err(DecodeError::WrongArity {
            expected: arity,
            actual: items.len(),
        }),
        Item::Bytes(_) => Err(DecodeError::ExpectedList),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Canonical examples from the Ethereum wiki / yellow paper appendix.
    #[test]
    fn canonical_vectors() {
        assert_eq!(encode_bytes(b"dog"), vec![0x83, b'd', b'o', b'g']);
        assert_eq!(
            encode_list(&[encode_bytes(b"cat"), encode_bytes(b"dog")]),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
        assert_eq!(encode_bytes(b""), vec![0x80]);
        assert_eq!(encode_list(&[]), vec![0xc0]);
        assert_eq!(encode_u64(0), vec![0x80]);
        assert_eq!(encode_u64(15), vec![0x0f]);
        assert_eq!(encode_u64(1024), vec![0x82, 0x04, 0x00]);
        // A 56-byte string gets a long header.
        let lorem = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit";
        let encoded = encode_bytes(lorem);
        assert_eq!(encoded[0], 0xb8);
        assert_eq!(encoded[1], lorem.len() as u8);
    }

    #[test]
    fn nested_list_vector() {
        // [ [], [[]], [ [], [[]] ] ] — the set-theoretic representation of 3.
        let empty = encode_list(&[]);
        let one = encode_list(std::slice::from_ref(&empty));
        let two = encode_list(&[empty.clone(), one.clone()]);
        let three = encode_list(&[empty.clone(), one.clone(), two.clone()]);
        assert_eq!(three, vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]);
        assert_eq!(decode(&three).unwrap().encode(), three);
    }

    #[test]
    fn single_byte_passthrough() {
        assert_eq!(encode_bytes(&[0x00]), vec![0x00]);
        assert_eq!(encode_bytes(&[0x7f]), vec![0x7f]);
        assert_eq!(encode_bytes(&[0x80]), vec![0x81, 0x80]);
    }

    #[test]
    fn decode_rejects_non_minimal_byte() {
        // [0x81, 0x05] wraps 0x05 needlessly.
        assert_eq!(decode(&[0x81, 0x05]), Err(DecodeError::NonMinimalByte));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        assert_eq!(decode(&[0x80, 0x00]), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(decode(&[0x83, b'd', b'o']), Err(DecodeError::UnexpectedEof));
        assert_eq!(decode(&[0xb8]), Err(DecodeError::UnexpectedEof));
        assert_eq!(decode(&[]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_non_minimal_length() {
        // Long form used for a short payload.
        let mut bad = vec![0xb8, 3];
        bad.extend_from_slice(b"dog");
        assert_eq!(decode(&bad), Err(DecodeError::NonMinimalLength));
        // Leading zero in the length.
        let mut bad2 = vec![0xb9, 0, 56];
        bad2.extend_from_slice(&[0u8; 56]);
        assert_eq!(decode(&bad2), Err(DecodeError::NonMinimalLength));
    }

    #[test]
    fn long_list_roundtrip() {
        let items: Vec<Vec<u8>> = (0..40u64).map(encode_u64).collect();
        let encoded = encode_list(&items);
        let decoded = decode(&encoded).unwrap();
        let children = decoded.as_list().unwrap();
        assert_eq!(children.len(), 40);
        for (i, child) in children.iter().enumerate() {
            assert_eq!(child.as_u64().unwrap(), i as u64);
        }
    }

    #[test]
    fn integer_accessors() {
        assert_eq!(decode(&encode_u64(0)).unwrap().as_u64().unwrap(), 0);
        assert_eq!(
            decode(&encode_u64(u64::MAX)).unwrap().as_u64().unwrap(),
            u64::MAX
        );
        let big = U256::from(123456789u64) * U256::from(987654321u64);
        assert_eq!(decode(&encode_u256(&big)).unwrap().as_u256().unwrap(), big);
        // Leading-zero integers rejected.
        let padded = encode_bytes(&[0x00, 0x01]);
        assert_eq!(
            decode(&padded).unwrap().as_u64(),
            Err(DecodeError::NonMinimalInteger)
        );
    }

    #[test]
    fn typed_accessors() {
        let h = H256::from_low_u64_be(7);
        assert_eq!(decode(&encode_h256(&h)).unwrap().as_h256().unwrap(), h);
        let a = Address::from_low_u64_be(9);
        assert_eq!(
            decode(&encode_address(&a)).unwrap().as_address().unwrap(),
            a
        );
        assert!(matches!(
            decode(&encode_bytes(&[1, 2, 3])).unwrap().as_h256(),
            Err(DecodeError::WrongLength {
                expected: 32,
                actual: 3
            })
        ));
        assert_eq!(
            decode(&encode_list(&[])).unwrap().as_bytes(),
            Err(DecodeError::ExpectedBytes)
        );
        assert_eq!(
            decode(&encode_bytes(b"x")).unwrap().as_list(),
            Err(DecodeError::ExpectedList)
        );
    }

    #[test]
    fn arity_checked_decode() {
        let two = encode_list(&[encode_u64(1), encode_u64(2)]);
        assert_eq!(decode_list_of(&two, 2).unwrap().len(), 2);
        assert_eq!(
            decode_list_of(&two, 3),
            Err(DecodeError::WrongArity {
                expected: 3,
                actual: 2
            })
        );
        assert_eq!(
            decode_list_of(&encode_bytes(b"x"), 1),
            Err(DecodeError::ExpectedList)
        );
    }

    #[test]
    fn large_payload_roundtrip() {
        let blob = vec![0x42u8; 70_000];
        let encoded = encode_bytes(&blob);
        assert_eq!(encoded[0], 0xb7 + 3); // 3-byte length
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded.as_bytes().unwrap(), blob.as_slice());
    }
}
