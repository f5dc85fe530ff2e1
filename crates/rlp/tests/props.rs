//! Property tests: RLP encode/decode round-trips for arbitrary item
//! trees, the borrowed [`view`] against the allocating [`decode`] on
//! well-formed, damaged and arbitrary input, the `*_len` companions
//! against the bytes the writers actually append, and the nesting bound
//! against the unbounded decoder it replaced.

use parp_primitives::U256;
use parp_rlp::{
    bytes_len, decode, decode_prefix, encode_bytes, encode_list, encode_u256, encode_u64, list_len,
    u256_len, u64_len, view, write_bytes, write_list_header, write_u256, write_u64, DecodeError,
    Item, View, MAX_DEPTH,
};
use proptest::prelude::*;

/// The owned tree a borrowed view describes.
fn to_item(view: View<'_>) -> Item {
    match view {
        View::Bytes(bytes) => Item::Bytes(bytes.to_vec()),
        View::List(items) => Item::List(items.iter().map(to_item).collect()),
    }
}

/// What [`view`] makes of `input`, in [`decode`]'s terms.
fn viewed(input: &[u8]) -> Result<Item, DecodeError> {
    view(input).map(to_item)
}

fn arb_item() -> impl Strategy<Value = Item> {
    let leaf = proptest::collection::vec(any::<u8>(), 0..80).prop_map(Item::Bytes);
    leaf.prop_recursive(4, 64, 8, |inner| {
        proptest::collection::vec(inner, 0..8).prop_map(Item::List)
    })
}

/// The decoder as it stood before [`MAX_DEPTH`]: the same strict rules,
/// recursing as deep as the input says. Kept as the oracle for "inputs
/// within the bound decode exactly as they did"; `deepest` is raised to
/// the deepest list nesting entered.
fn unbounded_item<'a>(
    input: &'a [u8],
    depth: usize,
    deepest: &mut usize,
) -> Result<(Item, &'a [u8]), DecodeError> {
    let long_length = |len_of_len: usize| {
        let len_bytes = input
            .get(1..1 + len_of_len)
            .ok_or(DecodeError::UnexpectedEof)?;
        let len = len_bytes
            .iter()
            .fold(0u64, |len, byte| (len << 8) | u64::from(*byte));
        if len_bytes[0] == 0 || len <= 55 {
            return Err(DecodeError::NonMinimalLength);
        }
        usize::try_from(len).map_err(|_| DecodeError::UnexpectedEof)
    };
    let first = *input.first().ok_or(DecodeError::UnexpectedEof)?;
    let (is_list, header, len) = match first {
        0x00..=0x7f => return Ok((Item::Bytes(vec![first]), &input[1..])),
        0x80..=0xb7 => (false, 1, usize::from(first - 0x80)),
        0xb8..=0xbf => (
            false,
            usize::from(first - 0xb6),
            long_length((first - 0xb7).into())?,
        ),
        0xc0..=0xf7 => (true, 1, usize::from(first - 0xc0)),
        0xf8..=0xff => (
            true,
            usize::from(first - 0xf6),
            long_length((first - 0xf7).into())?,
        ),
    };
    let end = header
        .checked_add(len)
        .filter(|end| *end <= input.len())
        .ok_or(DecodeError::UnexpectedEof)?;
    let (mut payload, rest) = (&input[header..end], &input[end..]);
    if !is_list {
        return match payload {
            [byte] if *byte < 0x80 => Err(DecodeError::NonMinimalByte),
            _ => Ok((Item::Bytes(payload.to_vec()), rest)),
        };
    }
    *deepest = (*deepest).max(depth + 1);
    let mut items = Vec::new();
    while !payload.is_empty() {
        let (item, after) = unbounded_item(payload, depth + 1, deepest)?;
        items.push(item);
        payload = after;
    }
    Ok((Item::List(items), rest))
}

/// [`unbounded_item`] as a whole-input decode, with the deepest nesting
/// it entered before it finished or failed.
fn unbounded_decode(input: &[u8]) -> (Result<Item, DecodeError>, usize) {
    let mut deepest = 0;
    let result = unbounded_item(input, 0, &mut deepest).and_then(|(item, rest)| {
        if rest.is_empty() {
            Ok(item)
        } else {
            Err(DecodeError::TrailingBytes)
        }
    });
    (result, deepest)
}

/// `decode` and `view` against the unbounded oracle: equal in structure
/// and in error wherever the oracle stayed within the bound, an error
/// wherever it went past it.
fn assert_bounded_like_unbounded(input: &[u8]) -> Result<(), TestCaseError> {
    let (expected, deepest) = unbounded_decode(input);
    if deepest <= MAX_DEPTH {
        prop_assert_eq!(decode(input), expected.clone());
        prop_assert_eq!(viewed(input), expected);
    } else {
        prop_assert!(decode(input).is_err());
        prop_assert!(view(input).is_err());
    }
    Ok(())
}

proptest! {
    /// Item trees wrapped in up to a few more list layers than the bound
    /// allows, intact and with one byte damaged.
    #[test]
    fn within_the_depth_bound_nothing_changed(
        item in arb_item(),
        wraps in 0..MAX_DEPTH + 6,
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut encoded = item.encode();
        for layer in 0..wraps {
            let sibling = encode_bytes(&[layer as u8, 0xaa]);
            encoded = if layer % 3 == 0 {
                encode_list(&[sibling, encoded])
            } else {
                encode_list(&[encoded])
            };
        }
        let (intact, deepest) = unbounded_decode(&encoded);
        prop_assert!(intact.is_ok());
        if deepest > MAX_DEPTH {
            prop_assert_eq!(decode(&encoded), Err(DecodeError::TooDeep));
            prop_assert_eq!(viewed(&encoded), Err(DecodeError::TooDeep));
        }
        assert_bounded_like_unbounded(&encoded)?;
        let at = at.index(encoded.len());
        encoded[at] = byte;
        assert_bounded_like_unbounded(&encoded)?;
    }

    #[test]
    fn item_roundtrip(item in arb_item()) {
        let encoded = item.encode();
        prop_assert_eq!(decode(&encoded).unwrap(), item);
    }

    #[test]
    fn bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..1000)) {
        let encoded = encode_bytes(&data);
        let decoded = decode(&encoded).unwrap();
        prop_assert_eq!(decoded.as_bytes().unwrap(), data.as_slice());
    }

    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(decode(&encode_u64(v)).unwrap().as_u64().unwrap(), v);
    }

    #[test]
    fn u256_roundtrip(limbs in any::<[u64; 4]>()) {
        let v = U256::from_limbs(limbs);
        prop_assert_eq!(decode(&encode_u256(&v)).unwrap().as_u256().unwrap(), v);
    }

    #[test]
    fn truncation_always_fails(item in arb_item()) {
        let encoded = item.encode();
        if encoded.len() > 1 {
            prop_assert!(decode(&encoded[..encoded.len() - 1]).is_err());
        }
    }

    #[test]
    fn prefix_decode_reports_exact_length(item in arb_item(), tail in proptest::collection::vec(any::<u8>(), 0..16)) {
        let mut encoded = item.encode();
        let item_len = encoded.len();
        encoded.extend_from_slice(&tail);
        let (decoded, consumed) = decode_prefix(&encoded).unwrap();
        prop_assert_eq!(consumed, item_len);
        prop_assert_eq!(decoded, item);
    }

    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode(&data); // must not panic
    }

    /// The view yields the structure `decode` yields, nested lists
    /// included.
    #[test]
    fn view_matches_decode_on_item_trees(item in arb_item()) {
        prop_assert_eq!(viewed(&item.encode()), Ok(item));
    }

    /// Damaging one byte of a well-formed encoding (or cutting it, or
    /// appending to it) lands exactly where `decode` lands: the same
    /// structure or the same error.
    #[test]
    fn view_matches_decode_on_damaged_encodings(
        item in arb_item(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let encoded = item.encode();
        let mut flipped = encoded.clone();
        flipped[at.index(encoded.len())] = byte;
        prop_assert_eq!(viewed(&flipped), decode(&flipped));
        let mut inserted = encoded.clone();
        inserted.insert(at.index(encoded.len()), byte);
        prop_assert_eq!(viewed(&inserted), decode(&inserted));
        let truncated = &encoded[..cut.index(encoded.len())];
        prop_assert_eq!(viewed(truncated), decode(truncated));
        prop_assert!(viewed(truncated).is_err());
        let mut trailing = encoded;
        trailing.push(byte);
        prop_assert_eq!(viewed(&trailing), Err(DecodeError::TrailingBytes));
    }

    /// Total on arbitrary bytes: no panic, and acceptance, structure and
    /// error all equal `decode`'s. Header bytes are over-represented so
    /// the sweep reaches nested and long-form cases.
    #[test]
    fn view_matches_decode_on_arbitrary_bytes(
        data in proptest::collection::vec(
            prop_oneof![
                any::<u8>(),
                prop_oneof![Just(0x80u8), Just(0x81), Just(0xb8), Just(0xb9), Just(0xbf)],
                prop_oneof![Just(0xc0u8), Just(0xc1), Just(0xc3), Just(0xf8), Just(0xf9), Just(0xff)],
                0u8..0x40,
            ],
            0..200,
        ),
    ) {
        prop_assert_eq!(viewed(&data), decode(&data));
        assert_bounded_like_unbounded(&data)?;
    }

    #[test]
    fn len_companions_match_the_writers(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        small in any::<u8>(),
        value in any::<u64>(),
        shift in 0u32..64,
        limbs in any::<[u64; 4]>(),
        zero_limbs in 0usize..5,
    ) {
        // Appending to a non-empty buffer: the writers only ever extend.
        let mut out = vec![0xee];
        write_bytes(&data, &mut out);
        prop_assert_eq!(out.len() - 1, bytes_len(&data));
        prop_assert_eq!(&out[1..], encode_bytes(&data).as_slice());
        prop_assert_eq!(bytes_len(&[small]), encode_bytes(&[small]).len());

        for v in [value, value >> shift, u64::from(small)] {
            let mut out = Vec::new();
            write_u64(v, &mut out);
            prop_assert_eq!(out.len(), u64_len(v));
            prop_assert_eq!(decode(&out).unwrap().as_u64().unwrap(), v);
        }

        let mut limbs = limbs;
        for limb in limbs.iter_mut().rev().take(zero_limbs) {
            *limb = 0;
        }
        let wide = U256::from_limbs(limbs);
        let mut out = Vec::new();
        write_u256(&wide, &mut out);
        prop_assert_eq!(out.len(), u256_len(&wide));
        prop_assert_eq!(&out, &encode_u256(&wide));
        prop_assert_eq!(decode(&out).unwrap().as_u256().unwrap(), wide);

        // A list header over `data` as an opaque payload.
        let mut out = Vec::new();
        write_list_header(data.len(), &mut out);
        out.extend_from_slice(&data);
        prop_assert_eq!(out.len(), list_len(data.len()));
        prop_assert_eq!(out, encode_list(std::slice::from_ref(&data)));
    }
}

#[test]
fn length_boundaries() {
    for len in [0usize, 1, 55, 56, 255, 256, 65_535, 65_536] {
        let data = vec![0xabu8; len];
        assert_eq!(bytes_len(&data), encode_bytes(&data).len(), "{len} bytes");
        assert_eq!(
            list_len(len),
            encode_list(std::slice::from_ref(&data)).len(),
            "{len}-byte list payload"
        );
        assert_eq!(viewed(&encode_bytes(&data)), Ok(Item::Bytes(data)));
    }
    for value in [0u64, 1, 0x7f, 0x80, 0xff, 0x100, u64::MAX] {
        assert_eq!(u64_len(value), encode_u64(value).len(), "{value}");
        assert_eq!(
            u256_len(&U256::from(value)),
            encode_u256(&U256::from(value)).len(),
            "{value}"
        );
    }
    let max = U256::from_limbs([u64::MAX; 4]);
    assert_eq!(u256_len(&max), 33);
    assert_eq!(encode_u256(&max).len(), 33);
}

/// A length field claiming more bytes than a `usize` can address must be
/// an ordinary error, not an overflow.
#[test]
fn absurd_lengths_are_truncation() {
    for first in [0xbfu8, 0xff] {
        let mut input = vec![first];
        input.extend_from_slice(&[0xff; 8]);
        input.extend_from_slice(&[0; 32]);
        assert_eq!(viewed(&input), Err(DecodeError::UnexpectedEof));
        assert_eq!(decode(&input), Err(DecodeError::UnexpectedEof));
    }
}

/// `levels` lists, each holding only the next: written outermost header
/// first from the payload lengths, so building it is linear.
fn nested_lists(levels: usize) -> Vec<u8> {
    let mut payload_lens = Vec::with_capacity(levels);
    let mut len = 0;
    for _ in 0..levels {
        payload_lens.push(len);
        len = list_len(len);
    }
    let mut out = Vec::with_capacity(len);
    for payload_len in payload_lens.into_iter().rev() {
        write_list_header(payload_len, &mut out);
    }
    out
}

/// Hostile nesting is an error after [`MAX_DEPTH`] levels, on a stack
/// far too small to recurse through all of it.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    assert_eq!(nested_lists(3), vec![0xc2, 0xc1, 0xc0]);
    assert!(decode(&nested_lists(MAX_DEPTH)).is_ok());
    assert!(view(&nested_lists(MAX_DEPTH)).is_ok());
    let bomb = nested_lists(200_000);
    let small_stack = std::thread::Builder::new().stack_size(256 * 1024);
    let verdicts = small_stack
        .spawn(move || (decode(&bomb), view(&bomb).map(|_| ())))
        .expect("spawn")
        .join()
        .expect("the decoder must not overflow its stack");
    assert_eq!(
        verdicts,
        (Err(DecodeError::TooDeep), Err(DecodeError::TooDeep))
    );
}
