//! In-tree serialization facade.
//!
//! The build environment is offline, so the real serde crate is
//! unavailable; this crate provides the subset of its surface the
//! workspace uses — `Serialize`/`Deserialize` traits, the derive
//! macros (from the sibling `serde_derive` crate), and `to_vec` /
//! `from_slice` entry points — over a single compact binary format:
//!
//! * integers/floats: fixed-width little-endian (`f64` via `to_bits`)
//! * `bool`: one byte; `char`: `u32` scalar value
//! * sequences, maps, strings: `u64` element count, then elements;
//!   a `HashMap`/`HashSet` writes its entries in ascending order of
//!   their encoded keys, so equal containers encode to equal bytes
//!   whatever their per-instance hash seed (decoding takes any order)
//! * `Option`: one-byte tag; enums: `u32` declaration-order tag
//! * structs/tuples/arrays: fields in declaration order, no framing
//!
//! The format is self-consistent (round-trips through `to_vec` →
//! `from_slice`) but deliberately schema-less: it is a model
//! cache/persistence format, not an interchange format.

// Let the `::serde::` paths in derive-generated code resolve when the
// derives are exercised inside this crate's own tests.
extern crate self as serde;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::net::Ipv4Addr;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// Decode error: truncated input, invalid tag, or malformed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.msg)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    fn serialize(&self, out: &mut Vec<u8>);
}

pub trait Deserialize: Sized {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error>;
}

/// Serialize a value to its binary encoding.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut out);
    out
}

/// Deserialize a value from its binary encoding, requiring that the
/// whole input is consumed.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut input = bytes;
    let value = T::deserialize(&mut input)?;
    if !input.is_empty() {
        return Err(Error::custom(format!("{} trailing bytes", input.len())));
    }
    Ok(value)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], Error> {
    if input.len() < n {
        return Err(Error::custom(format!(
            "unexpected end of input: need {n} bytes, have {}",
            input.len()
        )));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

fn read_len(input: &mut &[u8]) -> Result<usize, Error> {
    let raw = u64::deserialize(input)?;
    usize::try_from(raw).map_err(|_| Error::custom("length overflows usize"))
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Deserialize for $t {
            fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    )*};
}

impl_scalar!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Serialize for usize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u64).serialize(out);
    }
}

impl Deserialize for usize {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let raw = u64::deserialize(input)?;
        usize::try_from(raw).map_err(|_| Error::custom("usize overflow"))
    }
}

impl Serialize for isize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as i64).serialize(out);
    }
}

impl Deserialize for isize {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let raw = i64::deserialize(input)?;
        isize::try_from(raw).map_err(|_| Error::custom("isize overflow"))
    }
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.to_bits().serialize(out);
    }
}

impl Deserialize for f64 {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(f64::from_bits(u64::deserialize(input)?))
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.to_bits().serialize(out);
    }
}

impl Deserialize for f32 {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(f32::from_bits(u32::deserialize(input)?))
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Deserialize for bool {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        match u8::deserialize(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::custom(format!("invalid bool byte {other}"))),
        }
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u32).serialize(out);
    }
}

impl Deserialize for char {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let raw = u32::deserialize(input)?;
        char::from_u32(raw).ok_or_else(|| Error::custom(format!("invalid char scalar {raw}")))
    }
}

impl Serialize for () {
    fn serialize(&self, _out: &mut Vec<u8>) {}
}

impl Deserialize for () {
    fn deserialize(_input: &mut &[u8]) -> Result<Self, Error> {
        Ok(())
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_str().serialize(out);
    }
}

impl Deserialize for String {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::custom("invalid utf-8 string"))
    }
}

impl Serialize for Ipv4Addr {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.octets());
    }
}

impl Deserialize for Ipv4Addr {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let bytes = take(input, 4)?;
        Ok(Ipv4Addr::new(bytes[0], bytes[1], bytes[2], bytes[3]))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.serialize(out);
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        match u8::deserialize(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(input)?)),
            other => Err(Error::custom(format!("invalid option tag {other}"))),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(Box::new(T::deserialize(input)?))
    }
}

/// Encoded as the string itself: a shared string and an owned one have
/// the same bytes.
impl Serialize for Arc<str> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl Deserialize for Arc<str> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        String::deserialize(input).map(Arc::from)
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(
    len: usize,
    items: impl Iterator<Item = &'a T>,
    out: &mut Vec<u8>,
) {
    (len as u64).serialize(out);
    for item in items {
        item.serialize(out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_seq(self.len(), self.iter(), out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut items = Vec::new();
        for _ in 0..len {
            items.push(T::deserialize(input)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_seq(self.len(), self.iter(), out);
    }
}

/// Encoded exactly as `Vec<T>`: a shared slice and an owned vector of the
/// same elements have the same bytes.
impl<T: Serialize> Serialize for Arc<[T]> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Vec::<T>::deserialize(input).map(Arc::from)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_seq(self.len(), self.iter(), out);
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(Vec::<T>::deserialize(input)?.into())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Vec<u8>) {
        for item in self {
            item.serialize(out);
        }
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::deserialize(input)?);
        }
        items
            .try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_seq(self.len(), self.iter(), out);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(T::deserialize(input)?);
        }
        Ok(set)
    }
}

/// Writes the `len` entries of a hash container in ascending order of
/// their encoded keys, each key followed by `write_value` of its entry.
/// Iteration order follows the container's random hash seed, so writing
/// in it would give equal containers different bytes. The keys are
/// distinct and their encodings prefix-free, so the order is total.
fn serialize_by_key<'a, K: Serialize + 'a, E>(
    len: usize,
    entries: impl Iterator<Item = (&'a K, E)>,
    out: &mut Vec<u8>,
    mut write_value: impl FnMut(E, &mut Vec<u8>),
) {
    let mut keys = Vec::new();
    let mut spans = Vec::with_capacity(len);
    for (key, entry) in entries {
        let start = keys.len();
        key.serialize(&mut keys);
        spans.push((start, keys.len(), entry));
    }
    spans.sort_unstable_by(|a, b| keys[a.0..a.1].cmp(&keys[b.0..b.1]));
    (len as u64).serialize(out);
    for (start, end, entry) in spans {
        out.extend_from_slice(&keys[start..end]);
        write_value(entry, out);
    }
}

impl<T: Serialize + Eq + Hash> Serialize for HashSet<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_by_key(self.len(), self.iter().map(|k| (k, ())), out, |(), _| {});
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut set = HashSet::with_capacity(len.min(4096));
        for _ in 0..len {
            set.insert(T::deserialize(input)?);
        }
        Ok(set)
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for (k, v) in self {
            k.serialize(out);
            v.serialize(out);
        }
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::deserialize(input)?;
            let v = V::deserialize(input)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<K: Serialize + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_by_key(self.len(), self.iter(), out, |v, out| v.serialize(out));
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut map = HashMap::with_capacity(len.min(4096));
        for _ in 0..len {
            let k = K::deserialize(input)?;
            let v = V::deserialize(input)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                $(self.$idx.serialize(out);)+
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
                Ok(($($name::deserialize(input)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: u32,
        y: f64,
        label: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Wrapper(u16);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Marker;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Empty,
        Circle(f64),
        Rect { w: u32, h: u32 },
    }

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_vec(&v);
        let back: T = from_slice(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn shared_str_encodes_as_string() {
        let shared: Arc<str> = Arc::from("stalled");
        assert_eq!(to_vec(&shared), to_vec(&"stalled".to_string()));
        roundtrip(shared);
    }

    #[test]
    fn serde_matches_vec_wire_format() {
        let payload = b"payload bytes".to_vec();
        let shared: Arc<[u8]> = Arc::from(&payload[..]);
        let as_vec = to_vec(&payload);
        assert_eq!(to_vec(&shared), as_vec);
        let back: Arc<[u8]> = from_slice(&as_vec).unwrap();
        assert_eq!(back, shared);
        roundtrip(Arc::<[u8]>::from(Vec::new()));
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(42u8);
        roundtrip(-7i64);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip('λ');
        roundtrip(String::from("flow"));
        roundtrip(Ipv4Addr::new(10, 0, 0, 7));
        roundtrip(usize::MAX);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Option::<u8>::None);
        roundtrip(Some(vec![String::from("a"), String::from("b")]));
        roundtrip(BTreeMap::from([(1u8, 2u16), (3, 4)]));
        roundtrip(BTreeSet::from([5u64, 6, 7]));
        roundtrip(HashMap::from([(String::from("k"), 9i32)]));
        roundtrip([1u8, 2, 3]);
        roundtrip([[true, false]; 4]);
        roundtrip((1u8, String::from("x"), 2.5f64));
    }

    #[test]
    fn hash_containers_encode_in_key_order() {
        // Each container draws its own hash seed, so the two iterate in
        // different orders; their bytes must not.
        let entry = |i: usize| (format!("flow-{i}"), i);
        let forward: HashMap<String, usize> = (0..200).map(entry).collect();
        let backward: HashMap<String, usize> = (0..200).rev().map(entry).collect();
        assert_eq!(to_vec(&forward), to_vec(&backward));
        let set: HashSet<u64> = (0..200).collect();
        let mut sorted = to_vec(&200u64);
        for k in 0..200u64 {
            k.serialize(&mut sorted);
        }
        assert_eq!(to_vec(&set), sorted);
        roundtrip(forward);
        roundtrip(set);
    }

    #[test]
    fn derived_shapes_roundtrip() {
        roundtrip(Point {
            x: 7,
            y: -0.5,
            label: String::from("p"),
        });
        roundtrip(Wrapper(99));
        roundtrip(Marker);
        roundtrip(Shape::Empty);
        roundtrip(Shape::Circle(2.25));
        roundtrip(Shape::Rect { w: 3, h: 4 });
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_vec(&vec![1u64, 2, 3]);
        assert!(from_slice::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
        assert!(from_slice::<Shape>(&[9, 0, 0, 0]).is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = to_vec(&7u8);
        bytes.push(0);
        assert!(from_slice::<u8>(&bytes).is_err());
    }
}
