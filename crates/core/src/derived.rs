//! A marker for state derived from the rest of its owner.

use serde::{Deserialize, Serialize};

/// State derived from the rest of its owner, for the online differ's
/// benefit only: every value compares equal, serializes to nothing and
/// deserializes to its default, so the checkpoint layout is unchanged.
#[derive(Debug, Clone, Default)]
pub(crate) struct Derived<T>(pub(crate) T);

impl<T> PartialEq for Derived<T> {
    fn eq(&self, _: &Derived<T>) -> bool {
        true
    }
}

impl<T> Serialize for Derived<T> {
    fn serialize(&self, _out: &mut Vec<u8>) {}
}

impl<T: Default> Deserialize for Derived<T> {
    fn deserialize(_input: &mut &[u8]) -> Result<Self, serde::Error> {
        Ok(Derived(T::default()))
    }
}
