//! Error types for the protocol crate.

use std::fmt;

/// Error produced while decoding bytes into protocol structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The version byte was not OpenFlow 1.0 (`0x01`).
    BadVersion(u8),
    /// The message type byte is not one we implement.
    UnknownMessageType(u8),
    /// The action type code is not one we implement.
    UnknownActionType(u16),
    /// A length field disagrees with the surrounding structure.
    BadLength {
        /// The structure being decoded.
        context: &'static str,
        /// The length claimed by the wire data.
        claimed: usize,
    },
    /// A field held a value outside its legal range.
    BadField {
        /// The structure and field being decoded.
        context: &'static str,
        /// The offending raw value.
        value: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            DecodeError::BadVersion(v) => write!(f, "unsupported openflow version {v:#x}"),
            DecodeError::UnknownMessageType(t) => write!(f, "unknown message type {t}"),
            DecodeError::UnknownActionType(t) => write!(f, "unknown action type {t}"),
            DecodeError::BadLength { context, claimed } => {
                write!(f, "inconsistent length {claimed} while decoding {context}")
            }
            DecodeError::BadField { context, value } => {
                write!(f, "illegal value {value} while decoding {context}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A wire read that ran short is a truncated message.
impl From<bytes::Underflow> for DecodeError {
    fn from(e: bytes::Underflow) -> Self {
        DecodeError::Truncated {
            needed: e.needed,
            available: e.available,
        }
    }
}

/// Error produced by flow-table mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowTableError {
    /// The table reached its configured capacity.
    TableFull {
        /// Configured maximum number of entries.
        capacity: usize,
    },
    /// A modify/delete-strict targeted an entry that does not exist.
    NoSuchEntry,
}

impl fmt::Display for FlowTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowTableError::TableFull { capacity } => {
                write!(f, "flow table full (capacity {capacity})")
            }
            FlowTableError::NoSuchEntry => write!(f, "no matching flow entry"),
        }
    }
}

impl std::error::Error for FlowTableError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = DecodeError::Truncated {
            needed: 8,
            available: 3,
        };
        assert_eq!(e.to_string(), "truncated input: needed 8 bytes, had 3");
        assert!(FlowTableError::NoSuchEntry.to_string().starts_with("no"));
    }

    #[test]
    fn a_short_read_is_truncation() {
        let short = bytes::Underflow {
            needed: 4,
            available: 1,
        };
        assert_eq!(
            DecodeError::from(short),
            DecodeError::Truncated {
                needed: 4,
                available: 1
            }
        );
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecodeError>();
        assert_send_sync::<FlowTableError>();
    }
}
