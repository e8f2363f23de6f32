//! Error types shared by all codecs in this crate.

use std::fmt;

/// An error produced while encoding or decoding a SURGE artifact.
#[derive(Debug)]
pub enum IoError {
    /// An underlying I/O failure (file missing, pipe closed, …).
    Io(std::io::Error),
    /// The input is syntactically malformed.
    Parse {
        /// Where decoding failed: the 1-based line of a CSV stream, or the
        /// byte offset into a snapshot or payload.
        at: u64,
        /// Human-readable description of what went wrong.
        message: String,
    },
    /// The input's header identifies a different format or an unsupported
    /// version.
    BadHeader {
        /// What the decoder expected to find.
        expected: &'static str,
        /// What it found instead (possibly truncated).
        found: String,
    },
    /// The payload violates a semantic invariant of the format (e.g. objects
    /// out of timestamp order in a stream file).
    Invariant(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { at, message } => write!(f, "parse error at record {at}: {message}"),
            IoError::BadHeader { expected, found } => {
                write!(f, "bad header: expected {expected}, found {found:?}")
            }
            IoError::Invariant(msg) => write!(f, "format invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_io() {
        let e = IoError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "nope"));
        assert!(e.to_string().contains("I/O error"));
    }

    #[test]
    fn display_parse_includes_location() {
        let e = IoError::Parse {
            at: 17,
            message: "bad float".into(),
        };
        let s = e.to_string();
        assert!(s.contains("17"));
        assert!(s.contains("bad float"));
    }

    #[test]
    fn display_bad_header() {
        let e = IoError::BadHeader {
            expected: "surge-objects v1",
            found: "garbage".into(),
        };
        assert!(e.to_string().contains("surge-objects v1"));
    }

    #[test]
    fn display_invariant() {
        let e = IoError::Invariant("timestamps regress".into());
        assert!(e.to_string().contains("timestamps regress"));
    }

    #[test]
    fn source_chains_io() {
        use std::error::Error;
        let e = IoError::from(std::io::Error::other("x"));
        assert!(e.source().is_some());
        let p = IoError::Invariant("y".into());
        assert!(p.source().is_none());
    }
}
