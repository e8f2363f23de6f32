//! Window-transition events (paper §IV-C).
//!
//! Three events can change the bursty region:
//!
//! * **New** — an object enters the current window (it just arrived).
//! * **Grown** — an object leaves the current window and enters the past
//!   window (its age exceeded `|W_c|`).
//! * **Expired** — an object leaves the past window entirely.
//!
//! The sliding-window engine in `surge-stream` emits these in transition-time
//! order; every detector consumes the same event stream.

use crate::object::SpatialObject;
use crate::time::Timestamp;

/// The kind of window transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Object enters the current window.
    New,
    /// Object moves from the current window to the past window.
    Grown,
    /// Object leaves the past window.
    Expired,
}

/// A window-transition event `e = ⟨o, l⟩`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The transition kind.
    pub kind: EventKind,
    /// The object undergoing the transition.
    pub object: SpatialObject,
    /// The logical time at which the transition takes effect.
    pub at: Timestamp,
}

impl Event {
    /// Creates a `New` event at the object's creation time.
    #[inline]
    pub fn new_arrival(object: SpatialObject) -> Self {
        Event {
            kind: EventKind::New,
            at: object.created,
            object,
        }
    }

    /// Creates a `Grown` event at transition time `at`.
    #[inline]
    pub fn grown(object: SpatialObject, at: Timestamp) -> Self {
        Event {
            kind: EventKind::Grown,
            object,
            at,
        }
    }

    /// Creates an `Expired` event at transition time `at`.
    #[inline]
    pub fn expired(object: SpatialObject, at: Timestamp) -> Self {
        Event {
            kind: EventKind::Expired,
            object,
            at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    fn obj() -> SpatialObject {
        SpatialObject::new(1, 2.0, Point::new(0.0, 0.0), 500)
    }

    #[test]
    fn new_arrival_uses_creation_time() {
        let e = Event::new_arrival(obj());
        assert_eq!(e.kind, EventKind::New);
        assert_eq!(e.at, 500);
    }

    #[test]
    fn grown_and_expired_carry_transition_time() {
        let g = Event::grown(obj(), 1_500);
        assert_eq!(g.kind, EventKind::Grown);
        assert_eq!(g.at, 1_500);
        let x = Event::expired(obj(), 2_500);
        assert_eq!(x.kind, EventKind::Expired);
        assert_eq!(x.at, 2_500);
    }
}
