//! Spans for drivers that own their loop: the only boundaries such a driver
//! exposes are its source and its sink, so that is where the spans sit.
//!
//! Per timed slide: `<layer>.ingest` from the first arrival of the slide
//! until its last arrival is handed over, `<layer>.flush` until the answer
//! reaches the sink, then `<layer>.after_flush` until the driver asks for the
//! next arrival (snapshot stalls and reshards live there).

use std::cell::RefCell;

use crate::record::Recorder;
use crate::sut::{RegionAnswer, SpatialObject};
use crate::trace::{traced_block, NameId, Tracer};
use crate::workloads::SLIDE_OBJECTS;

/// The span names of one tapped layer.
#[derive(Debug, Clone, Copy)]
pub struct TapNames {
    pub ingest: &'static str,
    pub flush: &'static str,
    pub after_flush: &'static str,
}

pub const MESH: TapNames = TapNames {
    ingest: "mesh.ingest",
    flush: "mesh.flush",
    after_flush: "mesh.after_flush",
};

pub const CKPT: TapNames = TapNames {
    ingest: "ckpt.ingest",
    flush: "ckpt.flush",
    after_flush: "ckpt.after_flush",
};

/// The source side: wraps the recorder's feed.
pub struct Tap<'a, I> {
    inner: I,
    tracer: &'a RefCell<Tracer>,
    warmup: usize,
    index: usize,
    root: NameId,
    ingest: NameId,
    flush: NameId,
}

impl<'a, I: Iterator<Item = SpatialObject>> Tap<'a, I> {
    pub fn new(inner: I, tracer: &'a RefCell<Tracer>, warmup: usize, names: TapNames) -> Self {
        let mut t = tracer.borrow_mut();
        let (root, ingest, flush) = (
            t.name("refresh.slide"),
            t.name(names.ingest),
            t.name(names.flush),
        );
        t.name(names.after_flush);
        drop(t);
        Tap {
            inner,
            tracer,
            warmup,
            index: 0,
            root,
            ingest,
            flush,
        }
    }
}

impl<I: Iterator<Item = SpatialObject>> Iterator for Tap<'_, I> {
    type Item = SpatialObject;

    fn next(&mut self) -> Option<SpatialObject> {
        let timed = self.index >= self.warmup;
        if timed && self.index.is_multiple_of(SLIDE_OBJECTS) {
            let mut t = self.tracer.borrow_mut();
            if self.index > self.warmup {
                // The previous slide's `after_flush` and root end here.
                let at = t.tick();
                t.exit_at(at);
                t.exit_at(at);
                t.next_refresh();
            }
            t.set_on(traced_block((self.index - self.warmup) / SLIDE_OBJECTS));
            let at = t.tick();
            t.enter_at(self.root, at);
            t.enter_at(self.ingest, at);
        }
        let obj = self.inner.next();
        let mut t = self.tracer.borrow_mut();
        match obj {
            Some(_) => {
                self.index += 1;
                if timed && self.index.is_multiple_of(SLIDE_OBJECTS) {
                    t.then(self.flush);
                }
            }
            None if timed => {
                // Opened above for a slide that never came.
                let at = t.tick();
                t.exit_at(at);
                t.exit_at(at);
                t.set_on(false);
            }
            None => {}
        }
        obj
    }
}

/// The sink side: the answer arrived, `flush` ends and `after_flush` begins.
pub fn sink(
    tracer: &RefCell<Tracer>,
    names: TapNames,
    rec: &Recorder,
    answer: Option<RegionAnswer>,
) {
    if rec.timed_objects().is_some() && !rec.ended() {
        let mut t = tracer.borrow_mut();
        let after = t.name(names.after_flush);
        t.then(after);
    }
    rec.on_answer(answer);
}
