//! Nested span tracing on a thread-local name stack.
//!
//! [`Span::enter`] pushes a static name and returns an RAII guard; the
//! guard's drop pops the name and accumulates the span's wall time in the
//! global registry under the `/`-joined path of everything on the stack when
//! it was entered (`"serve.solve/optm.search/optm.round"`).  Names may
//! themselves contain dots, so the path separator is `/`.
//!
//! A span resolves its path's accumulator on entry through a per-thread
//! cache keyed by (parent span's accumulator, name): only the first span of
//! a path on a thread builds the path string and takes the registry's lock,
//! and every later one costs one cache probe plus two atomic adds — cheap
//! enough for once-per-round spans inside sub-millisecond searches.
//! [`Span::lap`] splits an open span into consecutive child phases with one
//! clock read per phase instead of two.
//!
//! Each OS thread has its own stack: spans nest within a thread, and a
//! parallel stage's worker threads each start from an empty stack (the
//! vendored rayon shim spawns fresh scoped threads per operation, so no
//! foreign frames ever interleave).  Drops run during panic unwinding too,
//! which keeps the stack balanced and still records the aborted span.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

use crate::registry::{recording_compiled, Registry, SpanCell};

/// One open span on a thread's stack.
#[derive(Debug)]
struct Frame {
    name: &'static str,
    /// [`SpanCell::id`] of the span's accumulator.
    cell: usize,
}

/// A thread's resolved accumulators, keyed by (parent's cell id, or 0 at
/// the root; span name).  Names are `&'static str` constants, so the key
/// hashes their address and length (equal address and length mean equal
/// text) rather than their bytes.
type CellCache = HashMap<CellKey, Arc<SpanCell>, BuildHasherDefault<KeyHasher>>;

/// (parent cell id, name address, name length).
type CellKey = (usize, usize, usize);

fn cell_key(parent: usize, name: &'static str) -> CellKey {
    (parent, name.as_ptr() as usize, name.len())
}

/// A multiply-rotate hasher for the three-word [`CellKey`]: the cache is
/// probed on every span entry, where SipHash would cost as much as the
/// rest of the entry together.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

thread_local! {
    /// The current thread's span stack.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// The current thread's accumulator cache.
    static CELLS: RefCell<CellCache> = RefCell::new(CellCache::default());
}

/// An RAII guard for one traced span; see the module docs.
#[derive(Debug)]
#[must_use = "a span measures until dropped; binding it to `_` drops it immediately"]
pub struct Span {
    /// `None` when recording is off (the guard is inert).
    active: Option<Active>,
    /// Stack length *including* this span's own frame.
    depth: usize,
}

/// The state of a recording span.
#[derive(Debug)]
struct Active {
    cell: Arc<SpanCell>,
    start: Instant,
    /// The end of the latest [`Span::lap`] (the start before any).
    lap: Instant,
}

/// Elapsed nanoseconds from `from` to `to`, saturating.
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Span {
    /// Enters a span named `name` on the global registry.
    pub fn enter(name: &'static str) -> Span {
        if !recording_compiled() || !Registry::global().enabled() {
            return Span {
                active: None,
                depth: 0,
            };
        }
        let (cell, depth) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().map_or(0, |frame| frame.cell);
            let cell = with_cell(&stack, parent, name, Arc::clone);
            stack.push(Frame {
                name,
                cell: cell.id(),
            });
            (cell, stack.len())
        });
        let start = Instant::now();
        Span {
            active: Some(Active {
                cell,
                start,
                lap: start,
            }),
            depth,
        }
    }

    /// Records a completed child span `name` covering the time since this
    /// span was entered or since its previous lap, with one clock read: the
    /// cheap way to split a span into consecutive phases (an OPT(m) round
    /// into `optm.expand` and `optm.filter`).  The child's path nests under
    /// this span's like an entered child's would.  A phase cut short by an
    /// early return is simply not recorded; inert guards record nothing.
    pub fn lap(&mut self, name: &'static str) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        let now = Instant::now();
        let elapsed_ns = nanos(active.lap, now);
        active.lap = now;
        if !Registry::global().enabled() {
            return;
        }
        let parent = active.cell.id();
        STACK.with(|stack| {
            let stack = stack.borrow();
            let frames = &stack[..self.depth.min(stack.len())];
            with_cell(frames, parent, name, |cell| cell.record(elapsed_ns));
        });
    }

    /// The current thread's span path (`/`-joined), for tests and
    /// diagnostics.  Empty when no span is active.
    #[must_use]
    pub fn current_path() -> String {
        STACK.with(|stack| {
            let names: Vec<&str> = stack.borrow().iter().map(|frame| frame.name).collect();
            names.join("/")
        })
    }
}

/// Runs `f` on the accumulator of span `name` under `parent` (a cell id,
/// 0 at the root), whose ancestors are `frames`, resolving it through the
/// thread's cache.
fn with_cell<T>(
    frames: &[Frame],
    parent: usize,
    name: &'static str,
    f: impl FnOnce(&Arc<SpanCell>) -> T,
) -> T {
    CELLS.with(|cells| {
        let mut cells = cells.borrow_mut();
        let cell = cells.entry(cell_key(parent, name)).or_insert_with(|| {
            let mut path = String::new();
            for frame in frames {
                path.push_str(frame.name);
                path.push('/');
            }
            path.push_str(name);
            Registry::global().span_cell(&path)
        });
        f(cell)
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed_ns = nanos(active.start, Instant::now());
        // Out-of-order drops (std::mem::drop on a parent first) would leave
        // orphaned children; truncating to just below our own frame keeps
        // the stack consistent in that (unsupported but harmless) case.
        STACK.with(|stack| stack.borrow_mut().truncate(self.depth - 1));
        if Registry::global().enabled() {
            active.cell.record(elapsed_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Span tests share the global registry (and one toggles its enable
    /// flag), so they serialize on this lock instead of racing.
    fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Count recorded for exactly `path` in the global registry
    /// (assertions are deltas on paths unique to each test).
    fn count_of(path: &str) -> u64 {
        Registry::global()
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.path == path)
            .map(|s| s.count)
            .sum()
    }

    #[test]
    fn nesting_builds_slash_joined_paths() {
        if !recording_compiled() {
            return;
        }
        let _serial = serialize();
        let before = count_of("t.outer/t.inner");
        {
            let _outer = Span::enter("t.outer");
            assert_eq!(Span::current_path(), "t.outer");
            {
                let _inner = Span::enter("t.inner");
                assert_eq!(Span::current_path(), "t.outer/t.inner");
            }
            assert_eq!(Span::current_path(), "t.outer");
        }
        assert_eq!(Span::current_path(), "");
        assert_eq!(count_of("t.outer/t.inner"), before + 1);
    }

    #[test]
    fn sequential_siblings_accumulate_under_one_path() {
        if !recording_compiled() {
            return;
        }
        let _serial = serialize();
        let before = count_of("t.seq/t.child");
        let _outer = Span::enter("t.seq");
        for _ in 0..3 {
            let _child = Span::enter("t.child");
        }
        drop(_outer);
        assert_eq!(count_of("t.seq/t.child"), before + 3);
    }

    #[test]
    fn laps_record_consecutive_children_under_the_span() {
        if !recording_compiled() {
            return;
        }
        let _serial = serialize();
        let before = (count_of("t.lapped/t.first"), count_of("t.lapped/t.second"));
        for _ in 0..2 {
            let mut span = Span::enter("t.lapped");
            span.lap("t.first");
            span.lap("t.second");
            assert_eq!(Span::current_path(), "t.lapped", "laps push no frame");
        }
        assert_eq!(count_of("t.lapped/t.first"), before.0 + 2);
        assert_eq!(count_of("t.lapped/t.second"), before.1 + 2);
        assert_eq!(Span::current_path(), "");
    }

    #[test]
    fn panic_during_span_unwinds_the_stack_and_still_records() {
        if !recording_compiled() {
            return;
        }
        let _serial = serialize();
        let before_inner = count_of("t.panics/t.doomed");
        let before_outer = count_of("t.panics");
        let result = std::panic::catch_unwind(|| {
            let _outer = Span::enter("t.panics");
            let _inner = Span::enter("t.doomed");
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(Span::current_path(), "", "unwinding must pop every frame");
        assert_eq!(count_of("t.panics/t.doomed"), before_inner + 1);
        assert_eq!(count_of("t.panics"), before_outer + 1);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _serial = serialize();
        let probe = "t.disabled.probe";
        let before = count_of(probe);
        Registry::global().set_enabled(false);
        let span = Span::enter(probe);
        assert_eq!(Span::current_path(), "");
        drop(span);
        Registry::global().set_enabled(true);
        assert_eq!(count_of(probe), before);
    }
}
