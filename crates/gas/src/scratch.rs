//! Reusable scratch storage for the gather phase.
//!
//! Every gather worker owns one `WorkerScratch` that persists across
//! gatherers *and* supersteps, so the hot path stops re-allocating its
//! run buffers per gatherer. The [`ScratchArena`] inside it
//! is handed to [`GasStep::gather_run`](crate::GasStep::gather_run) so
//! batched programs can lease temporary buffers (kernel stripes, staging
//! tables, candidate indexes) that would otherwise be rebuilt per vertex
//! run. The engine owns the arenas, so what a program leases lives as
//! long as the engine, not as long as whatever host thread ran the run.

use std::any::Any;

use snaple_graph::VertexId;

/// A pool of reusable scratch buffers for batched gather programs.
///
/// Buffers leased from the arena live only for the duration of one
/// [`GasStep::gather_run`](crate::GasStep::gather_run) call and must be
/// [released](ScratchArena::release_f32) before returning so the next run
/// (and the next superstep) reuses the allocation. Leased buffers carry no
/// data between runs: a lease always returns a zero-filled buffer of the
/// requested length, so pooling cannot change program output.
///
/// A program may also keep one scratch value of its own type in the arena
/// ([`ScratchArena::lease`]): unlike the `f32` buffers, that value comes
/// back as the last run left it, and the program resets what it reads.
#[derive(Debug, Default)]
pub struct ScratchArena {
    f32_bufs: Vec<Vec<f32>>,
    value: Option<Box<dyn Any + Send>>,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Leases a zero-filled `f32` buffer of exactly `len` elements,
    /// reusing a previously released allocation when one is available.
    pub fn lease_f32(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.f32_bufs.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a leased buffer to the pool for reuse by later runs.
    pub fn release_f32(&mut self, buf: Vec<f32>) {
        self.f32_bufs.push(buf);
    }

    /// Leases the arena's scratch value of type `T`: the one
    /// [released](ScratchArena::release) last, as it was left, or
    /// `T::default()` when the arena holds none or one of another type.
    pub fn lease<T: Any + Send + Default>(&mut self) -> Box<T> {
        match self.value.take().map(|value| value.downcast::<T>()) {
            Some(Ok(value)) => value,
            _ => Box::default(),
        }
    }

    /// Returns a leased scratch value to the arena for the next run's
    /// [`ScratchArena::lease`].
    pub fn release<T: Any + Send>(&mut self, value: Box<T>) {
        self.value = Some(value);
    }
}

/// Per-worker scratch state of the engine's gather phase: the current
/// run's neighbor list and the program-facing arena. One instance per host
/// worker, reused across supersteps.
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch {
    /// Neighbors of the gather run currently being assembled.
    pub(crate) neighbors: Vec<VertexId>,
    /// Buffer pool handed to `gather_run`.
    pub(crate) arena: ScratchArena,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_are_zeroed_and_recycled() {
        let mut arena = ScratchArena::new();
        let mut buf = arena.lease_f32(4);
        assert_eq!(buf, vec![0.0; 4]);
        buf[2] = 7.5;
        let ptr = buf.as_ptr();
        arena.release_f32(buf);
        let again = arena.lease_f32(3);
        assert_eq!(again, vec![0.0; 3], "recycled buffers must come back clean");
        assert_eq!(again.as_ptr(), ptr, "the allocation itself is reused");
        arena.release_f32(again);
    }

    #[test]
    fn a_scratch_value_comes_back_as_it_was_left() {
        let mut arena = ScratchArena::new();
        let mut value = arena.lease::<Vec<u32>>();
        assert!(value.is_empty());
        value.extend([3, 1, 4]);
        arena.release(value);
        assert_eq!(*arena.lease::<Vec<u32>>(), vec![3, 1, 4]);
        arena.release(Box::new(7u64));
        assert!(
            arena.lease::<Vec<u32>>().is_empty(),
            "a value of another type is replaced by a default"
        );
    }

    #[test]
    fn growing_leases_reuse_the_backing_allocation() {
        let mut arena = ScratchArena::new();
        let buf = arena.lease_f32(2);
        arena.release_f32(buf);
        let bigger = arena.lease_f32(100);
        assert_eq!(bigger.len(), 100);
        assert!(bigger.iter().all(|&x| x == 0.0));
    }
}
