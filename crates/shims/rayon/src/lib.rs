//! Offline shim for the `rayon` crate.
//!
//! Implements the subset of rayon's data-parallel API this workspace uses,
//! backed by `std::thread::scope`. Parallel pipelines are composed lazily
//! (as in rayon) and materialised by the consuming call (`collect`,
//! `for_each`, `reduce`, `sum`), which splits the index space into one
//! contiguous chunk per worker thread and reassembles results **in chunk
//! order** — so `collect` preserves input order and every pipeline is
//! deterministic regardless of thread scheduling.
//!
//! `ThreadPool::install` does not keep persistent workers; it installs the
//! pool's thread count and naming function into a thread-local so that
//! parallel calls made inside the closure spawn workers with the pool's
//! names and width. That is observably equivalent for this workspace's
//! usage (including tests that assert tasks run on named pool threads).

use std::cell::RefCell;
use std::sync::Arc;

pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut,
    };
}

// ---------------------------------------------------------------------------
// Thread-pool context
// ---------------------------------------------------------------------------

type Namer = Arc<dyn Fn(usize) -> String + Send + Sync>;

#[derive(Clone)]
struct PoolCtx {
    threads: usize,
    namer: Namer,
    /// Inside `ThreadPool::install` even single-chunk work is spawned onto a
    /// named worker thread (tests observe thread names).
    force_spawn: bool,
}

thread_local! {
    static CURRENT_POOL: RefCell<Option<PoolCtx>> = const { RefCell::new(None) };
}

fn current_ctx() -> PoolCtx {
    CURRENT_POOL.with(|c| c.borrow().clone()).unwrap_or_else(|| PoolCtx {
        threads: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2),
        namer: Arc::new(|i| format!("pasco-par-{i}")),
        force_spawn: false,
    })
}

/// Error building a thread pool (never produced by this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
    namer: Option<Namer>,
}

impl ThreadPoolBuilder {
    /// A fresh builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Sets the worker-thread naming function.
    pub fn thread_name<F>(mut self, f: F) -> Self
    where
        F: Fn(usize) -> String + Send + Sync + 'static,
    {
        self.namer = Some(Arc::new(f));
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = self
            .num_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2));
        let namer = self.namer.unwrap_or_else(|| Arc::new(|i| format!("pasco-par-{i}")) as Namer);
        Ok(ThreadPool { ctx: PoolCtx { threads: threads.max(1), namer, force_spawn: true } })
    }
}

/// A scoped thread-pool configuration (workers are spawned per parallel
/// call rather than kept alive, see the module docs).
pub struct ThreadPool {
    ctx: PoolCtx,
}

impl ThreadPool {
    /// Runs `op` with this pool installed as the ambient pool: parallel
    /// iterators inside `op` use this pool's width and thread names.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = CURRENT_POOL.with(|c| c.borrow_mut().replace(self.ctx.clone()));
        let out = op();
        CURRENT_POOL.with(|c| *c.borrow_mut() = prev);
        out
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.ctx.threads
    }
}

// ---------------------------------------------------------------------------
// Core traits
// ---------------------------------------------------------------------------

/// A splittable, exactly-sized parallel pipeline.
///
/// Unlike rayon this shim only models indexed iterators, which is all the
/// workspace uses; `IndexedParallelIterator` is therefore just an alias
/// trait.
pub trait ParallelIterator: Sized + Send {
    /// The element type.
    type Item: Send;

    /// Exact number of elements.
    fn len(&self) -> usize;

    /// True when the pipeline holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Drains this (usually already-split) piece sequentially.
    fn drain(self, sink: &mut impl FnMut(Self::Item));

    /// Maps each element through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f: Arc::new(f) }
    }

    /// Maps with per-chunk mutable state created by `init`.
    fn map_init<S, R, I, F>(self, init: I, f: F) -> MapInit<Self, I, F>
    where
        R: Send,
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, Self::Item) -> R + Sync + Send,
    {
        MapInit { base: self, init: Arc::new(init), f: Arc::new(f) }
    }

    /// Pairs each element with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self, offset: 0 }
    }

    /// Zips with another equal-shape pipeline (truncates to the shorter).
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Runs `f` on every element.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        run_chunks(self, &|piece: Self| {
            let mut sink = |item| f(item);
            piece.drain(&mut sink);
        });
    }

    /// Collects into `C` (this shim supports `Vec<_>`), preserving order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Reduces with `op` from per-chunk folds seeded by `identity`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let partials = run_chunks(self, &|piece: Self| {
            let mut acc = identity();
            let mut sink = |item| acc = op(std::mem::replace(&mut acc, identity()), item);
            piece.drain(&mut sink);
            acc
        });
        partials.into_iter().fold(identity(), &op)
    }

    /// Sums the elements.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let partials = run_chunks(self, &|piece: Self| {
            let mut items = Vec::new();
            let mut sink = |item| items.push(item);
            piece.drain(&mut sink);
            items.into_iter().sum::<S>()
        });
        partials.into_iter().sum()
    }
}

/// Alias trait: every pipeline in this shim is indexed.
pub trait IndexedParallelIterator: ParallelIterator {}
impl<T: ParallelIterator> IndexedParallelIterator for T {}

/// Splits `iter` into at most `ctx.threads` contiguous chunks, runs `f` on
/// each chunk on its own named thread, and returns the chunk results in
/// order. Small inputs run inline unless a pool is installed.
fn run_chunks<I, R, F>(iter: I, f: &F) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let ctx = current_ctx();
    let total = iter.len();
    let threads = ctx.threads.max(1);
    if total == 0 {
        return if ctx.force_spawn { spawn_chunks(vec![iter], &ctx, f) } else { vec![f(iter)] };
    }
    let chunk = total.div_ceil(threads);
    let mut pieces = Vec::with_capacity(threads);
    let mut rest = iter;
    while rest.len() > chunk {
        let (head, tail) = rest.split_at(chunk);
        pieces.push(head);
        rest = tail;
    }
    pieces.push(rest);
    if pieces.len() == 1 && !ctx.force_spawn {
        let piece = pieces.pop().expect("one piece");
        return vec![f(piece)];
    }
    spawn_chunks(pieces, &ctx, f)
}

fn spawn_chunks<I, R, F>(pieces: Vec<I>, ctx: &PoolCtx, f: &F) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = pieces
            .into_iter()
            .enumerate()
            .map(|(k, piece)| {
                std::thread::Builder::new()
                    .name((ctx.namer)(k))
                    .spawn_scoped(scope, move || f(piece))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        // Re-raise a worker's panic with its own payload, as rayon does, so
        // the caller sees the original message (and `should_panic` tests
        // can match it) rather than an opaque join error.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

/// Order-preserving `collect` targets.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds `Self` from a parallel pipeline.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let chunks = run_chunks(iter, &|piece: I| {
            let mut items = Vec::with_capacity(piece.len());
            let mut sink = |item| items.push(item);
            piece.drain(&mut sink);
            items
        });
        let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for c in chunks {
            out.extend(c);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Converts a collection into a parallel pipeline.
pub trait IntoParallelIterator {
    /// The pipeline's element type.
    type Item: Send;
    /// The pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Builds the pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

/// `.par_iter()` on `&self`.
pub trait IntoParallelRefIterator<'a> {
    /// The pipeline's element type.
    type Item: Send;
    /// The pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Builds the borrowing pipeline.
    fn par_iter(&'a self) -> Self::Iter;
}

/// `.par_iter_mut()` on `&mut self`.
pub trait IntoParallelRefMutIterator<'a> {
    /// The pipeline's element type.
    type Item: Send;
    /// The pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Builds the mutably borrowing pipeline.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

/// Parallel range source.
pub struct RangeIter<T> {
    start: T,
    end: T,
}

macro_rules! impl_range_source {
    ($ty:ty) => {
        impl IntoParallelIterator for std::ops::Range<$ty> {
            type Item = $ty;
            type Iter = RangeIter<$ty>;
            fn into_par_iter(self) -> RangeIter<$ty> {
                RangeIter { start: self.start, end: self.end.max(self.start) }
            }
        }
        impl ParallelIterator for RangeIter<$ty> {
            type Item = $ty;
            fn len(&self) -> usize {
                (self.end - self.start) as usize
            }
            fn split_at(self, index: usize) -> (Self, Self) {
                let mid = self.start + index as $ty;
                (RangeIter { start: self.start, end: mid }, RangeIter { start: mid, end: self.end })
            }
            fn drain(self, sink: &mut impl FnMut($ty)) {
                for v in self.start..self.end {
                    sink(v);
                }
            }
        }
    };
}

impl_range_source!(u32);
impl_range_source!(u64);
impl_range_source!(usize);

/// Owned-`Vec` source.
pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.items.split_off(index);
        (self, VecIter { items: tail })
    }
    fn drain(self, sink: &mut impl FnMut(T)) {
        for item in self.items {
            sink(item);
        }
    }
}

/// Shared-slice source.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (SliceIter { slice: a }, SliceIter { slice: b })
    }
    fn drain(self, sink: &mut impl FnMut(&'a T)) {
        for item in self.slice {
            sink(item);
        }
    }
}

/// Mutable-slice source.
pub struct SliceIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = SliceIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> SliceIterMut<'a, T> {
        SliceIterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    type Iter = SliceIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> SliceIterMut<'a, T> {
        SliceIterMut { slice: self }
    }
}

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (SliceIterMut { slice: a }, SliceIterMut { slice: b })
    }
    fn drain(self, sink: &mut impl FnMut(&'a mut T)) {
        for item in self.slice {
            sink(item);
        }
    }
}

/// `par_chunks_mut` on slices.
pub trait ParallelSliceMut<T: Send> {
    /// Splits into mutable chunks of `size` (last may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ChunksMut { slice: self, size }
    }
}

/// Mutable chunked source.
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (ChunksMut { slice: a, size: self.size }, ChunksMut { slice: b, size: self.size })
    }
    fn drain(self, sink: &mut impl FnMut(&'a mut [T])) {
        for chunk in self.slice.chunks_mut(self.size) {
            sink(chunk);
        }
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// `map` adapter.
pub struct Map<I, F> {
    base: I,
    f: Arc<F>,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (Map { base: a, f: Arc::clone(&self.f) }, Map { base: b, f: self.f })
    }
    fn drain(self, sink: &mut impl FnMut(R)) {
        let f = self.f;
        self.base.drain(&mut |item| sink(f(item)));
    }
}

/// `map_init` adapter (state is created once per executed chunk).
pub struct MapInit<I, IF, F> {
    base: I,
    init: Arc<IF>,
    f: Arc<F>,
}

impl<I, S, R, IF, F> ParallelIterator for MapInit<I, IF, F>
where
    I: ParallelIterator,
    R: Send,
    IF: Fn() -> S + Sync + Send,
    F: Fn(&mut S, I::Item) -> R + Sync + Send,
{
    type Item = R;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            MapInit { base: a, init: Arc::clone(&self.init), f: Arc::clone(&self.f) },
            MapInit { base: b, init: self.init, f: self.f },
        )
    }
    fn drain(self, sink: &mut impl FnMut(R)) {
        let mut state = (self.init)();
        let f = self.f;
        self.base.drain(&mut |item| sink(f(&mut state, item)));
    }
}

/// `enumerate` adapter.
pub struct Enumerate<I> {
    base: I,
    offset: usize,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Enumerate { base: a, offset: self.offset },
            Enumerate { base: b, offset: self.offset + index },
        )
    }
    fn drain(self, sink: &mut impl FnMut((usize, I::Item))) {
        let mut i = self.offset;
        self.base.drain(&mut |item| {
            sink((i, item));
            i += 1;
        });
    }
}

/// `zip` adapter.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }
    fn drain(self, sink: &mut impl FnMut((A::Item, B::Item))) {
        let mut bs = Vec::with_capacity(self.b.len());
        self.b.drain(&mut |item| bs.push(item));
        let mut bs = bs.into_iter();
        let budget = self.a.len().min(bs.len());
        let mut taken = 0usize;
        self.a.drain(&mut |item| {
            if taken < budget {
                if let Some(b) = bs.next() {
                    sink((item, b));
                    taken += 1;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn collect_preserves_order() {
        let v: Vec<u64> = (0u64..10_000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn zip_enumerate_for_each_mutates() {
        let mut a = vec![0u32; 100];
        let mut b = vec![0u32; 100];
        a.par_iter_mut().zip(b.par_iter_mut()).enumerate().for_each(|(i, (x, y))| {
            *x = i as u32;
            *y = 2 * i as u32;
        });
        assert!(a.iter().enumerate().all(|(i, &x)| x == i as u32));
        assert!(b.iter().enumerate().all(|(i, &x)| x == 2 * i as u32));
    }

    #[test]
    fn reduce_and_sum() {
        let m = (0u32..1000).into_par_iter().map(|x| x as f64).reduce(|| 0.0, f64::max);
        assert_eq!(m, 999.0);
        let s: u64 = vec![1u64; 500].into_par_iter().sum();
        assert_eq!(s, 500);
    }

    #[test]
    fn map_init_runs_everywhere() {
        let v: Vec<usize> = (0usize..97)
            .into_par_iter()
            .map_init(Vec::new, |buf: &mut Vec<usize>, i| {
                buf.push(i);
                buf.len()
            })
            .collect();
        assert_eq!(v.len(), 97);
    }

    #[test]
    fn install_names_worker_threads() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .thread_name(|i| format!("shim-worker-{i}"))
            .build()
            .unwrap();
        let names: Vec<String> = pool.install(|| {
            (0u32..4)
                .into_par_iter()
                .map(|_| std::thread::current().name().unwrap_or("").to_string())
                .collect()
        });
        assert!(names.iter().all(|n| n.starts_with("shim-worker-")), "{names:?}");
    }
}
