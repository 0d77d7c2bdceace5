//! Copy-on-write epoch cell for sharing immutable scenario state.
//!
//! The daemon builds a scenario snapshot once and answers queries
//! from it for a long time; occasionally an operator reloads, producing a
//! new snapshot. The [`EpochCell`] makes that swap wait-free for readers
//! in the way that matters: a reload assembles the *entire* replacement
//! value outside the cell, then publishes it with one pointer swap under a
//! briefly held lock. Readers clone an `Arc` out of the cell (nanoseconds)
//! and keep answering from the snapshot they hold — queries never observe
//! a half-built state and never block on a rebuild in progress.
//!
//! Epochs are monotonically increasing `u64`s starting at 1, so a reader
//! can cheaply ask "has the world changed since I last looked?" without
//! comparing values.

use std::sync::{Arc, RwLock};

/// A value paired with the epoch at which it was published.
#[derive(Debug)]
pub struct Versioned<T> {
    epoch: u64,
    value: T,
}

impl<T> Versioned<T> {
    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The published value.
    pub fn value(&self) -> &T {
        &self.value
    }
}

/// A slot holding the current [`Versioned`] snapshot behind an `Arc`.
///
/// [`EpochCell::load`] hands out a shared handle to the current snapshot;
/// [`EpochCell::publish`] swaps in a fully built replacement and bumps the
/// epoch. Old snapshots stay alive for as long as any reader holds them.
#[derive(Debug)]
pub struct EpochCell<T> {
    slot: RwLock<Arc<Versioned<T>>>,
}

impl<T> EpochCell<T> {
    /// Wrap an initial value at epoch 1.
    pub fn new(value: T) -> Self {
        EpochCell { slot: RwLock::new(Arc::new(Versioned { epoch: 1, value })) }
    }

    /// A shared handle to the current snapshot. The handle stays valid
    /// (and the underlying value alive) across any number of subsequent
    /// publishes.
    pub fn load(&self) -> Arc<Versioned<T>> {
        Arc::clone(&self.slot.read().expect("EpochCell lock poisoned"))
    }

    /// The current epoch without taking a handle.
    pub fn epoch(&self) -> u64 {
        self.slot.read().expect("EpochCell lock poisoned").epoch
    }

    /// Publish a replacement value (built entirely by the caller, outside
    /// any lock) and return the new epoch.
    pub fn publish(&self, value: T) -> u64 {
        let mut slot = self.slot.write().expect("EpochCell lock poisoned");
        let epoch = slot.epoch + 1;
        *slot = Arc::new(Versioned { epoch, value });
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_epoch_and_swaps_value() {
        let cell = EpochCell::new("alpha");
        let first = cell.load();
        assert_eq!(first.epoch(), 1);
        assert_eq!(*first.value(), "alpha");
        assert_eq!(cell.publish("beta"), 2);
        assert_eq!(cell.epoch(), 2);
        let second = cell.load();
        assert_eq!(second.epoch(), 2);
        assert_eq!(*second.value(), "beta");
        // The old handle is unaffected by the swap.
        assert_eq!(first.epoch(), 1);
        assert_eq!(*first.value(), "alpha");
    }

    #[test]
    fn concurrent_readers_see_a_consistent_snapshot() {
        let cell = std::sync::Arc::new(EpochCell::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = std::sync::Arc::clone(&cell);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        let snap = cell.load();
                        // The pair (epoch, value) is immutable once read.
                        assert_eq!(snap.epoch(), *snap.value() + 1);
                    }
                });
            }
            for i in 1..100u64 {
                cell.publish(i);
            }
        });
        assert_eq!(cell.epoch(), 100);
    }
}
