//! Release-mode facade: thin non-poisoning wrappers over `std::sync`.
//!
//! Lock methods return guards directly (recovering from poison: a
//! panicking holder already aborts the operation it was part of, and
//! every structure guarded here keeps its invariants at each unlock
//! point). Guard types are the
//! std ones, so code written against the facade interoperates with
//! anything expecting `std::sync` guards.

use std::sync as s;

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Non-poisoning mutex over `std::sync::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T>(s::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(s::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Non-poisoning condvar over `std::sync::Condvar`.
#[derive(Debug, Default)]
pub struct Condvar(s::Condvar);

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar(s::Condvar::new())
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match self.0.wait(guard) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Non-poisoning rwlock over `std::sync::RwLock`.
#[derive(Debug, Default)]
pub struct RwLock<T>(s::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(s::RwLock::new(value))
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}
