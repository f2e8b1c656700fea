//! Slot + generation handle table.
//!
//! Foreign callers hold opaque 64-bit handles, never pointers. A handle
//! packs a slot index (high 32 bits) and a generation counter (low
//! 32 bits); destroying a value bumps its slot's generation, so every
//! outstanding copy of the old handle — including a second destroy of
//! the same handle — resolves to a typed [`HandleError`] instead of
//! undefined behavior. Slots are recycled through a free list, and a
//! configurable capacity turns exhaustion into a clean error long
//! before memory does.
//!
//! The table is plain safe Rust with no FFI types, so the property
//! tests (`tests/handle_table.rs`) drive it directly.

/// Why a handle failed to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandleError {
    /// The handle never came from this table, or its slot has since
    /// been destroyed (stale generation, double-destroy, the zero
    /// handle).
    Stale,
    /// The table is at capacity; no slot is free.
    Exhausted,
}

/// One slot: the live generation and the stored value (`None` after
/// destroy, while the slot waits on the free list).
#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A typed handle table; see the [module docs](self) for the scheme.
#[derive(Debug)]
pub struct HandleTable<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    capacity: usize,
}

/// Generations start at 1 so the all-zero handle (a common foreign
/// "null") is stale by construction.
const FIRST_GENERATION: u32 = 1;

impl<T> HandleTable<T> {
    /// An empty table holding at most `capacity` live values.
    pub const fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            capacity,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no values are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `value`, returning its handle.
    ///
    /// # Errors
    ///
    /// [`HandleError::Exhausted`] at capacity.
    pub fn insert(&mut self, value: T) -> Result<u64, HandleError> {
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.value.is_none());
            s.value = Some(value);
            return Ok(pack(slot, s.generation));
        }
        if self.slots.len() >= self.capacity {
            return Err(HandleError::Exhausted);
        }
        let slot = self.slots.len() as u32;
        self.slots.push(Slot {
            generation: FIRST_GENERATION,
            value: Some(value),
        });
        Ok(pack(slot, FIRST_GENERATION))
    }

    /// Resolves a handle to its value.
    ///
    /// # Errors
    ///
    /// [`HandleError::Stale`] for destroyed, foreign or zero handles.
    pub fn get(&self, handle: u64) -> Result<&T, HandleError> {
        let (slot, generation) = unpack(handle);
        self.slots
            .get(slot as usize)
            .filter(|s| s.generation == generation)
            .and_then(|s| s.value.as_ref())
            .ok_or(HandleError::Stale)
    }

    /// Resolves a handle to its value, mutably.
    ///
    /// # Errors
    ///
    /// [`HandleError::Stale`] for destroyed, foreign or zero handles.
    pub fn get_mut(&mut self, handle: u64) -> Result<&mut T, HandleError> {
        let (slot, generation) = unpack(handle);
        self.slots
            .get_mut(slot as usize)
            .filter(|s| s.generation == generation)
            .and_then(|s| s.value.as_mut())
            .ok_or(HandleError::Stale)
    }

    /// Destroys a handle's value and retires the handle: the slot's
    /// generation bumps, so this and every other copy of the handle is
    /// stale from here on, and the slot rejoins the free list.
    ///
    /// # Errors
    ///
    /// [`HandleError::Stale`] when the handle is already dead — a
    /// double-destroy reports cleanly instead of freeing twice.
    pub fn remove(&mut self, handle: u64) -> Result<T, HandleError> {
        let (slot, generation) = unpack(handle);
        let s = self
            .slots
            .get_mut(slot as usize)
            .filter(|s| s.generation == generation)
            .ok_or(HandleError::Stale)?;
        let value = s.value.take().ok_or(HandleError::Stale)?;
        // Wrapping keeps the slot usable forever; a handle surviving
        // 2^32 destroys of its slot is out of scope for this ABI.
        s.generation = s.generation.wrapping_add(1).max(FIRST_GENERATION);
        self.free.push(slot);
        Ok(value)
    }
}

/// Packs `(slot, generation)` into the public 64-bit handle.
fn pack(slot: u32, generation: u32) -> u64 {
    (u64::from(slot) << 32) | u64::from(generation)
}

/// Splits a public handle back into `(slot, generation)`.
fn unpack(handle: u64) -> (u32, u32) {
    ((handle >> 32) as u32, handle as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = HandleTable::with_capacity(4);
        let h = t.insert("a").unwrap();
        assert_eq!(t.get(h), Ok(&"a"));
        assert_eq!(t.remove(h), Ok("a"));
        assert_eq!(t.get(h), Err(HandleError::Stale));
        assert_eq!(t.remove(h), Err(HandleError::Stale));
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut t = HandleTable::with_capacity(1);
        let a = t.insert(1).unwrap();
        t.remove(a).unwrap();
        let b = t.insert(2).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.get(a), Err(HandleError::Stale));
        assert_eq!(t.get(b), Ok(&2));
    }

    #[test]
    fn exhaustion_is_clean() {
        let mut t = HandleTable::with_capacity(2);
        let a = t.insert(1).unwrap();
        t.insert(2).unwrap();
        assert_eq!(t.insert(3), Err(HandleError::Exhausted));
        t.remove(a).unwrap();
        assert!(t.insert(3).is_ok());
    }

    #[test]
    fn zero_handle_is_stale() {
        let t = HandleTable::<u8>::with_capacity(1);
        assert_eq!(t.get(0), Err(HandleError::Stale));
    }
}
