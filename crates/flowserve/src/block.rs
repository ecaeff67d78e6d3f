//! Paged KV-cache blocks: pools and per-sequence block tables.
//!
//! RTC "includes a traditional block table, originally proposed by vLLM,
//! for managing data blocks" (§4.3). Blocks are fixed-size token spans;
//! pools are per-tier (HBM on each executor, host DRAM); tables map a
//! sequence's logical token positions to physical blocks. Reference counts
//! make prefix sharing safe: a cached prefix block appears in many tables at
//! once and is freed only when the last user and the cache index drop it.

use serde::Serialize;

/// Default tokens per block (vLLM's classic value).
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// A physical block handle within one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct BlockId(pub u32);

/// Pool-level allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBlocks {
    /// Blocks requested.
    pub requested: usize,
    /// Blocks free at the time of the request.
    pub available: usize,
}

impl std::fmt::Display for OutOfBlocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of blocks: requested {}, available {}",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfBlocks {}

/// A fixed-capacity pool of reference-counted blocks.
#[derive(Debug, Clone)]
pub struct BlockPool {
    capacity: usize,
    free: Vec<BlockId>,
    ref_counts: Vec<u32>,
}

impl BlockPool {
    /// Creates a pool of `capacity` blocks, all free.
    pub fn new(capacity: usize) -> Self {
        BlockPool {
            capacity,
            // Pop from the back; reversed init keeps low ids allocated first
            // (stable, readable traces).
            free: (0..capacity as u32).rev().map(BlockId).collect(),
            ref_counts: vec![0; capacity],
        }
    }

    /// Total block count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently free blocks.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Currently allocated blocks.
    pub fn in_use(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// Allocates one block with refcount 1.
    pub fn alloc(&mut self) -> Result<BlockId, OutOfBlocks> {
        match self.free.pop() {
            Some(id) => {
                self.ref_counts[id.0 as usize] = 1;
                Ok(id)
            }
            None => Err(OutOfBlocks {
                requested: 1,
                available: 0,
            }),
        }
    }

    /// Allocates `n` blocks atomically: all or nothing.
    pub fn alloc_many(&mut self, n: usize) -> Result<Vec<BlockId>, OutOfBlocks> {
        if self.free.len() < n {
            return Err(OutOfBlocks {
                requested: n,
                available: self.free.len(),
            });
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.alloc() {
                Ok(b) => out.push(b),
                Err(e) => {
                    // Unreachable given the length check above; roll back to
                    // keep the all-or-nothing contract rather than panic.
                    debug_assert!(false, "alloc_many: pool shrank mid-allocation");
                    for b in out {
                        self.decref(b);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Adds a reference to a live block (prefix sharing).
    ///
    /// # Panics
    ///
    /// Panics if the block is free — sharing a freed block is a
    /// use-after-free in disguise.
    pub fn incref(&mut self, id: BlockId) {
        let rc = &mut self.ref_counts[id.0 as usize];
        assert!(*rc > 0, "incref on free block {id:?}");
        *rc += 1;
    }

    /// Drops a reference; frees the block when the count hits zero.
    /// Returns `true` if the block was freed.
    ///
    /// # Panics
    ///
    /// Panics on double-free.
    pub fn decref(&mut self, id: BlockId) -> bool {
        let rc = &mut self.ref_counts[id.0 as usize];
        assert!(*rc > 0, "decref on free block {id:?}");
        *rc -= 1;
        if *rc == 0 {
            self.free.push(id);
            true
        } else {
            false
        }
    }
}

/// A sequence's mapping from logical token positions to physical blocks.
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    block_size: usize,
    blocks: Vec<BlockId>,
    /// Tokens with KV actually written (<= blocks.len() * block_size).
    tokens: usize,
}

impl BlockTable {
    /// Creates an empty table with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        BlockTable {
            block_size,
            blocks: Vec::new(),
            tokens: 0,
        }
    }

    /// Tokens of KV recorded.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Physical blocks backing the sequence, in logical order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks needed to extend the sequence by `new_tokens`.
    pub fn blocks_needed(&self, new_tokens: usize) -> usize {
        let total = self.tokens + new_tokens;
        let need = total.div_ceil(self.block_size);
        need.saturating_sub(self.blocks.len())
    }

    /// Appends pre-allocated blocks and advances the token count.
    ///
    /// # Panics
    ///
    /// Panics if the supplied blocks don't exactly cover `new_tokens`.
    pub fn extend(&mut self, new_blocks: Vec<BlockId>, new_tokens: usize) {
        assert_eq!(
            new_blocks.len(),
            self.blocks_needed(new_tokens),
            "extend: block count must match blocks_needed({new_tokens})"
        );
        self.blocks.extend(new_blocks);
        self.tokens += new_tokens;
        debug_assert!(self.tokens <= self.blocks.len() * self.block_size);
    }

    /// Like [`BlockTable::extend`] but borrows the block list, so hot-path
    /// callers can keep reusing their scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if the supplied blocks don't exactly cover `new_tokens`.
    pub fn extend_from_slice(&mut self, new_blocks: &[BlockId], new_tokens: usize) {
        assert_eq!(
            new_blocks.len(),
            self.blocks_needed(new_tokens),
            "extend_from_slice: block count must match blocks_needed({new_tokens})"
        );
        self.blocks.extend_from_slice(new_blocks);
        self.tokens += new_tokens;
        debug_assert!(self.tokens <= self.blocks.len() * self.block_size);
    }

    /// Free slots in the last block.
    pub fn slack(&self) -> usize {
        self.blocks.len() * self.block_size - self.tokens
    }

    /// Takes the blocks out, resetting the table (for free/migrate).
    pub fn take_blocks(&mut self) -> Vec<BlockId> {
        self.tokens = 0;
        std::mem::take(&mut self.blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = BlockPool::new(4);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(p.in_use(), 2);
        assert!(p.decref(a));
        assert_eq!(p.available(), 3);
        assert!(p.decref(b));
        assert_eq!(p.available(), 4);
    }

    #[test]
    fn alloc_many_is_atomic() {
        let mut p = BlockPool::new(4);
        let _held = p.alloc_many(3).unwrap();
        let err = p.alloc_many(2).unwrap_err();
        assert_eq!(err.requested, 2);
        assert_eq!(err.available, 1);
        // The failed call must not have consumed anything.
        assert_eq!(p.available(), 1);
    }

    #[test]
    fn sharing_delays_free() {
        let mut p = BlockPool::new(2);
        let a = p.alloc().unwrap();
        p.incref(a); // now shared by two users
        assert!(!p.decref(a), "first drop must not free");
        assert_eq!(p.available(), 1);
        assert!(p.decref(a), "second drop frees");
        assert_eq!(p.available(), 2);
    }

    #[test]
    #[should_panic(expected = "decref on free block")]
    fn double_free_panics() {
        let mut p = BlockPool::new(1);
        let a = p.alloc().unwrap();
        p.decref(a);
        p.decref(a);
    }

    #[test]
    #[should_panic(expected = "incref on free block")]
    fn incref_freed_panics() {
        let mut p = BlockPool::new(1);
        let a = p.alloc().unwrap();
        p.decref(a);
        p.incref(a);
    }

    #[test]
    fn table_tracks_block_boundaries() {
        let mut pool = BlockPool::new(16);
        let mut t = BlockTable::new(16);
        // 20 tokens -> 2 blocks.
        assert_eq!(t.blocks_needed(20), 2);
        t.extend(pool.alloc_many(2).unwrap(), 20);
        assert_eq!(t.tokens(), 20);
        assert_eq!(t.slack(), 12);
        // 12 more fit in the slack.
        assert_eq!(t.blocks_needed(12), 0);
        t.extend(vec![], 12);
        assert_eq!(t.slack(), 0);
        // The next token needs a fresh block.
        assert_eq!(t.blocks_needed(1), 1);
        t.extend(pool.alloc_many(1).unwrap(), 1);
        assert_eq!(t.blocks().len(), 3);
    }

    #[test]
    fn take_blocks_resets() {
        let mut pool = BlockPool::new(4);
        let mut t = BlockTable::new(16);
        t.extend(pool.alloc_many(2).unwrap(), 32);
        let blocks = t.take_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(t.tokens(), 0);
        assert!(t.blocks().is_empty());
    }

    #[test]
    #[should_panic(expected = "must match blocks_needed")]
    fn extend_with_wrong_block_count_panics() {
        let mut t = BlockTable::new(16);
        t.extend(vec![BlockId(0)], 40); // needs 3 blocks, given 1
    }
}
