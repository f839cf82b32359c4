//! The piece rule of a forward copy between possibly overlapping ranges,
//! shared by the layers that move bytes (guest memory) and their shadow
//! (provenance), so both split a copy the same way.

/// Splits a forward copy of `len` units from `src` to `dst` into
/// `(offset, len)` pieces, in order, that can each be moved as one block
/// with the result of the unit-by-unit loop
/// `for i in 0..len { mem[dst + i] = mem[src + i] }`.
///
/// When the destination starts inside the source past its start, that loop
/// reads units it already wrote and so replicates the first `dst - src`
/// units: pieces of `dst - src` units each read only what earlier pieces
/// wrote. Otherwise the whole copy is one piece. The ranges must not wrap
/// past `u32::MAX`.
///
/// # Examples
///
/// ```
/// use faros_support::copy::forward_pieces;
///
/// // The destination one unit ahead of the source: one unit at a time.
/// assert_eq!(forward_pieces(0x10, 0x11, 3).collect::<Vec<_>>(), [(0, 1), (1, 1), (2, 1)]);
/// // Behind its source, or apart from it: one block.
/// assert_eq!(forward_pieces(0x10, 0x0f, 3).collect::<Vec<_>>(), [(0, 3)]);
/// assert_eq!(forward_pieces(0x10, 0x40, 0).count(), 0);
/// ```
pub fn forward_pieces(src: u32, dst: u32, len: u32) -> impl Iterator<Item = (u32, u32)> {
    debug_assert!(
        u64::from(src.max(dst)) + u64::from(len) <= 1 << 32,
        "copy ranges must not wrap"
    );
    let step = if src < dst && dst - src < len { dst - src } else { len.max(1) };
    (0..len).step_by(step as usize).map(move |off| (off, step.min(len - off)))
}
