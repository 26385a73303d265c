//! Degree-aware work tiling.
//!
//! The node paradigm's cost per node is dominated by its in-degree (one
//! mat-vec + one combine per incoming arc), so splitting the active list
//! into equal-*count* chunks leaves threads idle whenever degrees are
//! skewed — and the paper's benchmark suite is full of power-law and
//! Kronecker graphs where a handful of hubs carry most of the arcs.
//! [`degree_tiles`] instead cuts the active list into contiguous tiles of
//! near-equal **total arc count**, preserving everything the deterministic
//! engines rely on: tiles are contiguous, disjoint, and cover the list in
//! order, so per-node writes stay single-writer and the ascending-order
//! convergence reduction is untouched by the tile boundaries.

/// Splits `active` into at most `parts` contiguous tiles balanced by
/// `degrees[v] + 1` (the `+1` charges the fixed per-node publish/queue work
/// and keeps zero-degree nodes spread out). Returns fewer tiles when the
/// list is shorter than `parts`. Tiles concatenate back to exactly
/// `active`.
pub fn degree_tiles<'a>(active: &'a [u32], degrees: &[u32], parts: usize) -> Vec<&'a [u32]> {
    let mut cuts = Vec::new();
    degree_cuts(active, degrees, parts, &mut cuts);
    cuts.windows(2).map(|w| &active[w[0]..w[1]]).collect()
}

/// [`degree_tiles`] as cut positions written into a caller-kept buffer:
/// tile `i` is `active[cuts[i]..cuts[i + 1]]`, so `cuts[i]` is also
/// where the tile starts in `active`. An empty list has no cuts.
pub fn degree_cuts(active: &[u32], degrees: &[u32], parts: usize, cuts: &mut Vec<usize>) {
    let parts = parts.max(1);
    cuts.clear();
    if active.is_empty() {
        return;
    }
    let mut remaining: u64 = active.iter().map(|&v| degrees[v as usize] as u64 + 1).sum();
    cuts.push(0);
    let mut acc = 0u64;
    // The cut target is fixed when a tile opens (remaining weight spread
    // over the remaining parts), so mid-tile accumulation cannot shrink it.
    let mut target = remaining.div_ceil(parts as u64);
    for (i, &v) in active.iter().enumerate() {
        let w = degrees[v as usize] as u64 + 1;
        acc += w;
        remaining -= w;
        if acc >= target {
            cuts.push(i + 1);
            acc = 0;
            let parts_left = (parts - (cuts.len() - 1)) as u64;
            if parts_left <= 1 {
                break;
            }
            target = remaining.div_ceil(parts_left);
        }
    }
    if cuts.last() != Some(&active.len()) {
        cuts.push(active.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_weight(tile: &[u32], degrees: &[u32]) -> u64 {
        tile.iter().map(|&v| degrees[v as usize] as u64 + 1).sum()
    }

    #[test]
    fn tiles_concatenate_to_active_list() {
        let degrees: Vec<u32> = (0..100).map(|i| (i * 7) % 13).collect();
        let active: Vec<u32> = (0..100).filter(|v| v % 3 != 0).collect();
        for parts in [1usize, 2, 3, 4, 7, 64, 200] {
            let tiles = degree_tiles(&active, &degrees, parts);
            assert!(tiles.len() <= parts.max(1));
            let flat: Vec<u32> = tiles.iter().flat_map(|t| t.iter().copied()).collect();
            assert_eq!(flat, active, "parts={parts}");
        }
    }

    #[test]
    fn empty_and_single() {
        let degrees = vec![5u32; 4];
        assert!(degree_tiles(&[], &degrees, 4).is_empty());
        let one = [2u32];
        let tiles = degree_tiles(&one, &degrees, 4);
        assert_eq!(tiles, vec![&one[..]]);
    }

    #[test]
    fn hub_heavy_lists_balance_by_arcs_not_counts() {
        // One hub with 1000 arcs followed by 100 degree-1 nodes: equal-count
        // halves would put ~551 arcs of skew on one side; degree tiles give
        // the hub its own tile.
        let mut degrees = vec![1u32; 101];
        degrees[0] = 1000;
        let active: Vec<u32> = (0..101).collect();
        let tiles = degree_tiles(&active, &degrees, 2);
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[0], &active[..1], "the hub fills its own tile");
        assert_eq!(tiles[1].len(), 100);
    }

    #[test]
    fn uniform_degrees_reduce_to_near_equal_counts() {
        let degrees = vec![4u32; 64];
        let active: Vec<u32> = (0..64).collect();
        let tiles = degree_tiles(&active, &degrees, 4);
        assert_eq!(tiles.len(), 4);
        for t in &tiles {
            assert_eq!(t.len(), 16);
        }
    }

    #[test]
    fn tile_weights_are_balanced() {
        let degrees: Vec<u32> = (0..1000).map(|i| (i * 31) % 97).collect();
        let active: Vec<u32> = (0..1000).collect();
        let parts = 8;
        let tiles = degree_tiles(&active, &degrees, parts);
        let total: u64 = tile_weight(&active, &degrees);
        let ideal = total as f64 / parts as f64;
        for t in &tiles {
            let w = tile_weight(t, &degrees) as f64;
            // Greedy contiguous cuts stay within one max-weight node of
            // ideal; with these degrees that is comfortably under 2x.
            assert!(w < ideal * 2.0, "tile weight {w} vs ideal {ideal}");
        }
    }
}
