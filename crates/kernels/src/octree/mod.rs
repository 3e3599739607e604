//! The 7-stage octree-construction pipeline (Karras, HPG 2012; used by
//! OctoMap-style robotics mapping — §4.1 of the paper):
//!
//! 1. **Morton encoding** — quantize 3-D points to 30-bit Morton codes.
//! 2. **Sort** — LSD radix sort of the codes.
//! 3. **Duplicate removal** — compact to unique codes.
//! 4. **Build radix tree** — binary radix tree over the sorted unique codes.
//! 5. **Edge counting** — octree levels each radix node spans.
//! 6. **Prefix sum** — exclusive scan of the edge counts.
//! 7. **Build octree** — allocate and link the octree cells.

mod build;
mod dedup;
mod edges;
mod morton;
mod radix_tree;
mod scan;
mod sort;

pub(crate) use build::{build_octree, Octree};
pub(crate) use dedup::dedup_sorted;
pub(crate) use edges::count_edges;
pub(crate) use morton::{morton_encode_cloud, MORTON_BITS};
pub(crate) use radix_tree::RadixTree;
pub(crate) use scan::exclusive_scan;
pub(crate) use sort::radix_sort_u32;

#[cfg(test)]
pub(crate) use morton::{morton_decode, morton_encode};
