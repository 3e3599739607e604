//! The test oracle for the stage-graph kernel and `DagSchedule::build`:
//! the same algorithms over a sorted `Vec` of neighbours per stage, with
//! Kahn's algorithm on a min-heap and the chunk quotient as a `TaskGraph`
//! of chunks. The mask code must match it output for output, error for
//! error.

use alloc::collections::BinaryHeap;
use alloc::format;
use alloc::string::String;
use alloc::vec;
use alloc::vec::Vec;
use core::cmp::Reverse;

use super::{DagChunk, DagSchedule, DagScheduleError};
use crate::graph::{bits, Closure, CyclicGraphError, GraphMasks, TaskGraph, MAX_STAGES};
use crate::pu::PuClass;

/// For each node, the sorted, deduplicated `other`s of the edges `orient`
/// maps to `(at, other)`.
fn adjacency(
    n: usize,
    deps: &[(usize, usize)],
    orient: impl Fn((usize, usize)) -> (usize, usize),
) -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &edge in deps {
        let (at, other) = orient(edge);
        sets[at].push(other);
    }
    for set in &mut sets {
        set.sort_unstable();
        set.dedup();
    }
    sets
}

/// Kahn's algorithm over a min-heap, lowest index first.
fn kahn(n: usize, deps: &[(usize, usize)]) -> Result<Vec<usize>, CyclicGraphError> {
    let succs = adjacency(n, deps, |edge| edge);
    let mut indegree = vec![0usize; n];
    for &j in succs.iter().flatten() {
        indegree[j] += 1;
    }
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| indegree[i] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(i)) = ready.pop() {
        order.push(i);
        for &j in &succs[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push(Reverse(j));
            }
        }
    }
    if order.len() < n {
        let preds = adjacency(n, deps, |(from, to)| (to, from));
        let unplaced = |i: usize| indegree[i] > 0;
        let mut cur = (0..n).find(|&i| unplaced(i)).unwrap();
        let mut visited_at = vec![usize::MAX; n];
        let mut path = Vec::new();
        while visited_at[cur] == usize::MAX {
            visited_at[cur] = path.len();
            path.push(cur);
            cur = preds[cur].iter().copied().find(|&p| unplaced(p)).unwrap();
        }
        let mut cycle = vec![cur];
        cycle.extend(path[visited_at[cur] + 1..].iter().rev());
        let min_pos = (0..cycle.len()).min_by_key(|&k| cycle[k]).unwrap_or(0);
        cycle.rotate_left(min_pos);
        return Err(CyclicGraphError { cycle });
    }
    Ok(order)
}

/// `kahn`'s order with the descendant and ancestor masks.
fn closure(n: usize, deps: &[(usize, usize)]) -> Result<Closure, CyclicGraphError> {
    let succs = adjacency(n, deps, |edge| edge);
    let order = kahn(n, deps)?;
    let mut below = vec![0u64; n];
    for &i in order.iter().rev() {
        below[i] = succs[i].iter().fold(0, |m, &j| m | 1 << j | below[j]);
    }
    let mut above = vec![0u64; n];
    for &i in &order {
        for &j in &succs[i] {
            above[j] |= above[i] | 1 << i;
        }
    }
    Ok(Closure {
        order,
        below,
        above,
    })
}

/// What a build derives: chunks, quotient edges, quotient order and the
/// replica pair.
type Built = (
    Vec<DagChunk>,
    Vec<(usize, usize)>,
    Vec<usize>,
    Option<(usize, usize)>,
);

fn derived(s: &DagSchedule) -> Built {
    let edges = s.chunk_edges().to_vec();
    (
        s.chunks.clone(),
        edges,
        s.chunk_order.clone(),
        s.replica_pair(),
    )
}

/// `DagSchedule::build` over per-stage `Vec`s.
fn build(
    assignment: &[PuClass],
    graph: &TaskGraph,
    replicated: Option<(usize, (PuClass, PuClass))>,
) -> Result<Built, DagScheduleError> {
    let n = graph.len();
    if n == 0 {
        return Err(DagScheduleError::Empty);
    }
    if assignment.len() != n {
        return Err(DagScheduleError::LengthMismatch {
            stages: n,
            assignment: assignment.len(),
        });
    }
    let Closure {
        order,
        below: below_of,
        above: above_of,
    } = closure(n, graph.deps()).map_err(DagScheduleError::Cyclic)?;

    let bad = |reason: String| DagScheduleError::BadReplica { reason };
    if let Some((r, (c1, c2))) = replicated {
        if r >= n {
            return Err(bad(format!("replicated stage {r} is out of range")));
        }
        if c1 == c2 {
            return Err(bad(format!(
                "replica classes must differ (both are {c1:?})"
            )));
        }
        if assignment[r] != c1 && assignment[r] != c2 {
            return Err(bad(format!(
                "assignment[{r}] must name one of the replica classes"
            )));
        }
        if above_of[r] == 0 || below_of[r] == 0 {
            return Err(bad(format!(
                "stage {r} is a graph source or sink and cannot be replicated"
            )));
        }
        for (s, &c) in assignment.iter().enumerate() {
            if s != r && (c == c1 || c == c2) {
                return Err(bad(format!(
                    "replica class {c:?} is also assigned to stage {s}"
                )));
            }
        }
    }
    let replica_stage = replicated.map(|(r, _)| r);

    let mut hulls = [[0u64; 3]; PuClass::COUNT];
    for s in (0..n).filter(|&s| replica_stage != Some(s)) {
        let [members, below, above] = &mut hulls[assignment[s].index()];
        *members |= 1 << s;
        *below |= below_of[s];
        *above |= above_of[s];
    }
    for (class, [members, below, above]) in PuClass::ALL.into_iter().zip(hulls) {
        let holes = below & above & !members;
        if holes != 0 {
            let via = holes.trailing_zeros() as usize;
            return Err(DagScheduleError::NotPathConvex { class, via });
        }
    }

    let mut chunks: Vec<DagChunk> = Vec::new();
    let mut stage_chunks: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &s in &order {
        let pus = match replicated {
            Some((r, (c1, c2))) if r == s => vec![c1, c2],
            _ => vec![assignment[s]],
        };
        for pu in pus {
            let i = match chunks.iter().position(|ch| ch.pu == pu) {
                Some(i) => i,
                None => {
                    chunks.push(DagChunk {
                        pu,
                        stages: Vec::new(),
                    });
                    chunks.len() - 1
                }
            };
            chunks[i].stages.push(s);
            stage_chunks[s].push(i);
        }
    }
    let replica_chunks = replica_stage.map(|r| (stage_chunks[r][0], stage_chunks[r][1]));

    let mut chunk_edges: Vec<(usize, usize)> = Vec::new();
    for &(u, v) in graph.deps() {
        for &cu in &stage_chunks[u] {
            for &cv in &stage_chunks[v] {
                if cu != cv {
                    chunk_edges.push((cu, cv));
                }
            }
        }
    }
    chunk_edges.sort_unstable();
    chunk_edges.dedup();

    let k = chunks.len();
    let chunk_order = kahn(k, &chunk_edges).map_err(|_| DagScheduleError::ChunkCycle)?;
    let succs = adjacency(k, &chunk_edges, |edge| edge);
    let preds = adjacency(k, &chunk_edges, |(from, to)| (to, from));
    let sources = (0..k).filter(|&c| preds[c].is_empty()).count();
    let sinks = (0..k).filter(|&c| succs[c].is_empty()).count();
    if sources != 1 || sinks != 1 {
        return Err(DagScheduleError::NotSinglePort { sources, sinks });
    }
    Ok((chunks, chunk_edges, chunk_order, replica_chunks))
}

/// SplitMix64: a seeded stream for the sweeps.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// Every forward edge set over `n ≤ 5` stages, each also labelled back to
/// front (the generator of the workspace's `tests/chunk_order.rs`), and
/// each again with one random extra edge, which may close a cycle, be a
/// self-loop or repeat a dependency.
fn small_graphs(rng: &mut Rng) -> Vec<TaskGraph> {
    let mut graphs = Vec::new();
    for n in 1..=5usize {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        for (shape, reversed) in (0u32..1 << pairs.len()).flat_map(|s| [(s, false), (s, true)]) {
            let label = |i: usize| if reversed { n - 1 - i } else { i };
            let mut graph = TaskGraph::new(n);
            for (_, &(i, j)) in pairs
                .iter()
                .enumerate()
                .filter(|(b, _)| shape >> b & 1 == 1)
            {
                graph.add_dep(label(i), label(j));
            }
            let mut extra = graph.clone();
            extra.add_dep(rng.below(n), rng.below(n));
            graphs.extend([graph, extra]);
        }
    }
    graphs
}

#[test]
fn mask_build_matches_the_reference_on_every_small_graph() {
    let mut rng = Rng(0x5eed);
    // Builds that succeed with and without a replica, then each error in
    // precedence order: Cyclic, BadReplica, NotPathConvex, ChunkCycle,
    // NotSinglePort.
    let mut outcomes = [0; 7];
    for graph in small_graphs(&mut rng) {
        let n = graph.len();
        for m in 1..=PuClass::COUNT {
            for _ in 0..3 {
                let a: Vec<PuClass> = (0..n).map(|_| PuClass::ALL[rng.below(m)]).collect();
                // Plain, then replica declarations on every stage: the
                // stage's own class paired with a random one, in random
                // order, so sources, sinks, class clashes and repeated
                // classes all occur; and, where two classes are free of
                // the other stages, the stage moved onto that pair.
                let mut cases = vec![(a.clone(), None)];
                for r in 0..n {
                    let other = PuClass::ALL[rng.below(PuClass::COUNT)];
                    let pair = match rng.below(2) {
                        0 => (a[r], other),
                        _ => (other, a[r]),
                    };
                    cases.push((a.clone(), Some((r, pair))));
                    let taken = |c: &PuClass| (0..n).any(|s| s != r && a[s] == *c);
                    let free: Vec<PuClass> =
                        PuClass::ALL.into_iter().filter(|c| !taken(c)).collect();
                    if let [c1, c2, ..] = free[..] {
                        let mut moved = a.clone();
                        moved[r] = c2;
                        cases.push((moved, Some((r, (c1, c2)))));
                    }
                }
                for (a, replicated) in cases {
                    let want = build(&a, &graph, replicated);
                    let got = DagSchedule::build(a.clone(), graph.clone(), replicated);
                    assert_eq!(
                        got.map(|s| derived(&s)),
                        want,
                        "{graph:?} {a:?} {replicated:?}"
                    );
                    outcomes[match want {
                        Ok(_) => usize::from(replicated.is_some()),
                        Err(DagScheduleError::Cyclic(_)) => 2,
                        Err(DagScheduleError::BadReplica { .. }) => 3,
                        Err(DagScheduleError::NotPathConvex { .. }) => 4,
                        Err(DagScheduleError::ChunkCycle) => 5,
                        Err(DagScheduleError::NotSinglePort { .. }) => 6,
                        Err(e) => panic!("{e:?} on a non-empty, well-sized input"),
                    }] += 1;
                }
            }
        }
    }
    // Every outcome is exercised in bulk, not just reached.
    assert!(outcomes.iter().all(|&c| c >= 500), "{outcomes:?}");
}

#[test]
fn mask_build_matches_the_reference_at_64_stages() {
    let mut rng = Rng(0x64);
    let mut fork_join = TaskGraph::new(64);
    for s in 1..63 {
        fork_join.add_dep(0, s).add_dep(s, 63);
    }
    let mut layered = TaskGraph::new(64);
    for s in 8..64 {
        layered.add_dep(s - 8 + rng.below(8) / 4, s);
    }
    for graph in [TaskGraph::chain(64), fork_join, layered] {
        let mut built = 0;
        for _ in 0..300 {
            // Contiguous runs of a few classes, so that many builds pass.
            let cuts: Vec<usize> = (0..3).map(|_| rng.below(65)).collect();
            let a: Vec<PuClass> = (0..64)
                .map(|s| PuClass::ALL[cuts.iter().filter(|&&c| c <= s).count()])
                .collect();
            let r = rng.below(64);
            for replicated in [None, Some((r, (a[r], PuClass::ALL[rng.below(4)])))] {
                let want = build(&a, &graph, replicated);
                let got = DagSchedule::build(a.clone(), graph.clone(), replicated);
                assert_eq!(got.map(|s| derived(&s)), want, "{a:?} {replicated:?}");
                built += usize::from(want.is_ok());
            }
        }
        assert!(built > 100, "{built} of 600 built");
    }
}

#[test]
fn masks_sort_as_the_reference_does() {
    let mut rng = Rng(0xad1a);
    let mut at_the_cap = 0;
    for _ in 0..3_000 {
        let n = 1 + rng.below(MAX_STAGES);
        let edges: Vec<(usize, usize)> = (0..rng.below(3 * n))
            .map(|_| {
                let (u, v) = (rng.below(n), rng.below(n));
                // Mostly forward, so that many graphs are acyclic.
                match rng.below(8) {
                    0 => (u, v),
                    _ => (u.min(v), u.max(v)),
                }
            })
            .collect();
        let mut graph = TaskGraph::new(n);
        for &(u, v) in &edges {
            graph.add_dep(u, v);
        }
        let want = kahn(n, &edges);
        assert_eq!(graph.linearize(), want, "{n} {edges:?}");
        let masks = GraphMasks::new(n, edges.iter().copied());
        assert_eq!(masks.as_ref().err(), want.as_ref().err());
        let succs = adjacency(n, &edges, |edge| edge);
        if let Ok(masks) = masks {
            let preds = adjacency(n, &edges, |(from, to)| (to, from));
            for v in 0..n {
                let got: (Vec<usize>, Vec<usize>) =
                    (bits(masks.succ[v]).collect(), bits(masks.pred[v]).collect());
                assert_eq!(got, (succs[v].clone(), preds[v].clone()));
            }
        }
        let chain = want
            .as_ref()
            .is_ok_and(|order| order.windows(2).all(|w| succs[w[0]].contains(&w[1])));
        assert_eq!(graph.is_chain(), chain, "{n} {edges:?}");
        match (graph.closure(), closure(n, &edges)) {
            (Ok(got), Ok(want)) => {
                let got = (got.order, got.below, got.above);
                assert_eq!(got, (want.order, want.below, want.above));
            }
            (got, want) => assert_eq!(got.err(), want.err()),
        }
        at_the_cap += usize::from(n == MAX_STAGES);
    }
    assert!(
        at_the_cap >= 20,
        "{at_the_cap} graphs of {MAX_STAGES} stages"
    );
}
