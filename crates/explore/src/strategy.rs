//! Deterministic search strategies over the design [`Space`].
//!
//! Both strategies are pure functions of `(spec, previous results)`:
//! no wall clock, no thread identity, no global RNG. The engine feeds
//! them a [`SearchView`] of everything evaluated so far and they
//! propose the next batch of candidates; proposals already evaluated
//! are filtered (and not charged against the budget), so a resumed or
//! re-run search replays exactly the same trajectory from the cache.

use std::collections::BTreeMap;

use orion_exp::fingerprint::splitmix64;
use orion_exp::frontier::{Objectives, ParetoFront};

use crate::spec::{Candidate, Space, DIMS};

/// Everything a strategy may condition on.
pub struct SearchView<'a> {
    /// The design space searched.
    pub space: &'a Space,
    /// Results so far, keyed by canonical candidate name (sorted, so
    /// iteration order is deterministic).
    pub evaluated: &'a BTreeMap<String, Evaluated>,
    /// Current Pareto frontier per traffic pattern name.
    pub frontiers: &'a BTreeMap<String, ParetoFront>,
    /// Completed search rounds (generations).
    pub round: usize,
}

/// One evaluated candidate as the strategies see it.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The index vector that produced it (first one seen, if several
    /// collapse to the same canonical name).
    pub candidate: Candidate,
    /// 1-based round in which it was evaluated.
    pub round: usize,
    /// Per-traffic objectives, in spec traffic order. Non-finite
    /// entries mark failed/crashed cells.
    pub objectives: Vec<(String, Objectives)>,
}

impl Evaluated {
    /// Whether every traffic pattern produced finite objectives.
    pub fn is_comparable(&self) -> bool {
        self.objectives.iter().all(|(_, o)| o.is_finite())
    }

    /// Multi-traffic Pareto dominance: at least as good on every
    /// objective of every traffic pattern, strictly better somewhere.
    pub fn dominates(&self, other: &Evaluated) -> bool {
        if !self.is_comparable() || !other.is_comparable() {
            return false;
        }
        let mut strictly = false;
        for ((_, a), (_, b)) in self.objectives.iter().zip(&other.objectives) {
            if a.latency > b.latency || a.power > b.power {
                return false;
            }
            if a.latency < b.latency || a.power < b.power {
                strictly = true;
            }
        }
        strictly
    }
}

/// A deterministic candidate-proposal policy.
pub trait SearchStrategy {
    /// The strategy's stable name (matches the spec token).
    fn name(&self) -> &'static str;

    /// Proposes the next batch of candidates. May repeat evaluated or
    /// in-batch names — the engine deduplicates — but must eventually
    /// return a batch with nothing new to signal exhaustion.
    fn next_batch(&mut self, view: &SearchView<'_>) -> Vec<Candidate>;
}

/// Pushes `c` if its canonical name is new to `batch`.
fn push_unique(batch: &mut Vec<Candidate>, seen: &mut Vec<String>, space: &Space, c: Candidate) {
    let name = c.name(space);
    if !seen.contains(&name) {
        seen.push(name);
        batch.push(c);
    }
}

/// Exhaustive adaptive grid refinement.
///
/// Round 0 seeds the corners and midpoint of every axis (a coarse
/// cartesian sweep). Every later round looks at each frontier member
/// and, for each numeric dimension, proposes its immediate index
/// neighbours plus the index-interval midpoints towards both axis ends
/// — bisecting the space around the current knees until no proposal is
/// new or the budget runs out.
#[derive(Debug, Default)]
pub struct GridRefine;

/// The numeric (ordered) dimensions refinement subdivides: vcs, depth,
/// radix, node. Family and topology are categorical and fully
/// enumerated in round 0.
const NUMERIC_DIMS: [usize; 4] = [1, 2, 3, 5];

impl SearchStrategy for GridRefine {
    fn name(&self) -> &'static str {
        "grid-refine"
    }

    fn next_batch(&mut self, view: &SearchView<'_>) -> Vec<Candidate> {
        let space = view.space;
        let mut batch = Vec::new();
        let mut seen = Vec::new();
        if view.evaluated.is_empty() {
            // Coarse seed: all categorical combinations × per-axis
            // {first, middle, last} corners.
            let corners = |len: usize| -> Vec<usize> {
                let mut c = vec![0, len / 2, len.saturating_sub(1)];
                c.dedup();
                c.sort_unstable();
                c.dedup();
                c
            };
            for f in 0..space.families.len() {
                for t in 0..space.topologies.len() {
                    for &v in &corners(space.vcs.len()) {
                        for &d in &corners(space.depths.len()) {
                            for &r in &corners(space.radices.len()) {
                                for &n in &corners(space.nodes.len()) {
                                    push_unique(
                                        &mut batch,
                                        &mut seen,
                                        space,
                                        Candidate {
                                            ix: [f, v, d, r, t, n],
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
            return batch;
        }
        // Refinement: subdivide around every frontier member.
        for front in view.frontiers.values() {
            for member in front.members() {
                let Some(eval) = view.evaluated.get(&member.label) else {
                    continue;
                };
                let base = eval.candidate;
                for &d in &NUMERIC_DIMS {
                    let len = space.axis_len(d);
                    if len < 2 {
                        continue;
                    }
                    let i = base.ix[d];
                    let proposals = [
                        i.saturating_sub(1),
                        (i + 1).min(len - 1),
                        i / 2,
                        (i + len - 1) / 2,
                    ];
                    for p in proposals {
                        if p == i {
                            continue;
                        }
                        let mut c = base;
                        c.ix[d] = p;
                        push_unique(&mut batch, &mut seen, space, c);
                    }
                }
            }
        }
        batch
    }
}

/// A sequential splitmix64 stream: `next()` advances an internal word
/// by the golden-ratio increment and finalises it. Deterministic and
/// platform-independent.
#[derive(Debug, Clone)]
pub struct SplitMixStream {
    state: u64,
}

impl SplitMixStream {
    /// A stream whose whole output sequence is a function of `seed`.
    pub fn new(seed: u64) -> SplitMixStream {
        SplitMixStream { state: seed }
    }

    /// The next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// A uniform index in `[0, n)`; `n` must be non-zero.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seedable (μ+λ) evolutionary search.
///
/// Each generation derives its own RNG stream from
/// `splitmix64(seed ^ generation)`, so the trajectory is a pure
/// function of `(seed, results)` — independent of thread count, wall
/// clock and resume boundaries. Selection ranks all evaluated
/// candidates by multi-traffic domination count (μ best survive as
/// parents, ties broken by name); each of the λ offspring mutates a
/// uniformly chosen parent along one dimension — a ±1 step or a
/// uniform resample — retrying a bounded number of times to land on an
/// unevaluated canonical name.
#[derive(Debug)]
pub struct Evolutionary {
    /// μ: parents kept per generation.
    pub population: usize,
    /// λ: offspring proposed per generation.
    pub offspring: usize,
    /// Search seed.
    pub seed: u64,
    generation: u64,
}

impl Evolutionary {
    /// A fresh loop at generation 0.
    pub fn new(population: usize, offspring: usize, seed: u64) -> Evolutionary {
        Evolutionary {
            population: population.max(1),
            offspring: offspring.max(1),
            seed,
            generation: 0,
        }
    }

    fn random_candidate(space: &Space, rng: &mut SplitMixStream) -> Candidate {
        let mut ix = [0usize; DIMS];
        for (d, slot) in ix.iter_mut().enumerate() {
            *slot = rng.index(space.axis_len(d).max(1));
        }
        Candidate { ix }
    }

    fn mutate(space: &Space, parent: Candidate, rng: &mut SplitMixStream) -> Candidate {
        let mutable: Vec<usize> = (0..DIMS).filter(|&d| space.axis_len(d) > 1).collect();
        if mutable.is_empty() {
            return parent;
        }
        let d = mutable[rng.index(mutable.len())];
        let len = space.axis_len(d);
        let mut c = parent;
        if rng.next_u64() & 1 == 0 {
            // Local step.
            let up = rng.next_u64() & 1 == 0;
            c.ix[d] = if up {
                (c.ix[d] + 1).min(len - 1)
            } else {
                c.ix[d].saturating_sub(1)
            };
        } else {
            // Uniform resample.
            c.ix[d] = rng.index(len);
        }
        c
    }
}

impl SearchStrategy for Evolutionary {
    fn name(&self) -> &'static str {
        "evolutionary"
    }

    fn next_batch(&mut self, view: &SearchView<'_>) -> Vec<Candidate> {
        let space = view.space;
        self.generation += 1;
        let mut rng = SplitMixStream::new(splitmix64(self.seed ^ self.generation));
        let mut batch = Vec::new();
        let mut seen = Vec::new();

        if view.evaluated.is_empty() {
            // Generation 1: a random initial population of λ.
            let mut attempts = 0;
            while batch.len() < self.offspring && attempts < self.offspring * 16 {
                attempts += 1;
                let c = Self::random_candidate(space, &mut rng);
                push_unique(&mut batch, &mut seen, space, c);
            }
            return batch;
        }

        // Selection: μ least-dominated comparable candidates (by
        // (domination count, name) — both deterministic).
        let mut ranked: Vec<(usize, &String, &Evaluated)> = view
            .evaluated
            .iter()
            .map(|(name, e)| {
                let rank = if e.is_comparable() {
                    view.evaluated
                        .values()
                        .filter(|other| other.dominates(e))
                        .count()
                } else {
                    usize::MAX
                };
                (rank, name, e)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(b.1)));
        let parents: Vec<Candidate> = ranked
            .iter()
            .take(self.population)
            .map(|(_, _, e)| e.candidate)
            .collect();

        for _ in 0..self.offspring {
            // Bounded retries to find an unevaluated name; give up and
            // move on if the neighbourhood is exhausted.
            for _attempt in 0..16 {
                let parent = parents[rng.index(parents.len())];
                let child = Self::mutate(space, parent, &mut rng);
                let name = child.name(space);
                if !view.evaluated.contains_key(&name) && !seen.contains(&name) {
                    seen.push(name);
                    batch.push(child);
                    break;
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExploreSpec;

    fn space() -> Space {
        ExploreSpec::parse(
            "[experiment]\nname = \"t\"\n[explore]\nbudget = 64\n\
             [space]\nfamilies = [\"wh\", \"vc\"]\nvcs = [2, 4, 8]\ndepths = [4, 8, 16]\n",
        )
        .unwrap()
        .space
    }

    fn view<'a>(
        space: &'a Space,
        evaluated: &'a BTreeMap<String, Evaluated>,
        frontiers: &'a BTreeMap<String, ParetoFront>,
        round: usize,
    ) -> SearchView<'a> {
        SearchView {
            space,
            evaluated,
            frontiers,
            round,
        }
    }

    #[test]
    fn grid_refine_seeds_corners_once() {
        let space = space();
        let evaluated = BTreeMap::new();
        let frontiers = BTreeMap::new();
        let mut s = GridRefine;
        let batch = s.next_batch(&view(&space, &evaluated, &frontiers, 0));
        assert!(!batch.is_empty());
        // Batch is name-unique by construction.
        let mut names: Vec<String> = batch.iter().map(|c| c.name(&space)).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
        // Identical view -> identical batch (pure function).
        let again = GridRefine.next_batch(&view(&space, &evaluated, &frontiers, 0));
        assert_eq!(batch, again);
    }

    #[test]
    fn grid_refine_subdivides_around_frontier() {
        let space = space();
        let mut evaluated = BTreeMap::new();
        let mut frontiers = BTreeMap::new();
        let member = Candidate {
            ix: [1, 2, 2, 0, 0, 0],
        }; // vc8x16 = vc128
        let name = member.name(&space);
        assert_eq!(name, "vc128");
        evaluated.insert(
            name.clone(),
            Evaluated {
                candidate: member,
                round: 1,
                objectives: vec![(
                    "uniform".to_string(),
                    Objectives {
                        latency: 10.0,
                        power: 1.0,
                    },
                )],
            },
        );
        let mut front = ParetoFront::new();
        front.insert(
            &name,
            Objectives {
                latency: 10.0,
                power: 1.0,
            },
        );
        frontiers.insert("uniform".to_string(), front);
        let batch = GridRefine.next_batch(&view(&space, &evaluated, &frontiers, 1));
        // Neighbours of (vcs=8, depth=16) along both numeric axes.
        let names: Vec<String> = batch.iter().map(|c| c.name(&space)).collect();
        assert!(names.contains(&"vc4x16".to_string()), "{names:?}");
        assert!(
            names.contains(&"vc64".to_string()),
            "vc8x8 canonicalises: {names:?}"
        );
    }

    #[test]
    fn evolutionary_is_seed_deterministic_and_seed_sensitive() {
        let space = space();
        let evaluated = BTreeMap::new();
        let frontiers = BTreeMap::new();
        let b1 = Evolutionary::new(2, 6, 42).next_batch(&view(&space, &evaluated, &frontiers, 0));
        let b2 = Evolutionary::new(2, 6, 42).next_batch(&view(&space, &evaluated, &frontiers, 0));
        assert_eq!(b1, b2, "same seed, same generation 1");
        let b3 = Evolutionary::new(2, 6, 43).next_batch(&view(&space, &evaluated, &frontiers, 0));
        assert_ne!(b1, b3, "different seed explores differently");
    }

    #[test]
    fn evolutionary_avoids_reproposing_evaluated_names() {
        let space = space();
        let mut s = Evolutionary::new(2, 4, 7);
        let empty_eval = BTreeMap::new();
        let empty_front = BTreeMap::new();
        let first = s.next_batch(&view(&space, &empty_eval, &empty_front, 0));
        let mut evaluated = BTreeMap::new();
        for (i, c) in first.iter().enumerate() {
            evaluated.insert(
                c.name(&space),
                Evaluated {
                    candidate: *c,
                    round: 1,
                    objectives: vec![(
                        "uniform".to_string(),
                        Objectives {
                            latency: 10.0 + i as f64,
                            power: 1.0,
                        },
                    )],
                },
            );
        }
        let second = s.next_batch(&view(&space, &evaluated, &empty_front, 1));
        for c in &second {
            assert!(
                !evaluated.contains_key(&c.name(&space)),
                "offspring must be new: {}",
                c.name(&space)
            );
        }
    }

    #[test]
    fn domination_ranking_is_multi_traffic() {
        let c = Candidate { ix: [0; DIMS] };
        let a = Evaluated {
            candidate: c,
            round: 1,
            objectives: vec![
                (
                    "uniform".to_string(),
                    Objectives {
                        latency: 1.0,
                        power: 1.0,
                    },
                ),
                (
                    "tornado".to_string(),
                    Objectives {
                        latency: 5.0,
                        power: 1.0,
                    },
                ),
            ],
        };
        let b = Evaluated {
            candidate: c,
            round: 1,
            objectives: vec![
                (
                    "uniform".to_string(),
                    Objectives {
                        latency: 2.0,
                        power: 2.0,
                    },
                ),
                (
                    "tornado".to_string(),
                    Objectives {
                        latency: 4.0,
                        power: 2.0,
                    },
                ),
            ],
        };
        assert!(!a.dominates(&b), "b is better on tornado latency");
        assert!(!b.dominates(&a));
        let worse = Evaluated {
            candidate: c,
            round: 1,
            objectives: vec![
                (
                    "uniform".to_string(),
                    Objectives {
                        latency: 2.0,
                        power: 1.0,
                    },
                ),
                (
                    "tornado".to_string(),
                    Objectives {
                        latency: 5.0,
                        power: 1.0,
                    },
                ),
            ],
        };
        assert!(a.dominates(&worse));
        let nan = Evaluated {
            candidate: c,
            round: 1,
            objectives: vec![
                (
                    "uniform".to_string(),
                    Objectives {
                        latency: f64::NAN,
                        power: 1.0,
                    },
                ),
                (
                    "tornado".to_string(),
                    Objectives {
                        latency: 1.0,
                        power: 1.0,
                    },
                ),
            ],
        };
        assert!(!nan.dominates(&a) && !a.dominates(&nan) || a.dominates(&nan));
        assert!(!nan.is_comparable());
    }

    #[test]
    fn grid_refine_exhausts_small_space() {
        // With a single-point space the refiner proposes the one
        // candidate and then nothing new.
        let spec = ExploreSpec::parse(
            "[experiment]\nname = \"t\"\n[explore]\nbudget = 8\n\
             [space]\nfamilies = [\"cb\"]\nvcs = [1]\ndepths = [64]\n",
        )
        .unwrap();
        let mut s = GridRefine;
        let empty_eval = BTreeMap::new();
        let empty_front = BTreeMap::new();
        let batch = s.next_batch(&view(&spec.space, &empty_eval, &empty_front, 0));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].name(&spec.space), "cb");
    }
}
