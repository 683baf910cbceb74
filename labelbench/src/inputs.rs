//! Seeded inputs: the served documents, the operation streams, and a
//! label-free tree oracle that replays mutations.
//!
//! Each workload serves one fixed document; `--seed` drives only the
//! operation streams (query draws, mutation kinds, anchors and targets), so
//! two runs with one seed send byte-identical requests and every count
//! (WAL frames, replayed frames, result rows) repeats exactly.
//!
//! Mutations address nodes by arena index, and an `Applied` reply carries
//! no new node ids. Every stream therefore draws anchors and targets only
//! from the *initial* elements of the regions it owns, tracked in a private
//! twin tree so deletes and moves never name a node that is gone. Regions
//! are disjoint subtrees, so any interleaving of the streams converges to
//! the document the streams produce when applied one after another
//! (writer-major), which is the oracle every run is checked against.

use std::collections::HashSet;

use xp_datagen::multiwriter::{self, TraceParams};
use xp_datagen::shakespeare::ShakespeareCorpus;
use xp_labelkit::dynamic::{copy_fragment, graft_fragment};
use xp_labelkit::InsertPos;
use xp_query::engine::Path;
use xp_query::queries::TEST_QUERIES;
use xp_query::{Evaluator, IntervalEvaluator};
use xp_server::{WireMutation, WirePos};
use xp_testkit::rng::{RngExt, SeedableRng, StdRng};
use xp_xmltree::{serialize, NodeId, XmlTree};

/// The URI every workload serves its document under.
pub const URI: &str = "bench.xml";

/// The corpus seed of the Fig. 15 experiments, so `paper_queries` serves
/// the same plays the repository's response-time figure measures.
const FIG15_SEED: u64 = 2004;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-2 Q1–Q9 over the replicated Shakespeare corpus, read only.
    PaperQueries,
    /// 95% reads / 5% mutations against `serve --cache`.
    MixedCached,
    /// 100% single-mutation requests over every region. Not listed in
    /// `BENCHMARK.json`: back-to-back writes spread its calibrated p50 by
    /// about 0.1 run to run on a shared 2-vCPU host, too close to the
    /// 0.25 bound to gate on. Run it by hand to see the write path alone.
    WriteStorm,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_queries" => Some(Workload::PaperQueries),
            "mixed_cached" => Some(Workload::MixedCached),
            "write_storm" => Some(Workload::WriteStorm),
            _ => None,
        }
    }

    /// The name `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQueries => "paper_queries",
            Workload::MixedCached => "mixed_cached",
            Workload::WriteStorm => "write_storm",
        }
    }

    /// Extra `xmlprime serve` flags.
    pub fn server_flags(self) -> &'static [&'static str] {
        match self {
            Workload::MixedCached => &["--cache"],
            _ => &[],
        }
    }
}

/// Sizes and rates. Operation counts scale with `--seconds`, so one budget
/// always sends the same number of requests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Shakespeare replicas served by `paper_queries`.
    pub replicas: usize,
    /// Regions of the multi-writer document.
    pub regions: usize,
    /// Initial elements per region.
    pub breadth: usize,
    /// `paper_queries`: rounds of Q1–Q9 per budget second.
    pub query_rounds_per_s: f64,
    /// `mixed_cached`: requests per budget second.
    pub mixed_ops_per_s: f64,
    /// `write_storm`: mutations per writer per budget second.
    pub storm_per_writer_per_s: f64,
    /// Mutations of the durability probe after a read-only window, per
    /// budget second.
    pub probe_mutations_per_s: f64,
    /// Passes over the hot path set in the query probe after a write-only
    /// window, per budget second.
    pub probe_passes_per_s: f64,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Kill-and-restart cycles per run (`recovery_s` is their median).
    pub recoveries: usize,
}

impl Scale {
    /// The measured configuration.
    pub fn full() -> Scale {
        Scale {
            replicas: 10,
            regions: 8,
            breadth: 2_500,
            query_rounds_per_s: 1.3,
            mixed_ops_per_s: 350.0,
            storm_per_writer_per_s: 35.0,
            probe_mutations_per_s: 3.0,
            probe_passes_per_s: 0.5,
            setups: 5,
            recoveries: 3,
        }
    }

    /// Toy sizes for the smoke self-test: every phase and check runs, in
    /// seconds.
    pub fn smoke() -> Scale {
        Scale {
            replicas: 1,
            regions: 4,
            breadth: 60,
            query_rounds_per_s: 4.0,
            mixed_ops_per_s: 60.0,
            storm_per_writer_per_s: 10.0,
            probe_mutations_per_s: 3.0,
            probe_passes_per_s: 0.5,
            setups: 2,
            recoveries: 2,
        }
    }
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// Evaluate `Plan::paths[i]`.
    Query(usize),
    /// Apply one mutation.
    Mutate(WireMutation),
}

/// Everything one run sends and checks, fixed before the clock starts.
#[derive(Debug)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The served document.
    pub xml: String,
    /// Its element count.
    pub elements: usize,
    /// Query texts `Op::Query` indexes into.
    pub paths: Vec<String>,
    /// Table-2 query id per path (`paper_queries` only).
    pub query_ids: Vec<&'static str>,
    /// The measured window, in send order, on one closed-loop connection:
    /// the server then runs one request at a time, and on a 2-vCPU host the
    /// calibration job between requests finds a core free. With two
    /// closed-loop connections both cores would be serving, and the job
    /// would time that contention instead of the host's speed.
    pub window: Vec<Op>,
    /// The verification probe after the window, sent on one connection.
    pub probe: Vec<Op>,
    /// Answers (arena indices) per path on the initial document, from the
    /// interval scheme; `paper_queries` only, which never mutates during
    /// its window.
    pub expected: Vec<Vec<u64>>,
    /// The document after every window and probe mutation, applied
    /// writer-major to a label-free tree.
    pub oracle_xml: String,
}

/// Builds the plan for one run.
pub fn plan(workload: Workload, seed: u64, seconds: f64, scale: &Scale) -> Plan {
    match workload {
        Workload::PaperQueries => paper_queries(seed, seconds, scale),
        Workload::MixedCached => mixed_cached(seed, seconds, scale),
        Workload::WriteStorm => write_storm(seed, seconds, scale),
    }
}

/// A count that scales with the budget, at least one.
fn per_budget(per_s: f64, seconds: f64) -> usize {
    ((per_s * seconds).round() as usize).max(1)
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn paper_queries(seed: u64, seconds: f64, scale: &Scale) -> Plan {
    let tree = ShakespeareCorpus::generate(scale.replicas, FIG15_SEED).tree;
    let xml = serialize::to_string(&tree);
    // Parse the text the server parses, so arena indices agree with it.
    let twin = parse(&xml);
    let paths: Vec<String> = TEST_QUERIES.iter().map(|q| q.path.to_string()).collect();
    let expected = answers(&twin, &paths);

    let mut rng = rng_for(seed, 1);
    let rounds = per_budget(scale.query_rounds_per_s, seconds);
    let mut stream = Vec::with_capacity(rounds * paths.len());
    for _ in 0..rounds {
        // Every round draws each query once, in a seeded order: the mix is
        // identical across seeds and only the interleaving moves.
        let mut round: Vec<usize> = (0..paths.len()).collect();
        rng.shuffle(&mut round);
        stream.extend(round.into_iter().map(Op::Query));
    }

    // The durability probe writes into the plays, one region per play.
    let plays: Vec<(NodeId, [String; 3])> = twin
        .element_children(twin.root())
        .map(|p| {
            (
                p,
                [
                    "SPEECH".to_string(),
                    "LINE".to_string(),
                    "SCENE".to_string(),
                ],
            )
        })
        .collect();
    let mut gen = MutationGen::new(twin, plays);
    let owned: Vec<usize> = (0..gen.regions.len()).collect();
    let probe = gen.stream(
        &mut rng_for(seed, 2),
        &owned,
        per_budget(scale.probe_mutations_per_s, seconds),
    );
    let elements = gen.initial_elements;

    Plan {
        workload: Workload::PaperQueries,
        elements,
        query_ids: TEST_QUERIES.iter().map(|q| q.id).collect(),
        window: stream,
        probe: probe.into_iter().map(Op::Mutate).collect(),
        expected,
        oracle_xml: serialize::to_string(&gen.tree),
        paths,
        xml,
    }
}

/// The multi-writer region document, its hot path set, and a mutation
/// generator over its regions.
fn region_doc(scale: &Scale) -> (String, Vec<String>, MutationGen) {
    let params = TraceParams {
        writers: scale.regions,
        steps_per_writer: 0,
        region_breadth: scale.breadth,
        seed: 0,
    };
    let xml = serialize::to_string(&multiwriter::initial_tree(&params));
    let twin = parse(&xml);
    let regions: Vec<(NodeId, [String; 3])> = (0..scale.regions)
        .map(|w| {
            let root = multiwriter::region_root(&twin, w).expect("every region has a root");
            (root, multiwriter::writer_tags(w))
        })
        .collect();
    let paths = (0..scale.regions)
        .flat_map(multiwriter::query_paths)
        .collect();
    (xml, paths, MutationGen::new(twin, regions))
}

fn mixed_cached(seed: u64, seconds: f64, scale: &Scale) -> Plan {
    let (xml, paths, mut gen) = region_doc(scale);
    let mut rng = rng_for(seed, 3);
    let total = per_budget(scale.mixed_ops_per_s, seconds).max(2);
    // Exactly 5% of the requests mutate, at seeded positions.
    let mut is_mutation = vec![false; total];
    let mut slots: Vec<usize> = (0..total).collect();
    rng.shuffle(&mut slots);
    let mut mutations_left = 0;
    for &s in slots.iter().take((total / 20).max(1)) {
        is_mutation[s] = true;
        mutations_left += 1;
    }
    // Mutations are generated on the twin, which is then the oracle.
    let owned: Vec<usize> = (0..scale.regions).collect();
    let mut mutations = gen
        .stream(&mut rng_for(seed, 10), &owned, mutations_left)
        .into_iter();
    let mut stream = Vec::with_capacity(total);
    for &mutate in &is_mutation {
        stream.push(if mutate {
            Op::Mutate(mutations.next().expect("one mutation per slot"))
        } else {
            Op::Query(rng.gen_range(0..paths.len()))
        });
    }
    Plan {
        workload: Workload::MixedCached,
        elements: gen.initial_elements,
        query_ids: Vec::new(),
        window: stream,
        probe: Vec::new(),
        expected: Vec::new(),
        oracle_xml: serialize::to_string(&gen.tree),
        paths,
        xml,
    }
}

fn write_storm(seed: u64, seconds: f64, scale: &Scale) -> Plan {
    let (xml, paths, mut gen) = region_doc(scale);
    let owned: Vec<usize> = (0..scale.regions).collect();
    let window = gen
        .stream(
            &mut rng_for(seed, 20),
            &owned,
            per_budget(scale.storm_per_writer_per_s, seconds),
        )
        .into_iter()
        .map(Op::Mutate)
        .collect();
    // The probe reads every hot path of the stormed document, uncached.
    let mut rng = rng_for(seed, 4);
    let mut probe = Vec::new();
    for _ in 0..per_budget(scale.probe_passes_per_s, seconds) {
        let mut pass: Vec<usize> = (0..paths.len()).collect();
        rng.shuffle(&mut pass);
        probe.extend(pass.into_iter().map(Op::Query));
    }
    Plan {
        workload: Workload::WriteStorm,
        elements: gen.initial_elements,
        query_ids: Vec::new(),
        window,
        probe,
        expected: Vec::new(),
        oracle_xml: serialize::to_string(&gen.tree),
        paths,
        xml,
    }
}

/// Parses a document the benchmark itself generated.
pub fn parse(xml: &str) -> XmlTree {
    xp_xmltree::parse(xml).expect("generated documents are well formed")
}

/// Answers to `paths` on `tree` from the interval scheme, as arena indices
/// in document order: an evaluator independent of the prime labels the
/// server answers from.
pub fn answers(tree: &XmlTree, paths: &[String]) -> Vec<Vec<u64>> {
    let ev = IntervalEvaluator::build(tree);
    paths.iter().map(|p| answer(&ev, p)).collect()
}

/// One path's answer from an interval evaluator, as arena indices.
pub fn answer(ev: &IntervalEvaluator, path: &str) -> Vec<u64> {
    let path = Path::parse(path).expect("benchmark paths parse");
    ev.eval(&path).iter().map(|n| n.index() as u64).collect()
}

// ------------------------------------------------------------ mutations

/// Mutation kinds, with their share of every 11 consecutive mutations of a
/// stream (insert-heavy, so regions grow; deletes and moves stay rare and
/// small).
const KIND_DECK: [Kind; 11] = [
    Kind::InsertBefore,
    Kind::InsertBefore,
    Kind::InsertBefore,
    Kind::AppendSubtree,
    Kind::AppendSubtree,
    Kind::AppendSubtree,
    Kind::SubtreeBefore,
    Kind::SubtreeBefore,
    Kind::Wrap,
    Kind::Delete,
    Kind::Move,
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    InsertBefore,
    AppendSubtree,
    SubtreeBefore,
    Wrap,
    Delete,
    Move,
}

/// Deletes and moves only take subtrees up to this many elements.
const SMALL_SUBTREE: usize = 8;

struct Region {
    root: NodeId,
    /// Initial elements still attached (never the region root).
    members: Vec<NodeId>,
    tags: [String; 3],
}

/// Draws mutations against a twin tree, applying each as it is drawn.
struct MutationGen {
    tree: XmlTree,
    regions: Vec<Region>,
    initial_elements: usize,
}

impl MutationGen {
    fn new(tree: XmlTree, roots: Vec<(NodeId, [String; 3])>) -> MutationGen {
        let regions = roots
            .into_iter()
            .map(|(root, tags)| Region {
                root,
                members: tree
                    .element_descendants(root)
                    .filter(|&n| n != root)
                    .collect(),
                tags,
            })
            .collect();
        let initial_elements = tree.elements().count();
        MutationGen {
            tree,
            regions,
            initial_elements,
        }
    }

    /// `n` mutations spread evenly over `owned` regions, kinds drawn from
    /// [`KIND_DECK`] in seeded order.
    fn stream(&mut self, rng: &mut StdRng, owned: &[usize], n: usize) -> Vec<WireMutation> {
        let mut out = Vec::with_capacity(n);
        let mut kinds = Vec::new();
        let mut order = Vec::new();
        for i in 0..n {
            if kinds.is_empty() {
                kinds = KIND_DECK.to_vec();
                rng.shuffle(&mut kinds);
            }
            if order.is_empty() {
                order = owned.to_vec();
                rng.shuffle(&mut order);
            }
            let kind = kinds.pop().expect("refilled above");
            let region = order.pop().expect("refilled above");
            let m = self.draw(rng, region, kind);
            apply_wire(&mut self.tree, &m)
                .unwrap_or_else(|e| panic!("mutation {i} invalid on the twin: {e}"));
            out.push(m);
        }
        out
    }

    fn draw(&mut self, rng: &mut StdRng, r: usize, kind: Kind) -> WireMutation {
        let tree = &self.tree;
        let region = &self.regions[r];
        let tag = region.tags[rng.gen_range(0..3)].clone();
        let idx = |n: NodeId| n.index() as u64;
        let member = |rng: &mut StdRng| rng.choose(&region.members).copied();
        let small = |rng: &mut StdRng| {
            (0..8).find_map(|_| {
                member(rng).filter(|&n| tree.element_descendants(n).nth(SMALL_SUBTREE).is_none())
            })
        };
        let append = |tag: &str| WireMutation::InsertSubtree {
            pos: WirePos::LastChildOf(idx(region.root)),
            xml: format!("<{tag}/>"),
        };
        match kind {
            Kind::InsertBefore => match member(rng) {
                Some(anchor) => WireMutation::InsertBefore {
                    anchor: idx(anchor),
                    tag,
                },
                None => append(&tag),
            },
            Kind::AppendSubtree => {
                let parent = member(rng).unwrap_or(region.root);
                WireMutation::InsertSubtree {
                    pos: WirePos::LastChildOf(idx(parent)),
                    xml: format!("<{tag}><{}/><{}/></{tag}>", region.tags[1], region.tags[2]),
                }
            }
            Kind::SubtreeBefore => match member(rng) {
                Some(anchor) => WireMutation::InsertSubtree {
                    pos: WirePos::Before(idx(anchor)),
                    xml: format!("<{tag}/>"),
                },
                None => append(&tag),
            },
            Kind::Wrap => match member(rng) {
                Some(target) => WireMutation::InsertParent {
                    target: idx(target),
                    tag,
                },
                None => append(&tag),
            },
            Kind::Delete => match small(rng) {
                Some(target) if region.members.len() > SMALL_SUBTREE * 4 => {
                    self.forget_subtree(r, target);
                    WireMutation::Delete {
                        target: idx(target),
                    }
                }
                _ => append(&tag),
            },
            Kind::Move => {
                let Some(target) = small(rng) else {
                    return append(&tag);
                };
                let inside: HashSet<NodeId> = tree.element_descendants(target).collect();
                let dest = (0..8).find_map(|_| member(rng).filter(|d| !inside.contains(d)));
                let pos = match dest {
                    Some(d) if rng.random_bool(0.5) => WirePos::Before(idx(d)),
                    Some(d) => WirePos::LastChildOf(idx(d)),
                    None => WirePos::LastChildOf(idx(region.root)),
                };
                // A move re-inserts a copy: the subtree's initial ids are gone.
                self.forget_subtree(r, target);
                WireMutation::MoveSubtree {
                    target: idx(target),
                    pos,
                }
            }
        }
    }

    fn forget_subtree(&mut self, r: usize, target: NodeId) {
        let gone: HashSet<NodeId> = self.tree.element_descendants(target).collect();
        self.regions[r].members.retain(|n| !gone.contains(n));
    }
}

fn node(tree: &XmlTree, index: u64) -> Result<NodeId, String> {
    usize::try_from(index)
        .ok()
        .and_then(|i| tree.node_at(i))
        .ok_or_else(|| format!("no node at arena index {index}"))
}

fn pos(tree: &XmlTree, p: WirePos) -> Result<InsertPos, String> {
    Ok(match p {
        WirePos::Before(i) => InsertPos::Before(node(tree, i)?),
        WirePos::LastChildOf(i) => InsertPos::LastChildOf(node(tree, i)?),
    })
}

/// Applies a mutation's structural effect to a bare tree, exactly as the
/// labeled store changes its tree: the same arena slots are allocated in
/// the same order, and a move re-inserts a copy with fresh ids.
pub fn apply_wire(tree: &mut XmlTree, m: &WireMutation) -> Result<(), String> {
    match m {
        WireMutation::InsertBefore { anchor, tag } => {
            let anchor = node(tree, *anchor)?;
            let new = tree.create_element(tag.clone());
            tree.insert_before(anchor, new);
        }
        WireMutation::InsertSubtree { pos: p, xml } => {
            let p = pos(tree, *p)?;
            let fragment = xp_xmltree::parse(xml).map_err(|e| e.to_string())?;
            graft_fragment(tree, p, &fragment);
        }
        WireMutation::InsertParent { target, tag } => {
            let target = node(tree, *target)?;
            tree.wrap_with_parent(target, tag.clone());
        }
        WireMutation::Delete { target } => {
            let target = node(tree, *target)?;
            tree.detach(target);
        }
        WireMutation::MoveSubtree { target, pos: p } => {
            let target = node(tree, *target)?;
            let p = pos(tree, *p)?;
            let fragment = copy_fragment(tree, target);
            tree.detach(target);
            graft_fragment(tree, p, &fragment);
        }
    }
    Ok(())
}
