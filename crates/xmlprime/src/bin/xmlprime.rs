//! `xmlprime` — a command-line front end to the labeling library.
//!
//! ```text
//! xmlprime stats  <file.xml>
//! xmlprime label  <file.xml> [--scheme S] [--limit N]
//! xmlprime query  <file.xml> <path> [--scheme S]
//! xmlprime order  <file.xml> [--chunk N]
//! xmlprime update <file.xml> <node#> (--tag T | --xml F) [--scheme S]
//! xmlprime delete <file.xml> <node#> [--scheme S]
//! xmlprime move   <file.xml> <node#> (before|child-of) <node#> [--scheme S]
//! xmlprime save   <file.xml> --store <dir> [--uri U] [--chunk N]
//! xmlprime load   --store <dir> [--uri U]
//! xmlprime fsck   --store <dir>
//! xmlprime serve  --store <dir> [--tcp ADDR] [--unix PATH]
//! xmlprime remote (--tcp ADDR | --unix PATH) <op> [...]
//! ```
//!
//! `<file.xml>` may be `-` for stdin. Schemes: `prime` (default),
//! `prime-opt`, `interval`, `prefix1`, `prefix2`, `dewey`, `float`.
//! The mutation commands run through the unified [`LabeledStore`] dynamic
//! API and print the relabel cost the scheme actually paid.

use std::io::Read;
use std::process::ExitCode;
use xmlprime::prelude::*;
use xmlprime::query::engine::QueryError;
use xmlprime::xmltree::{ParseError, ParseErrorKind};

const USAGE: &str = "\
xmlprime — prime-number labeling for dynamic ordered XML trees

USAGE:
    xmlprime stats  <file.xml>
    xmlprime label  <file.xml> [--scheme S] [--limit N]
    xmlprime query  <file.xml> <path> [--scheme prime|interval|prefix2]
                    [--explain]  print the evaluation plan first
                    [--sql]      print the paper's SQL translation instead
    xmlprime order  <file.xml> [--chunk N]
    xmlprime update <file.xml> <node#> [--scheme S] [--chunk N] [--gap G]
                    [--shards auto|D]
                    --tag T [--before | --child | --parent]
                    --xml '<frag/>' [--before | --child]
    xmlprime delete <file.xml> <node#> [--scheme S] [--chunk N] [--gap G]
                    [--shards auto|D]
    xmlprime move   <file.xml> <node#> (before|child-of) <node#>
                    [--scheme S] [--chunk N] [--gap G] [--shards auto|D]
    xmlprime save   <file.xml> --store <dir> [--uri U] [--chunk N]
    xmlprime load   --store <dir> [--uri U]
    xmlprime fsck   --store <dir>
    xmlprime serve  --store <dir> [--tcp ADDR] [--unix PATH]
                    [--batch N] [--checkpoint-after N]
                    [--cache] [--cache-capacity N]
    xmlprime remote (--tcp ADDR | --unix PATH) <op> [...]
                    ops: ping | docs | stats | query <uri> <path> |
                    insert <uri> <node@> --tag T [--child] |
                    delete <uri> <node@> | shutdown

    <file.xml> may be '-' to read from stdin.
    <node#> is the 1-based document-order element index (see `label`).

MUTATIONS:
    update --tag T --before    new element T before node (default)
    update --tag T --child     new element T as node's last child
    update --tag T --parent    wrap node's subtree in a new element T
    update --xml F             parse fragment F and insert it at the position
    delete                     remove the node's subtree
    move   before <n>          move the subtree before element n
    move   child-of <n>        move the subtree to be element n's last child

    `--scheme` picks the dynamic scheme (prime|interval|prefix1|prefix2|
    dewey|float); `--chunk N` sets the prime SC chunk (default 5); `--gap G`
    labels the interval scheme with spare room between ranks (default dense).
    The exit report shows inserted/relabeled/removed label counts plus SC
    side updates — the scheme's true update cost.

    `--shards auto|D` (prime only) routes the mutation through the §3.2
    shard facade: the document is cut into decomposition subtrees every D
    levels (auto picks D from the document size; small documents stay
    unsharded) and only the touched shard's labels move. The report adds a
    line showing live shard count and how many shards the mutation dirtied.

PERSISTENCE:
    save    label a document with the prime scheme and add it to a
            crash-safe on-disk store (created on first use); the URI
            defaults to the file name
    load    without --uri, list the store's documents; with --uri,
            serialize the stored (possibly mutated) document to stdout
    fsck    read-only integrity check of a store directory: manifest,
            checkpoint segments, WAL replay, and the full labeling
            consistency suite; exits 6 on corruption, repairs nothing
    serve   open (or create) a store and serve it over TCP and/or a
            Unix socket until a client sends shutdown; --batch caps the
            group-commit window (mutations per fsync, default 256)
    remote  one-shot client operations against a running server;
            <node@> is the arena index reported by `remote query`

EXIT CODES:
    0 ok · 1 usage · 2 input · 3 limit · 4 label · 5 query ·
    6 corrupt store

SCHEMES (for `label`):
    prime       top-down prime scheme, no optimizations (default)
    prime-opt   with Opt1 (reserved primes) + Opt2 (2^n leaves)
    interval    XISS-style (order, size) intervals
    prefix1     basic binary prefix labels
    prefix2     Cohen-Kaplan-Milo optimized prefix labels
    dewey       Dewey sibling-ordinal vectors
    float       QRS floating-point intervals

EXAMPLES:
    xmlprime stats corpus.xml
    xmlprime label corpus.xml --scheme prime-opt --limit 20
    xmlprime query corpus.xml '//PLAY//ACT[3]//LINE' --scheme interval
    echo '<a><b/><c/></a>' | xmlprime order - --chunk 5
";

/// A classified CLI failure: each class maps to a distinct exit code so
/// scripts can tell bad invocations, bad input, exceeded resource budgets,
/// labeling failures, and query failures apart.
enum CliError {
    /// Exit 1: bad command line.
    Usage(String),
    /// Exit 2: input could not be read or parsed.
    Input(String),
    /// Exit 3: a resource limit was exceeded (parser limits, bignum
    /// bit budget, query row/step budget).
    Limit(String),
    /// Exit 4: labeling or SC-table maintenance failed.
    Label(String),
    /// Exit 5: query evaluation failed.
    Query(String),
    /// Exit 6: an on-disk store is corrupt (bad magic, failed checksum,
    /// sequence gap, labels and SC table that disagree, or a recovered
    /// document failing consistency checks).
    Corrupt(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(match self {
            CliError::Usage(_) => 1,
            CliError::Input(_) => 2,
            CliError::Limit(_) => 3,
            CliError::Label(_) => 4,
            CliError::Query(_) => 5,
            CliError::Corrupt(_) => 6,
        })
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Input(m)
            | CliError::Limit(m)
            | CliError::Label(m)
            | CliError::Query(m)
            | CliError::Corrupt(m) => m,
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parser failures: limit violations get the limit exit code, everything
/// else is an input error.
fn classify_parse(file: &str, e: ParseError) -> CliError {
    match e.kind {
        ParseErrorKind::LimitExceeded(_) => CliError::Limit(format!("{file}: {e}")),
        _ => CliError::Input(format!("{file}: parse error at {e}")),
    }
}

/// Labeling failures: budget violations get the limit exit code.
fn classify_label(e: xmlprime::prime::Error) -> CliError {
    use xmlprime::prime::sc::ScError;
    match &e {
        xmlprime::prime::Error::Budget(_)
        | xmlprime::prime::Error::Sc(ScError::Budget(_)) => CliError::Limit(e.to_string()),
        _ => CliError::Label(e.to_string()),
    }
}

/// Query failures: budget violations get the limit exit code.
fn classify_query(e: QueryError) -> CliError {
    match &e {
        QueryError::LimitExceeded(_) => CliError::Limit(e.to_string()),
        _ => CliError::Query(e.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            if matches!(e, CliError::Usage(_)) {
                eprintln!("\n{USAGE}");
            }
            e.exit_code()
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(usage("missing command"));
    };
    match command.as_str() {
        "stats" => cmd_stats(&args[1..]),
        "label" => cmd_label(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "order" => cmd_order(&args[1..]),
        "update" => cmd_update(&args[1..]),
        "delete" => cmd_delete(&args[1..]),
        "move" => cmd_move(&args[1..]),
        "save" => cmd_save(&args[1..]),
        "load" => cmd_load(&args[1..]),
        "fsck" => cmd_fsck(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "remote" => cmd_remote(&args[1..]),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(usage(format!("unknown command {other:?}"))),
    }
}

/// Reads the document argument (`-` = stdin) and parses it.
fn load(path: &str) -> Result<XmlTree, CliError> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Input(format!("stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?
    };
    parse(&text).map_err(|e| classify_parse(path, e))
}

/// Pulls `--flag value` out of an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(|s| s.as_str())
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["--explain", "--sql", "--before", "--child", "--parent", "--cache"];

fn positional(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !BOOL_FLAGS.contains(&a.as_str());
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    let [file] = pos[..] else {
        return Err(usage("stats takes exactly one file"));
    };
    let tree = load(file)?;
    let s = TreeStats::compute(&tree);
    println!("elements:    {}", s.node_count);
    println!("max depth:   {}", s.max_depth);
    println!("max fan-out: {}", s.max_fanout);
    println!("leaves:      {} ({:.0}%)", s.leaf_count, 100.0 * s.leaf_fraction());
    println!("avg depth:   {:.2}", s.avg_depth);
    println!("levels:      {:?}", s.level_counts);
    println!("tags:");
    for (tag, count) in &s.tag_histogram {
        println!("  {tag:20} {count}");
    }
    Ok(())
}

fn cmd_label(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    let [file] = pos[..] else {
        return Err(usage("label takes exactly one file"));
    };
    let tree = load(file)?;
    let scheme = flag_value(args, "--scheme").unwrap_or("prime");
    let limit: usize = match flag_value(args, "--limit") {
        Some(v) => v.parse().map_err(|_| usage(format!("bad --limit {v:?}")))?,
        None => usize::MAX,
    };

    fn show<L: LabelOps + std::fmt::Debug>(
        tree: &XmlTree,
        doc: &LabeledDoc<L>,
        limit: usize,
        render: impl Fn(&L) -> String,
    ) {
        for (node, label) in doc.iter().take(limit) {
            let depth = tree.depth(node);
            println!(
                "{:indent$}{:12} {:>4} bits  {}",
                "",
                tree.tag(node).unwrap_or("?"),
                label.size_bits(),
                render(label),
                indent = depth * 2,
            );
        }
        let stats = doc.size_stats();
        println!(
            "\n{} labels; max {} bits, avg {:.1} bits",
            stats.count, stats.max_bits, stats.avg_bits()
        );
    }

    match scheme {
        "prime" => show(&tree, &TopDownPrime::unoptimized().label(&tree), limit, |l| {
            format!("{} (self {})", l.value(), l.self_label())
        }),
        "prime-opt" => show(&tree, &TopDownPrime::optimized().label(&tree), limit, |l| {
            format!("{} (self {})", l.value(), l.self_label())
        }),
        "interval" => show(&tree, &IntervalScheme::dense().label(&tree), limit, |l| {
            format!("[{}, {}]", l.order, l.order + l.size)
        }),
        "prefix1" => {
            show(&tree, &Prefix1Scheme.label(&tree), limit, |l| l.bits().to_string())
        }
        "prefix2" => {
            show(&tree, &Prefix2Scheme.label(&tree), limit, |l| l.bits().to_string())
        }
        "dewey" => show(&tree, &DeweyScheme.label(&tree), limit, |l| l.to_string()),
        "float" => show(
            &tree,
            &xmlprime::baselines::FloatIntervalScheme.label(&tree),
            limit,
            |l| format!("[{:.6}, {:.6})", l.start, l.end),
        ),
        other => return Err(usage(format!("unknown scheme {other:?}"))),
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    let [file, path] = pos[..] else {
        return Err(usage("query takes a file and a path"));
    };
    let tree = load(file)?;
    let parsed = Path::parse(path).map_err(|e| usage(format!("{path:?}: {e}")))?;
    let scheme = flag_value(args, "--scheme").unwrap_or("prime");

    if args.iter().any(|a| a == "--sql") {
        use xmlprime::query::sql::{to_sql, SqlScheme};
        let s = match scheme {
            "prime" => SqlScheme::Prime,
            "interval" => SqlScheme::Interval,
            "prefix2" => SqlScheme::Prefix,
            other => return Err(usage(format!("unknown scheme {other:?}"))),
        };
        println!("-- {scheme} translation of {path}\n{}", to_sql(&parsed, s));
        return Ok(());
    }

    let explain = args.iter().any(|a| a == "--explain");
    let result = match scheme {
        "prime" => {
            let ev = PrimeEvaluator::try_build(&tree, 5).map_err(classify_label)?;
            if explain {
                print!("{}", xmlprime::query::plan::Plan::of(ev.table(), &parsed).render());
            }
            ev.try_eval(&parsed).map_err(classify_query)?
        }
        "interval" => {
            let ev = IntervalEvaluator::build(&tree);
            if explain {
                print!("{}", xmlprime::query::plan::Plan::of(ev.table(), &parsed).render());
            }
            ev.try_eval(&parsed).map_err(classify_query)?
        }
        "prefix2" => {
            let ev = Prefix2Evaluator::build(&tree);
            if explain {
                print!("{}", xmlprime::query::plan::Plan::of(ev.table(), &parsed).render());
            }
            ev.try_eval(&parsed).map_err(classify_query)?
        }
        other => {
            return Err(usage(format!(
                "unknown scheme {other:?} (query supports prime|interval|prefix2)"
            )))
        }
    };
    if explain {
        println!();
    }
    for &node in &result {
        let ancestry: Vec<&str> = {
            let mut chain: Vec<&str> =
                tree.ancestors(node).filter_map(|a| tree.tag(a)).collect();
            chain.reverse();
            chain
        };
        println!(
            "{}{}{}",
            ancestry.join("/"),
            if ancestry.is_empty() { "" } else { "/" },
            tree.tag(node).unwrap_or("?"),
        );
    }
    println!("\n{} node(s) matched", result.len());
    Ok(())
}

fn cmd_order(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    let [file] = pos[..] else {
        return Err(usage("order takes exactly one file"));
    };
    let tree = load(file)?;
    let chunk: usize = match flag_value(args, "--chunk") {
        Some(v) => v.parse().map_err(|_| usage(format!("bad --chunk {v:?}")))?,
        None => 5,
    };
    let doc = OrderedPrimeDoc::build(&tree, chunk).map_err(classify_label)?;
    println!(
        "SC table: {} record(s) covering {} node(s), chunk capacity {chunk}",
        doc.sc_table().record_count(),
        doc.sc_table().len(),
    );
    for (i, rec) in doc.sc_table().records().iter().enumerate() {
        println!(
            "  record {i}: {} member(s), max self-label {}, SC = {}",
            rec.len(),
            rec.max_self_label(),
            rec.sc(),
        );
    }
    println!("\nnode orders (SC mod self-label):");
    for node in tree.elements().take(30) {
        println!(
            "  {:3}  {:12} self {}",
            doc.order_of(node),
            tree.tag(node).unwrap_or("?"),
            doc.labels().label(node).self_label(),
        );
    }
    if tree.elements().count() > 30 {
        println!("  … ({} more)", tree.elements().count() - 30);
    }
    Ok(())
}

/// Dynamic-mutation failures: bad node references are usage errors (the
/// numbers came from the command line), fragment problems are input
/// errors, and scheme-side failures reuse the labeling classification.
fn classify_dynamic(e: DynamicError) -> CliError {
    match e {
        DynamicError::UnknownNode(_)
        | DynamicError::RootTarget(_)
        | DynamicError::MoveIntoSelf { .. } => CliError::Usage(e.to_string()),
        DynamicError::Fragment(m) => CliError::Input(format!("fragment: {m}")),
        DynamicError::Scheme(inner) => match inner.downcast::<xmlprime::prime::Error>() {
            Ok(prime_err) => classify_label(*prime_err),
            Err(other) => CliError::Label(other.to_string()),
        },
    }
}

/// Resolves a 1-based document-order element index from the CLI.
fn nth_element(tree: &XmlTree, spec: &str) -> Result<NodeId, CliError> {
    let n: usize = spec
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| usage(format!("bad node number {spec:?} (1-based integer)")))?;
    tree.elements().nth(n - 1).ok_or_else(|| {
        usage(format!("node {n} out of range: document has {} elements", tree.elements().count()))
    })
}

/// Shared flags of the mutation commands.
struct MutationOpts {
    scheme: String,
    chunk: usize,
    gap: Option<u64>,
    shards: Option<ShardsFlag>,
}

/// Value of `--shards`: an explicit cut depth or size-based auto-pick.
enum ShardsFlag {
    Auto,
    CutDepth(usize),
}

impl ShardsFlag {
    fn policy(&self, node_count: usize) -> ShardPolicy {
        match self {
            ShardsFlag::Auto => ShardPolicy::auto(node_count),
            ShardsFlag::CutDepth(d) => ShardPolicy::at_depth(*d),
        }
    }
}

fn mutation_opts(args: &[String]) -> Result<MutationOpts, CliError> {
    let scheme = flag_value(args, "--scheme").unwrap_or("prime").to_string();
    let chunk = match flag_value(args, "--chunk") {
        Some(v) => v.parse().map_err(|_| usage(format!("bad --chunk {v:?}")))?,
        None => 5,
    };
    let gap = match flag_value(args, "--gap") {
        Some(v) => Some(v.parse().map_err(|_| usage(format!("bad --gap {v:?}")))?),
        None => None,
    };
    let shards = match flag_value(args, "--shards") {
        Some("auto") => Some(ShardsFlag::Auto),
        Some(v) => match v.parse::<usize>() {
            Ok(d) if d >= 1 => Some(ShardsFlag::CutDepth(d)),
            _ => return Err(usage(format!("bad --shards {v:?} (want 'auto' or a depth >= 1)"))),
        },
        None => None,
    };
    if shards.is_some() && scheme != "prime" {
        return Err(usage("--shards only applies to the prime scheme"));
    }
    Ok(MutationOpts { scheme, chunk, gap, shards })
}

/// Builds a store for one dynamic scheme, applies the mutation, and
/// reports `(report, labels now in the store)`.
fn apply_mutation<S: DynamicScheme>(
    scheme: S,
    tree: XmlTree,
    mutation: &Mutation,
) -> Result<(RelabelReport, usize), CliError> {
    let mut store = LabeledStore::build(scheme, tree).map_err(classify_dynamic)?;
    let report = store.apply(mutation).map_err(classify_dynamic)?;
    let labels = store.doc().len();
    Ok((report, labels))
}

/// The `--shards` path: the same mutation, routed through the shard
/// facade so only the touched shard's labels move; reports how many
/// shards the mutation dirtied, those a relabeled stub cascaded into
/// included.
fn apply_mutation_sharded(
    opts: &MutationOpts,
    flag: &ShardsFlag,
    tree: XmlTree,
    mutation: &Mutation,
) -> Result<(), CliError> {
    let policy = flag.policy(tree.len());
    let scheme = ShardedScheme::new(DynamicPrime::new(opts.chunk), policy);
    let mut store = LabeledStore::build(scheme, tree).map_err(classify_dynamic)?;
    let report = store.apply(mutation).map_err(classify_dynamic)?;
    let labels = store.doc().len();
    let dirty = take_dirty_shards(&mut store);
    print_report(&report, labels);
    println!(
        "shards:       {} live (cut depth {}), {} dirtied by this mutation",
        store.state().live_count(),
        policy.cut_depth,
        dirty.len(),
    );
    Ok(())
}

fn print_report(report: &RelabelReport, labels: usize) {
    println!("inserted:     {}", report.inserted.len());
    println!("relabeled:    {}", report.relabeled.len());
    println!("removed:      {}", report.removed.len());
    println!("side updates: {} (SC records)", report.side_updates);
    println!("total cost:   {}", report.total_cost());
    println!("labels now:   {labels}");
}

fn dispatch_mutation(
    opts: &MutationOpts,
    tree: XmlTree,
    mutation: &Mutation,
) -> Result<(), CliError> {
    if let Some(flag) = &opts.shards {
        return apply_mutation_sharded(opts, flag, tree, mutation);
    }
    let (report, labels) = match opts.scheme.as_str() {
        "prime" => apply_mutation(DynamicPrime::new(opts.chunk), tree, mutation)?,
        "interval" => match opts.gap {
            Some(g) if g >= 1 => apply_mutation(IntervalScheme::with_gap(g), tree, mutation)?,
            Some(g) => return Err(usage(format!("--gap must be >= 1, got {g}"))),
            None => apply_mutation(IntervalScheme::dense(), tree, mutation)?,
        },
        "prefix1" => apply_mutation(Prefix1Scheme, tree, mutation)?,
        "prefix2" => apply_mutation(Prefix2Scheme, tree, mutation)?,
        "dewey" => apply_mutation(DeweyScheme, tree, mutation)?,
        "float" => apply_mutation(FloatIntervalScheme, tree, mutation)?,
        other => {
            return Err(usage(format!(
                "unknown scheme {other:?} (mutations support prime|interval|prefix1|prefix2|dewey|float)"
            )))
        }
    };
    print_report(&report, labels);
    Ok(())
}

fn cmd_update(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    let [file, node] = pos[..] else {
        return Err(usage("update takes a file and a node number"));
    };
    let tree = load(file)?;
    let target = nth_element(&tree, node)?;
    let opts = mutation_opts(args)?;
    let as_parent = args.iter().any(|a| a == "--parent");
    let as_child = args.iter().any(|a| a == "--child");
    let mutation = match (flag_value(args, "--tag"), flag_value(args, "--xml")) {
        (Some(tag), None) => {
            if as_parent {
                Mutation::InsertParent { target, tag: tag.to_string() }
            } else if as_child {
                Mutation::InsertSubtree {
                    pos: InsertPos::LastChildOf(target),
                    xml: format!("<{tag}/>"),
                }
            } else {
                Mutation::InsertBefore { anchor: target, tag: tag.to_string() }
            }
        }
        (None, Some(xml)) => {
            if as_parent {
                return Err(usage("--parent requires --tag, not --xml"));
            }
            let pos =
                if as_child { InsertPos::LastChildOf(target) } else { InsertPos::Before(target) };
            Mutation::InsertSubtree { pos, xml: xml.to_string() }
        }
        _ => return Err(usage("update needs exactly one of --tag or --xml")),
    };
    dispatch_mutation(&opts, tree, &mutation)
}

fn cmd_delete(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    let [file, node] = pos[..] else {
        return Err(usage("delete takes a file and a node number"));
    };
    let tree = load(file)?;
    let target = nth_element(&tree, node)?;
    let opts = mutation_opts(args)?;
    dispatch_mutation(&opts, tree, &Mutation::Delete { target })
}

fn cmd_move(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    let [file, node, mode, dest] = pos[..] else {
        return Err(usage("move takes a file, a node number, 'before' or 'child-of', and a destination node number"));
    };
    let tree = load(file)?;
    let target = nth_element(&tree, node)?;
    let dest = nth_element(&tree, dest)?;
    let insert_pos = match mode {
        "before" => InsertPos::Before(dest),
        "child-of" => InsertPos::LastChildOf(dest),
        other => return Err(usage(format!("bad move mode {other:?} (before|child-of)"))),
    };
    let opts = mutation_opts(args)?;
    dispatch_mutation(&opts, tree, &Mutation::MoveSubtree { target, pos: insert_pos })
}

/// Store failures: anything the recovery layer flags as on-disk damage —
/// persisted labels and SC table that disagree included — gets the
/// dedicated corruption exit code; URI clashes are usage errors (the URI
/// came from the command line); plain I/O failures are input errors; a
/// failed live mutation reuses the dynamic classification.
fn classify_store(e: xmlprime::store::StoreError) -> CliError {
    use xmlprime::store::StoreError;
    match e {
        StoreError::Corrupt { .. }
        | StoreError::Codec(_)
        | StoreError::Snapshot(_)
        | StoreError::Scheme(_)
        | StoreError::NotAStore(_) => CliError::Corrupt(e.to_string()),
        StoreError::DuplicateUri(_) | StoreError::UnknownUri(_) => CliError::Usage(e.to_string()),
        StoreError::FrameTooLarge { .. } => CliError::Limit(e.to_string()),
        StoreError::Io { .. } | StoreError::FaultInjected(_) | StoreError::WalPoisoned { .. } => {
            CliError::Input(e.to_string())
        }
        StoreError::Dynamic(inner) => classify_dynamic(inner),
    }
}

/// The mandatory `--store <dir>` flag of the persistence commands.
fn store_dir(args: &[String]) -> Result<std::path::PathBuf, CliError> {
    flag_value(args, "--store")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| usage("missing --store <dir>"))
}

/// Reads the document argument (`-` = stdin) as raw text.
fn read_text(path: &str) -> Result<String, CliError> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Input(format!("stdin: {e}")))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| CliError::Input(format!("{path}: {e}")))
    }
}

fn cmd_save(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    let [file] = pos[..] else {
        return Err(usage("save takes exactly one file"));
    };
    let dir = store_dir(args)?;
    let uri = flag_value(args, "--uri").unwrap_or(file);
    if uri == "-" {
        return Err(usage("reading from stdin requires an explicit --uri"));
    }
    let chunk: usize = match flag_value(args, "--chunk") {
        Some(v) => v.parse().map_err(|_| usage(format!("bad --chunk {v:?}")))?,
        None => 5,
    };
    let xml = read_text(file)?;
    // Parse locally first so malformed input gets the parse-error exit
    // code (and message) instead of surfacing through the store.
    parse(&xml).map_err(|e| classify_parse(file, e))?;
    let mut store = if dir.join(xmlprime::store::MANIFEST_FILE).exists() {
        xmlprime::store::Store::open(&dir).map_err(classify_store)?
    } else {
        xmlprime::store::Store::create(&dir).map_err(classify_store)?
    };
    let doc_id = store.add_document(uri, &xml, chunk).map_err(classify_store)?;
    let doc = store.doc(uri).expect("document was just added");
    println!(
        "saved {uri:?} as doc {doc_id} ({} elements, chunk {chunk}) in {}",
        doc.tree().elements().count(),
        dir.display(),
    );
    Ok(())
}

fn cmd_load(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    if !pos.is_empty() {
        return Err(usage("load takes no positional arguments"));
    }
    let dir = store_dir(args)?;
    let store = xmlprime::store::Store::open(&dir).map_err(classify_store)?;
    match flag_value(args, "--uri") {
        Some(uri) => {
            let doc = store
                .doc(uri)
                .ok_or_else(|| usage(format!("store has no document {uri:?}")))?;
            print!("{}", xmlprime::xmltree::serialize::to_string_pretty(doc.tree(), 2));
        }
        None => {
            for doc in store.docs() {
                println!(
                    "{:40} doc {} epoch {} seq {} ({} elements)",
                    doc.uri(),
                    doc.doc_id(),
                    doc.epoch(),
                    doc.seq(),
                    doc.tree().elements().count(),
                );
            }
        }
    }
    Ok(())
}

fn cmd_fsck(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    if !pos.is_empty() {
        return Err(usage("fsck takes no positional arguments"));
    }
    let dir = store_dir(args)?;
    let report = xmlprime::store::fsck(&dir).map_err(classify_store)?;
    println!("store {} is consistent", dir.display());
    println!("documents:      {}", report.docs);
    println!("WAL frames:     {}", report.wal_frames);
    println!("  replayable:   {}", report.replayed);
    println!("torn tail:      {} byte(s)", report.torn_tail_bytes);
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let pos = positional(args);
    if !pos.is_empty() {
        return Err(usage("serve takes no positional arguments"));
    }
    let dir = store_dir(args)?;
    let store = if dir.join(xmlprime::store::MANIFEST_FILE).exists() {
        xmlprime::store::Store::open(&dir).map_err(classify_store)?
    } else {
        xmlprime::store::Store::create(&dir).map_err(classify_store)?
    };
    let doc_count = store.docs().count();

    let tcp = flag_value(args, "--tcp").map(String::from);
    let unix = flag_value(args, "--unix").map(std::path::PathBuf::from);
    let listen = xmlprime::server::ListenConfig {
        // With no listener flags at all, bind an ephemeral local TCP port
        // (printed below) rather than refusing to start.
        tcp: if tcp.is_none() && unix.is_none() { Some("127.0.0.1:0".into()) } else { tcp },
        unix,
    };

    let mut policy = xmlprime::server::BatchPolicy::default();
    if let Some(v) = flag_value(args, "--batch") {
        policy.max_mutations = v
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| usage(format!("bad --batch {v:?} (integer >= 1)")))?;
    }
    if let Some(v) = flag_value(args, "--checkpoint-after") {
        policy.checkpoint_after =
            Some(v.parse().map_err(|_| usage(format!("bad --checkpoint-after {v:?}")))?);
    }

    let cache_capacity = match flag_value(args, "--cache-capacity") {
        Some(v) => Some(
            v.parse()
                .ok()
                .filter(|&n: &usize| n >= 1)
                .ok_or_else(|| usage(format!("bad --cache-capacity {v:?} (integer >= 1)")))?,
        ),
        None if args.iter().any(|a| a == "--cache") => {
            Some(xmlprime::query::cache::DEFAULT_CACHE_CAPACITY)
        }
        None => None,
    };

    let handle = match cache_capacity {
        Some(cap) => xmlprime::server::serve_with_cache(store, listen, policy, cap),
        None => xmlprime::server::serve(store, listen, policy),
    }
    .map_err(|e| CliError::Input(format!("serve: {e}")))?;
    if cache_capacity.is_some() {
        println!("query-result cache enabled");
    }
    if let Some(addr) = handle.tcp_addr() {
        println!("listening on tcp://{addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("listening on unix:{}", path.display());
    }
    println!("serving {doc_count} document(s) from {}", dir.display());
    println!("stop with: xmlprime remote --tcp <addr> shutdown");

    // Blocks until a client sends Shutdown; the store comes back so a
    // final checkpoint folds the WAL tail into segments before exit.
    if let Some(mut store) = handle.wait() {
        store.checkpoint_all().map_err(classify_store)?;
        println!("server stopped; store checkpointed");
    }
    Ok(())
}

/// Client-side failures: typed server errors keep their CLI exit class
/// (a bad path is still a query error, a budget refusal still a limit);
/// transport problems are input errors.
fn classify_client(e: xmlprime::server::ClientError) -> CliError {
    use xmlprime::server::protocol::ErrCode;
    use xmlprime::server::ClientError as Ce;
    match e {
        Ce::Server { code, msg } => {
            let msg = format!("server: {msg}");
            match code {
                ErrCode::BadPath => CliError::Query(msg),
                ErrCode::QueryLimit => CliError::Limit(msg),
                ErrCode::UnknownDoc | ErrCode::BadRequest => CliError::Usage(msg),
                ErrCode::Internal => CliError::Input(msg),
            }
        }
        other => CliError::Input(other.to_string()),
    }
}

/// The `--tcp`/`--unix` connection flags of `remote`.
fn remote_connect(args: &[String]) -> Result<xmlprime::server::Client, CliError> {
    match (flag_value(args, "--tcp"), flag_value(args, "--unix")) {
        (Some(addr), None) => xmlprime::server::Client::connect_tcp(addr).map_err(classify_client),
        (None, Some(path)) => {
            xmlprime::server::Client::connect_unix(std::path::Path::new(path))
                .map_err(classify_client)
        }
        _ => Err(usage("remote needs exactly one of --tcp ADDR or --unix PATH")),
    }
}

/// Parses the `<node@>` operand of `remote insert`/`remote delete`: an
/// arena slot index as reported by `remote query`.
fn arena_slot(spec: &str) -> Result<u64, CliError> {
    spec.parse().map_err(|_| usage(format!("bad node {spec:?} (arena index from `remote query`)")))
}

fn print_apply(applied: &xmlprime::server::client::Applied) -> Result<(), CliError> {
    for result in &applied.results {
        match result {
            Ok(cost) => println!("applied ({cost} label(s) touched)"),
            Err(msg) => return Err(CliError::Label(format!("server rejected mutation: {msg}"))),
        }
    }
    println!("epoch {} seq {}", applied.epoch, applied.seq);
    Ok(())
}

fn cmd_remote(args: &[String]) -> Result<(), CliError> {
    use xmlprime::server::{WireMutation, WirePos};
    let pos = positional(args);
    let Some((&op, rest)) = pos.split_first() else {
        return Err(usage("remote needs an operation"));
    };
    let mut client = remote_connect(args)?;
    match (op, rest) {
        ("ping", []) => {
            client.ping().map_err(classify_client)?;
            println!("pong");
        }
        ("docs", []) => {
            for d in client.docs().map_err(classify_client)? {
                println!(
                    "{:40} epoch {} seq {} ({} elements)",
                    d.uri, d.epoch, d.seq, d.elements
                );
            }
        }
        ("stats", []) => {
            let s = client.stats().map_err(classify_client)?;
            println!("epochs published:     {}", s.epochs);
            println!("mutations applied:    {}", s.applied);
            println!("mutations failed:     {}", s.failed);
            println!("WAL fsyncs:           {}", s.wal_fsyncs);
            println!("snapshots reclaimed:  {}", s.snapshots_reclaimed);
            println!("snapshots cloned:     {}", s.snapshots_cloned);
            println!("cache hits:           {}", s.cache_hits);
            println!("cache misses:         {}", s.cache_misses);
            println!("cache invalidated:    {}", s.cache_invalidated);
        }
        ("query", [uri, path]) => {
            let hits = client.query(uri, path).map_err(classify_client)?;
            for n in &hits.nodes {
                println!("node@{n}");
            }
            println!("{} node(s) matched at epoch {} seq {}", hits.nodes.len(), hits.epoch, hits.seq);
        }
        ("insert", [uri, node]) => {
            let slot = arena_slot(node)?;
            let tag = flag_value(args, "--tag")
                .ok_or_else(|| usage("remote insert needs --tag T"))?;
            let mutation = if args.iter().any(|a| a == "--child") {
                WireMutation::InsertSubtree {
                    pos: WirePos::LastChildOf(slot),
                    xml: format!("<{tag}/>"),
                }
            } else {
                WireMutation::InsertBefore { anchor: slot, tag: tag.to_string() }
            };
            let applied = client.apply(uri, &[mutation]).map_err(classify_client)?;
            print_apply(&applied)?;
        }
        ("delete", [uri, node]) => {
            let slot = arena_slot(node)?;
            let applied = client
                .apply(uri, &[WireMutation::Delete { target: slot }])
                .map_err(classify_client)?;
            print_apply(&applied)?;
        }
        ("shutdown", []) => {
            client.shutdown().map_err(classify_client)?;
            println!("server shutting down");
        }
        (other, _) => {
            return Err(usage(format!(
                "bad remote op {other:?} (or wrong operands): ping | docs | stats | \
                 query <uri> <path> | insert <uri> <node@> --tag T [--child] | \
                 delete <uri> <node@> | shutdown"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprime::prime::path::DecodeError;
    use xmlprime::store::StoreError;

    /// A checkpoint whose labels and SC table disagree is on-disk damage:
    /// exit 6, whichever side carries the stray self-label.
    #[test]
    fn inconsistent_persisted_label_state_exits_as_corruption() {
        use xmlprime::prime::sc::ScError;
        for inner in [
            xmlprime::prime::Error::Decode(DecodeError::UnknownSelfLabel(101)),
            xmlprime::prime::Error::Sc(ScError::UnknownSelfLabel(101)),
        ] {
            let err = classify_store(StoreError::Scheme(inner));
            assert!(matches!(err, CliError::Corrupt(_)), "{}", err.message());
            assert_eq!(err.exit_code(), ExitCode::from(6));
        }
    }
}
