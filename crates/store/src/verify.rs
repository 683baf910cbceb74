//! Consistency checks over the recovered quadruple (document tree, labels,
//! SC table, label table) — what fsck and every crash test assert.

use xp_labelkit::dynamic::LabeledStore;
use xp_prime::{DynamicPrime, PrimeLabel};
use xp_query::LabelTable;
use xp_xmltree::NodeId;

/// Checks one document's internal consistency:
///
/// 1. the tree arena re-validates as a snapshot,
/// 2. the store mirror holds exactly the attached elements and agrees
///    label-for-label with the scheme state,
/// 3. the SC table's cached columns re-solve to their CRT solutions,
/// 4. scheme document order equals tree preorder,
/// 5. the relational label table covers exactly the labeled nodes with the
///    current labels.
pub fn check_doc(
    store: &LabeledStore<DynamicPrime>,
    table: &LabelTable<PrimeLabel>,
) -> Result<(), String> {
    let tree = store.tree();
    xp_xmltree::XmlTree::from_snapshot(&tree.snapshot())
        .map_err(|e| format!("tree arena fails validation: {e}"))?;
    let elements: Vec<NodeId> = tree.elements().collect();
    if store.doc().len() != elements.len() {
        return Err(format!(
            "mirror holds {} labels for {} attached elements",
            store.doc().len(),
            elements.len()
        ));
    }
    for &n in &elements {
        let mirrored = store
            .doc()
            .get(n)
            .ok_or_else(|| format!("attached element {n} has no label"))?;
        let state_label = store
            .state()
            .labels()
            .get(n)
            .ok_or_else(|| format!("scheme state lost the label of {n}"))?;
        if mirrored != state_label {
            return Err(format!("mirror and scheme state disagree on {n}"));
        }
    }
    store
        .state()
        .sc_table()
        .check_cached_columns()
        .map_err(|e| format!("SC cached columns corrupt: {e}"))?;
    if store.ordered_nodes() != elements {
        return Err("scheme document order diverges from tree preorder".into());
    }
    if table.len() != elements.len() {
        return Err(format!(
            "label table holds {} rows for {} elements",
            table.len(),
            elements.len()
        ));
    }
    for &n in &elements {
        if table.label(n) != store.doc().label(n) {
            return Err(format!("label table row of {n} is stale"));
        }
    }
    Ok(())
}

/// Checks that two documents are logically byte-identical: same arena
/// (slot for slot), same labels in the same labeling order, same SC table
/// bytes, same allocator high-water mark, same document order. This is the
/// crash harness's oracle comparison — a store reopened after a kill must
/// pass this against a never-crashed twin.
pub fn equivalent(
    a: &LabeledStore<DynamicPrime>,
    b: &LabeledStore<DynamicPrime>,
) -> Result<(), String> {
    if a.tree().snapshot() != b.tree().snapshot() {
        return Err("tree arenas differ".into());
    }
    let la: Vec<(NodeId, &PrimeLabel)> = a.doc().iter().collect();
    let lb: Vec<(NodeId, &PrimeLabel)> = b.doc().iter().collect();
    if la != lb {
        return Err("labels (or labeling order) differ".into());
    }
    if a.state().sc_table().encode() != b.state().sc_table().encode() {
        return Err("SC tables differ".into());
    }
    if a.state().primes_handed_out() != b.state().primes_handed_out() {
        return Err("prime allocator high-water marks differ".into());
    }
    if a.ordered_nodes() != b.ordered_nodes() {
        return Err("document orders differ".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xp_labelkit::InsertPos;

    fn sample() -> (LabeledStore<DynamicPrime>, LabelTable<PrimeLabel>) {
        let tree = xp_xmltree::parse("<r><a><b/></a><c/><d/></r>").unwrap();
        let store = LabeledStore::build(DynamicPrime::new(8), tree).unwrap();
        let table = LabelTable::build(store.tree(), store.doc());
        (store, table)
    }

    #[test]
    fn fresh_store_checks_out() {
        let (store, table) = sample();
        check_doc(&store, &table).unwrap();
        equivalent(&store, &store).unwrap();
    }

    #[test]
    fn mutated_twin_is_not_equivalent() {
        let (a, _) = sample();
        let (mut b, _) = sample();
        let anchor = b.tree().first_child(b.tree().root()).unwrap();
        b.insert_before(anchor, "new").unwrap();
        assert!(equivalent(&a, &b).is_err());
    }

    #[test]
    fn stale_table_is_caught() {
        let (mut store, table) = sample();
        let anchor = store.tree().first_child(store.tree().root()).unwrap();
        store.insert_before(anchor, "new").unwrap();
        let err = check_doc(&store, &table).unwrap_err();
        assert!(err.contains("label table"), "{err}");
        // Rebuilt table passes again.
        let fresh = LabelTable::build(store.tree(), store.doc());
        check_doc(&store, &fresh).unwrap();
    }

    #[test]
    fn patched_table_stays_consistent() {
        let (mut store, mut table) = sample();
        let anchor = store.tree().first_child(store.tree().root()).unwrap();
        let report = store.insert_before(anchor, "new").unwrap();
        table.apply_report(store.tree(), store.doc(), &report);
        check_doc(&store, &table).unwrap();
        let target = store.tree().last_child(store.tree().root()).unwrap();
        let report = store.delete(target).unwrap();
        table.apply_report(store.tree(), store.doc(), &report);
        check_doc(&store, &table).unwrap();
        let frag = xp_xmltree::parse("<x><y/></x>").unwrap();
        let pos = InsertPos::LastChildOf(store.tree().root());
        let report = store.insert_subtree(pos, &frag).unwrap();
        table.apply_report(store.tree(), store.doc(), &report);
        check_doc(&store, &table).unwrap();
    }
}
