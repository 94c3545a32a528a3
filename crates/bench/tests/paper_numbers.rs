//! The paper's numbers as a contract: Table 4.1, Table 4.2 and E5–E7 at
//! seed 42 are machine-independent cost ratios and counts — the same bits
//! from a debug build, a release build and any machine — so they are
//! compared exactly. A change that legitimately moves one edits its constant
//! here, and the diff shows reviewers which number moved. Timings (Figure
//! 4.1, E11, E14) are not numbers of this kind and are compared nowhere.

use sqo_bench::{baseline_comparison, budget_sweep, grouping, table41, table42, table42_headlines};

const EXPECTED: [(&str, &str, f64); 28] = [
    ("table41", "class_cardinality_db1", 52.0),
    ("table41", "rel_cardinality_db1", 77.0),
    ("table41", "class_cardinality_db2", 104.0),
    ("table41", "rel_cardinality_db2", 154.0),
    ("table41", "class_cardinality_db3", 208.0),
    ("table41", "rel_cardinality_db3", 308.0),
    ("table41", "class_cardinality_db4", 208.0),
    ("table41", "rel_cardinality_db4", 616.0),
    // Table 4.2's ratio charges 0.015 work units per relevant constraint (a
    // table row). The store holds only the stated constraints, so a query
    // has fewer rows; every rewrite is the same as with the closure.
    ("table42", "db1_mean_ratio", 0.9265094516647625),
    ("table42", "db1_improved_fraction", 0.325),
    ("table42", "db2_mean_ratio", 0.797609092945058),
    ("table42", "db2_improved_fraction", 0.525),
    ("table42", "db3_mean_ratio", 0.7739708992976289),
    ("table42", "db3_improved_fraction", 0.525),
    ("table42", "db4_mean_ratio", 0.790770327540746),
    ("table42", "db4_improved_fraction", 0.575),
    ("e5", "tentative_total_cost", 1066.5130000000004),
    // The straight-forward baseline considers each constraint once, so a
    // derived constraint did in one step what a chain takes two for. With
    // the stated constraints only, its best order costs more and one more
    // query's outcome depends on the order. The core's total does not move.
    ("e5", "straightforward_best_total_cost", 1083.775),
    ("e5", "order_dependent_queries", 8.0),
    // §3's groups now file only the stated constraints: the derived ones
    // each joined two constraints' classes, and a group fetch brought them
    // along for queries they were not relevant to.
    ("e6", "waste_pct_arbitrary", 34.5679012345679),
    ("e6", "waste_pct_leastfrequentlyaccessed", 34.5679012345679),
    ("e6", "waste_pct_balanced", 35.13986013986013),
    ("e7", "ratio_budget_0", 0.985296397644402),
    ("e7", "ratio_budget_1", 0.874656237070562),
    ("e7", "ratio_budget_2", 0.8693207063563678),
    ("e7", "ratio_budget_4", 0.8540908643034587),
    ("e7", "ratio_budget_8", 0.8540908643034587),
    ("e7", "ratio_budget_unlimited", 0.8540908643034587),
];

#[test]
fn paper_numbers_repeat_to_the_bit() {
    let seed = 42;
    let mut got = table41(seed).0;
    got.extend(table42_headlines(&table42(seed).0));
    for (headlines, _) in [baseline_comparison(seed), grouping(seed), budget_sweep(seed)] {
        got.extend(headlines);
    }
    assert_eq!(got.len(), EXPECTED.len(), "a non-timing headline is not pinned here");
    let moved: Vec<String> = EXPECTED
        .iter()
        .filter_map(|&(exp, metric, want)| {
            let got = got.iter().find(|h| h.experiment == exp && h.metric == metric);
            let bits = got.map(|h| h.value.to_bits());
            let got = got.map_or("nothing".to_string(), |h| format!("{:?}", h.value));
            (bits != Some(want.to_bits()))
                .then(|| format!("{exp}/{metric}: expected {want:?}, got {got}"))
        })
        .collect();
    assert!(moved.is_empty(), "paper numbers moved:\n  {}", moved.join("\n  "));
}
