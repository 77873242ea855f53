//! Pins the search-space counts of Figs. 7–9: the recursion and futile-recursion
//! columns that `experiments -- fig7 fig8 fig9` prints at the default scale.
//!
//! The counts are exact, so a change to filtering, ordering, pruning or counting
//! shows up here as a failed comparison and, once the pinned reports are
//! regenerated, as a reviewed diff of `tests/figure_counts/*.txt`. Regenerate
//! them with
//!
//! ```text
//! cargo run --release -p gup-bench --bin experiments -- fig7 fig8 fig9 \
//!     --timeout-ms 60000 --set-budget-ms 3600000
//! cp target/experiments/fig{7,8,9}.txt crates/bench/tests/figure_counts/
//! ```
//!
//! and say in the change's notes why the counts moved.

use gup_bench::experiments::{fig7, fig8, fig9};
use gup_bench::SuiteConfig;
use std::time::Duration;

/// The default suite with time budgets that no query reaches: a query cut off
/// by its deadline would report however many recursions it managed, so only
/// runs that finish have exact counts. The datasets, query sets and embedding
/// cap are the defaults.
fn exact_config() -> SuiteConfig {
    SuiteConfig {
        per_query_timeout: Duration::from_secs(60),
        per_set_budget: Duration::from_secs(3600),
        ..SuiteConfig::default()
    }
}

fn assert_pinned(name: &str, report: &str, pinned: &str) {
    assert!(
        report == pinned,
        "{name}'s counts moved from tests/figure_counts/{name}.txt (see this file's \
         docs to regenerate it)\n--- pinned\n{pinned}\n--- now\n{report}"
    );
}

#[test]
fn fig7_recursions_are_pinned() {
    let pinned = include_str!("figure_counts/fig7.txt");
    assert_pinned("fig7", &fig7(&exact_config()), pinned);
}

#[test]
fn fig8_recursions_are_pinned() {
    let pinned = include_str!("figure_counts/fig8.txt");
    assert_pinned("fig8", &fig8(&exact_config()), pinned);
}

#[test]
fn fig9_futile_and_total_recursions_are_pinned() {
    let pinned = include_str!("figure_counts/fig9.txt");
    assert_pinned("fig9", &fig9(&exact_config()), pinned);
}
