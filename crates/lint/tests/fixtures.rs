//! One fixture per rule: each file under `fixtures/` trips exactly the
//! violations its rule promises — and nothing else — plus waiver and
//! scope-map behaviour. The fixtures are lint *inputs*, never compiled.

use spinnaker_lint::config::Config;
use spinnaker_lint::rules::{lint_source, Violation};

fn cfg() -> Config {
    Config::parse(
        r#"
[rule.D1]
scope = ["fixtures/"]
[rule.D2]
scope = ["fixtures/"]
[rule.C1]
scope = ["fixtures/"]
[rule.C2]
scope = ["fixtures/"]
[rule.E1]
scope = ["fixtures/"]
[rule.P1]
scope = ["fixtures/"]
enums = ["ClientOp", "ClientReply", "PeerMsg", "NodeInput"]
"#,
    )
    .unwrap()
}

fn lines(violations: &[Violation], rule: &str) -> Vec<u32> {
    violations.iter().filter(|v| v.rule == rule).map(|v| v.line).collect()
}

#[test]
fn d1_fixture_flags_time_thread_fs_net_and_entropy() {
    let got = lint_source("fixtures/d1_time.rs", include_str!("../fixtures/d1_time.rs"), &cfg());
    assert!(got.iter().all(|v| v.rule == "D1"), "{got:?}");
    // Instant, std::thread, std::fs, std::net, SystemTime, thread_rng —
    // and nothing from the #[cfg(test)] module.
    assert_eq!(lines(&got, "D1"), vec![2, 3, 4, 5, 8, 9]);
}

#[test]
fn d2_fixture_flags_hash_collections_but_not_btree() {
    let got = lint_source("fixtures/d2_hash.rs", include_str!("../fixtures/d2_hash.rs"), &cfg());
    assert!(got.iter().all(|v| v.rule == "D2"), "{got:?}");
    assert_eq!(lines(&got, "D2"), vec![2, 5, 5, 7]);
}

#[test]
fn c1_fixture_flags_unwrap_expect_and_panics_not_strings() {
    let got =
        lint_source("fixtures/c1_unwrap.rs", include_str!("../fixtures/c1_unwrap.rs"), &cfg());
    assert!(got.iter().all(|v| v.rule == "C1"), "{got:?}");
    assert_eq!(lines(&got, "C1"), vec![3, 4, 6, 9]);
}

#[test]
fn c2_fixture_flags_truncating_casts_only() {
    let got = lint_source("fixtures/c2_cast.rs", include_str!("../fixtures/c2_cast.rs"), &cfg());
    assert!(got.iter().all(|v| v.rule == "C2"), "{got:?}");
    assert_eq!(lines(&got, "C2"), vec![3, 4]);
}

#[test]
fn e1_fixture_flags_discarded_log_vfs_and_store_results() {
    let got =
        lint_source("fixtures/e1_discard.rs", include_str!("../fixtures/e1_discard.rs"), &cfg());
    assert!(got.iter().all(|v| v.rule == "E1"), "{got:?}");
    // `.wal.`, `.vfs.`, a `.store.` split over lines, a `.coord.` call,
    // the waived checkpoint and the waived watch — not the bare
    // bindings, the named binding, the used result or the #[cfg(test)]
    // module.
    assert_eq!(lines(&got, "E1"), vec![3, 4, 5, 8, 13, 15]);
    let waived: Vec<u32> = got.iter().filter(|v| v.waived).map(|v| v.line).collect();
    assert_eq!(waived, vec![13, 15]);
}

#[test]
fn p1_fixture_flags_the_protocol_wildcard_only() {
    let got =
        lint_source("fixtures/p1_wildcard.rs", include_str!("../fixtures/p1_wildcard.rs"), &cfg());
    assert!(got.iter().all(|v| v.rule == "P1"), "{got:?}");
    assert_eq!(lines(&got, "P1").len(), 1);
    let line = lines(&got, "P1")[0];
    assert!(
        (9..=11).contains(&line),
        "P1 violation should anchor inside `lazy`'s match, got line {line}"
    );
}

#[test]
fn waivers_fixture_waives_covers_and_rejects_hygiene_problems() {
    let got = lint_source("fixtures/waivers.rs", include_str!("../fixtures/waivers.rs"), &cfg());

    // The well-formed waiver on line 2 covers the HashMap on line 3:
    // still reported, but waived.
    let covered: Vec<_> = got.iter().filter(|v| v.rule == "D2" && v.waived).collect();
    assert_eq!(covered.len(), 1, "{got:?}");
    assert_eq!(covered[0].line, 3);

    // The reason-less waiver on line 5 is a W0 *and* fails to cover the
    // HashSet on line 6.
    let active_d2: Vec<_> = got.iter().filter(|v| v.rule == "D2" && !v.waived).collect();
    assert_eq!(active_d2.len(), 1, "{got:?}");
    assert_eq!(active_d2[0].line, 6);
    assert_eq!(lines(&got, "W0"), vec![5, 8]);
}

#[test]
fn scope_map_limits_where_rules_fire() {
    let d1 = include_str!("../fixtures/d1_time.rs");
    // Same source, path outside every scope: clean.
    assert!(lint_source("crates/bench/src/lib.rs", d1, &cfg()).is_empty());

    // An exempt prefix inside the scope is also clean.
    let cfg =
        Config::parse("[rule.D1]\nscope = [\"fixtures/\"]\nexempt = [\"fixtures/d1_\"]\n").unwrap();
    assert!(lint_source("fixtures/d1_time.rs", d1, &cfg).is_empty());
}

#[test]
fn excluded_paths_are_skipped_entirely() {
    let cfg = Config::parse("[global]\nexclude = [\"/fixtures/\"]\n").unwrap();
    assert!(cfg.excluded("crates/lint/fixtures/d1_time.rs"));
    assert!(!cfg.excluded("crates/common/src/lib.rs"));
}
