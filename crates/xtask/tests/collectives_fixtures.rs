//! Fixture tests for the collective-ordering analysis: each fixture under
//! `tests/fixtures/` is analyzed as if it lived at a communication hot
//! path, and the produced diagnostics are asserted *exactly* — file, line,
//! column and rule — including `// quda-lint: allow(<rule>)` suppression
//! and its resurfacing when the comment is removed.
//!
//! The fixtures directory is excluded from the workspace walk, so the
//! deliberate hangs-in-waiting here never fail `cargo xtask collectives`.

use xtask::collectives_texts;

/// Analyze one fixture text as `rel_path` and assert the exact
/// `(line, col, rule)` set.
fn assert_diags(rel_path: &str, text: &str, expected: &[(u32, u32, &str)]) {
    let got: Vec<(u32, u32, String)> = collectives_texts(&[(rel_path, text)])
        .into_iter()
        .map(|d| {
            assert_eq!(d.path, rel_path);
            (d.line, d.col, d.rule.to_string())
        })
        .collect();
    let expected: Vec<(u32, u32, String)> =
        expected.iter().map(|&(l, c, r)| (l, c, r.to_string())).collect();
    assert_eq!(got, expected, "diagnostics for {rel_path}");
}

#[test]
fn rank_branch_fixture_exact_diagnostics() {
    // A barrier in a rank-only branch (8), a collective after a
    // rank-dependent early return (24), and a rank-gated call to a wrapper
    // the call-graph closure marks as a collective performer (30). The
    // if/else with a collective on both arms and the allow-suppressed
    // barrier are clean.
    assert_diags(
        "crates/comm/src/fixture.rs",
        include_str!("fixtures/rank_branch.rs"),
        &[
            (8, 18, "rank-branch-collective"),
            (24, 14, "rank-branch-collective"),
            (30, 18, "rank-branch-collective"),
        ],
    );
}

#[test]
fn rank_branch_fixture_outside_hot_paths_is_clean() {
    // The same hazards in a crate outside comm/multigpu/solvers/core are
    // out of the analysis' emission scope.
    assert_diags("crates/gpusim/src/fixture.rs", include_str!("fixtures/rank_branch.rs"), &[]);
}

#[test]
fn removing_the_allow_comment_resurfaces_the_diagnostic() {
    let text = include_str!("fixtures/rank_branch.rs")
        .replace("quda-lint: allow(rank-branch-collective)", "");
    assert_diags(
        "crates/comm/src/fixture.rs",
        &text,
        &[
            (8, 18, "rank-branch-collective"),
            (24, 14, "rank-branch-collective"),
            (30, 18, "rank-branch-collective"),
            (41, 18, "rank-branch-collective"),
        ],
    );
}

#[test]
fn method_calls_reach_only_self_taking_performers() {
    // A free fn `global` performs a collective; the method `Plan::global`
    // does not. The rank-gated `self.global()` (12) is a method call, so
    // it is clean; the path call `global(self)` (19) reaches the free
    // performer, and the path call `Plan::sync(self)` (25) a `self`-taking
    // one — a path call reaches either kind.
    assert_diags(
        "crates/multigpu/src/fixture.rs",
        include_str!("fixtures/performer_kinds.rs"),
        &[(19, 13, "rank-branch-collective"), (25, 19, "rank-branch-collective")],
    );
}

#[test]
fn rank_loop_fixture_exact_diagnostics() {
    // A collective in a loop bounded by the rank (9) and a send in a while
    // loop whose condition mentions the rank (21); the size-bounded loop
    // is clean, and the FACE_FWD send/recv pair keeps tag-pairing quiet.
    assert_diags(
        "crates/multigpu/src/fixture.rs",
        include_str!("fixtures/rank_loop.rs"),
        &[(9, 18, "rank-loop-collective"), (21, 18, "rank-loop-collective")],
    );
}

#[test]
fn tag_pairing_fixture_exact_diagnostics() {
    // GAUGE_EVEN is sent but never received (7); GAUGE_ODD is received but
    // never sent (11); the FACE_FWD pair is clean.
    assert_diags(
        "crates/comm/src/fixture.rs",
        include_str!("fixtures/tag_pairing.rs"),
        &[(7, 14, "tag-pairing"), (11, 22, "tag-pairing")],
    );
}

#[test]
fn tag_pairing_is_satisfied_across_files() {
    // The analysis is whole-workspace: a send in one crate pairs with a
    // recv in another.
    let send =
        "impl C {\n    pub fn s(&mut self) {\n        self.send(1, tags::FACE_BWD, v);\n    }\n}\n";
    let recv = "impl D {\n    pub fn r(&mut self) {\n        let _ = self.recv(0, tags::FACE_BWD);\n    }\n}\n";
    let diags =
        collectives_texts(&[("crates/comm/src/a.rs", send), ("crates/multigpu/src/b.rs", recv)]);
    assert!(diags.is_empty(), "cross-file pair should satisfy tag-pairing: {diags:?}");
}

#[test]
fn tag_namespace_fixture_exact_diagnostics() {
    // A tag constant outside the registry (1) and raw integer tags at a
    // send (7) and a recv (8).
    assert_diags(
        "crates/comm/src/fixture.rs",
        include_str!("fixtures/tag_namespace.rs"),
        &[(1, 11, "tag-namespace"), (7, 14, "tag-namespace"), (8, 22, "tag-namespace")],
    );
}

#[test]
fn registry_value_collisions_are_flagged() {
    // Two registry constants evaluating to the same value collide; the
    // `_BASE` namespace marker itself is exempt (it is a boundary, not a
    // tag — mirroring the registry's own ALL_NAMED convention).
    let registry = "pub const INTERNAL_BASE: u32 = 0xffff_0000;\n\
                    pub const A_TAG: u32 = INTERNAL_BASE + 1;\n\
                    pub const B_TAG: u32 = INTERNAL_BASE + 1;\n";
    assert_diags("crates/comm/src/tags.rs", registry, &[(3, 11, "tag-namespace")]);
}

#[test]
fn test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(c: &mut C) {\n        if c.rank == 0 {\n            c.barrier();\n        }\n    }\n}\n";
    assert_diags("crates/comm/src/fixture.rs", src, &[]);
}

#[test]
fn test_only_performers_do_not_capture_live_calls() {
    // `sweep` calls a local closure `run`; the only `fn run` that performs
    // a collective is test code, so `sweep` is not a performer and the
    // call after the rank-dependent early return (15) is clean. A test
    // target's `fn run` does not capture the name either.
    let text = include_str!("fixtures/test_performer.rs");
    assert_diags("crates/multigpu/src/fixture.rs", text, &[]);
    let helper = "pub fn run(c: &mut C) {\n    c.barrier();\n}\n";
    let diags = collectives_texts(&[
        ("crates/multigpu/src/fixture.rs", text),
        ("crates/multigpu/tests/helper.rs", helper),
    ]);
    assert!(diags.is_empty(), "a test target's fn captured a live call: {diags:?}");
}

#[test]
fn live_performers_of_the_same_shape_are_still_reported() {
    // With the `#[cfg(test)]` gate gone, `run` is a live performer, so the
    // closure call makes `sweep` one and its call after the early return
    // is reported.
    let text = include_str!("fixtures/test_performer.rs").replace("#[cfg(test)]\n", "");
    assert_diags("crates/multigpu/src/fixture.rs", &text, &[(15, 14, "rank-branch-collective")]);
}

#[test]
fn workspace_analysis_is_clean_and_skips_fixtures() {
    // `cargo xtask collectives` must pass on the real tree, and must never
    // trip over the deliberate hazards in tests/fixtures/.
    let root = xtask::find_workspace_root();
    let report = xtask::collectives_workspace(&root).expect("workspace walk");
    assert!(
        !report.diagnostics.iter().any(|d| d.path.contains("fixtures")),
        "fixture files leaked into the workspace analysis: {:?}",
        report.diagnostics
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace collective analysis has findings: {:?}",
        report.diagnostics
    );
}
