//! Fixture tests for the hot-path performance analysis: each fixture under
//! `tests/fixtures/` is analyzed as if it lived in a hot crate, and the
//! produced diagnostics are asserted *exactly* — file, line, column and
//! rule — including `// quda-lint: allow(<rule>)` suppression and its
//! resurfacing when the comment is removed.
//!
//! The fixtures directory is excluded from the workspace walk, so the
//! deliberate allocations-in-loops here never fail `cargo xtask hotpath`.

use xtask::hotpath_texts;

/// Analyze one fixture text as `rel_path` and assert the exact
/// `(line, col, rule)` set.
fn assert_diags(rel_path: &str, text: &str, expected: &[(u32, u32, &str)]) {
    let got: Vec<(u32, u32, String)> = hotpath_texts(&[(rel_path, text)])
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
fn general_fixture_exact_diagnostics() {
    // A `vec!` in a for body (10), a `.clone()` in a while body (20), a
    // `.lock()` and a zero-arg `.read()` inside loops (37, 45), and two
    // codec entry points returning fresh Vecs — directly (69) and inside a
    // Result (73). The setup-time allocations, the hoisted guard, the
    // `&mut` out-parameter decoder, the `Frame` packer, the non-codec Vec
    // helper and the allow-suppressed `format!` are all clean.
    assert_diags(
        "crates/multigpu/src/fixture.rs",
        include_str!("fixtures/hotpath_general.rs"),
        &[
            (10, 27, "hot-alloc"),
            (20, 30, "hot-alloc"),
            (37, 31, "hot-lock"),
            (45, 32, "hot-lock"),
            (69, 8, "scratch-reuse"),
            (73, 8, "scratch-reuse"),
        ],
    );
}

#[test]
fn general_fixture_outside_hot_crates_is_clean() {
    // The same constructs in a crate outside solvers/dirac/multigpu/math
    // are out of the pass's emission scope.
    assert_diags("crates/gpusim/src/fixture.rs", include_str!("fixtures/hotpath_general.rs"), &[]);
}

#[test]
fn removing_the_allow_comment_resurfaces_the_diagnostic() {
    let text =
        include_str!("fixtures/hotpath_general.rs").replace("quda-lint: allow(hot-alloc)", "");
    assert_diags(
        "crates/multigpu/src/fixture.rs",
        &text,
        &[
            (10, 27, "hot-alloc"),
            (20, 30, "hot-alloc"),
            (37, 31, "hot-lock"),
            (45, 32, "hot-lock"),
            (63, 22, "hot-alloc"),
            (69, 8, "scratch-reuse"),
            (73, 8, "scratch-reuse"),
        ],
    );
}

#[test]
fn site_kernel_fixture_exact_diagnostics() {
    // Element-wise counted loops that index with their counter: the plain
    // `0..n` form (2), the inclusive `0..=n` form (9), the layout
    // `get`/`set` round trip (16), and a loop in a function whose signature
    // holds an array type's `;` (46), which must not read as a bodyless
    // declaration. The literal-bound unrolled loop, the chunks_exact block
    // form and the counter that never indexes are clean.
    assert_diags(
        "crates/solvers/src/blas.rs",
        include_str!("fixtures/hotpath_kernel.rs"),
        &[(2, 5, "hot-index"), (9, 5, "hot-index"), (16, 5, "hot-index"), (46, 5, "hot-index")],
    );
}

#[test]
fn hot_index_only_polices_site_kernel_files() {
    // The same loops in a hot crate but outside the designated site-kernel
    // modules are hot-index-clean (the other rules still apply — there are
    // just no allocations or locks in this fixture).
    assert_diags("crates/solvers/src/fixture.rs", include_str!("fixtures/hotpath_kernel.rs"), &[]);
}

#[test]
fn test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(n: usize) -> usize {\n        let mut s = 0;\n        for _ in 0..n {\n            s += vec![0u8; 4].len();\n        }\n        s\n    }\n}\n";
    assert_diags("crates/solvers/src/fixture.rs", src, &[]);
}

#[test]
fn workspace_analysis_is_clean_and_skips_fixtures() {
    // `cargo xtask hotpath` must pass on the real tree, and must never trip
    // over the deliberate hazards in tests/fixtures/.
    let root = xtask::find_workspace_root();
    let report = xtask::hotpath_workspace(&root).expect("workspace walk");
    assert!(
        !report.diagnostics.iter().any(|d| d.path.contains("fixtures")),
        "fixture files leaked into the workspace analysis: {:?}",
        report.diagnostics
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace hot-path analysis has findings: {:?}",
        report.diagnostics
    );
}

#[test]
fn hot_div_fixture_exact_diagnostics() {
    // Inside loops of an accessor module: the per-real `.index(site, n)`
    // (3), a divide and a modulo by runtime bindings (10, 11), the per-real
    // `.pad_index` with a `/=` by a runtime value (18) and a divide by a
    // float literal (19). Integer-literal and ALL_CAPS divisors (literal,
    // hex, suffixed, const generic, path constant), and a divide or an
    // `.index` hoisted above a loop that then walks the site runs with
    // `chunks_exact`, are clean.
    let expected = [
        (3, 26, "hot-div"),
        (10, 23, "hot-div"),
        (11, 26, "hot-div"),
        (18, 21, "hot-div"),
        (18, 41, "hot-div"),
        (19, 27, "hot-div"),
    ];
    let text = include_str!("fixtures/hotpath_div.rs");
    for path in [
        "crates/fields/src/spinor_cb.rs",
        "crates/lattice/src/layout.rs",
        "crates/dirac/src/dslash.rs",
    ] {
        assert_diags(path, text, &expected);
    }
}

#[test]
fn hot_div_only_polices_kernel_and_accessor_files() {
    // Setup-time code in the same crates (gauge generation, the stencil
    // build) and hot-crate modules outside the site kernels may divide.
    let text = include_str!("fixtures/hotpath_div.rs");
    for path in [
        "crates/fields/src/gauge_mc.rs",
        "crates/lattice/src/stencil.rs",
        "crates/solvers/src/cg.rs",
    ] {
        assert_diags(path, text, &[]);
    }
}
