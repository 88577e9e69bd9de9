//! Property tests for the item parser: totality over arbitrary input.
//!
//! The parser walks every source file in the workspace on every gate run,
//! so like the lexer beneath it, it must be total: no byte sequence may
//! panic it, and every item it does produce must carry a span inside the
//! file, a line inside the file's line range, and call/panic sites on
//! lines the item's span actually covers.

use elsa_lint::item::parse_file;
use elsa_testkit::prelude::*;

props! {
    config: Config::with_cases(384);

    fn parsing_arbitrary_bytes_never_panics(raw in vecs(ints(0, 256), 0, 300)) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let model = parse_file("elsa-core", "fuzz.rs", &bytes);
        let total_lines = 1 + bytes.iter().filter(|&&b| b == b'\n').count() as u32;
        for item in &model.items {
            prop_assert!(item.span.0 < item.span.1, "empty span {item:?}");
            prop_assert!(item.span.1 <= bytes.len(), "span past EOF {item:?}");
            prop_assert!(item.line >= 1 && item.line <= total_lines, "line out of range {item:?}");
        }
    }

    fn parsing_rust_shaped_soup_never_panics(raw in vecs(ints(0, 64), 0, 200)) {
        // Dense in item-parser trigger shapes: fn/impl/mod keywords, braces,
        // generics with Fn-sugar arrows, attributes, doc comments.
        let tricky: [&[u8]; 16] = [
            b"fn ", b"impl ", b"mod ", b"pub ", b"for ", b"where ", b"self.",
            b"::", b"<", b">", b"->", b"(", b")", b"{", b"}", b"#[test]\n",
        ];
        let mut bytes = Vec::new();
        for &i in &raw {
            bytes.extend_from_slice(tricky[i % tricky.len()]);
        }
        let model = parse_file("elsa-serve", "soup.rs", &bytes);
        for item in &model.items {
            prop_assert!(item.span.1 <= bytes.len(), "span past EOF {item:?}");
        }
    }

    fn sites_lie_on_lines_inside_their_item(n in ints(0, 6)) {
        // Rotating well-formed snippets: every call/panic site an item
        // reports must sit on a line at or after the item's own header.
        let snippets: [&str; 7] = [
            "fn a() { b(); c.unwrap(); }",
            "impl S {\n    fn m(&self) {\n        self.helper();\n        panic!(\"x\")\n    }\n}",
            "mod inner {\n    pub fn f(v: &[u8]) -> u8 { v[0] }\n}",
            "fn outer() {\n    fn nested() { todo!() }\n    nested();\n}",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.expect(\"m\"); }\n}",
            "pub(crate) const unsafe fn q<T: Fn(u8) -> u8>(f: T) -> u8 { f(0) }",
            "impl Display for W {\n    fn fmt(&self, f: &mut F) -> R { self.inner.fmt(f) }\n}",
        ];
        let src = snippets[n % snippets.len()];
        let model = parse_file("elsa-serve", "snippet.rs", src.as_bytes());
        prop_assert!(!model.items.is_empty(), "no items parsed from {src:?}");
        for item in &model.items {
            for call in &item.calls {
                prop_assert!(call.line >= item.line, "call before item: {item:?}");
            }
            for site in &item.panic_sites {
                prop_assert!(site.line >= item.line, "panic site before item: {item:?}");
            }
        }
    }
}

#[test]
fn parser_is_consistent_with_itself_on_real_source() {
    // Parsing this very test file must find the test fns with sane shapes.
    let src = include_bytes!("item_props.rs");
    let model = parse_file("elsa-lint", "crates/elsa-lint/tests/item_props.rs", src);
    assert!(
        model.items.iter().any(|i| i.name == "parser_is_consistent_with_itself_on_real_source"),
        "did not find this test fn; found {:?}",
        model.items.iter().map(|i| &i.name).collect::<Vec<_>>()
    );
    for item in &model.items {
        assert!(item.span.1 <= src.len());
    }
}
