//! Property-based tests for the Copland language: parser/pretty-printer
//! round-trips over random ASTs, and semantic invariants.

use pda_copland::ast::{Asp, Phrase, Place, Request, Sp};
use pda_copland::events::EventSystem;
use pda_copland::evidence::{eval, eval_request, Evidence};
use pda_copland::parser::{parse_phrase, parse_request};
use pda_copland::pretty::{pretty_phrase, pretty_request};
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    // Lowercase identifiers distinct from the `forall` keyword space.
    "[a-z][a-z0-9_]{0,6}".prop_map(|s| s)
}

fn asp() -> impl Strategy<Value = Asp> {
    prop_oneof![
        Just(Asp::Sign),
        Just(Asp::Hash),
        Just(Asp::Copy),
        Just(Asp::Null),
        (ident(), ident(), ident()).prop_map(|(m, p, t)| Asp::Measure {
            measurer: m,
            target_place: Place::new(p),
            target: t,
        }),
        (ident(), proptest::collection::vec(ident(), 0..3))
            .prop_map(|(name, args)| Asp::Service { name, args }),
    ]
}

fn sp() -> impl Strategy<Value = Sp> {
    prop_oneof![Just(Sp::Pass), Just(Sp::Drop)]
}

fn phrase() -> impl Strategy<Value = Phrase> {
    let leaf = asp().prop_map(Phrase::Asp);
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (ident(), inner.clone()).prop_map(|(p, ph)| Phrase::At(Place::new(p), Box::new(ph))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Phrase::Arrow(Box::new(l), Box::new(r))),
            (sp(), sp(), inner.clone(), inner.clone()).prop_map(|(a, b, l, r)| Phrase::BrSeq(
                a,
                b,
                Box::new(l),
                Box::new(r)
            )),
            (sp(), sp(), inner.clone(), inner).prop_map(|(a, b, l, r)| Phrase::BrPar(
                a,
                b,
                Box::new(l),
                Box::new(r)
            )),
        ]
    })
}

proptest! {
    /// The fundamental round-trip: parse(pretty(p)) == p.
    #[test]
    fn pretty_parse_round_trip(p in phrase()) {
        let printed = pretty_phrase(&p);
        let reparsed = parse_phrase(&printed)
            .unwrap_or_else(|e| panic!("`{printed}` failed to reparse: {e}"));
        prop_assert_eq!(reparsed, p);
    }

    /// Requests round-trip too (params included).
    #[test]
    fn request_round_trip(rp in ident(),
                          params in proptest::collection::vec(ident(), 0..3),
                          p in phrase()) {
        let req = Request { rp: Place::new(rp), params, phrase: p };
        let printed = pretty_request(&req);
        prop_assert_eq!(parse_request(&printed).unwrap(), req);
    }

    /// Evidence evaluation is deterministic and total.
    #[test]
    fn eval_total_and_deterministic(p in phrase()) {
        let place = Place::new("here");
        let a = eval(&p, &place, Evidence::Nonce);
        let b = eval(&p, &place, Evidence::Nonce);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.size() >= 1);
    }

    /// Copy is an identity for evidence; Null annihilates.
    #[test]
    fn copy_identity(p in phrase()) {
        let place = Place::new("x");
        let base = eval(&p, &place, Evidence::Empty);
        let with_copy = eval(
            &Phrase::Arrow(Box::new(p.clone()), Box::new(Phrase::Asp(Asp::Copy))),
            &place,
            Evidence::Empty,
        );
        prop_assert_eq!(base, with_copy);
        let with_null = eval(
            &Phrase::Arrow(Box::new(p), Box::new(Phrase::Asp(Asp::Null))),
            &place,
            Evidence::Empty,
        );
        prop_assert_eq!(with_null, Evidence::Empty);
    }

    /// The event system is acyclic: no event precedes itself.
    #[test]
    fn events_acyclic(p in phrase()) {
        let sys = EventSystem::of_phrase(&p, &Place::new("x"));
        for i in 0..sys.events.len() {
            prop_assert!(!sys.precedes(i, i), "event {i} precedes itself");
        }
    }

    /// BrSeq orders arms; BrPar leaves them unordered.
    #[test]
    fn branch_ordering(l in phrase(), r in phrase()) {
        let place = Place::new("x");
        let seq = Phrase::BrSeq(Sp::Drop, Sp::Drop, Box::new(l.clone()), Box::new(r.clone()));
        let sys = EventSystem::of_phrase(&seq, &place);
        // Left-arm events (after split) precede right-arm events.
        let left_sys = EventSystem::of_phrase(&l, &place);
        let n_left = left_sys.events.len();
        if n_left > 0 {
            let first_left = 1; // event 0 is the split
            let first_right = 1 + n_left;
            if first_right < sys.events.len() - 1 {
                prop_assert!(sys.precedes(first_left, first_right));
            }
        }
    }

    /// Measurements listed by evidence equal measurements in the events.
    #[test]
    fn measurement_counts_agree(p in phrase()) {
        let place = Place::new("x");
        let ev = eval(&p, &place, Evidence::Empty);
        let sys = EventSystem::of_phrase(&p, &place);
        // Evidence drops measurements under Hash erasure; events never
        // drop them, so events >= evidence-visible measurements… unless
        // branches dropped evidence. Count from the phrase directly:
        fn phrase_meas(p: &Phrase) -> usize {
            match p {
                Phrase::Asp(Asp::Measure { .. }) => 1,
                Phrase::Asp(_) => 0,
                Phrase::At(_, i) => phrase_meas(i),
                Phrase::Arrow(l, r) | Phrase::BrSeq(_, _, l, r) | Phrase::BrPar(_, _, l, r) =>
                    phrase_meas(l) + phrase_meas(r),
            }
        }
        prop_assert_eq!(sys.measurement_events().len(), phrase_meas(&p));
        let _ = ev;
    }
}

/// Deterministic regression: the paper's examples survive a double
/// round-trip (pretty → parse → pretty).
#[test]
fn paper_examples_double_round_trip() {
    use pda_copland::ast::examples::*;
    for req in [
        bank_eq1(),
        bank_eq2(),
        pera_out_of_band(),
        pera_retrieve(),
        pera_in_band(),
    ] {
        let once = pretty_request(&req);
        let twice = pretty_request(&parse_request(&once).unwrap());
        assert_eq!(once, twice);
    }
}

#[test]
fn eval_request_uses_nonce_only_when_declared() {
    let with = parse_request("*rp<n> : _").unwrap();
    let without = parse_request("*rp : _").unwrap();
    assert_eq!(eval_request(&with), Evidence::Nonce);
    assert_eq!(eval_request(&without), Evidence::Empty);
}

/// Arbitrary text for the parser: runs of printable ASCII, Copland
/// tokens, line breaks and multi-byte characters, in any order. U+0085
/// and U+00A0 are among them because their UTF-8 continuation bytes
/// are whitespace when read as Latin-1.
fn text() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> = "* : , @ [ ] ( ) < > ! # {} -> +<+ -~- _ // bank p1 attest n _x 7"
        .split(' ')
        .collect();
    let fragment = prop_oneof![
        "[ -~]{1,4}",
        (0..tokens.len()).prop_map(move |i| tokens[i].to_string()),
        "[\n\té▶☃\u{85}\u{a0}𝄞]",
    ];
    proptest::collection::vec(fragment, 0..24).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Neither entry point panics on arbitrary text: non-ASCII input is
    /// a parse error at its byte offset, like any other stray character.
    #[test]
    fn parsers_never_panic_on_arbitrary_text(src in text()) {
        let _ = parse_request(&src);
        let _ = parse_phrase(&src);
    }
}
