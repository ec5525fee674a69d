//! Property-based tests for the hybrid layer: wire-format round-trips,
//! decoder robustness against arbitrary bytes, and resolution
//! invariants over random path views.

use pda_copland::ast::{Asp, Phrase};
use pda_hybrid::ast::{table1, Guard};
use pda_hybrid::parser::parse_hybrid;
use pda_hybrid::resolve::{resolve, Composition, NodeInfo};
use pda_hybrid::wire::{decode, encode, Flags, WireError, WirePolicy};
use pda_hybrid::HopDirective;
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

fn guard() -> impl Strategy<Value = Option<Guard>> {
    prop_oneof![
        Just(None),
        Just(Some(Guard::HasKey)),
        ident().prop_map(|s| Some(Guard::RunsFunction(s))),
        ident().prop_map(|s| Some(Guard::NamedTest(s))),
    ]
}

fn body() -> impl Strategy<Value = Phrase> {
    // Small phrases: sign/hash chains with services.
    prop_oneof![
        Just(Phrase::Asp(Asp::Sign)),
        Just(Phrase::Asp(Asp::Hash)),
        ident().prop_map(|n| Phrase::Asp(Asp::Service {
            name: n,
            args: vec![]
        })),
        (ident(), ident()).prop_map(|(n, a)| {
            Phrase::Asp(Asp::Service {
                name: n,
                args: vec![a],
            })
            .then(Phrase::Asp(Asp::Sign))
        }),
    ]
}

fn directive() -> impl Strategy<Value = HopDirective> {
    (ident(), guard(), body()).prop_map(|(node, guard, body)| HopDirective { node, guard, body })
}

fn path_node() -> impl Strategy<Value = NodeInfo> {
    (
        ident(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(ident(), 0..2),
        proptest::collection::vec(ident(), 0..2),
    )
        .prop_map(|(name, ra, key, functions, tests)| {
            let mut n = if ra {
                NodeInfo::pera(name)
            } else {
                NodeInfo::legacy(name)
            };
            n.has_key = key && ra;
            n.functions = functions;
            n.passing_tests = tests;
            n
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// decode(encode(p)) == p for random policies.
    #[test]
    fn wire_round_trip(nonce in any::<u64>(), in_band in any::<bool>(),
                       directives in proptest::collection::vec(directive(), 0..8)) {
        let p = WirePolicy {
            nonce,
            flags: Flags { in_band_evidence: in_band },
            directives,
        };
        prop_assert_eq!(decode(&encode(&p)).unwrap(), p);
    }

    /// The decoder never panics on arbitrary bytes; it errors cleanly.
    #[test]
    fn decode_arbitrary_bytes_no_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Every strict prefix of a valid encoding fails (self-delimiting).
    #[test]
    fn truncations_fail(directives in proptest::collection::vec(directive(), 1..4)) {
        let p = WirePolicy {
            nonce: 7,
            flags: Flags::default(),
            directives,
        };
        let bytes = encode(&p);
        for cut in 0..bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    /// Flipping the magic always fails.
    #[test]
    fn bad_magic_fails(directives in proptest::collection::vec(directive(), 0..3)) {
        let p = WirePolicy { nonce: 0, flags: Flags::default(), directives };
        let mut bytes = encode(&p);
        bytes[0] = bytes[0].wrapping_add(1);
        prop_assert!(matches!(decode(&bytes), Err(WireError::BadMagic(_))));
    }

    /// AP1 resolution: every directive's node is either a path node or
    /// the concrete Appraiser; bindings only name path nodes; skipped +
    /// bound ⊆ path.
    #[test]
    fn ap1_resolution_invariants(path in proptest::collection::vec(path_node(), 0..8)) {
        let ap1 = table1::ap1();
        match resolve(&ap1, &path, &[("n", "1"), ("X", "x")], Composition::Chained) {
            Ok(r) => {
                let path_names: Vec<&str> = path.iter().map(|n| n.name.as_str()).collect();
                for d in &r.directives {
                    prop_assert!(
                        d.node == "Appraiser" || path_names.contains(&d.node.as_str()),
                        "directive on unknown node {}",
                        d.node
                    );
                }
                for (var, node) in &r.bindings {
                    prop_assert!(path_names.contains(&node.as_str()), "{var} -> {node}");
                }
                for s in &r.skipped {
                    prop_assert!(path_names.contains(&s.as_str()));
                }
                // The resolved request never mentions abstract names.
                for place in r.request.phrase.places() {
                    prop_assert!(place.0 != "hop" && place.0 != "client");
                }
            }
            Err(_) => {
                // Resolution may fail only when no qualifying node exists
                // for `client` (RA + key).
                let qualifying = path.iter().filter(|n| n.supports_ra && n.has_key).count();
                prop_assert_eq!(qualifying, 0, "resolution failed despite qualifying nodes");
            }
        }
    }

    /// Chained vs pointwise never changes bindings or directives — only
    /// the evidence-flow structure of the compiled request.
    #[test]
    fn composition_only_affects_structure(path in proptest::collection::vec(path_node(), 1..6)) {
        let ap1 = table1::ap1();
        let a = resolve(&ap1, &path, &[("n", "1"), ("X", "x")], Composition::Chained);
        let b = resolve(&ap1, &path, &[("n", "1"), ("X", "x")], Composition::Pointwise);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                prop_assert_eq!(ra.bindings, rb.bindings);
                prop_assert_eq!(ra.directives, rb.directives);
                prop_assert_eq!(ra.skipped, rb.skipped);
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// NetKAT → dataplane compiler agreement
// ---------------------------------------------------------------------

mod nk {
    use pda_hybrid::nkcompile::{compile, run_compiled, validate};
    use pda_netkat::ast::{Field, Packet, Policy, Pred};
    use pda_netkat::semantics::eval_packet;
    use proptest::prelude::*;

    fn field() -> impl Strategy<Value = Field> {
        prop_oneof![
            Just(Field::Port),
            Just(Field::Src),
            Just(Field::Dst),
            Just(Field::Proto),
            Just(Field::Tag),
        ]
    }

    fn pred() -> impl Strategy<Value = Pred> {
        let leaf = prop_oneof![
            Just(Pred::True),
            Just(Pred::False),
            (field(), 0u32..3).prop_map(|(f, v)| Pred::Test(f, v)),
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                inner.prop_map(|a| a.not()),
            ]
        })
    }

    /// Deterministic star-free policies: sequences of filters and mods,
    /// and if-then-else unions with complementary guards.
    fn det_policy() -> impl Strategy<Value = Policy> {
        let leaf = prop_oneof![
            pred().prop_map(Policy::Filter),
            (field(), 0u32..3).prop_map(|(f, v)| Policy::Mod(f, v)),
        ];
        leaf.prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
                (pred(), inner.clone(), inner).prop_map(|(a, p, q)| {
                    Policy::Filter(a.clone())
                        .seq(p)
                        .union(Policy::Filter(a.not()).seq(q))
                }),
            ]
        })
    }

    fn nk_pkt() -> impl Strategy<Value = Packet> {
        proptest::collection::vec(0u32..4, 5).prop_map(|v| {
            Packet::of(&[
                (Field::Port, v[0]),
                (Field::Src, v[1]),
                (Field::Dst, v[2]),
                (Field::Proto, v[3]),
                (Field::Tag, v[4]),
            ])
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The compiled pipeline agrees with the reference semantics on
        /// every packet (modulo multicast rejection, which the
        /// if-then-else grammar can still produce when both guards of a
        /// nested union overlap after sequencing — skip those).
        #[test]
        fn compiled_agrees_with_semantics(p in det_policy(), pkt in nk_pkt()) {
            let Ok(prog) = compile(&p, "prop") else {
                // Multicast on some class: the compiler refused; that is
                // a correct (sound) outcome, not a disagreement.
                return Ok(());
            };
            // Every successful compile must also pass symbolic
            // translation validation against the source policy.
            prop_assert!(validate(&p, &prog).is_ok(), "validation failed for {}", p);
            let reference = eval_packet(&p, pkt);
            let compiled = run_compiled(&prog, pkt);
            match (reference.len(), compiled) {
                (0, None) => {}
                (1, Some(got)) => {
                    let want = *reference.iter().next().unwrap();
                    prop_assert_eq!(got, want, "policy {}", p);
                }
                (r, c) => prop_assert!(false, "policy {}: reference {} outputs, compiled {:?}", p, r, c),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hybrid pretty-printer round trip
// ---------------------------------------------------------------------

mod pretty_rt {
    use pda_copland::ast::{Asp, Phrase, Place, Sp};
    use pda_hybrid::ast::{Clause, Guard, HExpr, HybridPolicy, PlaceRef};
    use pda_hybrid::parser::parse_hybrid;
    use pda_hybrid::pretty::pretty_hybrid;
    use proptest::prelude::*;

    fn ident() -> impl Strategy<Value = String> {
        // Avoid the `forall` keyword and `K` (guard syntax).
        "[a-j][a-z0-9_]{0,6}".prop_map(|s| s)
    }

    fn guard() -> impl Strategy<Value = Option<Guard>> {
        prop_oneof![
            Just(None),
            Just(Some(Guard::HasKey)),
            ident().prop_map(|s| Some(Guard::RunsFunction(s))),
            // NamedTest must not collide with `runs(...)` or `K`.
            "[m-z][a-z0-9_]{0,6}".prop_map(|s| Some(Guard::NamedTest(s))),
        ]
    }

    fn body() -> impl Strategy<Value = Phrase> {
        prop_oneof![
            Just(Phrase::Asp(Asp::Sign)),
            Just(Phrase::Asp(Asp::Hash)),
            (ident(), proptest::collection::vec(ident(), 0..2)).prop_map(|(n, args)| {
                Phrase::Asp(Asp::Service { name: n, args }).then(Phrase::Asp(Asp::Sign))
            }),
        ]
    }

    /// Clauses with concrete places only (quantifier discipline is
    /// orthogonal and tested separately).
    fn clause() -> impl Strategy<Value = Clause> {
        (ident(), guard(), body()).prop_map(|(p, guard, body)| Clause {
            place: PlaceRef::Concrete(Place::new(p)),
            guard,
            body,
        })
    }

    fn sp() -> impl Strategy<Value = Sp> {
        prop_oneof![Just(Sp::Pass), Just(Sp::Drop)]
    }

    fn hexpr() -> impl Strategy<Value = HExpr> {
        let leaf = clause().prop_map(HExpr::Clause);
        leaf.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (sp(), sp(), inner.clone(), inner.clone())
                    .prop_map(|(l, r, a, b)| a.chain(l, r, b)),
                (inner.clone(), inner).prop_map(|(a, b)| a.star(b)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pretty_parse_round_trip(rp in ident(),
                                   params in proptest::collection::vec(ident(), 0..2),
                                   body in hexpr()) {
            let p = HybridPolicy {
                rp: Place::new(rp),
                params,
                quantified: vec![],
                body,
            };
            let printed = pretty_hybrid(&p);
            let reparsed = parse_hybrid(&printed)
                .unwrap_or_else(|e| panic!("`{printed}` failed: {e}"));
            prop_assert_eq!(reparsed, p, "{}", printed);
        }
    }
}

/// Arbitrary text for the parser: runs of printable ASCII, hybrid-policy
/// tokens, line breaks and multi-byte characters, in any order. U+0085
/// and U+00A0 are among them because their UTF-8 continuation bytes
/// are whitespace when read as Latin-1.
fn text() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> =
        "* : , < > @ [ ] ( ) *=> -+> ++> --> |> ! # -> rp p1 forall K runs attest n"
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

    /// `parse_hybrid` never panics on arbitrary text: non-ASCII input
    /// is a parse error at its byte offset, like any other stray
    /// character.
    #[test]
    fn parser_never_panics_on_arbitrary_text(src in text()) {
        let _ = parse_hybrid(&src);
    }
}
