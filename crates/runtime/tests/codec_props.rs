//! Property-based tests for the wire codec: arbitrary values round-trip, and
//! corrupted frames never decode into a different message silently... they
//! either decode to the original or fail.

use proptest::prelude::*;

use zooid_runtime::codec::{decode_message, encode_message, Message};
use zooid_proc::Value;

/// A strategy for arbitrary payload values (bounded depth).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<u64>().prop_map(Value::Nat),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Value::inl),
            inner.clone().prop_map(Value::inr),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Value::pair(a, b)),
            proptest::collection::vec(inner, 0..4).prop_map(Value::Seq),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_message_round_trips(label in "[a-zA-Z_][a-zA-Z0-9_]{0,12}", value in value_strategy()) {
        let msg = Message::new(label, value);
        let encoded = encode_message(&msg);
        let decoded = decode_message(&encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncations_never_decode_to_the_original(value in value_strategy(), cut_fraction in 0.0f64..1.0) {
        let msg = Message::new("label", value);
        let encoded = encode_message(&msg);
        let cut = ((encoded.len() as f64) * cut_fraction) as usize;
        if cut < encoded.len() {
            // Truncation may still parse if the dropped suffix was not
            // needed... but then it must not silently equal the original
            // unless nothing was actually dropped.
            if let Ok(decoded) = decode_message(&encoded[..cut]) {
                prop_assert!(decoded != msg || cut == encoded.len());
            }
        }
    }

    #[test]
    fn appending_garbage_is_always_rejected(value in value_strategy(), garbage in 1usize..8) {
        let msg = Message::new("l", value);
        let mut encoded = encode_message(&msg).to_vec();
        encoded.extend(std::iter::repeat_n(0xAA, garbage));
        prop_assert!(decode_message(&encoded).is_err());
    }

    /// The in-memory transport now passes `(Label, Value)` frames directly
    /// and no longer exercises the codec on every message, so this suite is
    /// the codec's sole guardian: `decode ∘ encode = id` must keep holding
    /// for every value shape (the TCP path depends on it).
    #[test]
    fn round_trip_is_the_identity_on_every_shape_combination(
        label in "[a-zA-Z_][a-zA-Z0-9_]{0,12}",
        a in value_strategy(),
        b in value_strategy(),
    ) {
        // Force every composite constructor around arbitrary leaves, so no
        // tag is ever only reachable through the generator's whims.
        for value in [
            Value::pair(a.clone(), b.clone()),
            Value::inl(a.clone()),
            Value::inr(b.clone()),
            Value::Seq(vec![a.clone(), b.clone(), a.clone()]),
            Value::pair(Value::inr(Value::Seq(vec![b])), Value::inl(a)),
        ] {
            let msg = Message::new(label.as_str(), value);
            prop_assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        }
    }
}
