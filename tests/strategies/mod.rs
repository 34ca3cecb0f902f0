//! Value strategies shared by the bit-identity property suites.

use landmark_explanation::entity::schema::AttributeKind;
use proptest::prelude::*;

pub fn attr_kind() -> impl Strategy<Value = AttributeKind> {
    prop_oneof![
        Just(AttributeKind::Name),
        Just(AttributeKind::Text),
        Just(AttributeKind::Numeric),
        Just(AttributeKind::Code),
    ]
}

/// One token: a word, a number, or awkward punctuation.
pub fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{1,5}",
        "[0-9]{1,3}",
        "[0-9]{1,2}\\.[0-9]{1,2}",
        Just("n/a".to_string()),
        Just("!!!".to_string()),
        Just("MiXeD".to_string()),
    ]
}

/// One attribute value: a handful of tokens (possibly none — empty values
/// must work too).
pub fn attr_value() -> impl Strategy<Value = String> {
    prop::collection::vec(token(), 0..4).prop_map(|w| w.join(" "))
}
