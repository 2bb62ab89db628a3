//! The JSON writer (`JsonValue`'s `Display`): every value prints as
//! compact text that `parse_json` reads back to an equal value.

use pcount_telemetry::{parse_json, JsonValue};
use proptest::prelude::*;

/// Any Unicode scalar value, weighted toward the ones the writer
/// escapes (control characters, quotes, backslashes) and toward the
/// multi-byte and non-BMP ranges.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        Just(u32::from('"')),
        Just(u32::from('\\')),
        0x20u32..0x80,
        0x80u32..0xD800,
        0xE000u32..0x11_0000,
    ]
    .prop_map(|c| char::from_u32(c).expect("scalar value"))
}

fn any_string() -> impl Strategy<Value = String> {
    collection::vec(any_char(), 0..8).prop_map(|chars| chars.into_iter().collect())
}

/// Integers up to 2^53 in magnitude, and fractional floats from 1e-300
/// to 1e300.
fn any_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-(1i64 << 53)..=1i64 << 53).prop_map(|n| n as f64),
        (-1.0f64..1.0, -300i32..300).prop_map(|(m, e)| m * 10f64.powi(e)),
    ]
}

/// Pops the innermost open container into its parent.
fn close(open: &mut Vec<(String, JsonValue)>) {
    let (key, value) = open.pop().expect("an open container");
    match &mut open.last_mut().expect("the root stays open").1 {
        JsonValue::Array(items) => items.push(value),
        JsonValue::Object(members) => {
            members.insert(key, value);
        }
        other => unreachable!("{other:?} is not a container"),
    }
}

/// Folds a flat list of draws into a tree: op 0 opens an array, 1 opens
/// an object, 2 closes the innermost container and anything else adds a
/// leaf to it (objects take the draw's key).
fn fold(draws: Vec<(u8, String, bool, f64, String)>) -> JsonValue {
    let mut open = vec![(String::new(), JsonValue::Array(Vec::new()))];
    for (op, key, flag, number, text) in draws {
        let value = match op {
            0 => JsonValue::Array(Vec::new()),
            1 => JsonValue::object::<String>([]),
            2 => {
                if open.len() > 1 {
                    close(&mut open);
                }
                continue;
            }
            3 => JsonValue::Null,
            4 => flag.into(),
            5 => number.into(),
            _ => text.into(),
        };
        open.push((key, value));
        if op > 1 {
            close(&mut open);
        }
    }
    while open.len() > 1 {
        close(&mut open);
    }
    open.pop().expect("the root").1
}

proptest! {
    #[test]
    fn written_values_parse_back_equal(
        draws in collection::vec((0u8..8, any_string(), any::<bool>(), any_number(), any_string()), 0..48)
    ) {
        let value = fold(draws);
        let text = value.to_string();
        prop_assert_eq!(parse_json(&text), Ok(value), "{}", text);
    }
}

#[test]
fn non_finite_numbers_are_written_as_null() {
    let value = JsonValue::array([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5]);
    assert_eq!(value.to_string(), "[null,null,null,1.5]");
}

#[test]
fn writer_is_compact_with_sorted_escaped_keys() {
    let value = JsonValue::object([
        ("b", Some(3u64).into()),
        ("a\n\"", None::<u64>.into()),
        (
            "c",
            JsonValue::array([
                true.into(),
                "x\u{1}".into(),
                (-2i64).into(),
                JsonValue::from(0.25),
            ]),
        ),
        ("max", i64::MAX.into()),
    ]);
    // i64::MAX rounds to 2^63, whose shortest round-trip form is below.
    assert_eq!(
        value.to_string(),
        r#"{"a\n\"":null,"b":3,"c":[true,"x\u0001",-2,0.25],"max":9223372036854776000}"#
    );
}
