//! Record construction: field values, JSON string building, event emission.

use crate::context::push_context;
use crate::json::{write_f64, write_str};
use crate::span::{current_span_id, thread_ordinal};
use crate::{now_us, write_line, Level};

/// A structured field value.
///
/// Numbers are carried in their natural width; non-finite floats serialize
/// as `null` (JSON has no NaN/inf literals), matching the convention of the
/// workspace's experiment logs.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(x: u64) -> Self {
        FieldValue::U64(x)
    }
}

impl From<usize> for FieldValue {
    fn from(x: usize) -> Self {
        FieldValue::U64(x as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(x: u32) -> Self {
        FieldValue::U64(u64::from(x))
    }
}

impl From<i64> for FieldValue {
    fn from(x: i64) -> Self {
        FieldValue::I64(x)
    }
}

impl From<i32> for FieldValue {
    fn from(x: i32) -> Self {
        FieldValue::I64(i64::from(x))
    }
}

impl From<f64> for FieldValue {
    fn from(x: f64) -> Self {
        FieldValue::F64(x)
    }
}

impl From<f32> for FieldValue {
    fn from(x: f32) -> Self {
        FieldValue::F64(f64::from(x))
    }
}

impl From<bool> for FieldValue {
    fn from(x: bool) -> Self {
        FieldValue::Bool(x)
    }
}

impl From<&str> for FieldValue {
    fn from(x: &str) -> Self {
        FieldValue::Str(x.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(x: String) -> Self {
        FieldValue::Str(x)
    }
}

impl From<&String> for FieldValue {
    fn from(x: &String) -> Self {
        FieldValue::Str(x.clone())
    }
}

pub(crate) fn push_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(x) => out.push_str(&x.to_string()),
        FieldValue::I64(x) => out.push_str(&x.to_string()),
        FieldValue::F64(x) => write_f64(out, *x),
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => write_str(out, s),
    }
}

pub(crate) fn push_fields(out: &mut String, fields: &[(&str, FieldValue)]) {
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        push_field_value(out, v);
    }
    out.push('}');
}

/// Serializes and writes one event record. Prefer the [`crate::event!`]
/// macro, which guards the call (and field construction) behind
/// [`crate::enabled`].
pub fn emit_event(level: Level, target: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    let mut line = String::with_capacity(96 + 24 * fields.len());
    line.push_str("{\"t\":\"event\",\"ts_us\":");
    line.push_str(&now_us().to_string());
    line.push_str(",\"lvl\":\"");
    line.push_str(level.as_str());
    line.push_str("\",\"target\":");
    write_str(&mut line, target);
    line.push_str(",\"msg\":");
    write_str(&mut line, msg);
    line.push_str(",\"span\":");
    line.push_str(&current_span_id().to_string());
    line.push_str(",\"thread\":");
    line.push_str(&thread_ordinal().to_string());
    push_context(&mut line);
    push_fields(&mut line, fields);
    line.push('}');
    write_line(&line);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-4i32), FieldValue::I64(-4));
        assert_eq!(FieldValue::from(0.5f32), FieldValue::F64(0.5));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".to_owned()));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut out = String::new();
        push_field_value(&mut out, &FieldValue::F64(f64::NAN));
        assert_eq!(out, "null");
    }
}
