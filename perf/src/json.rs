//! A minimal JSON writer. Reading goes through `enkf_trace::json::parse`.

use std::fmt::Write as _;

/// Escape and quote a string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with every digit it was measured with (shortest
/// round-trip form).
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "JSON cannot carry {v}");
    format!("{v}")
}

/// `{"k":v,...}` from already-serialized values.
pub fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", string(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// `[v,...]` from already-serialized values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}
