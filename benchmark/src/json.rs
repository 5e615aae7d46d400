//! Lookups over the vendored `serde_json::Value`, which has no indexing.

use serde_json::Value;

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

pub fn get_f64(v: &Value, key: &str) -> Option<f64> {
    get(v, key)?.as_f64()
}

pub fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    get(v, key)?.as_str()
}

pub fn get_array<'a>(v: &'a Value, key: &str) -> Option<&'a [Value]> {
    get(v, key)?.as_array()
}

/// Read and parse a JSON file, with the path in the error.
pub fn read_file(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}
