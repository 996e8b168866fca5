//! A minimal JSON reader and the `BENCH_native.json` schema check.
//!
//! The experiment binaries hand-render their JSON artifacts (the
//! workspace deliberately carries no serialization dependency), so the
//! schema gate needs a reader of the same weight: enough JSON to parse
//! what the binaries emit — objects, arrays, strings with the standard
//! escapes, numbers, booleans, null — and reject trailing garbage.
//! It is a validator's parser, not a general-purpose one: numbers
//! become `f64` (fine for counters well under 2^53) and object keys
//! keep their order.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `text` as a single JSON value (surrounding whitespace
    /// allowed, trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == what {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", what as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our ASCII
                        // artifacts; map unpaired surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the whole sequence through.
                let len = utf8_len(b);
                let end = *pos - 1 + len;
                let s = bytes
                    .get(*pos - 1..end)
                    .and_then(|sl| std::str::from_utf8(sl).ok())
                    .ok_or("bad utf-8 in string")?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// The schema tag `e24_native_metrics` writes and this gate expects.
pub const NATIVE_METRICS_SCHEMA: &str = "wfsort-native-metrics/v1";

fn require_num(run: &Json, key: &str, at: usize) -> Result<f64, String> {
    run.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("runs[{at}].{key}: missing or not a number"))
}

fn require_counts(run: &Json, group: &str, keys: &[&str], at: usize) -> Result<(), String> {
    let obj = run
        .get(group)
        .ok_or_else(|| format!("runs[{at}].{group}: missing"))?;
    for key in keys {
        let v = obj
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("runs[{at}].{group}.{key}: missing or not a number"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!(
                "runs[{at}].{group}.{key}: not a non-negative integer"
            ));
        }
    }
    Ok(())
}

/// Validates a `BENCH_native.json` document against the
/// [`NATIVE_METRICS_SCHEMA`] shape: schema tag, experiment id, and a
/// non-empty `runs` array in which every run carries the sweep
/// coordinates, timing, the four per-phase counter groups (block-claim
/// counts included), a CAS-failure rate inside `[0, 1]`, and a
/// `per_worker` breakdown whose length matches the job's
/// `tracked_slots` — a report that tracked more or fewer workers than
/// it metered is corrupt. Returns the number of runs.
pub fn validate_native_metrics(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(NATIVE_METRICS_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "schema: expected {NATIVE_METRICS_SCHEMA}, got {other}"
            ))
        }
        None => return Err("schema: missing".into()),
    }
    if doc.get("experiment").and_then(Json::as_str).is_none() {
        return Err("experiment: missing or not a string".into());
    }
    if doc.get("quick").and_then(Json::as_bool).is_none() {
        return Err("quick: missing or not a boolean".into());
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("runs: missing or not an array")?;
    if runs.is_empty() {
        return Err("runs: empty".into());
    }
    for (at, run) in runs.iter().enumerate() {
        for key in [
            "threads",
            "n",
            "elapsed_ms",
            "total_ops",
            "help_steps",
            "checkpoints",
            "tracked_slots",
        ] {
            require_num(run, key, at)?;
        }
        for key in ["shape", "allocation"] {
            if run.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("runs[{at}].{key}: missing or not a string"));
            }
        }
        if run.get("sorted").and_then(Json::as_bool) != Some(true) {
            return Err(format!("runs[{at}].sorted: missing or not true"));
        }
        require_counts(
            run,
            "build",
            &[
                "cas_attempts",
                "cas_failures",
                "descent_steps",
                "claims",
                "block_claims",
                "probes",
            ],
            at,
        )?;
        require_counts(run, "sum", &["visits", "skips"], at)?;
        require_counts(run, "place", &["visits", "skips"], at)?;
        require_counts(run, "scatter", &["claims", "block_claims", "probes"], at)?;
        let rate = require_num(run, "cas_failure_rate", at)?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!(
                "runs[{at}].cas_failure_rate: {rate} outside [0, 1]"
            ));
        }
        let tracked = require_num(run, "tracked_slots", at)?;
        let per_worker = run
            .get("per_worker")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("runs[{at}].per_worker: missing or not an array"))?;
        if per_worker.len() as f64 != tracked {
            return Err(format!(
                "runs[{at}].per_worker: {} entries but tracked_slots is {tracked}",
                per_worker.len()
            ));
        }
        for (slot, worker) in per_worker.iter().enumerate() {
            for key in ["help_steps", "checkpoints", "total_ops"] {
                if worker.get(key).and_then(Json::as_f64).is_none() {
                    return Err(format!(
                        "runs[{at}].per_worker[{slot}].{key}: missing or not a number"
                    ));
                }
            }
        }
    }
    Ok(runs.len())
}

/// The schema tag `e25_layout_bench` writes. v2 dropped the
/// packed-vs-legacy `throughput` and `cache_lines` sections along with
/// the legacy layout; v1 documents are rejected.
pub const LAYOUT_SCHEMA: &str = "wfsort-native-layout/v2";

/// Validates a `BENCH_layout.json` document against the
/// [`LAYOUT_SCHEMA`] shape:
///
/// * `grain_sweep`: non-empty, each entry a single-threaded run whose
///   deterministic `build_block_claims` must equal
///   `ceil((n - 1) / grain)` — the validator recomputes it;
/// * `arena`: fresh-allocation vs arena-reuse round timings.
///
/// Returns the total number of grain-sweep + arena entries.
pub fn validate_layout_bench(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(LAYOUT_SCHEMA) => {}
        Some(other) => return Err(format!("schema: expected {LAYOUT_SCHEMA}, got {other}")),
        None => return Err("schema: missing".into()),
    }
    if doc.get("experiment").and_then(Json::as_str).is_none() {
        return Err("experiment: missing or not a string".into());
    }
    if doc.get("quick").and_then(Json::as_bool).is_none() {
        return Err("quick: missing or not a boolean".into());
    }

    let sweep = doc
        .get("grain_sweep")
        .and_then(Json::as_array)
        .ok_or("grain_sweep: missing or not an array")?;
    if sweep.is_empty() {
        return Err("grain_sweep: empty".into());
    }
    for (at, entry) in sweep.iter().enumerate() {
        for key in [
            "n",
            "grain",
            "build_claims",
            "build_block_claims",
            "scatter_block_claims",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("grain_sweep[{at}].{key}: missing or not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!(
                    "grain_sweep[{at}].{key}: not a non-negative integer"
                ));
            }
        }
        if entry.get("sorted").and_then(Json::as_bool) != Some(true) {
            return Err(format!("grain_sweep[{at}].sorted: missing or not true"));
        }
        // Single-threaded block claims are fully deterministic: one per
        // real leaf block. Recompute and compare.
        let n = entry.get("n").and_then(Json::as_f64).unwrap() as u64;
        let grain = entry.get("grain").and_then(Json::as_f64).unwrap() as u64;
        if grain == 0 {
            return Err(format!("grain_sweep[{at}].grain: zero"));
        }
        let expect = (n - 1).div_ceil(grain);
        let got = entry
            .get("build_block_claims")
            .and_then(Json::as_f64)
            .unwrap() as u64;
        if got != expect {
            return Err(format!(
                "grain_sweep[{at}].build_block_claims: {got}, expected ceil((n-1)/grain) = {expect}"
            ));
        }
    }

    let arena = doc
        .get("arena")
        .and_then(Json::as_array)
        .ok_or("arena: missing or not an array")?;
    if arena.is_empty() {
        return Err("arena: empty".into());
    }
    for (at, entry) in arena.iter().enumerate() {
        for key in ["n", "rounds", "fresh_ms", "arena_ms"] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("arena[{at}].{key}: missing or not a number"))?;
            if v < 0.0 {
                return Err(format!("arena[{at}].{key}: negative"));
            }
        }
        if entry.get("sorted").and_then(Json::as_bool) != Some(true) {
            return Err(format!("arena[{at}].sorted: missing or not true"));
        }
    }

    Ok(sweep.len() + arena.len())
}

/// The schema tag `e26_sharded_bench` writes. v5 made the `inplace`
/// section the in-place ledger of the only Fill pipeline — the
/// auxiliary-memory cap plus an exact crash-free move count, with no
/// materialized comparison columns — and the `classify` rows' parity
/// flag a check against the stable `(key, index)` oracle.
pub const SHARDED_SCHEMA: &str = "wfsort-native-sharded/v5";

/// A retired sharded schema tag: v4's `inplace` rows compared the
/// in-place exchange against a materialized exchange that no longer
/// exists, so v4 documents are rejected with a pointer at the current
/// tag, like v3, v2 and v1 before it.
pub const SHARDED_SCHEMA_V4: &str = "wfsort-native-sharded/v4";

/// A retired sharded schema tag. Its one-release migration window (the
/// v4 release) is over: v3 documents are now rejected with a pointer at
/// the current tag, like v2 and v1 before it.
pub const SHARDED_SCHEMA_V3: &str = "wfsort-native-sharded/v3";

/// A retired sharded schema tag. Its one-release migration window (the
/// v3 release) is over: v2 documents are now rejected with a pointer
/// at the current tag, exactly as v1 was before it.
pub const SHARDED_SCHEMA_V2: &str = "wfsort-native-sharded/v2";

/// The retired sharded schema tag. The one-release migration window the
/// versioning policy in `docs/artifacts.md` promised is over: documents
/// carrying this tag are now rejected with a pointer at the current tag.
pub const SHARDED_SCHEMA_V1: &str = "wfsort-native-sharded/v1";

/// Validates a `BENCH_sharded.json` document against the
/// [`SHARDED_SCHEMA`] shape:
///
/// * `comparison`: non-empty sharded-vs-single-tree sweep — every entry
///   names a shape, carries its sweep coordinates (`n`, `threads`,
///   `shards`), both paths' best times, and proves both runs sorted
///   *and* that their permutations matched element-for-element
///   (`permutation_match` — the differential claim, self-validated);
/// * `balance`: per-configuration shard-size statistics whose
///   `sizes_sum` must equal `n` (the validator recomputes the
///   coverage) with `imbalance >= 1` (it is max/ideal);
/// * `counter_pins`: single-threaded deterministic runs — the validator
///   recomputes `partition_blocks = ceil(n / partition_grain)` and pins
///   `partition_claims = n`, `partition_block_claims = fill_claims =
///   partition_blocks`, and `shard_sort_claims = shards`;
/// * `adversarial` (required): the duplicate/skew battery — every entry
///   proves the achieved `imbalance` met the requested τ
///   (`within_requested`) and that the permutation matched the stable
///   `(key, index)` oracle (`permutation_match`), with the populated
///   `equality_buckets` count alongside;
/// * `classify` (required since v3): the classify timing rows — the
///   ladder's and the `piece_by_search` reference's best times with
///   `speedup = binary_ms / ladder_ms`, proof the instrumented sort
///   matched the stable oracle (`permutation_match`) and sorted, and
///   the fused Fill-entry pin: the validator recomputes
///   `fill_setup_steps = partition_blocks × buckets` (O(B·P), not
///   O(n)) and requires the lone instrumented run to have classified
///   every block (`kernel_blocks = partition_blocks`);
/// * `inplace` (required; v5 shape): the in-place ledger rows — every
///   entry pins the auxiliary-memory bound (`aux_bytes <= aux_cap`,
///   where `aux_cap = B·P·8` is recomputed from `partition_blocks ×
///   buckets × 8`), the exact crash-free move count (`moves = n +
///   range_slots`: one fill store per element plus one republication
///   per range-bucket slot, with `range_slots <= n`), a crash-free run
///   (`cycle_restarts = 0`), and proof the permutation matched the
///   stable oracle (`permutation_match`) and sorted; `bytes_touched`
///   is the Fill + shard-sort traffic ledger.
///
/// [`SHARDED_SCHEMA`] (v5) documents are fully enforced. The retired
/// [`SHARDED_SCHEMA_V4`], [`SHARDED_SCHEMA_V3`], [`SHARDED_SCHEMA_V2`]
/// and [`SHARDED_SCHEMA_V1`] tags are rejected with an explicit
/// message.
///
/// Returns the number of comparison + counter-pin + adversarial +
/// classify + inplace entries.
pub fn validate_sharded_bench(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SHARDED_SCHEMA) => {}
        Some(SHARDED_SCHEMA_V4) => {
            return Err(format!(
                "schema: {SHARDED_SCHEMA_V4} is no longer accepted (its \
                 inplace rows compare against the retired materialized \
                 exchange) — regenerate the artifact with e26_sharded_bench, \
                 which emits {SHARDED_SCHEMA}"
            ))
        }
        Some(retired @ (SHARDED_SCHEMA_V3 | SHARDED_SCHEMA_V2 | SHARDED_SCHEMA_V1)) => {
            return Err(format!(
                "schema: {retired} is no longer accepted (its one-release \
                 migration window is over) — regenerate the artifact with \
                 e26_sharded_bench, which emits {SHARDED_SCHEMA}"
            ))
        }
        Some(other) => return Err(format!("schema: expected {SHARDED_SCHEMA}, got {other}")),
        None => return Err("schema: missing".into()),
    }
    if doc.get("experiment").and_then(Json::as_str).is_none() {
        return Err("experiment: missing or not a string".into());
    }
    if doc.get("quick").and_then(Json::as_bool).is_none() {
        return Err("quick: missing or not a boolean".into());
    }

    let comparison = doc
        .get("comparison")
        .and_then(Json::as_array)
        .ok_or("comparison: missing or not an array")?;
    if comparison.is_empty() {
        return Err("comparison: empty".into());
    }
    for (at, entry) in comparison.iter().enumerate() {
        if entry.get("shape").and_then(Json::as_str).is_none() {
            return Err(format!("comparison[{at}].shape: missing or not a string"));
        }
        for key in [
            "n",
            "threads",
            "shards",
            "sharded_ms",
            "single_ms",
            "speedup",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("comparison[{at}].{key}: missing or not a number"))?;
            if v < 0.0 {
                return Err(format!("comparison[{at}].{key}: negative"));
            }
        }
        for key in ["sharded_sorted", "single_sorted", "permutation_match"] {
            if entry.get(key).and_then(Json::as_bool) != Some(true) {
                return Err(format!("comparison[{at}].{key}: missing or not true"));
            }
        }
    }

    let balance = doc
        .get("balance")
        .and_then(Json::as_array)
        .ok_or("balance: missing or not an array")?;
    if balance.is_empty() {
        return Err("balance: empty".into());
    }
    for (at, entry) in balance.iter().enumerate() {
        if entry.get("shape").and_then(Json::as_str).is_none() {
            return Err(format!("balance[{at}].shape: missing or not a string"));
        }
        for key in ["n", "shards", "max_shard", "sizes_sum"] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("balance[{at}].{key}: missing or not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("balance[{at}].{key}: not a non-negative integer"));
            }
        }
        let n = entry.get("n").and_then(Json::as_f64).unwrap();
        let sum = entry.get("sizes_sum").and_then(Json::as_f64).unwrap();
        if sum != n {
            return Err(format!(
                "balance[{at}].sizes_sum: {sum}, but shard sizes must cover n = {n}"
            ));
        }
        let imbalance = entry
            .get("imbalance")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("balance[{at}].imbalance: missing or not a number"))?;
        if imbalance < 1.0 {
            return Err(format!(
                "balance[{at}].imbalance: {imbalance} below 1 (it is max/ideal)"
            ));
        }
    }

    let pins = doc
        .get("counter_pins")
        .and_then(Json::as_array)
        .ok_or("counter_pins: missing or not an array")?;
    if pins.is_empty() {
        return Err("counter_pins: empty".into());
    }
    for (at, entry) in pins.iter().enumerate() {
        for key in [
            "n",
            "shards",
            "partition_grain",
            "partition_blocks",
            "partition_claims",
            "partition_block_claims",
            "fill_claims",
            "shard_sort_claims",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("counter_pins[{at}].{key}: missing or not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!(
                    "counter_pins[{at}].{key}: not a non-negative integer"
                ));
            }
        }
        if entry.get("sorted").and_then(Json::as_bool) != Some(true) {
            return Err(format!("counter_pins[{at}].sorted: missing or not true"));
        }
        let get = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap() as u64;
        let (n, grain) = (get("n"), get("partition_grain"));
        if grain == 0 {
            return Err(format!("counter_pins[{at}].partition_grain: zero"));
        }
        let blocks = n.div_ceil(grain);
        if get("partition_blocks") != blocks {
            return Err(format!(
                "counter_pins[{at}].partition_blocks: {}, expected ceil(n/grain) = {blocks}",
                get("partition_blocks")
            ));
        }
        for (key, expect) in [
            ("partition_claims", n),
            ("partition_block_claims", blocks),
            ("fill_claims", blocks),
            ("shard_sort_claims", get("shards")),
        ] {
            if get(key) != expect {
                return Err(format!(
                    "counter_pins[{at}].{key}: {}, expected {expect} (single-threaded \
                     deterministic runs are exact)",
                    get(key)
                ));
            }
        }
    }

    let adversarial = doc
        .get("adversarial")
        .and_then(Json::as_array)
        .ok_or("adversarial: missing or not an array")?;
    if adversarial.is_empty() {
        return Err("adversarial: empty".into());
    }
    for (at, entry) in adversarial.iter().enumerate() {
        if entry.get("shape").and_then(Json::as_str).is_none() {
            return Err(format!("adversarial[{at}].shape: missing or not a string"));
        }
        for key in ["n", "shards", "equality_buckets"] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("adversarial[{at}].{key}: missing or not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!(
                    "adversarial[{at}].{key}: not a non-negative integer"
                ));
            }
        }
        let imbalance = entry
            .get("imbalance")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("adversarial[{at}].imbalance: missing or not a number"))?;
        if imbalance < 1.0 {
            return Err(format!(
                "adversarial[{at}].imbalance: {imbalance} below 1 (it is max/ideal)"
            ));
        }
        let requested = entry
            .get("requested_imbalance")
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                format!("adversarial[{at}].requested_imbalance: missing or not a number")
            })?;
        // NaN must fail this gate too, hence partial_cmp over `<=`.
        if requested.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!(
                "adversarial[{at}].requested_imbalance: {requested} not above 1 \
                 (the job normalizes τ before reporting)"
            ));
        }
        if imbalance > requested {
            return Err(format!(
                "adversarial[{at}]: achieved imbalance {imbalance} exceeds requested {requested}"
            ));
        }
        for key in ["within_requested", "permutation_match"] {
            if entry.get(key).and_then(Json::as_bool) != Some(true) {
                return Err(format!("adversarial[{at}].{key}: missing or not true"));
            }
        }
    }

    let classify = doc
        .get("classify")
        .and_then(Json::as_array)
        .ok_or("classify: missing or not an array (required since v3)")?;
    if classify.is_empty() {
        return Err("classify: empty".into());
    }
    for (at, entry) in classify.iter().enumerate() {
        if entry.get("shape").and_then(Json::as_str).is_none() {
            return Err(format!("classify[{at}].shape: missing or not a string"));
        }
        for key in [
            "n",
            "shards",
            "splitters",
            "buckets",
            "partition_blocks",
            "kernel_blocks",
            "classify_steps",
            "fill_setup_steps",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("classify[{at}].{key}: missing or not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("classify[{at}].{key}: not a non-negative integer"));
            }
        }
        for key in ["binary_ms", "ladder_ms", "speedup"] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("classify[{at}].{key}: missing or not a number"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("classify[{at}].{key}: not a non-negative number"));
            }
        }
        let get = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap() as u64;
        // The fused-histogram claim, recomputed: entering Fill costs
        // exactly the B·P offset-table reduction, never an O(n) scan.
        let table = get("partition_blocks") * get("buckets");
        if get("fill_setup_steps") != table {
            return Err(format!(
                "classify[{at}].fill_setup_steps: {}, expected partition_blocks × buckets \
                 = {table} (the fused histogram makes Fill entry O(B·P))",
                get("fill_setup_steps")
            ));
        }
        if get("kernel_blocks") != get("partition_blocks") {
            return Err(format!(
                "classify[{at}].kernel_blocks: {}, expected partition_blocks = {} \
                 (a lone instrumented run classifies each block exactly once)",
                get("kernel_blocks"),
                get("partition_blocks")
            ));
        }
        for key in ["sorted", "permutation_match"] {
            if entry.get(key).and_then(Json::as_bool) != Some(true) {
                return Err(format!("classify[{at}].{key}: missing or not true"));
            }
        }
    }

    let inplace = doc
        .get("inplace")
        .and_then(Json::as_array)
        .ok_or("inplace: missing or not an array")?;
    if inplace.is_empty() {
        return Err("inplace: empty".into());
    }
    for (at, entry) in inplace.iter().enumerate() {
        if entry.get("shape").and_then(Json::as_str).is_none() {
            return Err(format!("inplace[{at}].shape: missing or not a string"));
        }
        for key in [
            "n",
            "shards",
            "partition_blocks",
            "buckets",
            "aux_bytes",
            "aux_cap",
            "range_slots",
            "moves",
            "bytes_touched",
            "cycle_restarts",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("inplace[{at}].{key}: missing or not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("inplace[{at}].{key}: not a non-negative integer"));
            }
        }
        let get = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap() as u64;
        // The auxiliary-memory claim, recomputed: the in-place exchange
        // allocates only the B·P destination-offset table, never an
        // N-sized output buffer.
        let cap = get("partition_blocks") * get("buckets") * 8;
        if get("aux_cap") != cap {
            return Err(format!(
                "inplace[{at}].aux_cap: {}, expected partition_blocks × buckets × 8 = {cap}",
                get("aux_cap")
            ));
        }
        if get("aux_bytes") > cap {
            return Err(format!(
                "inplace[{at}].aux_bytes: {} exceeds the B·P·8 cap {cap} \
                 (the in-place exchange must not materialize the bucket buffer)",
                get("aux_bytes")
            ));
        }
        // The move-ledger claim: a crash-free run stores every element
        // once through the fill and republishes each range-bucket slot
        // once; equality buckets are final at fill time.
        if get("range_slots") > get("n") {
            return Err(format!(
                "inplace[{at}].range_slots: {} exceeds n = {}",
                get("range_slots"),
                get("n")
            ));
        }
        if get("moves") != get("n") + get("range_slots") {
            return Err(format!(
                "inplace[{at}].moves: {}, expected n + range_slots = {} \
                 (one fill store per element, one republication per range slot)",
                get("moves"),
                get("n") + get("range_slots")
            ));
        }
        if get("cycle_restarts") != 0 {
            return Err(format!(
                "inplace[{at}].cycle_restarts: {}, expected 0 (a crash-free run \
                 never tears a unit)",
                get("cycle_restarts")
            ));
        }
        for key in ["sorted", "permutation_match"] {
            if entry.get(key).and_then(Json::as_bool) != Some(true) {
                return Err(format!("inplace[{at}].{key}: missing or not true"));
            }
        }
    }

    Ok(comparison.len() + pins.len() + adversarial.len() + classify.len() + inplace.len())
}

/// The schema tag `e27_service_bench` writes. v2 added the `fairness`
/// section (work-conserving helper stints and weighted scheduling).
pub const SERVICE_SCHEMA: &str = "wfsort-native-service/v2";

/// Validates a `BENCH_service.json` document against the
/// [`SERVICE_SCHEMA`] shape:
///
/// * `throughput`: non-empty multi-tenant load sweep — every entry
///   carries its sweep coordinates (`workers`, `jobs`, `n`), wall time,
///   jobs-per-second, latency statistics, and proves every tenant's
///   output was bit-identical to a sequential sort (`all_identical`);
/// * `deadlines`: deadline-miss rows whose `missed + completed` must
///   equal `jobs`, with the zero-deadline row pinned to `missed ==
///   jobs` (a zero deadline on a non-trivial job always expires);
/// * `backpressure`: admission-control rows with exact accounting —
///   `admitted + rejected_queue_full == submitted` and at least one
///   rejection (the flood overruns the bounded queue by construction);
/// * `recovery`: chaos-storm rows with publication accounting —
///   `completed + workers_lost == admitted`, healthy tenants
///   bit-identical, and the victim either recovered or typed-failed;
/// * `fairness` (v2): work-conservation and weighted-scheduling rows —
///   each carries the scheduler's pick ledger (`queue_picks`,
///   `weighted_picks`, `helper_stints`, `max_stints`) with
///   `weighted_picks <= queue_picks` enforced per row, every tenant
///   bit-identical, and across the section at least one row must prove
///   helper joins (`helper_stints > 0` with multi-stint occupancy,
///   `max_stints >= 2`) and one must prove a weighted overtake
///   (`weighted_picks > 0`).
///
/// Every numeric field must be finite (no NaN/inf — degenerate service
/// telemetry is normalized upstream, and this gate enforces it).
///
/// Returns the total number of entries across the five arrays.
pub fn validate_service_bench(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SERVICE_SCHEMA) => {}
        Some(other) => return Err(format!("schema: expected {SERVICE_SCHEMA}, got {other}")),
        None => return Err("schema: missing".into()),
    }
    if doc.get("experiment").and_then(Json::as_str).is_none() {
        return Err("experiment: missing or not a string".into());
    }
    if doc.get("quick").and_then(Json::as_bool).is_none() {
        return Err("quick: missing or not a boolean".into());
    }

    // Shared helper: a required numeric field that must be finite and
    // non-negative. The ISSUE-6 imbalance fix normalizes degenerate
    // telemetry to finite values; any NaN/inf landing here is a bug.
    let num = |entry: &Json, section: &str, at: usize, key: &str| -> Result<f64, String> {
        let v = entry
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{section}[{at}].{key}: missing or not a number"))?;
        if !v.is_finite() {
            return Err(format!("{section}[{at}].{key}: not finite"));
        }
        if v < 0.0 {
            return Err(format!("{section}[{at}].{key}: negative"));
        }
        Ok(v)
    };

    let throughput = doc
        .get("throughput")
        .and_then(Json::as_array)
        .ok_or("throughput: missing or not an array")?;
    if throughput.is_empty() {
        return Err("throughput: empty".into());
    }
    for (at, entry) in throughput.iter().enumerate() {
        for key in [
            "workers",
            "jobs",
            "n",
            "total_ms",
            "jobs_per_s",
            "mean_latency_ms",
            "max_latency_ms",
            "mean_queued_ms",
            "mean_imbalance",
        ] {
            num(entry, "throughput", at, key)?;
        }
        if num(entry, "throughput", at, "jobs_per_s")? <= 0.0 {
            return Err(format!("throughput[{at}].jobs_per_s: not positive"));
        }
        if entry.get("all_identical").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "throughput[{at}].all_identical: missing or not true"
            ));
        }
    }

    let deadlines = doc
        .get("deadlines")
        .and_then(Json::as_array)
        .ok_or("deadlines: missing or not an array")?;
    if deadlines.is_empty() {
        return Err("deadlines: empty".into());
    }
    for (at, entry) in deadlines.iter().enumerate() {
        for key in ["deadline_us", "jobs", "missed", "completed"] {
            let v = num(entry, "deadlines", at, key)?;
            if v.fract() != 0.0 {
                return Err(format!("deadlines[{at}].{key}: not an integer"));
            }
        }
        let get = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap() as u64;
        let (jobs, missed, completed) = (get("jobs"), get("missed"), get("completed"));
        if missed + completed != jobs {
            return Err(format!(
                "deadlines[{at}]: missed ({missed}) + completed ({completed}) != jobs ({jobs})"
            ));
        }
        if get("deadline_us") == 0 && missed != jobs {
            return Err(format!(
                "deadlines[{at}]: zero deadline must miss every job, got {missed}/{jobs}"
            ));
        }
    }

    let backpressure = doc
        .get("backpressure")
        .and_then(Json::as_array)
        .ok_or("backpressure: missing or not an array")?;
    if backpressure.is_empty() {
        return Err("backpressure: empty".into());
    }
    for (at, entry) in backpressure.iter().enumerate() {
        for key in ["capacity", "submitted", "admitted", "rejected_queue_full"] {
            let v = num(entry, "backpressure", at, key)?;
            if v.fract() != 0.0 {
                return Err(format!("backpressure[{at}].{key}: not an integer"));
            }
        }
        let get = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap() as u64;
        if get("admitted") + get("rejected_queue_full") != get("submitted") {
            return Err(format!(
                "backpressure[{at}]: admitted ({}) + rejected_queue_full ({}) != submitted ({})",
                get("admitted"),
                get("rejected_queue_full"),
                get("submitted")
            ));
        }
        if get("rejected_queue_full") == 0 {
            return Err(format!(
                "backpressure[{at}].rejected_queue_full: zero — the flood must \
                 overrun the bounded queue"
            ));
        }
    }

    let recovery = doc
        .get("recovery")
        .and_then(Json::as_array)
        .ok_or("recovery: missing or not an array")?;
    if recovery.is_empty() {
        return Err("recovery: empty".into());
    }
    for (at, entry) in recovery.iter().enumerate() {
        for key in [
            "seed",
            "admitted",
            "completed",
            "workers_lost",
            "crash_recoveries",
        ] {
            let v = num(entry, "recovery", at, key)?;
            if v.fract() != 0.0 {
                return Err(format!("recovery[{at}].{key}: not an integer"));
            }
        }
        let get = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap() as u64;
        if get("completed") + get("workers_lost") != get("admitted") {
            return Err(format!(
                "recovery[{at}]: completed ({}) + workers_lost ({}) != admitted ({}) — \
                 every admitted job must publish exactly once",
                get("completed"),
                get("workers_lost"),
                get("admitted")
            ));
        }
        if entry.get("healthy_identical").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "recovery[{at}].healthy_identical: missing or not true"
            ));
        }
        if entry.get("victim_outcome").and_then(Json::as_str).is_none() {
            return Err(format!("recovery[{at}].victim_outcome: missing"));
        }
    }

    let fairness = doc
        .get("fairness")
        .and_then(Json::as_array)
        .ok_or("fairness: missing or not an array")?;
    if fairness.is_empty() {
        return Err("fairness: empty".into());
    }
    let (mut helper_proven, mut weighted_proven) = (false, false);
    for (at, entry) in fairness.iter().enumerate() {
        if entry.get("mode").and_then(Json::as_str).is_none() {
            return Err(format!("fairness[{at}].mode: missing or not a string"));
        }
        for key in [
            "workers",
            "jobs",
            "completed",
            "queue_picks",
            "weighted_picks",
            "helper_stints",
            "max_stints",
        ] {
            let v = num(entry, "fairness", at, key)?;
            if v.fract() != 0.0 {
                return Err(format!("fairness[{at}].{key}: not an integer"));
            }
        }
        let get = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap() as u64;
        if get("weighted_picks") > get("queue_picks") {
            return Err(format!(
                "fairness[{at}]: weighted_picks ({}) above queue_picks ({}) — an \
                 overtake is a kind of queue pick",
                get("weighted_picks"),
                get("queue_picks")
            ));
        }
        if entry.get("all_identical").and_then(Json::as_bool) != Some(true) {
            return Err(format!("fairness[{at}].all_identical: missing or not true"));
        }
        if get("helper_stints") > 0 && get("max_stints") >= 2 {
            helper_proven = true;
        }
        if get("weighted_picks") > 0 {
            weighted_proven = true;
        }
    }
    if !helper_proven {
        return Err(
            "fairness: no row proves work conservation (helper_stints > 0 \
                    with max_stints >= 2)"
                .into(),
        );
    }
    if !weighted_proven {
        return Err("fairness: no row proves a weighted overtake (weighted_picks > 0)".into());
    }

    Ok(throughput.len() + deadlines.len() + backpressure.len() + recovery.len() + fairness.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = Json::parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#).unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_f64(),
            Some(300.0)
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse(r#"{"a": "#).is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn unicode_escapes_and_utf8_pass_through() {
        let doc = Json::parse(r#""café — naïve""#).unwrap();
        assert_eq!(doc.as_str(), Some("café — naïve"));
    }

    fn valid_run() -> String {
        r#"{
            "threads": 2, "n": 100, "shape": "uniform-random",
            "allocation": "deterministic", "elapsed_ms": 1.5,
            "sorted": true, "total_ops": 900, "help_steps": 40,
            "checkpoints": 220, "cas_failure_rate": 0.01,
            "tracked_slots": 2,
            "per_worker": [
                {"help_steps": 25, "checkpoints": 110, "total_ops": 500},
                {"help_steps": 15, "checkpoints": 110, "total_ops": 400}
            ],
            "build": {"cas_attempts": 99, "cas_failures": 1,
                      "descent_steps": 700, "claims": 101,
                      "block_claims": 101, "probes": 130},
            "sum": {"visits": 180, "skips": 30},
            "place": {"visits": 150, "skips": 10},
            "scatter": {"claims": 100, "block_claims": 100, "probes": 120}
        }"#
        .to_string()
    }

    fn valid_doc(run: &str) -> String {
        format!(
            r#"{{"schema": "{NATIVE_METRICS_SCHEMA}", "experiment": "e24",
                "quick": true, "runs": [{run}]}}"#
        )
    }

    #[test]
    fn accepts_a_valid_document() {
        assert_eq!(validate_native_metrics(&valid_doc(&valid_run())), Ok(1));
    }

    #[test]
    fn rejects_wrong_schema_missing_fields_and_bad_rate() {
        let doc = valid_doc(&valid_run()).replace(NATIVE_METRICS_SCHEMA, "other/v0");
        assert!(validate_native_metrics(&doc)
            .unwrap_err()
            .starts_with("schema"));

        let doc = valid_doc(&valid_run().replace(r#""sorted": true"#, r#""sorted": false"#));
        assert!(validate_native_metrics(&doc)
            .unwrap_err()
            .contains("sorted"));

        let doc = valid_doc(
            &valid_run().replace(r#""cas_failure_rate": 0.01"#, r#""cas_failure_rate": 1.5"#),
        );
        assert!(validate_native_metrics(&doc)
            .unwrap_err()
            .contains("cas_failure_rate"));

        let doc =
            valid_doc(&valid_run().replace(r#""cas_failures": 1"#, r#""cas_failures": 1.25"#));
        assert!(validate_native_metrics(&doc)
            .unwrap_err()
            .contains("cas_failures"));

        let empty = format!(
            r#"{{"schema": "{NATIVE_METRICS_SCHEMA}", "experiment": "e24",
                "quick": true, "runs": []}}"#
        );
        assert_eq!(validate_native_metrics(&empty).unwrap_err(), "runs: empty");
    }

    #[test]
    fn rejects_per_worker_length_disagreeing_with_tracked_slots() {
        // One tracked slot claimed, two per-worker entries reported.
        let doc = valid_doc(&valid_run().replace(r#""tracked_slots": 2"#, r#""tracked_slots": 1"#));
        let err = validate_native_metrics(&doc).unwrap_err();
        assert!(
            err.contains("per_worker") && err.contains("tracked_slots"),
            "unexpected error: {err}"
        );

        let doc = valid_doc(&valid_run().replace(r#""per_worker": ["#, r#""per_worker_gone": ["#));
        assert!(validate_native_metrics(&doc)
            .unwrap_err()
            .contains("per_worker"));
    }

    #[test]
    fn rejects_missing_block_claims() {
        let doc = valid_doc(&valid_run().replace(r#""block_claims": 101, "#, ""));
        assert!(validate_native_metrics(&doc)
            .unwrap_err()
            .contains("block_claims"));
    }

    fn valid_layout_doc() -> String {
        format!(
            r#"{{"schema": "{LAYOUT_SCHEMA}", "experiment": "e25", "quick": true,
                "grain_sweep": [
                    {{"n": 4096, "grain": 1, "build_claims": 4095,
                      "build_block_claims": 4095, "scatter_block_claims": 4096,
                      "sorted": true}},
                    {{"n": 4096, "grain": 64, "build_claims": 4095,
                      "build_block_claims": 64, "scatter_block_claims": 64,
                      "sorted": true}}
                ],
                "arena": [
                    {{"n": 4096, "rounds": 8, "fresh_ms": 9.0, "arena_ms": 7.5,
                      "sorted": true}}
                ]}}"#
        )
    }

    #[test]
    fn accepts_a_valid_layout_document() {
        assert_eq!(validate_layout_bench(&valid_layout_doc()), Ok(3));
    }

    #[test]
    fn layout_validator_recomputes_block_claims_and_checks_shape() {
        let doc = valid_layout_doc()
            .replace(r#""build_block_claims": 64"#, r#""build_block_claims": 65"#);
        let err = validate_layout_bench(&doc).unwrap_err();
        assert!(
            err.contains("build_block_claims"),
            "unexpected error: {err}"
        );

        // v1 carried the retired packed-vs-legacy sections and has no
        // migration window: its tag is rejected outright.
        for tag in ["wfsort-native-layout/v1", "other/v0"] {
            let doc = valid_layout_doc().replace(LAYOUT_SCHEMA, tag);
            assert!(validate_layout_bench(&doc)
                .unwrap_err()
                .starts_with("schema"));
        }

        let doc = valid_layout_doc().replace(r#""arena": ["#, r#""arena": [], "x": ["#);
        assert_eq!(validate_layout_bench(&doc).unwrap_err(), "arena: empty");
    }

    fn valid_sharded_doc() -> String {
        format!(
            r#"{{"schema": "{SHARDED_SCHEMA}", "experiment": "e26", "quick": true,
                "comparison": [
                    {{"shape": "uniform-random", "n": 20000, "threads": 2,
                      "shards": 8, "sharded_ms": 2.0, "single_ms": 2.6,
                      "speedup": 1.3, "sharded_sorted": true,
                      "single_sorted": true, "permutation_match": true}}
                ],
                "balance": [
                    {{"shape": "uniform-random", "n": 20000, "shards": 8,
                      "max_shard": 2900, "sizes_sum": 20000,
                      "imbalance": 1.16}}
                ],
                "counter_pins": [
                    {{"n": 4096, "shards": 8, "partition_grain": 512,
                      "partition_blocks": 8, "partition_claims": 4096,
                      "partition_block_claims": 8, "fill_claims": 8,
                      "shard_sort_claims": 8, "sorted": true}}
                ],
                "adversarial": [
                    {{"shape": "all-equal", "n": 20000, "shards": 8,
                      "equality_buckets": 1, "imbalance": 1.14,
                      "requested_imbalance": 2.0, "within_requested": true,
                      "permutation_match": true}}
                ],
                "classify": [
                    {{"shape": "uniform-random", "n": 20000, "shards": 8,
                      "splitters": 7, "buckets": 15, "partition_blocks": 8,
                      "binary_ms": 2.4, "ladder_ms": 2.0, "speedup": 1.2,
                      "kernel_blocks": 8, "classify_steps": 100000,
                      "fill_setup_steps": 120, "sorted": true,
                      "permutation_match": true}}
                ],
                "inplace": [
                    {{"shape": "uniform-random", "n": 20000, "shards": 8,
                      "partition_blocks": 8, "buckets": 15,
                      "aux_bytes": 960, "aux_cap": 960,
                      "range_slots": 19000, "moves": 39000,
                      "bytes_touched": 500000,
                      "cycle_restarts": 0, "sorted": true,
                      "permutation_match": true}}
                ]}}"#
        )
    }

    #[test]
    fn accepts_a_valid_sharded_document() {
        assert_eq!(validate_sharded_bench(&valid_sharded_doc()), Ok(5));
    }

    #[test]
    fn retired_sharded_schema_tags_are_rejected_with_a_pointer() {
        // v1–v4 are retired: a document carrying any of those tags is
        // rejected even if its body would otherwise validate, and the
        // message says what to do.
        for retired in [
            SHARDED_SCHEMA_V1,
            SHARDED_SCHEMA_V2,
            SHARDED_SCHEMA_V3,
            SHARDED_SCHEMA_V4,
        ] {
            let doc = valid_sharded_doc().replace(SHARDED_SCHEMA, retired);
            let err = validate_sharded_bench(&doc).unwrap_err();
            assert!(err.contains(retired), "unexpected error: {err}");
            assert!(
                err.contains("no longer accepted"),
                "unexpected error: {err}"
            );
            assert!(err.contains(SHARDED_SCHEMA), "unexpected error: {err}");
        }

        // And the adversarial and inplace sections stay mandatory at the
        // current tag.
        for section in ["adversarial", "inplace"] {
            let missing = valid_sharded_doc().replace(
                &format!(r#""{section}": ["#),
                &format!(r#""{section}_renamed": ["#),
            );
            assert!(validate_sharded_bench(&missing)
                .unwrap_err()
                .contains(section));
        }
    }

    #[test]
    fn sharded_validator_enforces_inplace_ledger_pins() {
        // Auxiliary memory above the B·P·8 cap means the "in-place"
        // exchange quietly materialized a buffer — a hard failure.
        let doc = valid_sharded_doc().replace(r#""aux_bytes": 960"#, r#""aux_bytes": 961"#);
        let err = validate_sharded_bench(&doc).unwrap_err();
        assert!(err.contains("B·P·8 cap"), "unexpected error: {err}");

        // The cap itself is recomputed from blocks × buckets × 8.
        let doc = valid_sharded_doc().replace(r#""aux_cap": 960"#, r#""aux_cap": 1024"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("aux_cap"));

        // The move count is exact: one extra store means an element
        // was moved twice in a crash-free run.
        let doc = valid_sharded_doc().replace(r#""moves": 39000"#, r#""moves": 39001"#);
        let err = validate_sharded_bench(&doc).unwrap_err();
        assert!(err.contains("n + range_slots"), "unexpected error: {err}");

        let doc = valid_sharded_doc().replace(
            r#""range_slots": 19000, "moves": 39000"#,
            r#""range_slots": 20001, "moves": 40001"#,
        );
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("range_slots"));

        let doc =
            valid_sharded_doc().replace(r#""bytes_touched": 500000"#, r#""bytes_touched": -1"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("bytes_touched"));

        let doc = valid_sharded_doc().replace(r#""cycle_restarts": 0"#, r#""cycle_restarts": 2"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("cycle_restarts"));

        let doc = valid_sharded_doc().replace(
            r#""cycle_restarts": 0, "sorted": true,
                      "permutation_match": true"#,
            r#""cycle_restarts": 0, "sorted": true,
                      "permutation_match": false"#,
        );
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("inplace[0].permutation_match"));
    }

    #[test]
    fn sharded_validator_enforces_classify_pins() {
        // A `fill_setup_steps` that smells like O(n) — anything other
        // than exactly B·P — is a hard failure: it means the fused
        // histogram regressed back to the per-participant scan.
        let doc = valid_sharded_doc()
            .replace(r#""fill_setup_steps": 120"#, r#""fill_setup_steps": 20000"#);
        let err = validate_sharded_bench(&doc).unwrap_err();
        assert!(err.contains("O(B·P)"), "unexpected error: {err}");

        let doc = valid_sharded_doc().replace(r#""kernel_blocks": 8"#, r#""kernel_blocks": 9"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("kernel_blocks"));

        let doc = valid_sharded_doc().replace(r#""ladder_ms": 2.0"#, r#""ladder_ms": -2.0"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("ladder_ms"));

        let doc = valid_sharded_doc().replace(
            r#""fill_setup_steps": 120, "sorted": true,
                      "permutation_match": true"#,
            r#""fill_setup_steps": 120, "sorted": true,
                      "permutation_match": false"#,
        );
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("classify[0].permutation_match"));
    }

    #[test]
    fn sharded_validator_enforces_adversarial_bounds() {
        // Achieved imbalance above the requested τ is a hard failure
        // even if the flags claim success.
        let doc = valid_sharded_doc().replace(r#""imbalance": 1.14"#, r#""imbalance": 2.5"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("exceeds requested"));

        // The job normalizes τ to > 1 before reporting; a document
        // claiming τ = 1.0 was hand-edited.
        let doc = valid_sharded_doc().replace(
            r#""requested_imbalance": 2.0"#,
            r#""requested_imbalance": 1.0"#,
        );
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("requested_imbalance"));

        let doc = valid_sharded_doc().replace(
            r#""within_requested": true"#,
            r#""within_requested": false"#,
        );
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("within_requested"));
    }

    #[test]
    fn sharded_validator_recomputes_pins_and_coverage() {
        let doc = valid_sharded_doc()
            .replace(r#""partition_claims": 4096"#, r#""partition_claims": 4097"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("partition_claims"));

        let doc = valid_sharded_doc().replace(r#""fill_claims": 8"#, r#""fill_claims": 9"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("fill_claims"));

        let doc =
            valid_sharded_doc().replace(r#""partition_blocks": 8"#, r#""partition_blocks": 7"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("partition_blocks"));

        let doc = valid_sharded_doc().replace(r#""sizes_sum": 20000"#, r#""sizes_sum": 19999"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("sizes_sum"));

        let doc = valid_sharded_doc().replace(r#""imbalance": 1.16"#, r#""imbalance": 0.9"#);
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("imbalance"));

        let doc = valid_sharded_doc().replace(
            r#""permutation_match": true"#,
            r#""permutation_match": false"#,
        );
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .contains("permutation_match"));

        let doc = valid_sharded_doc().replace(SHARDED_SCHEMA, "other/v0");
        assert!(validate_sharded_bench(&doc)
            .unwrap_err()
            .starts_with("schema"));
    }

    fn valid_service_doc() -> String {
        format!(
            r#"{{"schema": "{SERVICE_SCHEMA}", "experiment": "e27", "quick": true,
                "throughput": [
                    {{"workers": 2, "jobs": 16, "n": 5000, "total_ms": 40.0,
                      "jobs_per_s": 400.0, "mean_latency_ms": 5.0,
                      "max_latency_ms": 12.0, "mean_queued_ms": 1.5,
                      "mean_imbalance": 1.0, "all_identical": true}}
                ],
                "deadlines": [
                    {{"deadline_us": 0, "jobs": 8, "missed": 8, "completed": 0}},
                    {{"deadline_us": 5000000, "jobs": 8, "missed": 0, "completed": 8}}
                ],
                "backpressure": [
                    {{"capacity": 2, "submitted": 64, "admitted": 9,
                      "rejected_queue_full": 55}}
                ],
                "recovery": [
                    {{"seed": 3, "admitted": 5, "completed": 5, "workers_lost": 0,
                      "crash_recoveries": 1, "healthy_identical": true,
                      "victim_outcome": "recovered"}}
                ],
                "fairness": [
                    {{"mode": "helper-join", "workers": 4, "jobs": 1,
                      "completed": 1, "queue_picks": 1, "weighted_picks": 0,
                      "helper_stints": 3, "max_stints": 4,
                      "all_identical": true}},
                    {{"mode": "weighted", "workers": 1, "jobs": 9,
                      "completed": 9, "queue_picks": 9, "weighted_picks": 4,
                      "helper_stints": 0, "max_stints": 1,
                      "all_identical": true}}
                ]}}"#
        )
    }

    #[test]
    fn accepts_a_valid_service_document() {
        assert_eq!(validate_service_bench(&valid_service_doc()), Ok(7));
    }

    #[test]
    fn service_validator_enforces_accounting_and_finiteness() {
        // Non-finite numerics are rejected outright (the ISSUE-6
        // imbalance fix guarantees the producer never emits them).
        let doc =
            valid_service_doc().replace(r#""mean_imbalance": 1.0"#, r#""mean_imbalance": 1e999"#);
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .contains("not finite"));

        let doc = valid_service_doc().replace(r#""missed": 8"#, r#""missed": 7"#);
        assert!(validate_service_bench(&doc).unwrap_err().contains("missed"));

        let doc = valid_service_doc().replace(r#""admitted": 9"#, r#""admitted": 8"#);
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .contains("rejected_queue_full"));

        let doc = valid_service_doc().replace(r#""workers_lost": 0"#, r#""workers_lost": 1"#);
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .contains("publish exactly once"));

        let doc = valid_service_doc().replace(
            r#""healthy_identical": true"#,
            r#""healthy_identical": false"#,
        );
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .contains("healthy_identical"));

        let doc = valid_service_doc().replace(SERVICE_SCHEMA, "other/v0");
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .starts_with("schema"));

        // The v1 service tag is simply an unknown schema now.
        let doc = valid_service_doc().replace(SERVICE_SCHEMA, "wfsort-native-service/v1");
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .starts_with("schema"));
    }

    #[test]
    fn service_validator_enforces_the_fairness_section() {
        // The pick ledger must balance: an overtake is a kind of queue
        // pick, so weighted_picks can never exceed queue_picks.
        let doc = valid_service_doc().replace(r#""weighted_picks": 4"#, r#""weighted_picks": 40"#);
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .contains("weighted_picks"));

        // Work conservation must be proven by at least one row: helper
        // stints with multi-stint occupancy.
        let doc = valid_service_doc().replace(r#""helper_stints": 3"#, r#""helper_stints": 0"#);
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .contains("work conservation"));

        // And so must a weighted overtake.
        let doc = valid_service_doc().replace(r#""weighted_picks": 4"#, r#""weighted_picks": 0"#);
        assert!(validate_service_bench(&doc)
            .unwrap_err()
            .contains("weighted overtake"));

        // A v2 document without the section at all is rejected.
        let doc = valid_service_doc().replace(r#""fairness": ["#, r#""fairness_renamed": ["#);
        assert_eq!(
            validate_service_bench(&doc).unwrap_err(),
            "fairness: missing or not an array"
        );
    }
}
