//! Hand-written known answers and the checks that hold every verdict to
//! them.
//!
//! The answers come from sources independent of the program under
//! test: the paper's theorems for its own constructions, Dally–Seitz
//! numberings for the production engines, Corollary 1 for the
//! misconfigurations, and the fault semantics of `docs/FAULTS.md`.
//! They are written out by hand in `jobs.rs`, never read back from an
//! earlier run of the program.

use std::fmt::Write as _;

/// The answer one job must reach. `None` means "not checked": the
/// field has no answer that can be stated without running the program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expect {
    /// `classifier.verdict` of the `wormserve/1` document.
    pub classifier: &'static str,
    /// `lint.verdict`.
    pub lint: Option<&'static str>,
    /// `existence.verdict` (the two-sided routability answer).
    pub existence: Option<&'static str>,
    /// `search.verdict` (`verify { engine = search | full }` only).
    pub search: Option<&'static str>,
    /// `sim.outcome` (`verify { engine = sim | full }` only).
    pub sim: Option<&'static str>,
    /// `faults.degraded`: the classifier verdict on the degraded table.
    pub degraded: Option<&'static str>,
}

/// The verdict fields a run produced, whether read from a `wormserve/1`
/// document or from the traced run's own calls into each layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Observed {
    pub classifier: Option<String>,
    pub lint: Option<String>,
    pub existence: Option<String>,
    pub search: Option<String>,
    pub sim: Option<String>,
    pub degraded: Option<String>,
}

impl Observed {
    /// Read the checked fields out of a `wormserve/1` document.
    pub fn from_document(doc: &str) -> Result<Observed, String> {
        let root = Json::parse(doc)?;
        if root.path(&["schema"]).and_then(Json::as_str) != Some("wormserve/1") {
            return Err("document schema is not wormserve/1".into());
        }
        let field = |path: &[&str]| root.path(path).and_then(Json::as_str).map(str::to_owned);
        Ok(Observed {
            classifier: field(&["classifier", "verdict"]),
            lint: field(&["lint", "verdict"]),
            existence: field(&["existence", "verdict"]),
            search: field(&["search", "verdict"]),
            sim: field(&["sim", "outcome"]),
            degraded: field(&["faults", "degraded"]),
        })
    }

    /// Every difference from `expect`, or `Ok` if there is none.
    pub fn check(&self, expect: &Expect) -> Result<(), String> {
        let mut diffs = String::new();
        let mut cmp = |what: &str, want: Option<&str>, got: &Option<String>| {
            if let Some(want) = want {
                if got.as_deref() != Some(want) {
                    let _ = write!(diffs, " {what}: want {want}, got {got:?};");
                }
            }
        };
        cmp("classifier", Some(expect.classifier), &self.classifier);
        cmp("lint", expect.lint, &self.lint);
        cmp("existence", expect.existence, &self.existence);
        cmp("search", expect.search, &self.search);
        cmp("sim", expect.sim, &self.sim);
        cmp("degraded", expect.degraded, &self.degraded);
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs)
        }
    }
}

/// A JSON value: just enough of the format to read verdict documents.
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Follow object keys from this value.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |v, key| match v {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of document".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_fields_of_a_verdict_document() {
        let doc = r#"{"classifier":{"cycles":1,"verdict":"deadlockable"},"lint":{"counts":{},"verdict":"deadlockable"},"schema":"wormserve/1","sim":{"members":[0,1],"outcome":"deadlock"}}"#;
        let seen = Observed::from_document(doc).unwrap();
        assert_eq!(seen.classifier.as_deref(), Some("deadlockable"));
        assert_eq!(seen.sim.as_deref(), Some("deadlock"));
        assert_eq!(seen.search, None);
        let expect = Expect {
            classifier: "deadlockable",
            sim: Some("delivered"),
            ..Expect::default()
        };
        assert!(seen.check(&expect).unwrap_err().contains("sim"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{\"a\":1").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert_eq!(
            Json::parse("[\"\\u0041\", -1.5e2, null]").unwrap(),
            Json::Arr(vec![Json::Str("A".into()), Json::Num(-150.0), Json::Null])
        );
    }
}
