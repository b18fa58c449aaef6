//! The recipe DSL — a small declarative language for task graphs.
//!
//! Defining "the language to describe recipes" is listed as future work in
//! the paper's conclusion; this module implements it. Example:
//!
//! ```text
//! recipe elderly_monitoring {
//!     task accel:  sense(sensor = "accel", rate_hz = 20);
//!     task detect: anomaly(detector = "lof", threshold = 2.5);
//!     task alarm:  actuate(actuator = "alert");
//!
//!     accel -> detect -> alarm;
//! }
//! ```
//!
//! Grammar (EBNF):
//!
//! ```text
//! recipe   := "recipe" ident "{" item* "}"
//! item     := taskdecl | flowdecl
//! taskdecl := "task" ident ":" ident "(" params? ")" ";"
//! params   := param ("," param)*
//! param    := ident "=" (string | number | ident)
//! flowdecl := ident ("->" ident)+ ";"
//! ```

use std::collections::BTreeMap;

use crate::error::ParseError;
use crate::model::{Recipe, Task, TaskKind};

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Number(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Colon,
    Semicolon,
    Comma,
    Equals,
    Arrow,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier {s:?}"),
            Token::Str(s) => format!("string {s:?}"),
            Token::Number(n) => format!("number {n}"),
            Token::LBrace => "'{'".into(),
            Token::RBrace => "'}'".into(),
            Token::LParen => "'('".into(),
            Token::RParen => "')'".into(),
            Token::Colon => "':'".into(),
            Token::Semicolon => "';'".into(),
            Token::Comma => "','".into(),
            Token::Equals => "'='".into(),
            Token::Arrow => "'->'".into(),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Token, usize)>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = 1usize;
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => {
                chars.next();
                tokens.push((Token::LBrace, line));
            }
            '}' => {
                chars.next();
                tokens.push((Token::RBrace, line));
            }
            '(' => {
                chars.next();
                tokens.push((Token::LParen, line));
            }
            ')' => {
                chars.next();
                tokens.push((Token::RParen, line));
            }
            ':' => {
                chars.next();
                tokens.push((Token::Colon, line));
            }
            ';' => {
                chars.next();
                tokens.push((Token::Semicolon, line));
            }
            ',' => {
                chars.next();
                tokens.push((Token::Comma, line));
            }
            '=' => {
                chars.next();
                tokens.push((Token::Equals, line));
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some('>') => {
                        chars.next();
                        tokens.push((Token::Arrow, line));
                    }
                    Some(d) if d.is_ascii_digit() => {
                        let n = lex_number(&mut chars, true, line)?;
                        tokens.push((Token::Number(n), line));
                    }
                    _ => return Err(ParseError::UnexpectedChar { line, found: '-' }),
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        line += 1;
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(ParseError::UnterminatedString { line });
                }
                tokens.push((Token::Str(s), line));
            }
            c if c.is_ascii_digit() => {
                let n = lex_number(&mut chars, false, line)?;
                tokens.push((Token::Number(n), line));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push((Token::Ident(s), line));
            }
            found => return Err(ParseError::UnexpectedChar { line, found }),
        }
    }
    Ok(tokens)
}

fn lex_number(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    negative: bool,
    line: usize,
) -> Result<f64, ParseError> {
    let mut s = String::new();
    if negative {
        s.push('-');
    }
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() || c == '.' {
            s.push(c);
            chars.next();
        } else {
            break;
        }
    }
    s.parse::<f64>().map_err(|_| ParseError::UnexpectedToken {
        line,
        found: s,
        expected: "a number".into(),
    })
}

#[derive(Debug, Clone, PartialEq)]
enum ParamValue {
    Str(String),
    Number(f64),
}

impl ParamValue {
    fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(s) => Some(s),
            ParamValue::Number(_) => None,
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            ParamValue::Number(n) => Some(*n),
            ParamValue::Str(_) => None,
        }
    }

    fn render(&self) -> String {
        match self {
            ParamValue::Str(s) => s.clone(),
            ParamValue::Number(n) => format!("{n}"),
        }
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&(Token, usize)> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self, expected: &str) -> Result<(Token, usize), ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseError::UnexpectedEof {
                expected: expected.into(),
            })?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: Token) -> Result<usize, ParseError> {
        let (t, line) = self.next(&want.describe())?;
        if t == want {
            Ok(line)
        } else {
            Err(ParseError::UnexpectedToken {
                line,
                found: t.describe(),
                expected: want.describe(),
            })
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, usize), ParseError> {
        let (t, line) = self.next(what)?;
        match t {
            Token::Ident(s) => Ok((s, line)),
            other => Err(ParseError::UnexpectedToken {
                line,
                found: other.describe(),
                expected: what.into(),
            }),
        }
    }
}

/// Parses a recipe from DSL source.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical, syntactic,
/// parameter or graph-validation problem.
///
/// ```
/// let src = r#"
///     recipe demo {
///         task s: sense(sensor = "sound", rate_hz = 10);
///         task d: anomaly(detector = "zscore", threshold = 3);
///         s -> d;
///     }
/// "#;
/// let recipe = ifot_recipe::dsl::parse(src)?;
/// assert_eq!(recipe.name(), "demo");
/// assert_eq!(recipe.tasks().len(), 2);
/// # Ok::<(), ifot_recipe::error::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Recipe, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };

    let (kw, line) = p.ident("keyword 'recipe'")?;
    if kw != "recipe" {
        return Err(ParseError::UnexpectedToken {
            line,
            found: format!("identifier {kw:?}"),
            expected: "keyword 'recipe'".into(),
        });
    }
    let (name, _) = p.ident("recipe name")?;
    p.expect(Token::LBrace)?;

    let mut builder = Recipe::builder(name);
    loop {
        match p.peek() {
            Some((Token::RBrace, _)) => {
                p.pos += 1;
                break;
            }
            Some((Token::Ident(id), _)) if id == "task" => {
                p.pos += 1;
                let (task_id, _) = p.ident("task id")?;
                p.expect(Token::Colon)?;
                let (kind_name, kind_line) = p.ident("task kind")?;
                p.expect(Token::LParen)?;
                let mut params: BTreeMap<String, ParamValue> = BTreeMap::new();
                if !matches!(p.peek(), Some((Token::RParen, _))) {
                    loop {
                        let (key, _) = p.ident("parameter name")?;
                        p.expect(Token::Equals)?;
                        let (t, vline) = p.next("parameter value")?;
                        let value = match t {
                            Token::Str(s) => ParamValue::Str(s),
                            Token::Number(n) => ParamValue::Number(n),
                            Token::Ident(s) => ParamValue::Str(s),
                            other => {
                                return Err(ParseError::UnexpectedToken {
                                    line: vline,
                                    found: other.describe(),
                                    expected: "a string, number or identifier".into(),
                                })
                            }
                        };
                        params.insert(key, value);
                        match p.next("',' or ')'")? {
                            (Token::Comma, _) => continue,
                            (Token::RParen, _) => break,
                            (other, oline) => {
                                return Err(ParseError::UnexpectedToken {
                                    line: oline,
                                    found: other.describe(),
                                    expected: "',' or ')'".into(),
                                })
                            }
                        }
                    }
                } else {
                    p.pos += 1; // consume ')'
                }
                p.expect(Token::Semicolon)?;
                let task = build_task(task_id, &kind_name, kind_line, params)?;
                builder = builder.task(task);
            }
            Some((Token::Ident(_), _)) => {
                // Flow declaration: a -> b -> c ;
                let (mut prev, _) = p.ident("task id")?;
                loop {
                    match p.next("'->' or ';'")? {
                        (Token::Arrow, _) => {
                            let (next, _) = p.ident("task id")?;
                            builder = builder.edge(prev.clone(), next.clone());
                            prev = next;
                        }
                        (Token::Semicolon, _) => break,
                        (other, line) => {
                            return Err(ParseError::UnexpectedToken {
                                line,
                                found: other.describe(),
                                expected: "'->' or ';'".into(),
                            })
                        }
                    }
                }
            }
            Some((t, line)) => {
                return Err(ParseError::UnexpectedToken {
                    line: *line,
                    found: t.describe(),
                    expected: "'task', a flow declaration, or '}'".into(),
                })
            }
            None => {
                return Err(ParseError::UnexpectedEof {
                    expected: "'}'".into(),
                })
            }
        }
    }
    builder.build().map_err(ParseError::from)
}

fn build_task(
    id: String,
    kind_name: &str,
    line: usize,
    params: BTreeMap<String, ParamValue>,
) -> Result<Task, ParseError> {
    let str_param = |params: &BTreeMap<String, ParamValue>, key: &'static str| {
        params
            .get(key)
            .ok_or(ParseError::MissingParam {
                kind: kind_name.to_owned(),
                param: key,
            })?
            .as_str()
            .map(str::to_owned)
            .ok_or(ParseError::BadParam {
                kind: kind_name.to_owned(),
                param: key,
                reason: "expected a string",
            })
    };
    let num_param = |params: &BTreeMap<String, ParamValue>, key: &'static str| {
        params
            .get(key)
            .ok_or(ParseError::MissingParam {
                kind: kind_name.to_owned(),
                param: key,
            })?
            .as_number()
            .ok_or(ParseError::BadParam {
                kind: kind_name.to_owned(),
                param: key,
                reason: "expected a number",
            })
    };

    let (kind, consumed): (TaskKind, &[&str]) = match kind_name {
        "sense" => (
            TaskKind::Sense {
                sensor: str_param(&params, "sensor")?,
                rate_hz: num_param(&params, "rate_hz")?,
            },
            &["sensor", "rate_hz"],
        ),
        "window" => (
            TaskKind::Window {
                size_ms: num_param(&params, "size_ms")? as u64,
            },
            &["size_ms"],
        ),
        "train" => (
            TaskKind::Train {
                algorithm: str_param(&params, "algorithm")?,
            },
            &["algorithm"],
        ),
        "predict" => (
            TaskKind::Predict {
                algorithm: str_param(&params, "algorithm")?,
            },
            &["algorithm"],
        ),
        "anomaly" => (
            TaskKind::DetectAnomaly {
                detector: str_param(&params, "detector")?,
                threshold: num_param(&params, "threshold")?,
            },
            &["detector", "threshold"],
        ),
        "estimate" => (
            TaskKind::Estimate {
                model: str_param(&params, "model")?,
            },
            &["model"],
        ),
        "policy" => (
            TaskKind::Policy {
                key: str_param(&params, "key")?,
                on_above: num_param(&params, "on_above")?,
                off_below: num_param(&params, "off_below")?,
                emit: str_param(&params, "emit")?,
            },
            &["key", "on_above", "off_below", "emit"],
        ),
        "actuate" => (
            TaskKind::Actuate {
                actuator: str_param(&params, "actuator")?,
            },
            &["actuator"],
        ),
        "custom" => (
            TaskKind::Custom {
                operator: str_param(&params, "operator")?,
            },
            &["operator"],
        ),
        other => {
            return Err(ParseError::UnknownKind {
                line,
                kind: other.to_owned(),
            })
        }
    };

    // Any parameter not consumed by the kind is kept as free-form extra.
    let mut task = Task::new(id, kind);
    for (k, v) in params {
        if !consumed.contains(&k.as_str()) {
            task.params.insert(k, v.render());
        }
    }
    Ok(task)
}

/// Renders a recipe back to DSL source (inverse of [`parse`] up to
/// formatting).
pub fn render(recipe: &Recipe) -> String {
    let mut out = format!("recipe {} {{\n", recipe.name());
    for t in recipe.tasks() {
        let kind = &t.kind;
        let mut args = match kind {
            TaskKind::Sense { sensor, rate_hz } => {
                format!("sense(sensor = \"{sensor}\", rate_hz = {rate_hz})")
            }
            TaskKind::Window { size_ms } => format!("window(size_ms = {size_ms})"),
            TaskKind::Train { algorithm } => format!("train(algorithm = \"{algorithm}\")"),
            TaskKind::Predict { algorithm } => {
                format!("predict(algorithm = \"{algorithm}\")")
            }
            TaskKind::DetectAnomaly {
                detector,
                threshold,
            } => format!("anomaly(detector = \"{detector}\", threshold = {threshold})"),
            TaskKind::Estimate { model } => format!("estimate(model = \"{model}\")"),
            TaskKind::Policy {
                key,
                on_above,
                off_below,
                emit,
            } => format!(
                "policy(key = \"{key}\", on_above = {on_above}, off_below = {off_below}, emit = \"{emit}\")"
            ),
            TaskKind::Actuate { actuator } => format!("actuate(actuator = \"{actuator}\")"),
            TaskKind::Custom { operator } => format!("custom(operator = \"{operator}\")"),
        };
        // Free-form extra parameters (e.g. mix_interval_ms, replicas) are
        // appended inside the argument list so render ∘ parse = identity.
        if !t.params.is_empty() {
            let extras: Vec<String> = t
                .params
                .iter()
                .map(|(k, v)| {
                    if v.parse::<f64>().is_ok() {
                        format!("{k} = {v}")
                    } else {
                        format!("{k} = \"{v}\"")
                    }
                })
                .collect();
            let insert_at = args.len() - 1; // before the closing ')'
            let has_args = !args.ends_with("()");
            let joined = if has_args {
                format!(", {}", extras.join(", "))
            } else {
                extras.join(", ")
            };
            args.insert_str(insert_at, &joined);
        }
        out.push_str(&format!("    task {}: {};\n", t.id, args));
    }
    for (from, to) in recipe.edges() {
        out.push_str(&format!("    {from} -> {to};\n"));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RecipeError;
    use crate::model::fig5_elderly_monitoring;

    const DEMO: &str = r#"
        # The Fig. 5 style pipeline, trimmed.
        recipe demo {
            task accel:  sense(sensor = "accel", rate_hz = 20);
            task sound:  sense(sensor = "sound", rate_hz = 20);
            task win:    window(size_ms = 100);
            task detect: anomaly(detector = "lof", threshold = 2.5);
            task alarm:  actuate(actuator = "alert");

            accel -> win;
            sound -> win;
            win -> detect -> alarm;
        }
    "#;

    #[test]
    fn parses_demo_recipe() {
        let r = parse(DEMO).expect("parses");
        assert_eq!(r.name(), "demo");
        assert_eq!(r.tasks().len(), 5);
        assert_eq!(r.edges().len(), 4);
        assert_eq!(r.roots().len(), 2);
        assert_eq!(r.leaves(), vec!["alarm"]);
        match &r.task("accel").expect("present").kind {
            TaskKind::Sense { sensor, rate_hz } => {
                assert_eq!(sensor, "accel");
                assert_eq!(*rate_hz, 20.0);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn chained_arrows_create_all_edges() {
        let r = parse(
            "recipe c { task a: window(size_ms = 1); task b: window(size_ms = 1); \
             task d: window(size_ms = 1); a -> b -> d; }",
        )
        .expect("parses");
        assert_eq!(
            r.edges(),
            &[
                ("a".to_owned(), "b".to_owned()),
                ("b".to_owned(), "d".to_owned())
            ]
        );
    }

    #[test]
    fn extra_params_preserved() {
        let r = parse("recipe e { task t: train(algorithm = \"pa\", mix_interval_ms = 500); }")
            .expect("parses");
        assert_eq!(
            r.task("t").expect("present").params.get("mix_interval_ms"),
            Some(&"500".to_owned())
        );
    }

    #[test]
    fn missing_required_param_reported() {
        let err = parse("recipe e { task t: sense(sensor = \"x\"); }").expect_err("missing rate");
        assert_eq!(
            err,
            ParseError::MissingParam {
                kind: "sense".into(),
                param: "rate_hz"
            }
        );
    }

    #[test]
    fn wrong_param_type_reported() {
        let err = parse("recipe e { task t: sense(sensor = 5, rate_hz = 1); }")
            .expect_err("numeric sensor");
        assert!(matches!(
            err,
            ParseError::BadParam {
                param: "sensor",
                ..
            }
        ));
    }

    #[test]
    fn unknown_kind_reported_with_line() {
        let err = parse("recipe e {\n task t: teleport();\n }").expect_err("unknown kind");
        assert_eq!(
            err,
            ParseError::UnknownKind {
                line: 2,
                kind: "teleport".into()
            }
        );
    }

    #[test]
    fn syntax_errors_carry_positions() {
        assert!(matches!(
            parse("recipe e { task }"),
            Err(ParseError::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse("recipe e { task t window(); }"),
            Err(ParseError::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse("recipe e {"),
            Err(ParseError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            parse("recipe e { task t: window(size_ms = \"x ); }"),
            Err(ParseError::UnterminatedString { .. })
        ));
        assert!(matches!(
            parse("recipe ! {}"),
            Err(ParseError::UnexpectedChar { .. })
        ));
    }

    #[test]
    fn graph_validation_runs_after_parse() {
        let err = parse("recipe e { task a: window(size_ms = 1); a -> ghost; }")
            .expect_err("dangling edge");
        assert!(matches!(err, ParseError::Invalid(_)));
        let err = parse(
            "recipe e { task a: window(size_ms = 1); task b: window(size_ms = 1); a -> b; b -> a; }",
        )
        .expect_err("cycle");
        assert_eq!(err, ParseError::Invalid(RecipeError::Cycle));
    }

    #[test]
    fn negative_numbers_lex() {
        let r = parse("recipe e { task t: anomaly(detector = \"z\", threshold = -1.5); }")
            .expect("parses");
        match &r.task("t").expect("present").kind {
            TaskKind::DetectAnomaly { threshold, .. } => assert_eq!(*threshold, -1.5),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let original = fig5_elderly_monitoring();
        let src = render(&original);
        let back = parse(&src).expect("rendered recipe parses");
        assert_eq!(back, original);
    }

    #[test]
    fn render_preserves_extra_params() {
        let src =
            "recipe e { task t: train(algorithm = \"pa\", mix_interval_ms = 500, tag = \"x\"); }";
        let original = parse(src).expect("parses");
        let rendered = render(&original);
        assert!(rendered.contains("mix_interval_ms = 500"), "{rendered}");
        assert!(rendered.contains("tag = \"x\""), "{rendered}");
        let back = parse(&rendered).expect("re-parses");
        assert_eq!(back, original);
    }

    #[test]
    fn empty_param_list_allowed_for_custom() {
        let err = parse("recipe e { task t: custom(); }").expect_err("operator required");
        assert!(matches!(err, ParseError::MissingParam { .. }));
    }
}
