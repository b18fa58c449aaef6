//! Error types of the recipe crate.

use core::fmt;

/// Errors from building or parsing recipes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecipeError {
    /// The recipe name is empty.
    EmptyName,
    /// The recipe declares no tasks.
    NoTasks,
    /// A task id is empty.
    EmptyTaskId,
    /// A task id appears twice.
    DuplicateTask(String),
    /// An edge references an undeclared task.
    UnknownTask(String),
    /// An edge connects a task to itself.
    SelfLoop(String),
    /// The task graph contains a cycle.
    Cycle,
}

impl fmt::Display for RecipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecipeError::EmptyName => write!(f, "recipe name must be non-empty"),
            RecipeError::NoTasks => write!(f, "recipe declares no tasks"),
            RecipeError::EmptyTaskId => write!(f, "task id must be non-empty"),
            RecipeError::DuplicateTask(id) => write!(f, "duplicate task id {id:?}"),
            RecipeError::UnknownTask(id) => write!(f, "edge references unknown task {id:?}"),
            RecipeError::SelfLoop(id) => write!(f, "task {id:?} connects to itself"),
            RecipeError::Cycle => write!(f, "task graph contains a cycle"),
        }
    }
}

impl std::error::Error for RecipeError {}

/// Errors from parsing the recipe DSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Unexpected character at the given line.
    UnexpectedChar {
        /// 1-based source line.
        line: usize,
        /// The offending character.
        found: char,
    },
    /// Unterminated string literal.
    UnterminatedString {
        /// 1-based source line.
        line: usize,
    },
    /// Unexpected token.
    UnexpectedToken {
        /// 1-based source line.
        line: usize,
        /// What was found.
        found: String,
        /// What the parser wanted.
        expected: String,
    },
    /// Premature end of input.
    UnexpectedEof {
        /// What the parser wanted.
        expected: String,
    },
    /// Unknown task kind name.
    UnknownKind {
        /// 1-based source line.
        line: usize,
        /// The unknown kind.
        kind: String,
    },
    /// A required parameter is missing.
    MissingParam {
        /// The task kind.
        kind: String,
        /// The missing parameter.
        param: &'static str,
    },
    /// A parameter has the wrong type (e.g. string where number needed).
    BadParam {
        /// The task kind.
        kind: String,
        /// The parameter name.
        param: &'static str,
        /// Explanation.
        reason: &'static str,
    },
    /// The parsed graph failed recipe validation.
    Invalid(RecipeError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedChar { line, found } => {
                write!(f, "line {line}: unexpected character {found:?}")
            }
            ParseError::UnterminatedString { line } => {
                write!(f, "line {line}: unterminated string literal")
            }
            ParseError::UnexpectedToken {
                line,
                found,
                expected,
            } => write!(f, "line {line}: expected {expected}, found {found}"),
            ParseError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseError::UnknownKind { line, kind } => {
                write!(f, "line {line}: unknown task kind {kind:?}")
            }
            ParseError::MissingParam { kind, param } => {
                write!(f, "task kind {kind:?} requires parameter {param:?}")
            }
            ParseError::BadParam {
                kind,
                param,
                reason,
            } => write!(f, "parameter {param:?} of {kind:?} is invalid: {reason}"),
            ParseError::Invalid(e) => write!(f, "parsed recipe is invalid: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<RecipeError> for ParseError {
    fn from(e: RecipeError) -> Self {
        ParseError::Invalid(e)
    }
}

/// Errors from task assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignError {
    /// No module is available at all.
    NoModules,
    /// No module offers the capability a task requires.
    NoCapableModule {
        /// The task that could not be placed.
        task: String,
        /// The capability it requires.
        capability: String,
    },
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::NoModules => write!(f, "no modules available for assignment"),
            AssignError::NoCapableModule { task, capability } => {
                write!(
                    f,
                    "no module offers capability {capability:?} for task {task:?}"
                )
            }
        }
    }
}

impl std::error::Error for AssignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(RecipeError::Cycle),
            Box::new(RecipeError::DuplicateTask("x".into())),
            Box::new(ParseError::UnexpectedEof {
                expected: "a token".into(),
            }),
            Box::new(AssignError::NoModules),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn recipe_error_converts_to_parse_error() {
        let p: ParseError = RecipeError::Cycle.into();
        assert_eq!(p, ParseError::Invalid(RecipeError::Cycle));
    }
}
