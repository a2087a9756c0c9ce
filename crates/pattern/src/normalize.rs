//! Filename normalization templates.
//!
//! Paper §3.1: "Often an application prefers to enforce a particular
//! organizational structure to all the files that belong to a data feed,
//! for example organize the files into daily directories … The Bistro
//! file normalizer takes knowledge of field semantics embedded in feed
//! patterns to drive the normalization process."
//!
//! A [`Template`] re-renders a matched file's captures into the staging
//! path the subscriber wants. Template specifiers:
//!
//! | spec | renders |
//! |---|---|
//! | `%Y %y %m %d %H %M %S` | the feed timestamp assembled from the match |
//! | `%f` | the original file name (final path component) |
//! | `%N` | the feed name |
//! | `%1`…`%9` | the n-th captured field's text (1-based, all field kinds) |
//! | `%%` | a literal `%` |

use crate::ast::TsPart;
use crate::matcher::Captures;
use bistro_base::time::Calendar;
use std::fmt;

/// One element of a parsed template.
#[derive(Clone, Debug, PartialEq, Eq)]
enum TElem {
    Literal(String),
    Ts(TsPart),
    OrigName,
    FeedName,
    CaptureRef(usize),
}

/// Errors from template parsing or rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// The template ended with a bare `%`.
    TrailingPercent,
    /// Unknown `%x` specifier.
    UnknownSpecifier(char),
    /// The template was empty.
    Empty,
    /// A `%n` capture reference exceeded the available captures.
    CaptureOutOfRange(usize),
    /// The template uses a timestamp but the match captured no year.
    NoTimestamp,
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::TrailingPercent => write!(f, "template ends with a bare '%'"),
            TemplateError::UnknownSpecifier(c) => write!(f, "unknown template specifier '%{c}'"),
            TemplateError::Empty => write!(f, "empty template"),
            TemplateError::CaptureOutOfRange(n) => {
                write!(f, "capture reference %{n} exceeds available captures")
            }
            TemplateError::NoTimestamp => {
                write!(
                    f,
                    "template uses timestamp fields but match has no timestamp"
                )
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// A parsed normalization template.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Template {
    elems: Vec<TElem>,
    text: String,
}

impl Template {
    /// Parse a template from its textual form.
    pub fn parse(text: &str) -> Result<Template, TemplateError> {
        if text.is_empty() {
            return Err(TemplateError::Empty);
        }
        let mut elems = Vec::new();
        let mut lit = String::new();
        let mut chars = text.chars();
        let flush = |elems: &mut Vec<TElem>, lit: &mut String| {
            if !lit.is_empty() {
                elems.push(TElem::Literal(std::mem::take(lit)));
            }
        };
        while let Some(c) = chars.next() {
            if c != '%' {
                lit.push(c);
                continue;
            }
            let spec = chars.next().ok_or(TemplateError::TrailingPercent)?;
            match spec {
                '%' => lit.push('%'),
                'Y' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::Ts(TsPart::Year4));
                }
                'y' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::Ts(TsPart::Year2));
                }
                'm' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::Ts(TsPart::Month));
                }
                'd' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::Ts(TsPart::Day));
                }
                'H' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::Ts(TsPart::Hour));
                }
                'M' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::Ts(TsPart::Minute));
                }
                'S' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::Ts(TsPart::Second));
                }
                'f' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::OrigName);
                }
                'N' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::FeedName);
                }
                d @ '1'..='9' => {
                    flush(&mut elems, &mut lit);
                    elems.push(TElem::CaptureRef(d as usize - '1' as usize));
                }
                other => return Err(TemplateError::UnknownSpecifier(other)),
            }
        }
        flush(&mut elems, &mut lit);
        Ok(Template {
            elems,
            text: text.to_string(),
        })
    }

    /// The original textual form.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Render the staging path for a matched file.
    ///
    /// * `caps` — the captures from the feed pattern match.
    /// * `orig_name` — the original file name (final component).
    /// * `feed_name` — the feed's name.
    pub fn render(
        &self,
        caps: &Captures,
        orig_name: &str,
        feed_name: &str,
    ) -> Result<String, TemplateError> {
        let cal: Option<Calendar> = caps.timestamp().map(|tp| tp.to_calendar());
        let mut out = String::new();
        for e in &self.elems {
            match e {
                TElem::Literal(s) => out.push_str(s),
                TElem::OrigName => out.push_str(orig_name),
                TElem::FeedName => out.push_str(feed_name),
                TElem::CaptureRef(n) => {
                    let cap = caps
                        .all()
                        .get(*n)
                        .ok_or(TemplateError::CaptureOutOfRange(n + 1))?;
                    out.push_str(&cap.text);
                }
                TElem::Ts(part) => {
                    let cal = cal.ok_or(TemplateError::NoTimestamp)?;
                    match part {
                        TsPart::Year4 => out.push_str(&format!("{:04}", cal.year)),
                        TsPart::Year2 => out.push_str(&format!("{:02}", cal.year % 100)),
                        TsPart::Month => out.push_str(&format!("{:02}", cal.month)),
                        TsPart::Day => out.push_str(&format!("{:02}", cal.day)),
                        TsPart::Hour => out.push_str(&format!("{:02}", cal.hour)),
                        TsPart::Minute => out.push_str(&format!("{:02}", cal.minute)),
                        TsPart::Second => out.push_str(&format!("{:02}", cal.second)),
                    }
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

impl std::str::FromStr for Template {
    type Err = TemplateError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Template::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pattern;

    #[test]
    fn daily_directory_normalization() {
        // The paper's canonical example: organize files into daily dirs.
        let pat = Pattern::parse("MEMORY_poller%i_%Y%m%d.gz").unwrap();
        let caps = pat.match_str("MEMORY_poller2_20100925.gz").unwrap();
        let tpl = Template::parse("%Y/%m/%d/%f").unwrap();
        assert_eq!(
            tpl.render(&caps, "MEMORY_poller2_20100925.gz", "MEMORY")
                .unwrap(),
            "2010/09/25/MEMORY_poller2_20100925.gz"
        );
    }

    #[test]
    fn feed_hierarchy_layout() {
        let pat = Pattern::parse("CPU_POLL%i_%Y%m%d%H%M.txt").unwrap();
        let caps = pat.match_str("CPU_POLL2_201009251001.txt").unwrap();
        let tpl = Template::parse("%N/poller%1/%Y-%m-%d/%H%M.txt").unwrap();
        assert_eq!(
            tpl.render(&caps, "CPU_POLL2_201009251001.txt", "SNMP/CPU")
                .unwrap(),
            "SNMP/CPU/poller2/2010-09-25/1001.txt"
        );
    }

    #[test]
    fn capture_refs_are_one_based() {
        let pat = Pattern::parse("%a_%i.log").unwrap();
        let caps = pat.match_str("alarms_42.log").unwrap();
        let tpl = Template::parse("%2/%1").unwrap();
        assert_eq!(
            tpl.render(&caps, "alarms_42.log", "F").unwrap(),
            "42/alarms"
        );
        let tpl = Template::parse("%3").unwrap();
        assert_eq!(
            tpl.render(&caps, "alarms_42.log", "F"),
            Err(TemplateError::CaptureOutOfRange(3))
        );
    }

    #[test]
    fn timestamp_required_when_used() {
        let pat = Pattern::parse("file_%i.csv").unwrap();
        let caps = pat.match_str("file_3.csv").unwrap();
        let tpl = Template::parse("%Y/%f").unwrap();
        assert_eq!(
            tpl.render(&caps, "file_3.csv", "F"),
            Err(TemplateError::NoTimestamp)
        );
    }

    #[test]
    fn escape_and_errors() {
        let tpl = Template::parse("100%%/%f").unwrap();
        let pat = Pattern::parse("x%i").unwrap();
        let caps = pat.match_str("x1").unwrap();
        assert_eq!(tpl.render(&caps, "x1", "F").unwrap(), "100%/x1");
        assert_eq!(Template::parse(""), Err(TemplateError::Empty));
        assert_eq!(Template::parse("a%"), Err(TemplateError::TrailingPercent));
        assert_eq!(
            Template::parse("a%z"),
            Err(TemplateError::UnknownSpecifier('z'))
        );
    }

    #[test]
    fn two_digit_year_render() {
        let pat = Pattern::parse("f_%Y%m%d").unwrap();
        let caps = pat.match_str("f_20100925").unwrap();
        let tpl = Template::parse("%y-%m-%d/%f").unwrap();
        assert_eq!(
            tpl.render(&caps, "f_20100925", "F").unwrap(),
            "10-09-25/f_20100925"
        );
    }
}
