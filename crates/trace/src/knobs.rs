//! The process environment, read in one place.
//!
//! Six `WTF_*` variables configure a run, and this module is the only
//! code in the workspace that reads the environment (wtf-audit's
//! `env-read` rule keeps it that way). Every value has one strict
//! grammar, and unset or empty means the default:
//!
//! | variable | values | default |
//! |---|---|---|
//! | `WTF_BACKEND` | `BackendKind::parse` (`mvstm`, `tl2`) | `mvstm` |
//! | `WTF_TRACE` | `0`/`off`, `1`/`lifecycle`, `2`/`full` | `0` |
//! | `WTF_CHECK`, `WTF_PROFILE` | `0`, `1` | `0` |
//! | `WTF_RESULTS_DIR` | a path | `results` |
//! | `WTF_SNAPSHOT_DIR` | a path | `results/snapshots` |
//!
//! A malformed value panics, naming the variable and what it accepts.
//! So does any other `WTF_*` name in the environment, at the first read:
//! a misspelled or retired knob is an error, not a silent default.

use crate::TraceLevel;
use std::path::PathBuf;
use std::sync::OnceLock;

const BACKEND: &str = "WTF_BACKEND";
const TRACE: &str = "WTF_TRACE";
const CHECK: &str = "WTF_CHECK";
const PROFILE: &str = "WTF_PROFILE";
const RESULTS_DIR: &str = "WTF_RESULTS_DIR";
const SNAPSHOT_DIR: &str = "WTF_SNAPSHOT_DIR";

/// Every variable a run reads.
const NAMES: [&str; 6] = [BACKEND, TRACE, CHECK, PROFILE, RESULTS_DIR, SNAPSHOT_DIR];

/// The knobs as seen through `read` (name → raw value): the process
/// environment via [`env`], a table in tests.
pub struct Knobs<R>(pub R);

/// The knobs of this process.
pub fn env() -> Knobs<fn(&str) -> Option<String>> {
    Knobs(read_process)
}

fn read_process(name: &str) -> Option<String> {
    static UNKNOWN: OnceLock<Option<String>> = OnceLock::new();
    let names = || std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned());
    if let Some(msg) = UNKNOWN.get_or_init(|| unknown(names())) {
        panic!("{msg}");
    }
    std::env::var_os(name).map(|v| {
        v.into_string()
            .unwrap_or_else(|_| panic!("{name} is not valid UTF-8"))
    })
}

/// The error for `WTF_*` names outside [`NAMES`] among `names`, if any.
fn unknown(names: impl IntoIterator<Item = String>) -> Option<String> {
    let mut bad: Vec<String> = names
        .into_iter()
        .filter(|n| n.starts_with("WTF_") && !NAMES.contains(&n.as_str()))
        .collect();
    bad.sort();
    (!bad.is_empty()).then(|| {
        format!(
            "unknown variable {}: the WTF_* knobs are {}",
            bad.join(", "),
            NAMES.join(", ")
        )
    })
}

impl<R: Fn(&str) -> Option<String>> Knobs<R> {
    /// `name` parsed by `parse`; `None` when unset or empty.
    fn parsed<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
        accepted: &str,
    ) -> Option<T> {
        let v = (self.0)(name).filter(|v| !v.is_empty())?;
        Some(parse(&v).unwrap_or_else(|| panic!("{name}={v:?}: expected {accepted}")))
    }

    fn flag(&self, name: &str) -> bool {
        let parse = |v: &str| match v {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        };
        self.parsed(name, parse, "0 or 1").unwrap_or(false)
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.parsed(name, |v| Some(PathBuf::from(v)), "a path")
    }

    /// `WTF_BACKEND` through the backend crate's own parser.
    pub fn backend<T>(&self, parse: impl FnOnce(&str) -> Option<T>, accepted: &str) -> Option<T> {
        self.parsed(BACKEND, parse, accepted)
    }

    /// `WTF_TRACE`.
    pub fn trace(&self) -> TraceLevel {
        self.parsed(TRACE, TraceLevel::parse, "0, 1, 2, off, lifecycle or full")
            .unwrap_or(TraceLevel::Off)
    }

    /// `WTF_CHECK`: re-verify every traced run with the offline checker.
    pub fn check(&self) -> bool {
        self.flag(CHECK)
    }

    /// `WTF_PROFILE`: attach a causal critical-path profile to traced runs.
    pub fn profile(&self) -> bool {
        self.flag(PROFILE)
    }

    /// `WTF_RESULTS_DIR`: where the figure binaries write.
    pub fn results_dir(&self) -> PathBuf {
        self.path(RESULTS_DIR)
            .unwrap_or_else(|| PathBuf::from("results"))
    }

    /// `WTF_SNAPSHOT_DIR`: graph dumps.
    pub fn snapshot_dir(&self) -> PathBuf {
        self.path(SNAPSHOT_DIR)
            .unwrap_or_else(|| PathBuf::from("results/snapshots"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The knobs over a fixed `name=value` table.
    fn with(table: &[(&str, &str)]) -> Knobs<impl Fn(&str) -> Option<String>> {
        let table: Vec<(String, String)> = table
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        Knobs(move |name: &str| {
            assert!(NAMES.contains(&name), "read of unlisted {name}");
            table
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        })
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("expected a panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn trace_table() {
        assert_eq!(with(&[]).trace(), TraceLevel::Off);
        assert_eq!(with(&[(TRACE, "")]).trace(), TraceLevel::Off);
        for (v, level) in [
            ("0", TraceLevel::Off),
            ("off", TraceLevel::Off),
            ("1", TraceLevel::Lifecycle),
            ("lifecycle", TraceLevel::Lifecycle),
            ("2", TraceLevel::Full),
            ("full", TraceLevel::Full),
        ] {
            assert_eq!(with(&[(TRACE, v)]).trace(), level, "{v}");
        }
        let msg = panic_message(|| {
            with(&[(TRACE, "yes")]).trace();
        });
        assert!(msg.starts_with("WTF_TRACE=\"yes\": expected"), "{msg}");
    }

    #[test]
    fn flag_tables() {
        for name in [CHECK, PROFILE] {
            let read = |table: &[(&str, &str)]| {
                let knobs = with(table);
                if name == CHECK {
                    knobs.check()
                } else {
                    knobs.profile()
                }
            };
            assert!(!read(&[]), "{name} unset");
            assert!(!read(&[(name, "")]), "{name} empty");
            assert!(!read(&[(name, "0")]));
            assert!(read(&[(name, "1")]));
            // `false` used to turn both on: any value but "" and "0" did.
            for bad in ["false", "true", "yes"] {
                let msg = panic_message(|| {
                    read(&[(name, bad)]);
                });
                assert_eq!(msg, format!("{name}={bad:?}: expected 0 or 1"));
            }
        }
    }

    #[test]
    fn path_tables() {
        let empty = with(&[]);
        assert_eq!(empty.results_dir(), PathBuf::from("results"));
        assert_eq!(empty.snapshot_dir(), PathBuf::from("results/snapshots"));
        let blank = with(&[(RESULTS_DIR, ""), (SNAPSHOT_DIR, "")]);
        assert_eq!(blank.results_dir(), PathBuf::from("results"));
        assert_eq!(blank.snapshot_dir(), PathBuf::from("results/snapshots"));
        let set = with(&[(RESULTS_DIR, "/r"), (SNAPSHOT_DIR, "/s")]);
        assert_eq!(set.results_dir(), PathBuf::from("/r"));
        assert_eq!(set.snapshot_dir(), PathBuf::from("/s"));
    }

    #[test]
    fn parsed_knobs_pass_the_parser_through() {
        let parse = |v: &str| (v == "a").then_some(7);
        assert_eq!(with(&[]).backend(parse, "a"), None);
        assert_eq!(with(&[(BACKEND, "a")]).backend(parse, "a"), Some(7));
        let msg = panic_message(|| {
            with(&[(BACKEND, "b")]).backend(parse, "a");
        });
        assert_eq!(msg, "WTF_BACKEND=\"b\": expected a");
    }

    #[test]
    fn unknown_names_are_rejected() {
        let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert_eq!(unknown(names(&["PATH", "WTF_TRACE", "WTF_BACKEND"])), None);
        let msg = unknown(names(&["WTF_DEBUG", "WTF_TRACE", "WTF_BACKNED"])).unwrap();
        assert!(
            msg.starts_with("unknown variable WTF_BACKNED, WTF_DEBUG: the WTF_* knobs are"),
            "{msg}"
        );
        // Every retired knob is now an unknown name.
        for retired in [
            "WTF_DEBUG",
            "WTF_GAUGE_PERIOD",
            "WTF_ABORT_STORM",
            "WTF_DUMP_LIMIT",
            "WTF_TELEMETRY",
            "WTF_TELEMETRY_EPOCH",
            "WTF_TELEMETRY_EPOCHS",
            "WTF_METRICS_EVERY",
            "WTF_INCIDENTS_FILE",
            "WTF_METRICS_ADDR",
            "WTF_CM",
            "WTF_METRICS_FILE",
        ] {
            assert!(unknown(names(&[retired])).is_some(), "{retired}");
        }
    }
}
