//! Chrome trace-event exporter (the JSON array format Perfetto loads).
//!
//! Span kinds become complete events (`"ph":"X"`, microsecond `ts` +
//! `dur`); everything else becomes an instant (`"ph":"i"`). We map the
//! runtime's clock units straight onto the format's microseconds — under
//! the virtual clock that makes one work unit render as 1 µs, which is
//! exactly the scale the figures reason in. All events share `pid` 1;
//! `tid` is the recording lane's index, so Perfetto shows one row per
//! worker/client thread. A trace whose lanes dropped events carries one
//! metadata record (`"ph":"M"`) named `events_dropped` with the count, so
//! an offline reader sees the truncation too; a complete trace has none.

use crate::event::{EventKind, Lanes, TraceEvent};
use crate::json::Json;

/// Name of the metadata record that carries the drop count.
const DROPPED: &str = "events_dropped";

/// Renders `(lane_index, events)` groups as a Chrome trace JSON array,
/// plus the drop-count record when `dropped > 0`.
pub fn chrome_trace(lanes: &[(usize, Vec<TraceEvent>)], dropped: u64) -> Json {
    let mut out = Vec::new();
    if dropped > 0 {
        out.push(Json::obj(vec![
            ("name", DROPPED.into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("args", Json::obj(vec![("count", dropped.into())])),
        ]));
    }
    for (tid, events) in lanes {
        for ev in events {
            let (a_name, b_name) = ev.kind.arg_names();
            let mut fields = vec![
                ("name", ev.kind.name().into()),
                ("ph", if ev.kind.is_span() { "X" } else { "i" }.into()),
                ("ts", ev.ts.into()),
            ];
            let args = if ev.kind.is_span() {
                // For spans `a` is the duration; surface only `b` as an arg.
                fields.push(("dur", ev.a.into()));
                vec![(b_name, Json::U64(ev.b))]
            } else {
                fields.push(("s", "t".into()));
                vec![(a_name, Json::U64(ev.a)), (b_name, Json::U64(ev.b))]
            };
            fields.push(("pid", 1u64.into()));
            fields.push(("tid", (*tid as u64).into()));
            fields.push(("args", Json::obj(args)));
            out.push(Json::obj(fields));
        }
    }
    Json::Arr(out)
}

/// Parses a Chrome trace JSON array (as produced by [`chrome_trace`])
/// back into `(lane_index, events)` groups and the drop count, the
/// inverse mapping `wtf-report` uses to analyze exported traces offline.
///
/// Records whose `name` is not a known [`EventKind`] are skipped (a
/// foreign trace may carry metadata records); records with a known name
/// but missing/mistyped fields are errors — silently dropping those
/// would let a truncated or corrupted trace pass vacuously.
pub fn parse_chrome_trace(json: &Json) -> Result<(Lanes, u64), String> {
    let records = json
        .as_arr()
        .ok_or("chrome trace: top level is not an array")?;
    let mut lanes: Lanes = Vec::new();
    let mut dropped = 0;
    for (i, rec) in records.iter().enumerate() {
        let name = match rec.get("name").and_then(Json::as_str) {
            Some(n) => n,
            None => return Err(format!("chrome trace: record {i} has no name")),
        };
        let field = |key: &str| -> Result<u64, String> {
            rec.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("chrome trace: record {i} ({name}): bad field {key:?}"))
        };
        let arg = |key: &str| -> Result<u64, String> {
            rec.get("args")
                .and_then(|a| a.get(key))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("chrome trace: record {i} ({name}): bad arg {key:?}"))
        };
        if name == DROPPED {
            dropped += arg("count")?;
            continue;
        }
        let kind = match EventKind::from_name(name) {
            Some(k) => k,
            None => continue,
        };
        let ts = field("ts")?;
        let tid = field("tid")? as usize;
        let (a_name, b_name) = kind.arg_names();
        let (a, b) = if kind.is_span() {
            (field("dur")?, arg(b_name)?)
        } else {
            (arg(a_name)?, arg(b_name)?)
        };
        let ev = TraceEvent { ts, kind, a, b };
        match lanes.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, evs)) => evs.push(ev),
            None => lanes.push((tid, vec![ev])),
        }
    }
    lanes.sort_by_key(|(t, _)| *t);
    Ok((lanes, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn spans_and_instants_render() {
        let lanes = vec![(
            0usize,
            vec![
                TraceEvent {
                    ts: 5,
                    kind: EventKind::TopCommit,
                    a: 1,
                    b: 9,
                },
                TraceEvent {
                    ts: 10,
                    kind: EventKind::StmCommitSpan,
                    a: 4,
                    b: 9,
                },
            ],
        )];
        let j = chrome_trace(&lanes, 0);
        let arr = j.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("ph"), Some(&Json::Str("i".into())));
        assert_eq!(arr[1].get("ph"), Some(&Json::Str("X".into())));
        assert_eq!(arr[1].get("dur"), Some(&Json::U64(4)));
        // Whole export round-trips through the parser.
        let s = j.to_string();
        assert_eq!(Json::parse(&s).unwrap(), j);
    }

    #[test]
    fn export_import_round_trip() {
        let lanes = vec![
            (
                0usize,
                vec![
                    TraceEvent {
                        ts: 1,
                        kind: EventKind::TopBegin,
                        a: 7,
                        b: 0,
                    },
                    TraceEvent {
                        ts: 5,
                        kind: EventKind::CommitRead,
                        a: 3,
                        b: 0,
                    },
                    TraceEvent {
                        ts: 5,
                        kind: EventKind::TopCommit,
                        a: 7,
                        b: 1,
                    },
                ],
            ),
            (
                2usize,
                vec![TraceEvent {
                    ts: 9,
                    kind: EventKind::StmCommitSpan,
                    a: 4,
                    b: 2,
                }],
            ),
        ];
        let exported = chrome_trace(&lanes, 0);
        let back = parse_chrome_trace(&exported).unwrap();
        assert_eq!(back, (lanes.clone(), 0));
        // Unknown record names are skipped, not errors.
        let mut arr = exported.as_arr().unwrap().to_vec();
        arr.push(Json::obj(vec![
            ("name", "metadata".into()),
            ("ph", "M".into()),
        ]));
        assert_eq!(
            parse_chrome_trace(&Json::Arr(arr)).unwrap(),
            (lanes.clone(), 0)
        );
        // A known name with a missing field is an error.
        let bad = Json::Arr(vec![Json::obj(vec![("name", "top_commit".into())])]);
        assert!(parse_chrome_trace(&bad).is_err());
    }

    #[test]
    fn drop_count_round_trips_and_only_when_nonzero() {
        let lanes = vec![(
            0usize,
            vec![TraceEvent {
                ts: 1,
                kind: EventKind::TopBegin,
                a: 7,
                b: 0,
            }],
        )];
        let complete = chrome_trace(&lanes, 0);
        assert!(!complete.to_string().contains(DROPPED));
        let truncated = chrome_trace(&lanes, 5);
        assert_eq!(truncated.as_arr().unwrap().len(), 2);
        assert_eq!(parse_chrome_trace(&truncated).unwrap(), (lanes, 5));
        // A drop record without its count is an error, not a silent 0.
        let bad = Json::Arr(vec![Json::obj(vec![("name", DROPPED.into())])]);
        assert!(parse_chrome_trace(&bad).is_err());
    }
}
