//! Process-aware analysis of merged multi-process traces.
//!
//! A `pdc-trace/3` snapshot concatenates per-process `pdc-trace/2`
//! slices, and two things stop the single-stream analyses from applying
//! directly:
//!
//! 1. **Logical clocks don't order across processes.** Each process
//!    timestamps events with its own counter, so a receive can carry a
//!    *smaller* `ts` than the send that caused it. [`causal_order`]
//!    rebuilds one globally consistent order: it round-robins the
//!    per-process streams (each already in-order) and holds back a
//!    `recv` until the matching `send` on its directed pair has been
//!    emitted — receive #k on pair (src, dst) is enabled by send #k.
//!    The result is re-timestamped 1..n.
//! 2. **Process-local ids collide numerically.** Lock sites, variable
//!    ids and fork/join handles are per-address-space values; process 1
//!    and process 2 can both report "site 7" meaning unrelated mutexes.
//!    Comparing them as equal would fabricate cross-process races and
//!    lock-order cycles between processes that share no memory, so
//!    those ids are namespaced by process before analysis. Collective
//!    ids and rank ids are *global* vocabulary and pass through
//!    untouched — the collective-order lint still compares ranks
//!    against each other.
//!
//! [`analyze_merged`] composes both steps with the ordinary
//! [`crate::analyze_events`] pipeline, so one CI gate covers threaded
//! and multi-process runs alike.

use crate::report::Report;
use pdc_core::merge::MergedTrace;
use pdc_core::trace::{Event, EventKind};
use std::collections::BTreeMap;

/// Process-local ids live below the user-space address-space ceiling
/// (and trace site ids are tiny counters), so the owning process fits
/// in the bits above without collision.
const PROCESS_ID_SHIFT: u32 = 48;

fn namespace_local_ids(process: u32, e: &mut Event) {
    // Only per-address-space ids move; ranks, collective codes, byte
    // counts and sequence numbers are global vocabulary, shared across
    // processes on purpose.
    if e.kind.a_is_local_id() {
        e.a = ((process as u64) << PROCESS_ID_SHIFT).wrapping_add(e.a);
    }
}

/// Rebuild one causally consistent, re-timestamped event stream from a
/// merged trace's per-process slices.
///
/// Progress is guaranteed even on incomplete traces: when every stream
/// is blocked on a receive whose send was never recorded (e.g. dropped
/// by a full ring buffer), the lowest blocked process emits its head
/// anyway and the walk continues — the MPI lint then reports the
/// mismatch instead of the analysis hanging.
pub fn causal_order(trace: &MergedTrace) -> Vec<Event> {
    let mut queues: Vec<(u32, std::collections::VecDeque<Event>)> = trace
        .processes
        .iter()
        .map(|p| {
            let mut evs: Vec<Event> = p.events.clone();
            evs.sort_by_key(|e| e.ts);
            (p.process, evs.into())
        })
        .collect();
    let mut sends: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut recvs: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut out = Vec::new();
    let total: usize = queues.iter().map(|(_, q)| q.len()).sum();
    while out.len() < total {
        let mut progressed = false;
        for (process, queue) in &mut queues {
            while let Some(head) = queue.front() {
                if head.kind == EventKind::Recv {
                    let pair = (head.a as u32, head.actor);
                    let sent = sends.get(&pair).copied().unwrap_or(0);
                    let seen = recvs.entry(pair).or_insert(0);
                    if *seen >= sent {
                        break; // the enabling send hasn't been emitted
                    }
                    *seen += 1;
                }
                let mut e = queue.pop_front().unwrap();
                if e.kind == EventKind::Send {
                    *sends.entry((e.actor, e.a as u32)).or_insert(0) += 1;
                }
                namespace_local_ids(*process, &mut e);
                e.ts = out.len() as u64 + 1;
                out.push(e);
                progressed = true;
            }
        }
        if !progressed {
            // Every stream is blocked: the trace is incomplete. Force
            // the first blocked head out so the walk terminates and the
            // lint can name the unmatched message.
            let (process, queue) = queues
                .iter_mut()
                .find(|(_, q)| !q.is_empty())
                .expect("some queue is non-empty while out < total");
            let mut e = queue.pop_front().unwrap();
            *recvs.entry((e.a as u32, e.actor)).or_insert(0) += 1;
            namespace_local_ids(*process, &mut e);
            e.ts = out.len() as u64 + 1;
            out.push(e);
        }
    }
    out
}

/// Analyse a merged multi-process trace: causally reorder the slices,
/// namespace process-local ids, then run all four single-stream
/// analyses over the result.
pub fn analyze_merged(trace: &MergedTrace) -> Report {
    let mut report = crate::analyze_events(&causal_order(trace));
    report.dropped = trace.dropped();
    report
}

/// Shrink a merged trace around failed processes — the analysis-side
/// analogue of an MPI communicator shrink after a fault.
///
/// A process killed mid-run never snapshots its slice, and every
/// message the survivors exchanged with it is causally one-sided: a
/// `Send` whose `Recv` died with the peer, or a `Recv` whose `Send` was
/// never written down. Feeding those to [`analyze_merged`] reports
/// unmatched-message defects that describe the *fault*, not a bug in
/// the survivors. `shrink_failed` removes the failed processes' slices
/// (if present) and every survivor `Send`/`Recv` whose peer failed, so
/// the verdict judges only the communication among survivors — which a
/// correct fault-tolerant run must leave fully matched.
pub fn shrink_failed(trace: &MergedTrace, failed: &[u32]) -> MergedTrace {
    let parts = trace
        .processes
        .iter()
        .filter(|p| !failed.contains(&p.process))
        .map(|p| {
            let mut p = p.clone();
            p.events.retain(|e| {
                !matches!(e.kind, EventKind::Send | EventKind::Recv)
                    || !failed.contains(&(e.a as u32))
            });
            p
        })
        .collect();
    MergedTrace::merge(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefectKind;
    use pdc_core::merge::ProcessTrace;

    fn ev(ts: u64, actor: u32, kind: EventKind, a: u64, b: u64) -> Event {
        Event {
            ts,
            actor,
            kind,
            a,
            b,
        }
    }

    fn proc(process: u32, events: Vec<Event>) -> ProcessTrace {
        ProcessTrace {
            process,
            counters: BTreeMap::new(),
            events,
            dropped: 0,
        }
    }

    #[test]
    fn recv_is_held_back_until_its_send() {
        // Process 1's clock says its recv happened at ts=1; process 0's
        // send carries ts=5. A naive ts-sort would put the recv first.
        let trace = MergedTrace::merge(vec![
            proc(0, vec![ev(5, 0, EventKind::Send, 1, 8)]),
            proc(1, vec![ev(1, 1, EventKind::Recv, 0, 8)]),
        ]);
        let ordered = causal_order(&trace);
        assert_eq!(ordered.len(), 2);
        assert_eq!(ordered[0].kind, EventKind::Send);
        assert_eq!(ordered[1].kind, EventKind::Recv);
        assert_eq!((ordered[0].ts, ordered[1].ts), (1, 2));
        assert!(analyze_merged(&trace).clean());
    }

    #[test]
    fn kth_recv_waits_for_kth_send() {
        // Two messages on one pair: recv #2 must not jump ahead of
        // send #2 even when the receiver's whole stream sorts earlier.
        let trace = MergedTrace::merge(vec![
            proc(
                1,
                vec![
                    ev(1, 1, EventKind::Recv, 0, 8),
                    ev(2, 1, EventKind::Recv, 0, 8),
                ],
            ),
            proc(
                0,
                vec![
                    ev(10, 0, EventKind::Send, 1, 8),
                    ev(11, 0, EventKind::Send, 1, 8),
                ],
            ),
        ]);
        let kinds: Vec<EventKind> = causal_order(&trace).iter().map(|e| e.kind).collect();
        let second_send = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == EventKind::Send)
            .nth(1)
            .unwrap()
            .0;
        let second_recv = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == EventKind::Recv)
            .nth(1)
            .unwrap()
            .0;
        assert!(second_send < second_recv);
        assert!(analyze_merged(&trace).clean());
    }

    #[test]
    fn colliding_local_ids_do_not_fabricate_cross_process_races() {
        // Both processes use "site 7" and "var 9" — unrelated objects in
        // separate address spaces. Process 0 locks before writing;
        // process 1 writes its own var 9 with no lock held. Without
        // namespacing this is a textbook lockset violation + race.
        let trace = MergedTrace::merge(vec![
            proc(
                0,
                vec![
                    ev(1, 0, EventKind::Acquire, 7, 1),
                    ev(2, 0, EventKind::Write, 9, 0),
                    ev(3, 0, EventKind::Release, 7, 1),
                ],
            ),
            proc(1, vec![ev(1, 1, EventKind::Write, 9, 0)]),
        ]);
        let report = analyze_merged(&trace);
        assert!(report.clean(), "{:?}", report.defects);
    }

    #[test]
    fn incomplete_trace_terminates_and_lints_dirty() {
        // A recv whose send was never recorded: the walk must emit it
        // anyway (no hang) and the MPI lint must name the hole.
        let trace = MergedTrace::merge(vec![proc(1, vec![ev(1, 1, EventKind::Recv, 0, 8)])]);
        let report = analyze_merged(&trace);
        assert_eq!(report.events_analyzed, 1);
        assert_eq!(report.count_kind(DefectKind::MpiUnmatchedRecv), 1);
    }

    #[test]
    fn collective_codes_stay_global_across_processes() {
        // Collective order compares ranks against each other, so coll
        // ids must NOT be namespaced: a genuine divergence between two
        // processes is still caught.
        let trace = MergedTrace::merge(vec![
            proc(
                0,
                vec![
                    ev(1, 0, EventKind::CollBegin, 3, 0),
                    ev(2, 0, EventKind::CollEnd, 3, 0),
                ],
            ),
            proc(
                1,
                vec![
                    ev(1, 1, EventKind::CollBegin, 5, 0),
                    ev(2, 1, EventKind::CollEnd, 5, 0),
                ],
            ),
        ]);
        let report = analyze_merged(&trace);
        assert_eq!(report.count_kind(DefectKind::MpiCollectiveOrder), 1);
    }

    #[test]
    fn shrinking_failed_processes_clears_fault_artifacts() {
        // Rank 2 was killed mid-run: its slice is missing, rank 0's
        // send to it dangles, and rank 1 holds a recv whose send died
        // unrecorded. The raw verdict blames the survivors; the shrunk
        // trace judges only survivor↔survivor traffic, which matches.
        let trace = MergedTrace::merge(vec![
            proc(
                0,
                vec![
                    ev(1, 0, EventKind::Send, 2, 8), // into the void
                    ev(2, 0, EventKind::Send, 1, 8),
                ],
            ),
            proc(
                1,
                vec![
                    ev(1, 1, EventKind::Recv, 2, 8), // from the void
                    ev(2, 1, EventKind::Recv, 0, 8),
                ],
            ),
        ]);
        let raw = analyze_merged(&trace);
        assert_eq!(raw.count_kind(DefectKind::MpiUnmatchedSend), 1);
        assert_eq!(raw.count_kind(DefectKind::MpiUnmatchedRecv), 1);

        let shrunk = shrink_failed(&trace, &[2]);
        let report = analyze_merged(&shrunk);
        assert!(report.clean(), "survivor traffic is fully matched");
        assert_eq!(report.events_analyzed, 2);

        // Shrinking also drops the failed process's own partial slice
        // when one was captured before the kill.
        let with_slice = MergedTrace::merge(vec![
            proc(0, vec![ev(1, 0, EventKind::Send, 2, 8)]),
            proc(2, vec![ev(1, 2, EventKind::Recv, 0, 8)]),
        ]);
        let shrunk = shrink_failed(&with_slice, &[2]);
        assert_eq!(shrunk.processes.len(), 1);
        assert!(analyze_merged(&shrunk).clean());
    }
}
