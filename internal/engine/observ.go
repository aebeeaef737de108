package engine

import (
	"sort"
	"time"

	"starlink/internal/hist"
	"starlink/internal/netapi"
	"starlink/internal/trace"
)

// LatencyDump is a snapshot of the engine's staged latency histograms:
// one distribution per pipeline stage plus the whole-session
// distribution (the paper's §VI translation time).
type LatencyDump struct {
	Stages  [trace.NumStages]hist.Snapshot
	Session hist.Snapshot
}

// Merge folds another dump into d (per-case → aggregate rollups).
func (d *LatencyDump) Merge(o LatencyDump) {
	for i := range d.Stages {
		d.Stages[i].Merge(o.Stages[i])
	}
	d.Session.Merge(o.Session)
}

// Latency snapshots the engine's staged latency histograms; safe from
// any goroutine at any time, including after Close.
func (e *Engine) Latency() LatencyDump {
	var d LatencyDump
	for i := range e.stageHists {
		d.Stages[i] = e.stageHists[i].Snapshot()
	}
	d.Session = e.sessHist.Snapshot()
	return d
}

// RecordClassify attributes a dispatcher classification latency to this
// engine's case (the dispatcher measures it; the engine owns the
// per-case histogram it lands in).
func (e *Engine) RecordClassify(d time.Duration) {
	e.stageHists[trace.StageClassify].Record(d)
}

// LiveSession describes one currently registered session: its table
// key, origin, start time and — when the flight recorder is enabled —
// the trace events recorded so far.
type LiveSession struct {
	Key    string
	Origin netapi.Addr
	Start  time.Time
	Trace  []trace.Event
}

// LiveSessions lists the engine's registered sessions, oldest first.
// The listing reads only session state published before table insertion
// (key, origin, start) plus the wait-free recorder, so it is safe while
// sessions run; a live trace may show an event mid-overwrite.
func (e *Engine) LiveSessions() []LiveSession {
	type row struct {
		seq uint64
		ls  LiveSession
	}
	var rows []row
	e.table.each(func(s *session) {
		rows = append(rows, row{seq: s.seq, ls: LiveSession{
			Key:    s.key,
			Origin: s.origin.Addr,
			Start:  s.start,
			Trace:  s.rec.Events(),
		}})
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	out := make([]LiveSession, len(rows))
	for i, r := range rows {
		out[i] = r.ls
	}
	return out
}

// Probe is a point-in-time snapshot of the engine's internal resource
// accounting, exposed for the DST invariant checks: at quiescence Live
// and SemInUse must read zero or the run leaked sessions or
// max-session slots. Queued payloads are the host's to account
// (Host.LaneDepth).
type Probe struct {
	// State is the lifecycle state at probe time.
	State State
	// Live is the number of sessions registered in the table.
	Live int
	// SemInUse is the number of max-sessions slots currently held; a
	// nonzero value after teardown means a session finished without
	// releasing its admission slot.
	SemInUse int
}

// Probe snapshots the engine's internal accounting; safe from any
// goroutine at any time, including after Close.
func (e *Engine) Probe() Probe {
	return Probe{State: e.State(), Live: e.table.live(), SemInUse: len(e.sem)}
}
