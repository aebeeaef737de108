package engine

import "starlink/internal/lanes"

// NextJob pops the job the host's first ingest worker would take next
// and settles it unprocessed (lease, pending count, work token),
// reporting which engine and lane it belonged to. Tests only: it lets
// a test observe the host's cross-case dequeue order with the workers
// stopped.
func (h *Host) NextJob() (*Engine, lanes.Lane, bool) {
	job, lane, ok := h.queues[0].TryDequeue()
	if !ok {
		return nil, lane, false
	}
	releaseJobLease(&job)
	job.eng.pending.Done()
	h.tracker.WorkDone()
	return job.eng, lane, true
}

// Stalled is a live session held as if one of its steps were running:
// every event posted to it queues instead of running. Tests only.
type Stalled struct{ s *session }

// Stall holds a live session of e that is idle at a receive; ok is
// false while there is none.
func (e *Engine) Stall() (st Stalled, ok bool) {
	e.table.each(func(s *session) {
		s.mu.Lock()
		if !ok && !s.running && !s.closed {
			s.running, st, ok = true, Stalled{s: s}, true
		}
		s.mu.Unlock()
	})
	return st, ok
}

// Post delivers a payload to the session as its requester socket for
// proto would.
func (st Stalled) Post(proto string, data []byte) {
	st.s.e.host.tracker.WorkAdd()
	st.s.post(sessEvent{kind: evData, proto: proto, data: data})
}

// Queued counts the queued payload and timer events.
func (st Stalled) Queued() (payloads, timers int) {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	for _, ev := range st.s.queue {
		if ev.kind == evTimer {
			timers++
		} else {
			payloads++
		}
	}
	return payloads, timers
}

// Resume runs the queued events on the caller, as the held step's
// executor does once the step returns.
func (st Stalled) Resume() { st.s.execute() }

// QueueCap is the bound on a session's queued events.
const QueueCap = queueCap
