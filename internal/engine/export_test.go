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
