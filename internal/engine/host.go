package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"starlink/internal/hist"
	"starlink/internal/lanes"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
)

// Host is the ingress scheduler of one bridge node: the single place
// where lane priority, shedding and transport backpressure are decided
// for every case the node hosts. It owns the network engine, the flow
// gate its entry listeners park on, the egress table of every hosted
// session's requester sockets, the per-worker lane queues, the ingest
// worker pool and the per-lane queue-wait histograms. Engines are
// per-case programs submitting jobs to it (engine.New takes a Host), so
// one case's telemetry is shed before another case's control traffic,
// and a node runs one worker pool however many cases it hosts.
type Host struct {
	hostConfig
	node    netapi.Node
	net     *netengine.Engine
	gate    *netapi.FlowGate
	egress  *netengine.EgressTable
	tracker netapi.WorkTracker
	// queues holds one bounded lane-prioritized queue per ingest worker;
	// a job goes to the queue its routing key hashes to, so payloads
	// from one origin are parsed and routed in arrival order.
	queues []*lanes.Queue[ingestJob]
	// waits measures per-lane queue wait: listener arrival to
	// ingest-worker pickup.
	waits     [lanes.NumLanes]*hist.Histogram
	workers   sync.WaitGroup
	closeOnce sync.Once
}

// NewHost builds the ingress scheduler for node. Only the host-level
// options (WithIngestWorkers, WithLanePolicy) are read; the lane
// policy must validate once its zero fields are defaulted. The workers
// run from Start.
func NewHost(node netapi.Node, opts ...Option) (*Host, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	if workers > 8 {
		workers = 8
	}
	c := config{hostConfig: hostConfig{ingestWorkers: workers}}
	for _, o := range opts {
		o(&c)
	}
	h := &Host{
		hostConfig: c.hostConfig,
		node:       node,
		gate:       netapi.NewFlowGate(),
		egress:     netengine.NewEgressTable(),
		tracker:    noTracker{},
	}
	h.lanePolicy = h.lanePolicy.WithDefaults()
	if err := h.lanePolicy.Validate(); err != nil {
		return nil, fmt.Errorf("engine: host %s: %w", node.IP(), err)
	}
	if wt, ok := node.(netapi.WorkTracker); ok {
		h.tracker = wt
	}
	h.net = netengine.New(node, netengine.WithGate(h.gate))
	perWorker := h.lanePolicy.Scale(h.ingestWorkers)
	h.queues = make([]*lanes.Queue[ingestJob], h.ingestWorkers)
	for i := range h.queues {
		h.queues[i] = lanes.NewQueue[ingestJob](perWorker, h.gate)
	}
	for i := range h.waits {
		h.waits[i] = &hist.Histogram{}
	}
	return h, nil
}

// Net returns the network engine the host's entry listeners and every
// hosted session's requesters are opened on. Its listeners park on the
// host's flow gate while the lane queues are pressured.
func (h *Host) Net() *netengine.Engine { return h.net }

// Egress returns the table of every hosted session's requester
// sockets, which a dispatcher consults to suppress the deployment's
// own outbound requests heard back on shared listeners.
func (h *Host) Egress() *netengine.EgressTable { return h.egress }

// Gate returns the flow gate the lane queues pause at their high
// watermark.
func (h *Host) Gate() *netapi.FlowGate { return h.gate }

// Start runs the ingest workers; call it once. Until then queued jobs
// wait, which lets a test fill the lanes deterministically.
func (h *Host) Start() {
	for _, q := range h.queues {
		h.workers.Add(1)
		go h.work(q)
	}
}

// Close stops the workers. Jobs still queued — only possible for an
// engine not closed first — are settled as drops: lease released,
// work token returned, counted Dropped on their engine. Closing the
// queues also releases any gate hold, so paused read loops wake.
func (h *Host) Close() {
	h.closeOnce.Do(func() {
		for _, q := range h.queues {
			q.Close(func(_ lanes.Lane, job ingestJob) {
				job.eng.drop(job)
				job.eng.pending.Done()
			})
		}
		h.workers.Wait()
	})
}

func (h *Host) work(q *lanes.Queue[ingestJob]) {
	defer h.workers.Done()
	for {
		job, lane, ok := q.Dequeue()
		if !ok {
			return // queue closed
		}
		if !job.arrived.IsZero() {
			h.waits[lane].Record(time.Since(job.arrived))
		}
		e := job.eng
		if e.State() == StateClosed {
			// Picked up after its engine closed: Close is waiting for
			// exactly this settlement.
			e.drop(job)
		} else {
			e.ingest(job)
		}
		e.pending.Done()
	}
}

// queue returns the lane queue owning a routing key.
func (h *Host) queue(key string) *lanes.Queue[ingestJob] {
	return h.queues[fnv32a(key)%uint32(len(h.queues))]
}

// remove settles every job queued for e as a drop.
func (h *Host) remove(e *Engine) {
	for _, q := range h.queues {
		q.Remove(func(job ingestJob) bool { return job.eng == e }, func(_ lanes.Lane, job ingestJob) {
			e.drop(job)
			e.pending.Done()
		})
	}
}

// LaneDump is a snapshot of a host's ingest-lane accounting: the
// per-lane admit/defer/shed counters and depths rolled up across the
// per-worker queues, plus the per-lane queue-wait distributions
// (listener arrival to ingest-worker pickup).
type LaneDump struct {
	Counters [lanes.NumLanes]lanes.Counters
	Wait     [lanes.NumLanes]hist.Snapshot
}

// Lanes snapshots the host's ingest-lane accounting; safe from any
// goroutine at any time, including after Close.
func (h *Host) Lanes() LaneDump {
	var d LaneDump
	snaps := make([][lanes.NumLanes]lanes.Counters, 0, len(h.queues))
	for _, q := range h.queues {
		snaps = append(snaps, q.Counters())
	}
	d.Counters = lanes.Sum(snaps...)
	for i := range d.Wait {
		d.Wait[i] = h.waits[i].Snapshot()
	}
	return d
}
