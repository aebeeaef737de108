package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"starlink"
	"starlink/internal/netapi"
	"starlink/internal/realnet"
)

// Workload shapes, chosen on a 2-vCPU x86-64 Linux VM: translate-steady
// offers about a third of what the quiet host sustains, which leaves
// room for the hypervisor's steal, and session-hold's held-lookup rate
// keeps ~1,100 sessions live through the SLP model's 6.25 s
// convergence window.
const (
	steadyRate    = 1200.0
	searchRate    = 0.5
	heldRate      = 176.0
	probeRate     = 100.0
	convergence   = 6250 * time.Millisecond
	warmup        = 1500 * time.Millisecond
	tail          = 300 * time.Millisecond
	setupRepeats  = 61
	cycleRepeats  = 100
	ledgerReplays = 3000
	minPlateau    = 1000
)

var workloads = map[string]func(*run) error{
	"translate-steady": translateSteady,
	"session-hold":     sessionHold,
	"deploy-churn":     deployChurn,
}

// The translate-steady dispatcher: one case per entry protocol, so no
// payload can classify under two cases.
//
// upnp-to-bonjour's exchange is not fast: a conforming control point
// waits its MX window before the description GET, so its exchanges
// are verified in translate-steady's open loop only, by a single
// control point (one search outstanding at a time). The bridge ties a
// description GET to its session by the client's IP, and every
// loopback client shares 127.0.0.1, so concurrent control points
// would have their GETs served by one another's sessions.
var steadySpec = deploySpec{
	cases: []string{"bonjour-to-upnp", "slp-to-bonjour", "upnp-to-bonjour"},
	fast:  []kind{kindSLP, kindMDNS},
}

// The session-hold dispatcher: bonjour-to-slp holds each session for
// the SLP convergence window; slp-to-bonjour serves the probes.
var holdSpec = deploySpec{
	cases: []string{"bonjour-to-slp", "slp-to-bonjour"},
	fast:  []kind{kindSLP},
}

// caseOf names the case each request kind reaches under a spec.
func (s deploySpec) caseOf(k kind) string {
	entry := [numKinds]string{"slp-", "upnp-", "bonjour-"}[k]
	for _, c := range s.cases {
		if strings.HasPrefix(c, entry) {
			return c
		}
	}
	return ""
}

// run carries one benchmark process's state and findings.
type run struct {
	o     options
	tr    *tracer
	rng   *rand.Rand
	rt    *starlink.Runtime
	net   *realnet.Runtime
	gen   *generator
	peers *peers
	spec  deploySpec

	leaseBase int64
	live      *starlink.Dispatcher
	reg       *starlink.Registry

	// Dispatch and session counters summed over every dispatcher of
	// the run, read after each one closed.
	ambiguous, unroutable int
	sessions              starlink.SessionMetrics

	setupS, setupCPU, deployBytes, loadMS, deployMS []float64
	cycleMS, cycleBytes, cycleAllocs                []float64

	// churnAcc sums the metrics of a churn window's dispatchers.
	churnAcc *starlink.Metrics
	// observed counts what the benchmark's own Metrics snapshots of
	// closed dispatchers allocated, so the measured windows leave it out.
	observed memSnap

	e2e      map[string]metric
	layer    map[string]metric
	problems []string
}

func newRun(o options) *run {
	r := &run{
		o:     o,
		tr:    newTracer(o.trace),
		rng:   rand.New(rand.NewSource(o.seed)),
		rt:    starlink.Loopback(),
		e2e:   map[string]metric{},
		layer: map[string]metric{},
	}
	r.net = r.rt.Backend().(*realnet.Runtime)
	return r
}

func (r *run) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.logf("FAIL: %s", msg)
}

// start brings up the legacy services and the client pool.
func (r *run) start(spec deploySpec, slots [numKinds]int, targets [numKinds]target, bonjour, upnpDev, slpSA bool) error {
	r.spec = spec
	var err error
	if r.peers, err = startPeers(r.net, bonjour, upnpDev, slpSA); err != nil {
		return err
	}
	if r.gen, err = newGenerator(r.net, r.tr, targets, slots); err != nil {
		return err
	}
	r.leaseBase = settledLeases(-1)
	return nil
}

// settledLeases waits for read loops that are still starting or
// exiting to settle, and returns the leased-buffer count then. With
// want >= 0 it waits until the count is want; otherwise until the
// count has held for 20 ms. It gives up after 5 s.
func settledLeases(want int64) int64 {
	last, same := netapi.LeasedBuffers(), 0
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		if (want >= 0 && last == want) || (want < 0 && same == 20) {
			break
		}
		time.Sleep(time.Millisecond)
		n := netapi.LeasedBuffers()
		if n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	return last
}

// closeDispatcher closes a dispatcher, then reads its final metrics
// once and adds its routing and session counters to the run's totals
// and to a churn window's sum. The snapshot's own allocations are
// kept in r.observed.
func (r *run) closeDispatcher(d *starlink.Dispatcher) {
	if err := d.Close(); err != nil {
		r.problem("close: %v", err)
	}
	m0 := readMem()
	m := d.Metrics()
	r.ambiguous += m.Dispatch.Ambiguous
	r.unroutable += m.Dispatch.Unroutable
	s := &r.sessions
	s.Completed += m.Sessions.Completed
	s.Failed += m.Sessions.Failed
	s.Rejected += m.Sessions.Rejected
	s.Dropped += m.Sessions.Dropped
	s.ParseErrors += m.Sessions.ParseErrors
	s.Ignored += m.Sessions.Ignored
	if r.churnAcc != nil {
		*r.churnAcc = addMetrics(*r.churnAcc, m)
	}
	m1 := readMem()
	r.observed.mallocs += m1.mallocs - m0.mallocs
	r.observed.totalAlloc += m1.totalAlloc - m0.totalAlloc
}

// setups stands the workload's dispatcher up setupRepeats times from
// cold: a fresh registry, the deploy, and one verified exchange on
// every hosted case whose exchange needs no convergence window. Each
// set-up also measures the heap its dispatcher retains. The collector
// is paused while they run, and forced collections between set-ups
// start each from the same heap, so a collection cycle that happens to
// fall into one set-up does not count against it.
func (r *run) setups() error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < setupRepeats; i++ {
		settledHeap() // every set-up starts from the same collector state
		root := r.tr.begin("setup.cold", 0, 0)
		t0, c0 := time.Now(), cpuTime()
		reg, err := loadRegistry(r.tr, root, r.spec.cases)
		load, loadCPU := time.Since(t0), cpuTime()-c0
		if err != nil {
			return err
		}
		heap0 := settledHeap()
		t1 := time.Now()
		c1 := cpuTime()
		d, err := deploy(r.tr, root, r.rt, reg, r.spec)
		dep := time.Since(t1)
		if err != nil {
			return err
		}
		for _, k := range r.spec.fast {
			if !r.gen.exchange(k) {
				r.problem("set-up %d: no verified %s exchange", i, kindNames[k])
			}
		}
		total := load + time.Since(t1)
		r.setupCPU = append(r.setupCPU, (loadCPU + cpuTime() - c1).Seconds())
		r.tr.end(root)
		settledLeases(-1)
		heap1 := settledHeap()
		r.setupS = append(r.setupS, total.Seconds())
		r.loadMS = append(r.loadMS, float64(load.Nanoseconds())/1e6)
		r.deployMS = append(r.deployMS, float64(dep.Nanoseconds())/1e6)
		r.deployBytes = append(r.deployBytes, float64(heap1)-float64(heap0))
		r.closeDispatcher(d)
		r.reg = reg
	}
	return nil
}

// cycle deploys the workload's dispatcher on the warm registry, runs
// one verified exchange per fast case and closes it: the paper's
// Fig. 12(b) shape, a fresh bridge per interaction.
func (r *run) cycle() {
	m0 := readMem()
	t0 := time.Now()
	root := r.tr.begin("churn.cycle", 0, 0)
	d, err := deploy(r.tr, root, r.rt, r.reg, r.spec)
	dep := time.Since(t0)
	if err != nil {
		r.problem("cycle deploy: %v", err)
		return
	}
	for _, k := range r.spec.fast {
		if !r.gen.exchange(k) {
			r.problem("cycle: no verified %s exchange", kindNames[k])
		}
	}
	sp := r.tr.begin("provision.close", root, 0)
	obs0 := r.observed
	r.closeDispatcher(d)
	r.tr.end(sp)
	r.tr.end(root)
	el := time.Since(t0)
	m1 := readMem()
	m1.mallocs -= r.observed.mallocs - obs0.mallocs
	m1.totalAlloc -= r.observed.totalAlloc - obs0.totalAlloc
	r.deployMS = append(r.deployMS, float64(dep.Nanoseconds())/1e6)
	r.cycleMS = append(r.cycleMS, float64(el.Nanoseconds())/1e6)
	r.cycleBytes = append(r.cycleBytes, float64(m1.totalAlloc-m0.totalAlloc))
	r.cycleAllocs = append(r.cycleAllocs, float64(m1.mallocs-m0.mallocs))
}

// teardown closes whatever is still open and checks that every leased
// receive buffer came back.
func (r *run) teardown() {
	if r.live != nil {
		m := r.live.Metrics()
		r.logf("live dispatcher at close: sessions %+v", m.Sessions)
		r.closeDispatcher(r.live)
		r.live = nil
	}
	if r.gen != nil {
		if got := settledLeases(r.leaseBase); got != r.leaseBase {
			r.problem("lease balance: %d leased buffers after teardown, %d before deploy", got, r.leaseBase)
		} else {
			r.logf("lease balance: %d leased buffers after teardown = baseline", got)
		}
		r.gen.close()
	}
	if r.peers != nil {
		r.peers.close()
	}
	if path, err := r.tr.write(r.o.out, fmt.Sprintf("spans-%s-seed%d.json", r.o.workload, r.o.seed)); err != nil {
		r.problem("%v", err)
	} else if path != "" {
		r.logf("spans written to %s", path)
		for _, lt := range r.tr.selfTimes() {
			r.logf("self time %-12s %9.2f ms over %d spans", lt.Layer, lt.Self, lt.Spans)
		}
	}
}

func (r *run) result() result {
	g := r.gen
	ok := len(r.problems) == 0
	if g.failed != 0 || g.wrong != 0 {
		ok = false
	}
	if r.ambiguous != 0 || r.unroutable != 0 {
		r.logf("FAIL: ambiguous=%d unroutable=%d dispatches", r.ambiguous, r.unroutable)
		ok = false
	}
	s := r.sessions
	r.logf("bridge sessions over every dispatcher: completed=%d failed or torn down at close=%d rejected=%d dropped=%d parse-errors=%d ignored=%d",
		s.Completed, s.Failed, s.Rejected, s.Dropped, s.ParseErrors, s.Ignored)
	r.logf("exchanges: failed per kind %v, %d awaiting the description GET", g.failKind, g.failGet)
	r.logf("exchanges: attempted=%d verified=%d failed=%d wrong=%d native=%d stray=%d ambiguous=%d unroutable=%d",
		g.attempted, g.verified, g.failed, g.wrong, g.native, g.stray, r.ambiguous, r.unroutable)
	ms := r.e2e
	if r.o.trace {
		ms = r.layer
	}
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.logf("FAIL: metric %s is %v", name, m.Value)
			ms[name] = metric{0, m.Unit}
			ok = false
		}
	}
	return result{Correct: ok, Attempted: g.attempted, Failed: g.failed, Metrics: ms}
}

// ---------------------------------------------------------------------
// Measured windows.
// ---------------------------------------------------------------------

// window is what one measured window observed.
type window struct {
	dur       time.Duration
	done      int64
	cpu       time.Duration
	mem0      memSnap
	mem1      memSnap
	io0, io1  netapi.IOStats
	lat       [2][]int64
	late      []int64
	perKind   [numKinds]int64
	native    int64
	attempted int64
	m0, m1    starlink.Metrics
	// Sampled every 10 ms.
	leasePeak, leaseMean float64
	// steal is the VM's stolen share of its busy time in the window.
	steal float64
}

func (r *run) churnMetrics() starlink.Metrics { return *r.churnAcc }

// measure runs body for the window and collects the process- and
// dispatcher-level deltas around it. metrics supplies the dispatcher
// snapshot at either edge.
func (r *run) measure(dur time.Duration, metrics func() starlink.Metrics, body func(stop <-chan struct{})) *window {
	g := r.gen
	g.window()
	w := &window{dur: dur}
	g.mu.Lock()
	kind0, native0, att0 := g.perKind, g.native, g.attempted
	g.mu.Unlock()
	w.m0 = metrics()
	busy0, steal0 := hostTicks()
	w.io0 = netapi.ReadIOStats()
	obs0 := r.observed
	w.mem0 = readMem()
	cpu0 := cpuTime()
	g.measuring.Store(true)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { body(stop); close(done) }()
	var samples float64
	for end := time.Now().Add(dur); time.Now().Before(end); samples++ {
		time.Sleep(10 * time.Millisecond)
		l := float64(netapi.LeasedBuffers() - r.leaseBase)
		w.leasePeak = max(w.leasePeak, l)
		w.leaseMean += l
	}
	close(stop)
	<-done
	g.measuring.Store(false)
	w.cpu = cpuTime() - cpu0
	w.mem1 = readMem()
	w.mem1.mallocs -= r.observed.mallocs - obs0.mallocs
	w.mem1.totalAlloc -= r.observed.totalAlloc - obs0.totalAlloc
	w.io1 = netapi.ReadIOStats()
	w.m1 = metrics()
	if busy1, steal1 := hostTicks(); busy1 > busy0 {
		w.steal = float64(steal1-steal0) / float64(busy1-busy0)
	}
	w.leaseMean /= max(samples, 1)
	time.Sleep(tail) // let requests sent at the window's end complete
	w.done, w.lat, w.late = g.window()
	g.mu.Lock()
	for k := range w.perKind {
		w.perKind[k] = g.perKind[k] - kind0[k]
	}
	w.native, w.attempted = g.native-native0, g.attempted-att0
	g.mu.Unlock()
	if w.done == 0 {
		r.problem("window verified no exchange")
		w.done = 1
	}
	return w
}

// cpuPerExchange is the window's process CPU per verified exchange.
func (w *window) cpuPerExchange() float64 {
	return float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.done)
}

// endToEnd records the end-to-end metrics every workload reports.
func (r *run) endToEnd(w *window) {
	lat := w.lat[classProbe]
	if len(lat) == 0 {
		r.problem("no probe latency recorded")
	}
	r.e2e["setup_s"] = metric{median(r.setupCPU), "s"}
	r.e2e["allocs_per_exchange"] = metric{float64(w.mem1.mallocs-w.mem0.mallocs) / float64(w.done), "count"}
	r.e2e["deploy_bytes"] = metric{median(r.deployBytes), "B"}
	r.e2e["alloc_bytes_per_cycle"] = metric{median(r.cycleBytes), "B"}
	r.e2e["allocs_per_cycle"] = metric{median(r.cycleAllocs), "count"}
	r.logf("not gated: set-up wall %.4f s, cpu %.1f us/exchange, latency p50 %.0f us, p90 %.0f us, cycle p50 %.3f ms; host steal %.2f of busy time",
		median(r.setupS), w.cpuPerExchange(), us(quantile(lat, 0.50)), us(quantile(lat, 0.90)), median(r.cycleMS), w.steal)
	r.logf("window %.1fs: %d verified exchanges (%.0f/s), %d probe latencies; per kind %v",
		w.dur.Seconds(), w.done, float64(w.done)/w.dur.Seconds(), len(lat), w.perKind)
	for _, name := range sortedKeys(r.e2e) {
		r.logf("e2e %-24s %14.3f %s", name, r.e2e[name].Value, r.e2e[name].Unit)
	}
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

func steadyTargets(mdnsBridged string) [numKinds]target {
	return [numKinds]target{
		kindSLP:  {bridged: bonjourURL, native: slpURL},
		kindSSDP: {bridged: bonjourURL, native: upnpLocation},
		kindMDNS: {bridged: mdnsBridged, native: bonjourURL},
	}
}

// translateSteady: one long-lived 3-case dispatcher under open-loop
// load near half the host's capacity.
func translateSteady(r *run) error {
	if err := r.start(steadySpec, [numKinds]int{128, 1, 128}, steadyTargets(upnpURL), true, true, false); err != nil {
		return err
	}
	if err := r.standUp(); err != nil {
		return err
	}
	streams := []stream{
		{rate: steadyRate, class: classProbe, kinds: []kind{kindSLP, kindMDNS}, weights: []float64{0.5, 0.5}},
		{rate: searchRate, class: classHeld, kinds: []kind{kindSSDP}, weights: []float64{1}},
	}
	return r.openLoop(streams, 0)
}

// standUp runs the cold set-ups and the warm-registry cycles, then
// deploys the long-lived dispatcher the open loop drives.
func (r *run) standUp() error {
	if err := r.setups(); err != nil {
		return err
	}
	for i := 0; i < cycleRepeats; i++ {
		r.cycle()
	}
	d, err := deploy(r.tr, 0, r.rt, r.reg, r.spec)
	if err != nil {
		return err
	}
	r.live = d
	return nil
}

// sessionHold: held bonjour-to-slp lookups keep >1,000 sessions live
// while a light slp-to-bonjour probe stream is measured.
func sessionHold(r *run) error {
	slots := [numKinds]int{kindSLP: 64, kindMDNS: int(heldRate*(convergence.Seconds()+2)) + 64}
	if err := r.start(holdSpec, slots, steadyTargets(slpURL), true, false, true); err != nil {
		return err
	}
	if err := r.standUp(); err != nil {
		return err
	}
	streams := []stream{
		{rate: heldRate, class: classHeld, kinds: []kind{kindMDNS}, weights: []float64{1}},
		{rate: probeRate, class: classProbe, kinds: []kind{kindSLP}, weights: []float64{1}},
	}
	return r.openLoop(streams, convergence+500*time.Millisecond)
}

// openLoop drives the live dispatcher with the streams: warm-up (or
// the ramp to a plateau), the measured window (two halves in a traced
// run: untraced, then traced), then a drain of every outstanding
// request before teardown.
func (r *run) openLoop(streams []stream, ramp time.Duration) error {
	d := r.live
	for _, k := range r.spec.fast {
		if !r.gen.exchange(k) {
			r.problem("live dispatcher: no verified %s exchange", kindNames[k])
		}
	}
	r.tr.on.Store(false)
	heap0 := settledHeap()
	gor0 := runtime.NumGoroutine()
	stop := make(chan struct{})
	sent := make(chan struct{})
	go func() { r.gen.runOpenLoop(streams, r.rng, stop); close(sent) }()
	time.Sleep(max(warmup, ramp))

	// The plateau: what the load holds, per live session.
	live := d.Metrics().Sessions.Live
	gor := runtime.NumGoroutine()
	heap1 := settledHeap()
	perLive := float64(max(live, 1))
	heldPerSession := (float64(heap1) - float64(heap0)) / perLive
	gorPerSession := float64(gor-gor0) / perLive
	r.logf("plateau: %d live sessions, %.0f B heap and %.2f goroutines per live session", live, heldPerSession, gorPerSession)
	if ramp > 0 && live < minPlateau {
		r.problem("plateau of %d live sessions, want >= %d", live, minPlateau)
	}

	idle := func(<-chan struct{}) {}
	full := time.Duration(r.o.seconds) * time.Second
	var w *window
	if r.o.trace {
		base := r.measure(full/2, d.Metrics, idle)
		r.tr.on.Store(true)
		w = r.measure(full/2, d.Metrics, idle)
		r.layerMetrics(w, base)
	} else {
		w = r.measure(full, d.Metrics, idle)
		r.endToEnd(w)
	}
	r.layer["engine.held_bytes_per_session"] = metric{heldPerSession, "B"}
	r.layer["engine.goroutines_per_session"] = metric{gorPerSession, "count"}
	r.layer["engine.live_sessions"] = metric{float64(live), "count"}

	close(stop)
	<-sent
	r.gen.drain()
	if r.o.trace {
		return r.ledger(w)
	}
	return nil
}

// deployChurn: closed-loop deploy → one verified exchange per case →
// Close, back to back for the whole window.
func deployChurn(r *run) error {
	if err := r.start(steadySpec, [numKinds]int{2, 2, 2}, steadyTargets(upnpURL), true, true, false); err != nil {
		return err
	}
	if err := r.setups(); err != nil {
		return err
	}
	for i := 0; i < cycleRepeats; i++ { // warm-up
		r.cycle()
	}
	r.cycleMS, r.cycleBytes, r.cycleAllocs = nil, nil, nil
	churn := func(stop <-chan struct{}) {
		for {
			select {
			case <-stop:
				return
			default:
				r.cycle()
			}
		}
	}
	full := time.Duration(r.o.seconds) * time.Second
	var w *window
	if r.o.trace {
		r.tr.on.Store(false)
		r.churnAcc = &starlink.Metrics{}
		base := r.measure(full/2, r.churnMetrics, churn)
		r.tr.on.Store(true)
		r.cycleMS, r.cycleBytes, r.cycleAllocs = nil, nil, nil
		r.churnAcc = &starlink.Metrics{}
		w = r.measure(full/2, r.churnMetrics, churn)
		r.layerMetrics(w, base)
		r.layer["engine.held_bytes_per_session"] = metric{0, "B"}
		r.layer["engine.goroutines_per_session"] = metric{0, "count"}
		r.layer["engine.live_sessions"] = metric{0, "count"}
		return r.ledger(w)
	}
	r.churnAcc = &starlink.Metrics{}
	w = r.measure(full, r.churnMetrics, churn)
	r.endToEnd(w)
	return nil
}
