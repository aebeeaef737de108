package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/httpx"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/realnet"
)

// kind is the legacy request a generator slot sends.
type kind int

const (
	kindSLP  kind = iota // SLP SrvRqst → slp-to-bonjour
	kindSSDP             // SSDP M-SEARCH, then the description GET → upnp-to-bonjour
	kindMDNS             // mDNS PTR query → bonjour-to-upnp or bonjour-to-slp
	numKinds
)

var kindNames = [numKinds]string{"slp", "ssdp", "mdns"}

// searchWindow is the M-SEARCH MX window (the "MX: 1" the request
// carries) a control point waits before fetching descriptions.
const searchWindow = time.Second

// class separates the requests whose latency a workload reports
// (probe) from those that only load the bridge (held).
const (
	classProbe = 0
	classHeld  = 1
)

// target is what a kind of request expects back: the URL the bridged
// reply must carry, and the URL (SSDP: LOCATION) of the native peer on
// the same multicast group, whose direct replies are counted and
// otherwise ignored.
type target struct {
	bridged string
	native  string
}

// slot is one legacy client: its own UDP socket, so every request has
// a distinct origin address and the bridge opens a distinct session
// for it. A slot serves one request at a time.
type slot struct {
	g    *generator
	kind kind
	sock netapi.UDPSocket

	// Guarded by g.mu.
	busy     bool
	getting  bool
	wire     uint16 // id carried on the wire (SLP XID, DNS ID)
	req      int64
	class    int
	measured bool
	sent     int64 // ns since g.t0
	due      int64 // when the request fell due (= sent for closed-loop requests)
	waiter   chan bool
	span     int32
}

// generator is the benchmark's single-process load source. One
// goroutine sends; replies are verified on the sockets' read loops.
type generator struct {
	node    netapi.Node
	tr      *tracer
	t0      time.Time
	targets [numKinds]target
	groups  [numKinds]netapi.Addr
	tmpl    [numKinds][]byte
	slots   [numKinds][]*slot

	deadline [2]time.Duration // per class

	measuring atomic.Bool

	mu      sync.Mutex
	free    [numKinds][]*slot
	nextReq int64
	// Outcomes over the whole run.
	attempted int64
	verified  int64
	failed    int64
	native    int64
	stray     int64
	wrong     int64
	perKind   [numKinds]int64
	failKind  [numKinds]int64
	failGet   int64
	// Measured-window figures.
	winDone  int64
	lat      [2][]int64 // due-to-reply latencies of requests sent in the window
	late     []int64
	captured map[string][]byte
}

// clientPorts is the block the legacy clients bind in, below the
// kernel's ephemeral range. The clients stand in for hosts elsewhere
// on the network; on loopback they share the bridge's IP, so their
// ports must not coincide with the bridge's own ephemeral sockets. The
// dispatcher's egress table keys local addresses by IP and port
// without the transport: while a bridge session holds a TCP connection
// from ephemeral port P, a UDP request from a client on port P is
// taken for the bridge's own multicast echo and suppressed.
var clientPorts = [2]int{20000, 32768}

// newGenerator opens n[k] client sockets per kind on a detached
// realnet node. The sockets are opened with the batched receive path
// off: a legacy client reads one datagram at a time, and a 32-slot
// receive slab per client would swamp the bridge's own footprint.
func newGenerator(rt *realnet.Runtime, tr *tracer, targets [numKinds]target, n [numKinds]int) (*generator, error) {
	base, err := rt.NewNode("legacy-clients")
	if err != nil {
		return nil, err
	}
	g := &generator{
		node:     netapi.Detach(base),
		tr:       tr,
		t0:       time.Now(),
		targets:  targets,
		deadline: [2]time.Duration{3 * time.Second, 12 * time.Second},
		captured: map[string][]byte{},
	}
	g.groups = [numKinds]netapi.Addr{
		{IP: slp.Group, Port: slp.Port},
		{IP: ssdp.Group, Port: ssdp.Port},
		{IP: dnssd.Group, Port: dnssd.Port},
	}
	g.tmpl[kindSLP] = (&slp.SrvRqst{Header: slp.Header{LangTag: "en"}, ServiceType: slpType}).Marshal()
	g.tmpl[kindSSDP] = ssdp.NewMSearch(upnpType, 1).Marshal()
	if g.tmpl[kindMDNS], err = (&dnssd.Message{Questions: []dnssd.Question{{Name: dnsName, QType: dnssd.TypePTR}}}).Marshal(); err != nil {
		return nil, err
	}
	// The templates are patched with each request's id as it is sent.
	g.captured["SLPSrvRequest"] = append([]byte(nil), g.tmpl[kindSLP]...)
	g.captured["SSDPMSearch"] = append([]byte(nil), g.tmpl[kindSSDP]...)
	g.captured["DNSQuestion"] = append([]byte(nil), g.tmpl[kindMDNS]...)

	leased0 := netapi.LeasedBuffers()
	total := 0
	prev := realnet.SetBatchIO(false)
	defer realnet.SetBatchIO(prev)
	port := clientPorts[0]
	for k := kind(0); k < numKinds; k++ {
		for i := 0; i < n[k]; i++ {
			s := &slot{g: g, kind: k}
			var sock netapi.UDPSocket
			for ; sock == nil && port < clientPorts[1]; port++ {
				sock, err = g.node.OpenUDP(port, s.onPacket)
			}
			if sock == nil {
				g.close()
				return nil, fmt.Errorf("generator socket: %w", err)
			}
			s.sock = sock
			g.slots[k] = append(g.slots[k], s)
			g.free[k] = append(g.free[k], s)
			total++
		}
	}
	// Read loops pick their receive path when their goroutine starts:
	// keep batching off until every one has leased its single buffer.
	for end := time.Now().Add(5 * time.Second); netapi.LeasedBuffers() < leased0+int64(total); {
		if time.Now().After(end) {
			g.close()
			return nil, fmt.Errorf("generator: client read loops did not start")
		}
		time.Sleep(time.Millisecond)
	}
	return g, nil
}

func (g *generator) close() {
	for k := range g.slots {
		for _, s := range g.slots[k] {
			_ = s.sock.Close()
		}
	}
	_ = g.node.Close()
}

func (g *generator) now() int64 { return time.Since(g.t0).Nanoseconds() }

// issue sends one request of kind k from a free slot. due is when the
// request fell due (ns since t0), for the generator's lateness record;
// waiter, when non-nil, receives the outcome. It reports false when
// every slot of the kind is busy.
func (g *generator) issue(k kind, class int, due int64, waiter chan bool) bool {
	g.mu.Lock()
	n := len(g.free[k])
	if n == 0 {
		g.mu.Unlock()
		return false
	}
	s := g.free[k][n-1]
	g.free[k] = g.free[k][:n-1]
	g.nextReq++
	g.attempted++
	s.busy, s.getting = true, false
	s.req = g.nextReq
	s.wire = uint16(s.req)
	s.class = class
	s.waiter = waiter
	s.measured = g.measuring.Load()
	now := g.now()
	s.sent, s.due = now, now
	if due >= 0 {
		s.due = due
		if s.measured {
			g.late = append(g.late, now-due)
		}
	}
	s.span = g.tr.begin("client.exchange", 0, s.req)
	g.mu.Unlock()

	data := g.tmpl[k]
	switch k {
	case kindSLP:
		data[10], data[11] = byte(s.wire>>8), byte(s.wire) // XID
	case kindMDNS:
		data[0], data[1] = byte(s.wire>>8), byte(s.wire) // DNS ID
	}
	sp := g.tr.begin("gen.send", s.span, s.req)
	err := s.sock.Send(g.groups[k], data)
	g.tr.end(sp)
	if err != nil {
		g.finish(s, s.req, false)
	}
	return true
}

// exchange runs one closed-loop request and reports whether a
// verified bridged reply came back.
func (g *generator) exchange(k kind) bool {
	w := make(chan bool, 1)
	for !g.issue(k, classProbe, -1, w) {
		time.Sleep(time.Millisecond)
	}
	select {
	case ok := <-w:
		return ok
	case <-time.After(g.deadline[classProbe] + time.Second):
		// The request is past its deadline: sweep settles it as failed
		// and frees its slot, unless its reply won the race, and either
		// way w then holds the outcome.
		g.sweep()
		return <-w
	}
}

// finish settles slot s's request req (if it is still the one
// outstanding): ok counts a verified exchange, !ok a failure.
func (g *generator) finish(s *slot, req int64, ok bool) {
	now := g.now()
	g.mu.Lock()
	if !s.busy || s.req != req {
		g.mu.Unlock()
		return
	}
	g.settleLocked(s, now, ok)
	g.mu.Unlock()
}

func (g *generator) settleLocked(s *slot, now int64, ok bool) {
	if ok {
		g.verified++
		g.perKind[s.kind]++
		if g.measuring.Load() {
			g.winDone++
		}
		if s.measured {
			g.lat[s.class] = append(g.lat[s.class], now-s.due)
		}
	} else {
		g.failed++
		g.failKind[s.kind]++
		fmt.Printf("# failed exchange: origin %s req %d kind %s class %d, %.1f ms after its send, description GET issued %v\n",
			s.sock.LocalAddr(), s.req, kindNames[s.kind], s.class, float64(now-s.sent)/1e6, s.getting)
		if s.getting {
			g.failGet++
		}
	}
	g.tr.end(s.span)
	s.busy = false
	if s.waiter != nil {
		s.waiter <- ok
		s.waiter = nil
	}
	g.free[s.kind] = append(g.free[s.kind], s)
}

// sweep fails every request outstanding past its class deadline.
func (g *generator) sweep() {
	now := g.now()
	g.mu.Lock()
	for k := range g.slots {
		for _, s := range g.slots[k] {
			if s.busy && now-s.sent > g.deadline[s.class].Nanoseconds() {
				g.settleLocked(s, now, false)
			}
		}
	}
	g.mu.Unlock()
}

// outstanding counts requests still awaiting a reply.
func (g *generator) outstanding() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for k := range g.slots {
		n += len(g.slots[k]) - len(g.free[k])
	}
	return n
}

// drain waits until no request is outstanding, sweeping deadlines.
func (g *generator) drain() {
	for g.outstanding() > 0 {
		g.sweep()
		time.Sleep(5 * time.Millisecond)
	}
}

// capture keeps the first native reply of each message so the layer
// ledger can replay real wire bytes.
func (g *generator) capture(name string, data []byte) {
	g.mu.Lock()
	if _, ok := g.captured[name]; !ok {
		g.captured[name] = append([]byte(nil), data...)
	}
	g.mu.Unlock()
}

// onPacket verifies one reply datagram. Only a reply carrying the
// far-side service's URL, for the request the slot has outstanding,
// counts; native replies from a peer on the shared group are counted
// and ignored.
func (s *slot) onPacket(pkt netapi.Packet) {
	g := s.g
	want := g.targets[s.kind]
	var wire uint16
	var url string
	switch s.kind {
	case kindSLP:
		msg, err := slp.Parse(pkt.Data)
		r, ok := msg.(*slp.SrvRply)
		if err != nil || !ok || len(r.URLs) != 1 {
			g.count(&g.stray)
			return
		}
		wire, url = uint16(r.XID), r.URLs[0]
		if url == want.native {
			g.capture("SLPSrvReply", pkt.Data)
		}
	case kindMDNS:
		m, err := dnssd.Parse(pkt.Data)
		if err != nil || m.IsQuery() || len(m.Answers) != 1 {
			g.count(&g.stray)
			return
		}
		wire, url = uint16(m.ID), m.Answers[0].RDATA
		if url == want.native {
			g.capture("DNSResponse", pkt.Data)
		}
	case kindSSDP:
		m, err := ssdp.Parse(pkt.Data)
		if err != nil || !m.IsResponse() {
			g.count(&g.stray)
			return
		}
		loc := m.Headers["LOCATION"]
		if loc == want.native {
			g.capture("SSDPResponse", pkt.Data)
			g.count(&g.native)
			return
		}
		s.onLocation(loc)
		return
	}
	if url == want.native {
		g.count(&g.native)
		return
	}
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if !s.busy || wire != s.wire {
		g.stray++
		return
	}
	if url != want.bridged {
		g.wrong++
		g.settleLocked(s, now, false)
		return
	}
	g.settleLocked(s, now, true)
}

// onLocation follows a bridged SSDP response: GET the description it
// points at and verify its URLBase.
func (s *slot) onLocation(loc string) {
	g := s.g
	g.mu.Lock()
	if !s.busy || s.getting {
		g.stray++
		g.mu.Unlock()
		return
	}
	s.getting = true
	req, parent := s.req, s.span
	g.mu.Unlock()
	addr, path, err := upnp.SplitLocation(loc)
	if err != nil {
		g.mu.Lock()
		g.wrong++
		g.mu.Unlock()
		g.finish(s, req, false)
		return
	}
	// A UPnP control point collects M-SEARCH responses for the whole MX
	// window it advertised before it fetches descriptions (see
	// ssdp.ControlPoint.Search), so the GET goes out one window after
	// the search.
	g.mu.Lock()
	wait := time.Duration(s.sent + int64(searchWindow) - g.now())
	g.mu.Unlock()
	g.node.After(max(wait, 0), func() { g.get(s, req, parent, addr, path) })
}

// get fetches the description a bridged SSDP response pointed at and
// verifies its URLBase.
func (g *generator) get(s *slot, req int64, parent int32, addr netapi.Addr, path string) {
	sp := g.tr.begin("gen.http_get", parent, req)
	httpx.Get(g.node, addr, path, func(resp *httpx.Response, err error) {
		g.tr.end(sp)
		if err != nil || resp.Status != 200 {
			g.finish(s, req, false)
			return
		}
		base, err := upnp.ExtractURLBase(resp.Body)
		if err != nil || base != g.targets[kindSSDP].bridged {
			g.mu.Lock()
			g.wrong++
			g.mu.Unlock()
			g.finish(s, req, false)
			return
		}
		g.finish(s, req, true)
	})
}

func (g *generator) count(c *int64) {
	g.mu.Lock()
	*c++
	g.mu.Unlock()
}

// stream is one open-loop arrival process: rate requests per second
// drawn from a seeded weighted mix of kinds.
type stream struct {
	rate    float64
	class   int
	kinds   []kind
	weights []float64
}

// pick draws a kind from the stream's mix.
func (st *stream) pick(rng *rand.Rand) kind {
	x := rng.Float64()
	for i, w := range st.weights {
		if x < w {
			return st.kinds[i]
		}
		x -= w
	}
	return st.kinds[len(st.kinds)-1]
}

// runOpenLoop sends every stream's requests on their fixed schedule
// until stop closes. It is the generator's only sending goroutine: it
// sends whatever fell due since its last wake-up, records each
// request's lateness, and pauses until the next request falls due.
func (g *generator) runOpenLoop(streams []stream, rng *rand.Rand, stop <-chan struct{}) {
	start := g.now()
	next := make([]int64, len(streams))
	step := make([]int64, len(streams))
	kinds := make([]kind, len(streams))
	for i, st := range streams {
		step[i] = int64(float64(time.Second) / st.rate)
		next[i] = start + rng.Int63n(step[i])
		kinds[i] = streams[i].pick(rng)
	}
	lastSweep := start
	for {
		select {
		case <-stop:
			return
		default:
		}
		now := g.now()
		blocked := false
		for i := range streams {
			for next[i] <= now {
				// A request whose kind has no idle client waits (and
				// its lateness shows) without holding up other streams.
				if !g.issue(kinds[i], streams[i].class, next[i], nil) {
					blocked = true
					break
				}
				next[i] += step[i]
				kinds[i] = streams[i].pick(rng)
			}
		}
		if blocked || now-lastSweep > int64(10*time.Millisecond) {
			g.sweep()
			lastSweep = now
		}
		wake := next[0]
		for _, n := range next[1:] {
			wake = min(wake, n)
		}
		d := time.Duration(wake - g.now())
		if blocked {
			d = max(d, 100*time.Microsecond)
		}
		if d > 0 {
			pause(d)
		}
	}
}

// pause blocks the sending goroutine for d. The runtime's timers wake
// sleepers on a ~1 ms grid, which would turn the schedule into bursts
// of back-to-back requests; nanosleep(2) on the goroutine's own thread
// wakes within tens of microseconds.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil)
}

// window snapshots and resets the measured-window figures.
func (g *generator) window() (done int64, lat [2][]int64, late []int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	done, lat, late = g.winDone, g.lat, g.late
	g.winDone, g.lat, g.late = 0, [2][]int64{}, nil
	return
}
