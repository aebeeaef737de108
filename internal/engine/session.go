package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/serrors"
	"starlink/internal/trace"
	"starlink/internal/translation"
)

// queueCap bounds the events queued on one session while a step of it
// runs: a payload posted to a full queue is dropped (counted in
// Dropped) instead of stalling the listeners — UDP semantics end to
// end. Timer and teardown events are queued past the bound: a lost
// receive timer would stall the session forever and leak its
// max-sessions slot.
const queueCap = 64

type eventKind uint8

const (
	// evEntry is a parsed message routed from an entry listener.
	evEntry eventKind = iota
	// evData is a raw payload from one of the session's requester
	// channels; it is parsed by the session's executor.
	evData
	// evTimer is a fired receive timer (convergence window or timeout).
	evTimer
	// evClose tears the session down (engine Close).
	evClose
)

// bounded reports whether events of the kind are subject to queueCap.
func (k eventKind) bounded() bool { return k == evEntry || k == evData }

// sessEvent is one unit of session work. Every posted event holds one
// work-tracker token; the token is released when the session finishes
// handling the event (or when the event is dropped).
type sessEvent struct {
	kind  eventKind
	proto string
	msg   *message.Message
	data  []byte
	// lease is the pooled receive buffer backing data on evData events
	// whose payload the runtime delivered leased; the session releases
	// it right after parsing (or on any drop path).
	lease *netapi.Buffer
	src   netengine.Source
	gen   uint64
	// arrived is the wall-clock arrival time of an evData payload at
	// its requester callback — the origin of its recv-stage sample.
	arrived time.Time
	// rerouted marks an entry event already forwarded once by a
	// session that had moved past the awaited state (no second hop).
	rerouted bool
}

// awaitKey is the published receive state used for entry routing.
// windowed marks a convergence-window receive, which collects every
// matching payload; any other receive takes one, so routing claims it.
type awaitKey struct {
	proto    string
	msg      string
	windowed bool
}

// session is one bridged interaction: a state machine over the
// compiled program that takes one step per event, with no goroutine of
// its own. Whoever delivers an event — the ingest worker for admission
// and entry payloads, a requester socket's callback for its payloads,
// the node timer for receive timers, Close for teardown — posts it; the
// poster that finds the session idle becomes its executor and runs the
// queued events, so two steps of one session never overlap. Fields
// below the executor marker are touched only by the current executor.
type session struct {
	e        *Engine
	key      string
	seq      uint64
	originIP string
	await    atomic.Pointer[awaitKey]

	// mu guards the events queued while a step runs and the running
	// and closed (finished: posts are refused) flags. It is never held
	// across a step.
	mu      sync.Mutex
	queue   []sessEvent
	running bool
	closed  bool

	// --- executor-confined state ---
	pc int
	// awaitPC is the program counter of the receive whose await key was
	// last published; a key claimed by entry routing is not republished.
	awaitPC int
	// origin is the source of the initiating request.
	origin netengine.Source
	// entrySources remembers, per protocol, the latest entry peer so
	// ReplyToOrigin answers the right socket/connection.
	entrySources map[string]netengine.Source
	// history holds every stored message instance per abstract name —
	// the state queues and the ⇒ history operator of §III-B.
	history map[string][]*message.Message
	// requesters are the session's client-role channels per protocol.
	requesters map[string]*netengine.Requester
	// override is the destination set by a setHost λ action, consumed
	// by the next requester opened.
	override netapi.Addr

	// awaiting receive state.
	waitProto string
	waitMsg   string
	collected []*message.Message
	windowed  bool
	timer     netapi.TimerID
	timerSet  bool
	timerGen  uint64

	// rng perturbs this session's convergence windows; deterministically
	// seeded per session so concurrent sessions never share a stream.
	rng *rand.Rand

	// rec is the session's flight recorder — nil when disabled
	// (WithTraceRing(0)). Set once before the session is published in
	// the table and never reassigned, so cross-goroutine writers (the
	// ingest worker recording recv/parse of a rendezvous delivery) see
	// it without locking; the recorder itself is wait-free.
	rec *trace.Recorder

	start    time.Time
	replyAt  time.Time
	finished bool
}

func newSession(e *Engine, key string, seq uint64, first *message.Message, src netengine.Source, tm ingestTiming) *session {
	s := &session{
		e:            e,
		key:          key,
		seq:          seq,
		originIP:     src.Addr.IP,
		running:      true, // the admitting worker runs the first steps
		pc:           1,    // step 0 is the initiator receive, satisfied by first
		origin:       src,
		entrySources: map[string]netengine.Source{},
		history:      map[string][]*message.Message{},
		requesters:   map[string]*netengine.Requester{},
		start:        e.host.node.Now(),
	}
	if e.windowJitter > 0 {
		s.rng = rand.New(rand.NewSource(e.jitterSeed + int64(s.seq)*0x9E3779B9))
	}
	if e.traceRing > 0 {
		// Epoch is the initiating payload's listener arrival, so every
		// event offset reads as time-into-session.
		epoch := tm.arrived
		if epoch.IsZero() {
			epoch = time.Now()
		}
		s.rec = trace.New(e.traceRing, epoch)
		s.recordIngest(tm)
	}
	s.entrySources[e.program[0].Protocol] = src
	s.store(first)
	return s
}

// recordIngest notes the recv and parse boundaries an ingest worker
// measured for a payload delivered to this session. Safe from any
// goroutine: the recorder is wait-free and nil-safe.
func (s *session) recordIngest(tm ingestTiming) {
	if s.rec == nil {
		return
	}
	if !tm.picked.IsZero() {
		s.rec.RecordAt(trace.StageRecv, trace.OutcomeOK, tm.picked, tm.bytes)
	}
	if !tm.parsed.IsZero() {
		s.rec.RecordAt(trace.StageParse, trace.OutcomeOK, tm.parsed, tm.bytes)
	}
}

// post hands ev to the session; the caller holds the event's work
// token, which passes to the session on every path. If no step of the
// session is running, the caller becomes its executor: it handles ev,
// then every event queued meanwhile. Otherwise ev is queued for the
// running executor — so a post re-entered from a step's own stack only
// queues — unless it is a payload and queueCap events are queued, in
// which case it is dropped. A finished session refuses the event.
func (s *session) post(ev sessEvent) {
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		s.e.undelivered(s, ev)
		return
	case !s.running:
		s.running = true
		s.mu.Unlock()
		s.step(ev)
		s.execute()
		return
	case ev.kind.bounded() && len(s.queue) >= queueCap:
		s.mu.Unlock()
		s.e.overflow(ev)
		return
	}
	s.queue = append(s.queue, ev)
	s.mu.Unlock()
}

// step handles one event and returns its work token.
func (s *session) step(ev sessEvent) {
	s.handle(ev)
	s.e.host.tracker.WorkDone()
}

// execute runs the queued events until none is left, then gives up the
// executor role; the caller holds it (running is set). Once the
// session has finished it refuses further posts, settles what is still
// queued and leaves the engine's live count.
func (s *session) execute() {
	for {
		s.mu.Lock()
		switch {
		case s.finished:
			s.closed, s.running = true, false
			rest := s.queue
			s.queue = nil
			s.mu.Unlock()
			for _, ev := range rest {
				s.e.undelivered(s, ev)
			}
			s.e.live.Done()
			return
		case len(s.queue) == 0:
			s.running = false
			s.mu.Unlock()
			return
		}
		ev := s.queue[0]
		n := copy(s.queue, s.queue[1:])
		s.queue[n] = sessEvent{} // drop the stale tail copy's references
		s.queue = s.queue[:n]
		s.mu.Unlock()
		s.step(ev)
	}
}

func (s *session) handle(ev sessEvent) {
	switch ev.kind {
	case evEntry:
		if s.waitProto != ev.proto || s.waitMsg != ev.msg.Name {
			// Not ours (stale routing): pass it on without touching
			// this session's reply targets.
			s.e.rerouteEntry(s, ev)
			return
		}
		s.entrySources[ev.proto] = ev.src
		s.deliver(ev.proto, ev.msg)
	case evData:
		codec := s.e.codecs[ev.proto]
		picked := time.Now()
		nbytes := len(ev.data)
		msg, err := codec.Parser.Parse(ev.data)
		parsed := time.Now()
		if ev.lease != nil {
			// The parse copied everything it kept: the receive buffer
			// goes straight back to its pool.
			ev.lease.Release()
			ev.lease = nil
		}
		if !ev.arrived.IsZero() {
			s.e.stageHists[trace.StageRecv].Record(picked.Sub(ev.arrived))
			s.rec.RecordAt(trace.StageRecv, trace.OutcomeOK, picked, nbytes)
		}
		s.e.stageHists[trace.StageParse].Record(parsed.Sub(picked))
		if err != nil {
			s.rec.RecordAt(trace.StageParse, trace.OutcomeErr, parsed, nbytes)
			s.e.bump(&s.e.ParseErrors)
			return
		}
		s.rec.RecordAt(trace.StageParse, trace.OutcomeOK, parsed, nbytes)
		s.deliver(ev.proto, msg)
	case evTimer:
		if !s.timerSet || ev.gen != s.timerGen {
			return // cancelled or superseded timer
		}
		s.timerSet = false
		if s.windowed {
			s.windowExpired()
		} else {
			s.e.sessionDone(s, fmt.Errorf("engine: timeout waiting for %s/%s", s.waitProto, s.waitMsg))
		}
	case evClose:
		// Forcible teardown still reports through sessionDone so the
		// session is counted (Failed) and observers see its end —
		// sessions must never vanish from the metrics surface.
		s.e.sessionDone(s, serrors.Mark(
			fmt.Errorf("engine: %s: session from %s torn down before completion",
				s.e.merged.Name, s.origin.Addr),
			serrors.ErrClosed))
	}
}

func (s *session) store(m *message.Message) {
	s.history[m.Name] = append(s.history[m.Name], m)
}

// lookup returns the most recent stored instance of a message.
func (s *session) lookup(name string) *message.Message {
	h := s.history[name]
	if len(h) == 0 {
		return nil
	}
	return h[len(h)-1]
}

// advance executes program steps until the session blocks on a receive
// or completes.
func (s *session) advance() {
	for !s.finished {
		if s.pc >= len(s.e.program) {
			s.e.sessionDone(s, nil)
			return
		}
		step := s.e.program[s.pc]
		switch step.Kind {
		case merge.StepDelta:
			t0 := time.Now()
			err := s.runDelta(step)
			s.e.stageHists[trace.StageTransition].Record(time.Since(t0))
			if err != nil {
				s.rec.Record(trace.StageTransition, trace.OutcomeErr, 0)
				s.e.sessionDone(s, err)
				return
			}
			s.rec.Record(trace.StageTransition, trace.OutcomeOK, 0)
			s.pc++
		case merge.StepSend:
			// Publish the next receive's await key before the send: a
			// peer answering at once (a control point fetching the
			// description the moment our SSDP response lands) must find
			// the session already awaiting it, not race armReceive. The
			// payload waits in the session's queue until this step ends.
			for next := s.pc + 1; next < len(s.e.program); next++ {
				if s.e.program[next].Kind == merge.StepRecv {
					s.publishAwait(next)
					break
				}
			}
			if err := s.runSend(step); err != nil {
				s.e.sessionDone(s, err)
				return
			}
			s.pc++
		case merge.StepRecv:
			s.armReceive()
			return
		}
	}
}

// runDelta executes the λ actions of a δ-transition.
func (s *session) runDelta(step merge.Step) error {
	for _, act := range step.Delta.Actions {
		vals, err := act.Resolve(s.lookup)
		if err != nil {
			return err
		}
		switch act.Name {
		case translation.ActionSetHost:
			host := vals[0].Text()
			port, ok := vals[1].AsInt()
			if !ok {
				var n int64
				if _, err := fmt.Sscanf(vals[1].Text(), "%d", &n); err != nil {
					return fmt.Errorf("engine: setHost port %q is not numeric", vals[1].Text())
				}
				port = n
			}
			s.override = netapi.Addr{IP: host, Port: int(port)}
		default:
			return fmt.Errorf("engine: unknown λ action %q", act.Name)
		}
	}
	return nil
}

// runSend builds, translates, composes and transmits a message, timing
// each of the three stages into the engine's histograms and the
// session's flight recorder.
func (s *session) runSend(step merge.Step) error {
	codec := s.e.codecs[step.Protocol]
	// Pooled: the composed message joins the session history and is
	// recycled with it at cleanup.
	out := message.NewPooled(step.Protocol, step.Message)
	env := translation.Env{Lookup: s.lookup, Vars: s.e.vars}
	t0 := time.Now()
	err := s.e.merged.Logic.Apply(out, env, s.e.tfuncs)
	t1 := time.Now()
	s.e.stageHists[trace.StageTranslate].Record(t1.Sub(t0))
	if err != nil {
		out.Release() // never joined the history
		s.rec.RecordAt(trace.StageTranslate, trace.OutcomeErr, t1, 0)
		return err
	}
	s.rec.RecordAt(trace.StageTranslate, trace.OutcomeOK, t1, 0)
	wire, err := codec.Composer.Compose(out)
	t2 := time.Now()
	s.e.stageHists[trace.StageCompose].Record(t2.Sub(t1))
	if err != nil {
		out.Release()
		s.rec.RecordAt(trace.StageCompose, trace.OutcomeErr, t2, 0)
		return err
	}
	s.rec.RecordAt(trace.StageCompose, trace.OutcomeOK, t2, len(wire))
	s.store(out) // sent instances join the history (⇒ over sends)

	if step.ReplyToOrigin {
		src, ok := s.entrySources[step.Protocol]
		if !ok {
			src = s.origin
		}
		err := src.Reply(wire)
		s.e.stageHists[trace.StageSend].Record(time.Since(t2))
		if err != nil {
			s.rec.Record(trace.StageSend, trace.OutcomeErr, len(wire))
			return fmt.Errorf("engine: reply: %w", err)
		}
		s.rec.Record(trace.StageSend, trace.OutcomeOK, len(wire))
		if s.replyAt.IsZero() && step.Protocol == s.e.merged.Initiator {
			s.replyAt = s.e.host.node.Now()
		}
		return nil
	}
	r, ok := s.requesters[step.Protocol]
	if !ok {
		dest := s.override
		s.override = netapi.Addr{}
		proto := step.Protocol
		r, err = s.e.host.net.NewRequester(step.Color, dest, codec.Framer, func(data []byte, src netengine.Source, lease *netapi.Buffer) {
			s.e.host.tracker.WorkAdd()
			s.post(sessEvent{kind: evData, proto: proto, data: data, lease: lease, arrived: time.Now()})
		})
		if err != nil {
			return err
		}
		s.requesters[step.Protocol] = r
		s.e.host.egress.Add(r)
	}
	sendErr := r.Send(wire)
	s.e.stageHists[trace.StageSend].Record(time.Since(t2))
	if sendErr != nil {
		s.rec.Record(trace.StageSend, trace.OutcomeErr, len(wire))
		return fmt.Errorf("engine: send: %w", sendErr)
	}
	s.rec.Record(trace.StageSend, trace.OutcomeOK, len(wire))
	return nil
}

// armReceive blocks the session on the receive step at pc. The timer
// callback posts an event back to the session, which the poster runs
// if the session is idle.
func (s *session) armReceive() {
	step := s.e.program[s.pc]
	s.waitProto = step.Protocol
	s.waitMsg = step.Message
	s.collected = nil
	s.publishAwait(s.pc)
	scheme, err := netengine.SchemeOf(step.Color)
	if err != nil {
		s.e.sessionDone(s, err)
		return
	}
	wait := s.e.recvTimeout
	s.windowed = false
	if scheme.Convergence > 0 {
		// Requester-side multicast collection window: gather responses
		// for the full window (the SLP convergence behaviour that
		// dominates the →SLP rows of Fig. 12(b)).
		wait = scheme.Convergence
		if s.e.windowJitter > 0 && s.rng != nil {
			wait += time.Duration(s.rng.Int63n(int64(s.e.windowJitter))) - s.e.windowJitter/2
		}
		s.windowed = true
	}
	s.timerGen++
	gen := s.timerGen
	s.timerSet = true
	s.timer = s.e.host.node.After(wait, func() {
		s.e.host.tracker.WorkAdd()
		s.post(sessEvent{kind: evTimer, gen: gen})
	})
}

// publishAwait publishes the receive step at pc as the session's await
// key for entry routing, once: after entry routing has claimed the key
// for a payload on its way here, it stays withdrawn.
func (s *session) publishAwait(pc int) {
	if s.awaitPC == pc {
		return
	}
	s.awaitPC = pc
	step := s.e.program[pc]
	scheme, _ := netengine.SchemeOf(step.Color) // an invalid color fails armReceive
	s.await.Store(&awaitKey{proto: step.Protocol, msg: step.Message, windowed: scheme.Convergence > 0})
}

func (s *session) windowExpired() {
	if len(s.collected) == 0 {
		s.e.sessionDone(s, fmt.Errorf("engine: no %s/%s response within convergence window", s.waitProto, s.waitMsg))
		return
	}
	s.clearWait()
	s.pc++
	s.advance()
}

func (s *session) clearWait() {
	if s.timerSet {
		s.e.host.node.Cancel(s.timer)
		s.timerSet = false
	}
	s.timerGen++ // invalidate a fire already in flight
	s.waitProto, s.waitMsg = "", ""
	s.collected = nil
	s.await.Store(nil)
}

func (s *session) deliver(proto string, msg *message.Message) {
	if s.waitProto != proto || s.waitMsg != msg.Name {
		s.rec.Record(trace.StageRecv, trace.OutcomeDrop, 0)
		s.e.bump(&s.e.Ignored)
		// Freshly parsed by this executor and never stored: recycle.
		msg.Release()
		return
	}
	s.store(msg)
	if s.windowed {
		s.collected = append(s.collected, msg)
		return // keep collecting until the window expires
	}
	s.clearWait()
	s.pc++
	s.advance()
}

func (s *session) cleanup() {
	if s.timerSet {
		s.e.host.node.Cancel(s.timer)
		s.timerSet = false
	}
	s.timerGen++
	s.await.Store(nil)
	for _, r := range s.requesters {
		s.e.host.egress.Remove(r)
		_ = r.Close()
	}
	s.requesters = map[string]*netengine.Requester{}
	// The session owns every message in its history (parsed inputs and
	// composed outputs); nothing references them once the session ends,
	// so the whole working set returns to the message pools here — the
	// session boundary of the pooled fast path.
	s.collected = nil
	for name, h := range s.history {
		for _, m := range h {
			m.Release()
		}
		delete(s.history, name)
	}
}
