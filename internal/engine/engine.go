// Package engine implements Starlink's Automata Engine (paper §IV-B):
// the runtime that executes a merged automaton. It is the component
// that makes the bridge work end to end:
//
//   - at a *receiving state* it listens through the Network Engine on
//     the state's color, parses inbound bytes with the protocol's
//     MDL-specialised parser, and pushes the abstract message onto the
//     session's state queue;
//   - at a *bridge state* (a δ-transition) it runs the λ network
//     actions (setHost redirects the next connection);
//   - at a *sending state* it builds the outgoing abstract message by
//     applying the translation logic's assignments against the stored
//     message history, composes it with the MDL-specialised composer,
//     and transmits it with the color's network semantics — unicast
//     back to the session origin for replies.
//
// One Engine runs one deployed merged automaton; each incoming
// initiator request opens an independent session, and the engine is a
// concurrent session runtime — the paper's "concurrent legacy clients
// are bridged in parallel" made literal:
//
//   - sessions live in a sharded, keyed table (key = entry color +
//     origin address), so listener goroutines contend only on 1/N of
//     the table;
//   - a session is a state machine with no goroutine of its own: it
//     takes one step per event, run inline by whoever delivers the
//     event — the ingest worker that admitted it or routed an entry
//     payload to it, a requester socket's callback, the node timer.
//     Events posted while a step runs queue on the session (payloads
//     bounded, timers not), so one session's steps never overlap while
//     distinct sessions step in parallel;
//   - inbound entry payloads are queued on the node's Host — one lane
//     scheduler and ingest worker pool shared by every case the node
//     hosts — which parses and routes them, and a max-sessions
//     semaphore rejects (rather than accumulates) load beyond the
//     configured ceiling, so overload degrades gracefully;
//   - on runtimes with a virtual clock the engine reports in-flight
//     work through netapi.WorkTracker, which keeps simulated runs
//     deterministic and engine state safe to read after RunUntil.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/automata"
	"starlink/internal/composer"
	"starlink/internal/hist"
	"starlink/internal/lanes"
	"starlink/internal/mdl"
	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/parser"
	"starlink/internal/serrors"
	"starlink/internal/trace"
	"starlink/internal/translation"
	"starlink/internal/types"
)

// State is an engine's position in its lifecycle. The engine moves
// strictly forward: Starting → Running → (Draining →) Closed.
type State int32

const (
	// StateStarting is the window between New and Start: no sessions
	// are admitted yet.
	StateStarting State = iota
	// StateRunning accepts entry payloads and admits new sessions.
	StateRunning
	// StateDraining admits no new sessions but keeps delivering
	// payloads to the live ones so they can finish.
	StateDraining
	// StateClosed has released every queued job and session.
	StateClosed
)

// String names the state for logs and metrics.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Defaults for the concurrency knobs; all overridable via options.
const (
	defaultShardCount  = 16
	defaultMaxSessions = 4096
	// defaultTraceRing is the per-session flight-recorder capacity in
	// events; WithTraceRing overrides, 0 disables recording.
	defaultTraceRing = 64
)

// Codec bundles the MDL-driven marshalling machinery for one protocol.
// Parsers and composers are stateless per call, so one codec is shared
// by every session and ingest worker, whatever goroutine steps them.
type Codec struct {
	Spec     *mdl.Spec
	Parser   *parser.Parser
	Composer *composer.Composer
	// Framer is required for stream (TCP) colors; nil otherwise.
	Framer *parser.Framer
}

// NewCodec builds a codec from an MDL spec. A framer is attached when
// the spec supports one (needed only for TCP colors).
func NewCodec(spec *mdl.Spec, reg *types.Registry, funcs *types.FuncRegistry) (*Codec, error) {
	p, err := parser.New(spec, reg)
	if err != nil {
		return nil, err
	}
	c, err := composer.New(spec, reg, funcs)
	if err != nil {
		return nil, err
	}
	codec := &Codec{Spec: spec, Parser: p, Composer: c}
	if f, err := parser.NewFramer(spec); err == nil {
		codec.Framer = f
	}
	return codec, nil
}

// SessionStats summarises one completed (or failed) bridge session.
type SessionStats struct {
	// Origin is the legacy client that opened the session.
	Origin netapi.Addr
	// Start is when the framework first received the request.
	Start time.Time
	// ReplyAt is when the first translated response was sent back to
	// the initiator — the endpoint of the paper's §VI translation-time
	// measurement ("until the translated output response was sent on
	// the output socket"). Zero if the session failed before replying.
	ReplyAt time.Time
	// End is when the session finished entirely (for the reverse-UPnP
	// cases this includes serving the description GET).
	End time.Time
	// Duration is the paper's translation time: ReplyAt-Start when a
	// reply was sent, End-Start otherwise.
	Duration time.Duration
	Err      error
	// Trace is the session's flight-recorder dump — its pipeline stage
	// events, oldest first — populated only when the session failed
	// (Err != nil) and the recorder is enabled.
	Trace []trace.Event
}

// Counters is a consistent snapshot of the engine's counters.
type Counters struct {
	Completed   int
	Failed      int
	ParseErrors int
	Ignored     int
	Rejected    int
	Dropped     int
	// DrainRejected counts initiator requests that arrived while the
	// engine was draining and were therefore refused.
	DrainRejected int
	// Live is the number of sessions currently registered.
	Live int
	// Ingested counts payloads accepted off entry listeners;
	// IngestedBatched counts the subset delivered by a multi-packet
	// batched receive syscall (recvmmsg) — the structural evidence
	// that transport batching engages under load.
	Ingested        int
	IngestedBatched int
}

// Hooks are optional lifecycle callbacks. Every field may be nil; all
// invocations are serialised with observer invocations, so hook
// implementations need no locking of their own. Multiple Hooks sets
// compose: each registered set is invoked in registration order.
// Callbacks run on whichever goroutine steps the session — an ingest
// worker, a requester socket's callback, the node timer, or Close: keep
// them fast, and never call Close or Shutdown synchronously from inside
// one — spawn a goroutine instead.
type Hooks struct {
	// SessionStart fires when an initiator request is admitted as a
	// new session.
	SessionStart func(origin netapi.Addr, at time.Time)
	// SessionEnd fires as each session finishes (same timing as the
	// WithObserver callback).
	SessionEnd func(SessionStats)
	// Drop fires when a payload or session is refused, with the reason
	// classified under the structured taxonomy: serrors.ErrOverloaded
	// for capacity rejections and queue overflow, serrors.ErrDraining
	// for initiator requests arriving mid-shutdown.
	Drop func(origin netapi.Addr, reason error)
}

// config is the compiled form of an option list. One option type
// serves both layers: New reads the per-case settings, NewHost the
// host-level ones, so a deployment can hand the same list to both.
type config struct {
	caseConfig
	hostConfig
}

// caseConfig holds the per-case settings of an Engine.
type caseConfig struct {
	vars         map[string]string
	tfuncs       *translation.FuncRegistry
	recvTimeout  time.Duration
	windowJitter time.Duration
	jitterSeed   int64
	hooks        []Hooks
	maxSessions  int
	shardCount   int
	traceRing    int
}

// hostConfig holds the settings of a Host.
type hostConfig struct {
	ingestWorkers int
	lanePolicy    lanes.Policy
}

// Option configures an Engine or a Host.
type Option func(*config)

// WithVars sets bridge environment variables available to translation
// constants (${bridge.host}, ${bridge.http.port}, ...).
func WithVars(vars map[string]string) Option {
	return func(c *config) {
		if c.vars == nil { // a host's config carries no vars
			c.vars = map[string]string{}
		}
		for k, v := range vars {
			c.vars[k] = v
		}
	}
}

// WithTranslationFuncs overrides the T-function registry.
func WithTranslationFuncs(funcs *translation.FuncRegistry) Option {
	return func(c *config) { c.tfuncs = funcs }
}

// WithReceiveTimeout bounds how long a session waits at a receive
// state with no convergence window before failing.
func WithReceiveTimeout(d time.Duration) Option {
	return func(c *config) { c.recvTimeout = d }
}

// WithWindowJitter perturbs every convergence window by a uniform
// value in [-d/2, +d/2], modelling the scheduler and retransmission
// variance visible in the paper's Fig. 12(b) min/max columns. Each
// session derives its own RNG from seed and its creation sequence
// number, so concurrent sessions never share a random stream and
// simulated runs stay reproducible.
func WithWindowJitter(d time.Duration, seed int64) Option {
	return func(c *config) { c.windowJitter, c.jitterSeed = d, seed }
}

// WithObserver registers a callback invoked as each session ends.
// Invocations are serialised, so the callback needs no locking of its
// own. It is shorthand for WithHooks(Hooks{SessionEnd: fn}).
func WithObserver(fn func(SessionStats)) Option {
	return WithHooks(Hooks{SessionEnd: fn})
}

// WithMaxSessions bounds the number of concurrently live sessions of
// one case. Initiator requests beyond the bound are rejected (counted
// in Rejected) instead of queued, so a flood degrades into dropped
// requests rather than unbounded memory growth. Values < 1 are ignored
// and keep the default (4096).
func WithMaxSessions(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxSessions = n
		}
	}
}

// WithIngestWorkers sets the size of the host's worker pool that
// parses and routes inbound entry payloads for every hosted case
// (host-level: read by NewHost).
func WithIngestWorkers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.ingestWorkers = n
		}
	}
}

// WithShardCount sets the number of session-table shards of one case.
func WithShardCount(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.shardCount = n
		}
	}
}

// WithHooks registers a set of lifecycle hooks. Hooks compose: every
// registered set is invoked, in registration order.
func WithHooks(h Hooks) Option {
	return func(c *config) { c.hooks = append(c.hooks, h) }
}

// WithTraceRing sizes the per-session flight recorder: the number of
// trace events each session retains in its fixed ring (rounded up to a
// power of two). 0 disables recording entirely — sessions carry a nil
// recorder, and every stage-boundary record costs one nil check.
// Values < 0 keep the default (64). Stage latency histograms are
// unaffected: they are always on.
func WithTraceRing(events int) Option {
	return func(c *config) {
		if events >= 0 {
			c.traceRing = events
		}
	}
}

// WithLanePolicy bounds and parameterizes the host's lane-prioritized
// ingest queues: per-lane ring capacity, the high/low pressure
// watermarks on total depth, and the shed mode applied while
// pressured (host-level: read by NewHost). Zero fields are filled from
// lanes.DefaultPolicy; the filled policy must validate (NewHost
// rejects inverted or out-of-range watermarks). The configured totals
// are divided across the ingest workers' queues.
func WithLanePolicy(p lanes.Policy) Option {
	return func(c *config) { c.lanePolicy = p }
}

// ingestJob is one inbound entry payload awaiting parse + route by
// its engine. It holds one work-tracker token and one count on the
// engine's pending group, and — when the runtime delivered the
// payload in a leased buffer — the lease, which the ingest worker
// releases right after the parse (the parser never aliases its input)
// or on any drop path. key is the payload's routing key, computed once
// on the listener hot path.
type ingestJob struct {
	eng   *Engine
	proto string
	key   string
	data  []byte
	src   netengine.Source
	lease *netapi.Buffer
	// arrived is the wall-clock listener arrival time, the origin of
	// the payload's recv-stage latency sample and — for an initiator
	// request — the epoch of the session's flight recorder.
	arrived time.Time
}

// ingestTiming carries the wall-clock stage boundaries measured by an
// ingest worker into the session it opens or rendezvouses with.
type ingestTiming struct {
	arrived time.Time
	picked  time.Time
	parsed  time.Time
	bytes   int
}

// releaseJobLease returns the job's leased receive buffer, if any.
func releaseJobLease(job *ingestJob) {
	if job.lease != nil {
		job.lease.Release()
		job.lease = nil
	}
}

// noTracker is the WorkTracker used on runtimes that do not implement
// netapi.WorkTracker.
type noTracker struct{}

func (noTracker) WorkAdd()  {}
func (noTracker) WorkDone() {}

// Engine executes one merged automaton on a bridge Host: the per-case
// program, codecs, session table, admission bound, counters, hooks,
// drain state and stage histograms. Ingress scheduling — lanes,
// workers, flow gate — belongs to the Host.
type Engine struct {
	caseConfig
	host    *Host
	merged  *merge.Merged
	program []merge.Step
	codecs  map[string]*Codec

	// Stage latency histograms, always on: one per pipeline stage plus
	// the whole-session distribution. Lock-free; see internal/hist.
	stageHists [trace.NumStages]*hist.Histogram
	sessHist   *hist.Histogram

	// Lifecycle. state moves strictly forward.
	state atomic.Int32
	// drained is closed (once) when the engine is draining and the
	// last live session has finished.
	drained   chan struct{}
	drainOnce sync.Once

	table *sessionTable
	sem   chan struct{} // max-sessions semaphore
	// pending counts this engine's jobs on the host — queued or on a
	// worker — so Close can wait until none can still admit a session.
	pending sync.WaitGroup
	// live counts admitted sessions until their executor has settled
	// the last queued event, so Close can wait until no step runs.
	live       sync.WaitGroup
	closeMu    sync.RWMutex // serialises Inject's tokens+enqueue against Close
	sessionSeq atomic.Uint64

	// Counters exposed for tests and diagnostics. They are updated
	// under statsMu; read them via Stats, or directly only while the
	// runtime is quiesced (after RunUntil / RunToQuiescence).
	statsMu       sync.Mutex
	Completed     int
	Failed        int
	ParseErrors   int
	Ignored       int
	Rejected      int
	Dropped       int
	DrainRejected int

	// ingestTotal/ingestBatched count entry payloads on the ingest hot
	// path (Inject), where taking statsMu per payload would serialise
	// the listeners — atomics instead.
	ingestTotal   atomic.Uint64
	ingestBatched atomic.Uint64

	// obsMu serialises observer invocations.
	obsMu sync.Mutex
}

// New builds an engine for the merged automaton on host. codecs must
// contain an entry for every member protocol. Host-level options are
// ignored here; NewHost reads them.
func New(host *Host, merged *merge.Merged, codecs map[string]*Codec, opts ...Option) (*Engine, error) {
	program, err := merged.Compile()
	if err != nil {
		return nil, err
	}
	for _, a := range merged.Automata {
		c, ok := codecs[a.Protocol]
		if !ok {
			return nil, fmt.Errorf("engine: no codec for protocol %q", a.Protocol)
		}
		if c.Spec.Protocol != a.Protocol {
			return nil, fmt.Errorf("engine: codec protocol %q does not match automaton %q",
				c.Spec.Protocol, a.Protocol)
		}
	}
	specs := map[string]*mdl.Spec{}
	for p, c := range codecs {
		specs[p] = c.Spec
	}
	if err := merged.CheckEquivalences(specs); err != nil {
		return nil, err
	}
	c := config{caseConfig: caseConfig{
		tfuncs:      translation.NewFuncRegistry(),
		vars:        map[string]string{"bridge.host": host.node.IP()},
		recvTimeout: 30 * time.Second,
		maxSessions: defaultMaxSessions,
		shardCount:  defaultShardCount,
		traceRing:   defaultTraceRing,
	}}
	for _, o := range opts {
		o(&c)
	}
	if err := merged.Logic.Validate(c.tfuncs); err != nil {
		return nil, serrors.Mark(err, serrors.ErrModelInvalid)
	}
	e := &Engine{
		caseConfig: c.caseConfig,
		host:       host,
		merged:     merged,
		program:    program,
		codecs:     codecs,
		drained:    make(chan struct{}),
	}
	for i := range e.stageHists {
		e.stageHists[i] = &hist.Histogram{}
	}
	e.sessHist = &hist.Histogram{}
	e.table = newSessionTable(e.shardCount)
	e.sem = make(chan struct{}, e.maxSessions)
	return e, nil
}

// Program returns the compiled step list (diagnostics, mdlc tool).
func (e *Engine) Program() []merge.Step { return e.program }

// Stats returns a consistent snapshot of the engine's counters; safe
// to call from any goroutine at any time. Live is sampled under the
// same lock that orders session finish (table removal + counter
// update), so a finishing session is always counted in exactly one of
// Live or Completed/Failed.
func (e *Engine) Stats() Counters {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return Counters{
		Completed:       e.Completed,
		Failed:          e.Failed,
		ParseErrors:     e.ParseErrors,
		Ignored:         e.Ignored,
		Rejected:        e.Rejected,
		Dropped:         e.Dropped,
		DrainRejected:   e.DrainRejected,
		Live:            e.table.live(),
		Ingested:        int(e.ingestTotal.Load()),
		IngestedBatched: int(e.ingestBatched.Load()),
	}
}

// State returns the engine's lifecycle state.
func (e *Engine) State() State { return State(e.state.Load()) }

// ShardStats returns the number of live sessions per table shard.
func (e *Engine) ShardStats() []int { return e.table.stats() }

// bump increments one of the engine counters under statsMu.
func (e *Engine) bump(counter *int) {
	e.statsMu.Lock()
	*counter++
	e.statsMu.Unlock()
}

// Start flips the engine to Running. It binds nothing: entry payloads
// arrive through Inject from whoever owns the listeners (a
// provisioning dispatcher), and are parsed and routed by the host's
// workers.
func (e *Engine) Start() {
	e.state.CompareAndSwap(int32(StateStarting), int32(StateRunning))
}

// Inject feeds an entry payload to the engine: it is queued on the
// host and parsed and routed by a host worker. Safe to call from any
// goroutine. lease is the pooled buffer backing data when the caller
// received it leased (nil otherwise); the engine takes ownership on
// every path, including refusals. Payloads for an unknown protocol
// are counted Ignored and reported; payloads injected after Close are
// refused with an error wrapping serrors.ErrClosed. A draining engine
// still accepts injection — live sessions need their mid-program
// entries to finish — but refuses the ones that would open a new
// session at admission, reporting them through the Drop hook with
// serrors.ErrDraining.
func (e *Engine) Inject(proto string, data []byte, src netengine.Source, lease *netapi.Buffer) error {
	if _, ok := e.codecs[proto]; !ok {
		if lease != nil {
			lease.Release()
		}
		e.bump(&e.Ignored)
		return fmt.Errorf("engine: %s: no codec for protocol %q", e.merged.Name, proto)
	}
	// The read lock makes the closed check, the tokens and the enqueue
	// atomic with respect to Close, so no job can slip in after it.
	e.closeMu.RLock()
	if e.State() == StateClosed {
		e.closeMu.RUnlock()
		if lease != nil {
			lease.Release()
		}
		return serrors.Mark(fmt.Errorf("engine: %s is closed", e.merged.Name), serrors.ErrClosed)
	}
	e.host.tracker.WorkAdd()
	e.pending.Add(1)
	e.ingestTotal.Add(1)
	if src.Batch > 1 {
		e.ingestBatched.Add(1)
	}
	key := src.RoutingKey()
	job := ingestJob{eng: e, proto: proto, key: key, data: data, src: src, lease: lease, arrived: time.Now()}
	lane := e.classifyLane(proto, key, src)
	verdict, victim := e.host.queue(key).Enqueue(lane, job)
	// User hooks run outside closeMu: a callback reacting to a shed
	// (even one that tears the deployment down from a fresh goroutine)
	// must not deadlock against Close's write lock. The job's pending
	// count keeps Close waiting until it is settled either way.
	e.closeMu.RUnlock()
	switch verdict {
	case lanes.Evicted:
		// The new payload was admitted by displacing the oldest queued
		// item of its lane — possibly another case's; that victim is
		// the drop.
		victim.eng.shed(victim, lane)
	case lanes.Rejected:
		e.shed(job, lane)
	}
	return nil
}

// AwaitsEntry reports whether some live session is blocked waiting for
// the given (protocol, message), preferring none in particular — it is
// the dispatcher's routing probe for entry payloads that are not
// initiator requests (e.g. the control point's description GET in the
// reverse-UPnP cases). The answer is a snapshot and may go stale by
// delivery time; the engine re-checks on delivery, so a stale true is
// harmless (the payload is rerouted or counted Ignored).
func (e *Engine) AwaitsEntry(proto, msg, ip string) bool {
	return e.table.findAwaiting(proto, msg, ip) != nil
}

// Close stops the engine immediately: its jobs still queued on the
// host are settled as drops, jobs already on a worker finish, and every
// live session is torn down: it finishes as Failed with an error
// wrapping serrors.ErrClosed, and its SessionEnd hook fires. Close
// returns once no step of the engine is running or can start. For a
// graceful stop that lets live sessions finish first, use Shutdown.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	// state is the single source of truth for the lifecycle; the swap
	// under the write lock doubles as the idempotence latch.
	already := State(e.state.Swap(int32(StateClosed))) == StateClosed
	e.closeMu.Unlock()
	if already {
		return nil
	}
	// Inject takes its pending count under closeMu.RLock after checking
	// the state flipped above, so the group can only shrink from here.
	e.host.remove(e)
	e.pending.Wait()
	for _, s := range e.table.removeAll() {
		e.host.tracker.WorkAdd()
		s.post(sessEvent{kind: evClose})
	}
	e.live.Wait()
	e.signalDrained() // a closed engine has, vacuously, drained
	return nil
}

// Shutdown drains the engine gracefully: it stops admitting new
// sessions immediately (initiator requests arriving from now on are
// refused and reported with serrors.ErrDraining), keeps delivering
// payloads to live sessions so they can finish, and closes the engine
// once the last session ends. If ctx expires first the remaining
// sessions are torn down and the returned error wraps ctx.Err().
// Shutdown of an already closed engine returns nil.
func (e *Engine) Shutdown(ctx context.Context) error {
	if State(e.state.Load()) == StateClosed {
		return nil
	}
	e.BeginDrain()
	select {
	case <-e.drained:
		return e.Close()
	case <-ctx.Done():
		// Both channels may be ready (last session finished right at
		// the deadline, or a zero timeout on an already-idle engine),
		// and the last session may finish between the two checks — a
		// drain that completed is never an error, so an empty table
		// counts as success even if the signal hasn't landed yet.
		select {
		case <-e.drained:
			return e.Close()
		default:
		}
		live := e.table.live() // before Close empties the table
		if live == 0 {
			return e.Close()
		}
		_ = e.Close()
		return fmt.Errorf("engine: %s: drain aborted with %d live session(s): %w",
			e.merged.Name, live, ctx.Err())
	}
}

// BeginDrain flips the engine into StateDraining without blocking:
// initiator requests are refused with serrors.ErrDraining from the
// moment it returns, while live sessions keep running to completion.
// It is the non-blocking prefix of Shutdown, split out so a
// deterministic test harness can start a drain from inside a
// simulator event callback — where Shutdown's wait for the last
// session would deadlock the event loop that must deliver the very
// payloads those sessions are waiting for. No-op on an engine that is
// already draining or closed.
func (e *Engine) BeginDrain() {
	for {
		s := e.state.Load()
		if s == int32(StateClosed) || s == int32(StateDraining) {
			return
		}
		if e.state.CompareAndSwap(s, int32(StateDraining)) {
			break
		}
	}
	// Live is read under statsMu, the same lock that orders session
	// finish, so the "last session already gone" case cannot race
	// sessionDone's own drain check.
	e.statsMu.Lock()
	if e.table.live() == 0 {
		e.signalDrained()
	}
	e.statsMu.Unlock()
}

// signalDrained marks the drain as complete (idempotent).
func (e *Engine) signalDrained() {
	e.drainOnce.Do(func() { close(e.drained) })
}

// hookSessionStart notifies every hook set of an admitted session.
func (e *Engine) hookSessionStart(origin netapi.Addr, at time.Time) {
	if len(e.hooks) == 0 {
		return
	}
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	for _, h := range e.hooks {
		if h.SessionStart != nil {
			h.SessionStart(origin, at)
		}
	}
}

// hookDrop reports a refused payload or session with its structured
// reason.
func (e *Engine) hookDrop(origin netapi.Addr, reason error) {
	if len(e.hooks) == 0 {
		return
	}
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	for _, h := range e.hooks {
		if h.Drop != nil {
			h.Drop(origin, reason)
		}
	}
}

// classifyLane assigns an entry payload its priority lane. A payload
// whose routing key has a live session is mid-session data; the
// initiator protocol's payloads are control (session entry and
// classification); a stream payload comes from a connected peer that
// already committed to a session-oriented exchange; anything else —
// multicast chatter, advert/demo traffic no session asked for — is
// telemetry, shed first under pressure.
func (e *Engine) classifyLane(proto, key string, src netengine.Source) lanes.Lane {
	if e.table.contains(key) {
		return lanes.Data
	}
	if proto == e.program[0].Protocol {
		return lanes.Control
	}
	if src.IsStream() {
		return lanes.Data
	}
	return lanes.Telemetry
}

// shed accounts one payload a lane queue shed: it is settled as a drop
// and reported as ErrOverloaded. The hook fires before the work token
// is returned, so on a virtual-clock runtime quiescence implies the
// observers have seen the drop.
func (e *Engine) shed(job ingestJob, lane lanes.Lane) {
	releaseJobLease(&job)
	e.bump(&e.Dropped)
	e.hookDrop(job.src.Addr, serrors.Mark(
		fmt.Errorf("engine: %s: %s lane shed payload from %s", e.merged.Name, lane, job.src.Addr),
		serrors.ErrOverloaded))
	e.host.tracker.WorkDone()
	e.pending.Done()
}

// drop settles a job that will never be ingested because its engine
// closed: lease released, counted Dropped, work token returned. The
// caller settles the pending count.
func (e *Engine) drop(job ingestJob) {
	releaseJobLease(&job)
	e.bump(&e.Dropped)
	e.host.tracker.WorkDone()
}

// ingest parses one entry payload and routes it: initiator requests
// open (or rendezvous with) a keyed session; anything else goes to a
// session awaiting that message. The job's buffer lease ends here —
// the parse copies everything it keeps into pooled messages, so the
// receive buffer goes back to its pool before any routing happens.
func (e *Engine) ingest(job ingestJob) {
	codec := e.codecs[job.proto]
	picked := time.Now()
	nbytes := len(job.data)
	msg, err := codec.Parser.Parse(job.data)
	parsed := time.Now()
	releaseJobLease(&job)
	if !job.arrived.IsZero() {
		e.stageHists[trace.StageRecv].Record(picked.Sub(job.arrived))
	}
	e.stageHists[trace.StageParse].Record(parsed.Sub(picked))
	if err != nil {
		e.bump(&e.ParseErrors)
		e.host.tracker.WorkDone()
		return
	}
	tm := ingestTiming{arrived: job.arrived, picked: picked, parsed: parsed, bytes: nbytes}
	first := e.program[0]
	if job.proto == first.Protocol && msg.Name == first.Message {
		e.openSession(job, msg, tm)
		return
	}
	// Route to a session awaiting this message on this protocol,
	// preferring one opened by the same peer host.
	if s := e.table.claimAwaiting(job.proto, msg.Name, job.src.Addr.IP); s != nil {
		s.recordIngest(tm)
		s.post(sessEvent{kind: evEntry, proto: job.proto, msg: msg, src: job.src})
		return
	}
	e.bump(&e.Ignored)
	msg.Release() // never escaped this worker: recycle
	e.host.tracker.WorkDone()
}

// openSession handles an initiator request. If the session keyed by
// the payload's routing key is awaiting exactly this message, the
// payload is delivered to it (a rendezvous/re-delivery). Otherwise —
// no session under the key, or a live one already past this message
// (a legacy client reusing one socket for a new interaction) — an
// independent session is admitted against the max-sessions semaphore
// and its first steps run on this worker, under a uniquified key when
// the base key is taken. One session per initiator request, as in the
// paper.
func (e *Engine) openSession(job ingestJob, msg *message.Message, tm ingestTiming) {
	key := job.key
	sh := e.table.shardFor(key)
	sh.mu.Lock()
	if s, ok := sh.sessions[key]; ok {
		if ak := s.await.Load(); ak != nil && ak.proto == job.proto && ak.msg == msg.Name {
			// Posted outside the shard lock: the post may run the
			// session, whose finish takes the lock.
			sh.mu.Unlock()
			s.recordIngest(tm)
			s.post(sessEvent{kind: evEntry, proto: job.proto, msg: msg, src: job.src})
			return
		}
		// The keyed session is mid-program: this is a new interaction
		// from the same client socket. Give it its own key. Payloads
		// for one origin are handled by one sticky ingest worker, so
		// no other goroutine can race the creation for this origin.
		sh.mu.Unlock()
		seq := e.sessionSeq.Add(1)
		key = fmt.Sprintf("%s#%d", key, seq)
		sh = e.table.shardFor(key)
		sh.mu.Lock()
		e.admitLocked(sh, key, seq, msg, job.src, tm)
		return
	}
	e.admitLocked(sh, key, e.sessionSeq.Add(1), msg, job.src, tm)
}

// admitLocked creates a session under key and runs its first steps on
// the caller, up to its first receive. The caller holds sh.mu (the
// shard owning key) and a work token; both are released on every path.
func (e *Engine) admitLocked(sh *tableShard, key string, seq uint64, msg *message.Message, src netengine.Source, tm ingestTiming) {
	switch State(e.state.Load()) {
	case StateClosed:
		sh.mu.Unlock()
		e.bump(&e.Dropped)
		msg.Release()
		e.host.tracker.WorkDone()
		return
	case StateDraining:
		// Rendezvous deliveries to live sessions were handled by the
		// caller; only brand-new sessions reach here, and a draining
		// engine admits none. The hook fires before the work token is
		// released so quiescence implies observers saw the rejection.
		sh.mu.Unlock()
		e.bump(&e.DrainRejected)
		msg.Release()
		e.hookDrop(src.Addr, serrors.Mark(
			fmt.Errorf("engine: %s: new session from %s rejected: engine is draining", e.merged.Name, src.Addr),
			serrors.ErrDraining))
		e.host.tracker.WorkDone()
		return
	}
	select {
	case e.sem <- struct{}{}:
	default:
		sh.mu.Unlock()
		e.bump(&e.Rejected)
		msg.Release() // rejected before any session saw it: recycle
		e.hookDrop(src.Addr, serrors.Mark(
			fmt.Errorf("engine: %s: new session from %s rejected: max sessions (%d) live", e.merged.Name, src.Addr, e.maxSessions),
			serrors.ErrOverloaded))
		e.host.tracker.WorkDone()
		return
	}
	// Born running: events posted before its first steps return queue.
	s := newSession(e, key, seq, msg, src, tm)
	sh.sessions[key] = s
	e.live.Add(1)
	sh.mu.Unlock()
	e.hookSessionStart(src.Addr, s.start)
	s.advance()
	s.execute()
	e.host.tracker.WorkDone()
}

// overflow settles a payload posted to a session whose queue is full:
// counted Dropped, reported as ErrOverloaded, token returned.
func (e *Engine) overflow(ev sessEvent) {
	e.bump(&e.Dropped)
	releaseEventMsg(ev)
	e.hookDrop(ev.src.Addr, serrors.Mark(
		fmt.Errorf("engine: %s: session queue full, payload dropped", e.merged.Name),
		serrors.ErrOverloaded))
	e.host.tracker.WorkDone()
}

// undelivered settles an event its session finished before handling:
// an entry payload is rerouted once or counted Ignored, anything else
// is released; the token is returned.
func (e *Engine) undelivered(s *session, ev sessEvent) {
	if ev.kind == evEntry {
		e.rerouteEntry(s, ev)
	} else {
		releaseEventMsg(ev)
	}
	e.host.tracker.WorkDone()
}

// releaseEventMsg recycles the parsed message — and the receive-buffer
// lease — of an event that was never delivered. Whoever settles it is
// the sole holder on these paths, so the pooled fast path keeps recycling
// under overload — dropped payloads must not degrade into per-packet
// garbage.
func releaseEventMsg(ev sessEvent) {
	if ev.msg != nil {
		ev.msg.Release()
	}
	if ev.lease != nil {
		ev.lease.Release()
	}
}

// rerouteEntry gives an entry payload that reached a session already
// past the awaited state — or one that finished before handling it —
// one more chance to find the session actually awaiting it: the
// original routing choice is made from a lock-free await snapshot,
// which can go stale by delivery time under realnet concurrency, and
// the payload would otherwise starve the session it was meant for. One
// hop only; if no other session awaits it, the payload is counted
// Ignored. The caller holds the event's work token and returns it; the
// forward takes a token of its own.
func (e *Engine) rerouteEntry(s *session, ev sessEvent) {
	if !ev.rerouted {
		if s2 := e.table.claimAwaiting(ev.proto, ev.msg.Name, ev.src.Addr.IP); s2 != nil && s2 != s {
			ev.rerouted = true
			e.host.tracker.WorkAdd()
			s2.post(ev)
			return
		}
	}
	e.bump(&e.Ignored)
	releaseEventMsg(ev) // no session wanted it: recycle
}

// sessionDone finishes a session: it is called only by the session's
// executor.
func (e *Engine) sessionDone(s *session, err error) {
	if s.finished {
		return
	}
	s.finished = true
	s.cleanup()
	end := e.host.node.Now()
	stats := SessionStats{
		Origin:  s.origin.Addr,
		Start:   s.start,
		ReplyAt: s.replyAt,
		End:     end,
		Err:     err,
	}
	if !s.replyAt.IsZero() {
		stats.Duration = s.replyAt.Sub(s.start)
	} else {
		stats.Duration = end.Sub(s.start)
	}
	e.sessHist.Record(stats.Duration)
	if err != nil {
		// A failed session surfaces its flight-recorder dump so the
		// failure can be diagnosed (and replayed) stage by stage.
		stats.Trace = s.rec.Events()
	}
	// Removal and counter update happen under one lock so Stats never
	// sees the session in neither Live nor Completed/Failed. Lock
	// order is always statsMu → shard mutex, never the reverse. The
	// drain check rides the same critical section: a draining engine
	// whose last session just left the table signals exactly once.
	e.statsMu.Lock()
	e.table.remove(s.key, s)
	if err != nil {
		e.Failed++
	} else {
		e.Completed++
	}
	if State(e.state.Load()) == StateDraining && e.table.live() == 0 {
		e.signalDrained()
	}
	e.statsMu.Unlock()
	<-e.sem // return the max-sessions slot
	if len(e.hooks) > 0 {
		e.obsMu.Lock()
		for _, h := range e.hooks {
			if h.SessionEnd != nil {
				h.SessionEnd(stats)
			}
		}
		e.obsMu.Unlock()
	}
}

// ColorsInUse lists the colors of the merged automaton in program
// order; exposed for the mdlc inspection tool.
func (e *Engine) ColorsInUse() []automata.Color {
	var out []automata.Color
	seen := map[string]bool{}
	for _, st := range e.program {
		if st.Color.IsZero() || seen[st.Color.Key()] {
			continue
		}
		seen[st.Color.Key()] = true
		out = append(out, st.Color)
	}
	return out
}
