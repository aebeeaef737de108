// Package starlink is a Go implementation of the Starlink framework
// (Bromberg, Grace, Réveillère — "Starlink: runtime interoperability
// between heterogeneous middleware protocols", ICDCS 2011).
//
// Starlink makes two legacy systems that speak different middleware
// protocols interoperate at runtime, with no protocol-specific code:
// everything is driven by loadable high-level models —
//
//   - MDL specifications describing each protocol's message formats,
//     interpreted by generic parsers and composers;
//   - k-colored automata describing each protocol's behaviour and
//     network semantics (transport, ports, multicast, sync/async);
//   - merged automata chaining the protocols with δ-transitions and
//     carrying the translation logic that maps field content across.
//
// Quickstart (bridging an SLP client to a Bonjour service on the
// deterministic network simulator):
//
//	rt := starlink.Simulated()
//	fw, _ := starlink.New(rt)
//	bridge, _ := fw.DeployBridge(ctx, "10.0.0.5", "slp-to-bonjour")
//	defer bridge.Close()
//	// ... start a dnssd.Responder and an slp.UserAgent; the lookup
//	// completes across protocols, through the bridge.
//
// # Lifecycle
//
// Every deployment — a single-case Bridge or a multi-case Dispatcher —
// moves strictly forward through four states: Starting → Running →
// Draining → Closed. The context passed to DeployBridge and
// DeployDispatcher governs both the deploy and the deployment's
// lifetime (like exec.CommandContext): cancelling it closes the
// deployment, tearing down in-flight sessions through their
// per-session contexts. Shutdown(ctx) drains gracefully instead — no
// new sessions are admitted (late initiator requests are refused and
// observable as drops tagged ErrDraining), live sessions run to
// completion, and ctx bounds how long the drain may take. Close tears
// everything down immediately.
//
// # Errors
//
// Failures are classified under exported sentinels asserted with
// errors.Is: ErrUnknownCase (case not loaded), ErrModelInvalid (model
// failed to parse or validate), ErrOverloaded (capacity bound hit),
// ErrDraining (work refused mid-shutdown), ErrAmbiguousPayload
// (payload classified under several cases) and ErrClosed. The detailed
// message — case name, origin, bound — always travels with the
// sentinel.
//
// # Observability
//
// One Observer interface carries every signal: session start/end,
// dispatch classification, case deploy/undeploy, and drops with their
// structured reasons. Register any number with WithObserver (they
// compose into a chain), implement only what you need via Hooks, and
// read consistent counter snapshots at any time with
// Deployment.Metrics().
//
// Three deeper surfaces sit underneath the counters. Every session
// carries a flight recorder — a fixed-size, allocation-free ring of
// pipeline stage events (stage, offset from arrival, bytes, outcome)
// recorded at each stage boundary; a failed session's trace is dumped
// into SessionStats.Trace, live traces are visible through
// Deployment.Sessions, and WithFlightRecorder sizes or disables the
// ring. Every stage also feeds lock-free staged latency histograms,
// surfaced as quantile-and-bucket rows in Metrics.Latency (aggregate)
// and Metrics.CaseLatency (per case). And a Collector turns any set of
// deployments into an HTTP surface: Prometheus text exposition on
// /metrics and live debug pages (sessions, per-case breakdowns, trace
// dumps) under /debug/starlink/ — see cmd/starlinkd for the wired-up
// daemon.
//
// # Concurrency model
//
// Every deployment is a dispatcher: a Bridge is a Dispatcher hosting
// one case. The dispatcher owns the bridge host's entry listeners and
// one ingress scheduler shared by every hosted case. Inbound entry
// payloads are classified to their case, then flow through bounded,
// prioritized ingest lanes — control (session entry) over data
// (mid-session payloads) over telemetry (multicast chatter) — before
// one worker pool parses and routes them. Past the lanes' high
// watermark the transport read loops pause (releasing their buffers)
// and telemetry sheds first, control last, across all hosted cases
// (WithLanePolicy, WithWatermarks, WithIngestWorkers: per
// deployment).
//
// Each case runs its own Automata Engine, a concurrent session
// runtime. Each initiator request opens a session keyed by (entry
// color, origin address) in the case's sharded session table. A
// session has no goroutine of its own: it is a state machine taking
// one step per event, run inline by whoever delivers the event — the
// ingest worker, the requester socket's callback, the node timer. An
// event posted while a step of the session runs is queued for that
// step's caller, so one session's steps never overlap; at most 64
// payloads may wait, and fired timers are never bounded. A
// max-sessions semaphore (WithMaxSessions, per case) bounds the
// live-session population on top of the lanes. Both bounds surface as
// drops tagged ErrOverloaded, so overload degrades into dropped
// requests rather than unbounded memory growth. On the virtual-clock
// simulator the engine reports
// in-flight work through a work tracker, which keeps simulated runs
// deterministic; see README.md for the full lifecycle.
//
// See examples/ for complete programs and DESIGN.md for the mapping
// from the paper's formal model to this implementation.
package starlink

import (
	"context"
	"fmt"
	"sort"
	"time"

	"starlink/internal/engine"
	"starlink/internal/netapi"
	"starlink/internal/provision"
	"starlink/internal/registry"
)

// State is a deployment's position in its lifecycle. Deployments move
// strictly forward: Starting → Running → (Draining →) Closed.
type State int

const (
	// StateStarting is the window before the deployment accepts
	// traffic.
	StateStarting State = iota
	// StateRunning accepts entry payloads and admits new sessions.
	StateRunning
	// StateDraining admits no new sessions but keeps delivering
	// payloads to the live ones so they can finish.
	StateDraining
	// StateClosed has released every listener, worker and session.
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
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// stateOf converts an engine lifecycle state to the public one.
func stateOf(s engine.State) State {
	switch s {
	case engine.StateStarting:
		return StateStarting
	case engine.StateRunning:
		return StateRunning
	case engine.StateDraining:
		return StateDraining
	default:
		return StateClosed
	}
}

// SessionInfo describes one currently live session: the case bridging
// it, its session-table key, the initiating client's address, when it
// started, and — when the flight recorder is enabled — the trace
// recorded so far.
type SessionInfo struct {
	Case   string
	Key    string
	Origin string
	Start  time.Time
	Trace  []TraceEvent
}

// Deployment is the management surface shared by every deployed
// connector — single-case bridges and multi-case dispatchers alike:
// lifecycle state, a consistent metrics snapshot, live session
// inspection, graceful drain and immediate teardown.
type Deployment interface {
	// State returns the deployment's lifecycle state.
	State() State
	// Metrics returns a consistent snapshot of the deployment's
	// counters and staged latency distributions.
	Metrics() Metrics
	// Sessions lists the currently live sessions, oldest first within
	// each case. Safe from any goroutine while sessions run; a live
	// trace may show an event mid-overwrite.
	Sessions() []SessionInfo
	// Shutdown drains gracefully: no new sessions, live ones run to
	// completion or until ctx expires, then everything is released.
	Shutdown(ctx context.Context) error
	// Close tears the deployment down immediately.
	Close() error
}

var (
	_ Deployment = (*Bridge)(nil)
	_ Deployment = (*Dispatcher)(nil)
)

// Framework is a Starlink deployment context: a model registry plus a
// network runtime (simulated or real).
type Framework struct {
	rt  *Runtime
	reg *Registry
}

// New creates a framework on the given runtime with the paper's
// case-study models preloaded (four protocol MDLs, eight colored
// automata, six merged automata).
func New(rt *Runtime) (*Framework, error) {
	reg, err := registry.Builtin()
	if err != nil {
		return nil, err
	}
	return &Framework{rt: rt, reg: &Registry{r: reg}}, nil
}

// NewEmpty creates a framework with no models loaded; use
// Framework.Registry to load your own MDL / automaton / merged
// automaton XML at runtime.
func NewEmpty(rt *Runtime) *Framework {
	return &Framework{rt: rt, reg: NewRegistry()}
}

// NewWithRegistry creates a framework sharing an existing model
// registry (and its warm compiled-case cache) — registries are
// runtime-independent, so one model corpus can back many deployments.
func NewWithRegistry(rt *Runtime, reg *Registry) *Framework {
	return &Framework{rt: rt, reg: reg}
}

// Registry exposes the framework's model registry for loading,
// replacing and unloading models at runtime.
func (f *Framework) Registry() *Registry { return f.reg }

// DeployBridge creates a bridge host with the given IP, instantiates
// the named merged automaton on it and starts listening. The bridge is
// transparent: neither legacy side needs to know it exists. A bridge
// is a dispatcher hosting exactly one case, so every option applies.
//
// ctx governs both the deploy and the bridge's lifetime: a cancelled
// ctx aborts the deploy (releasing everything already created), and
// cancelling it later closes the bridge, tearing down in-flight
// sessions. Unknown case names fail with ErrUnknownCase.
func (f *Framework) DeployBridge(ctx context.Context, hostIP, caseName string, opts ...Option) (*Bridge, error) {
	d, err := f.DeployDispatcher(ctx, hostIP, []string{caseName}, opts...)
	if err != nil {
		return nil, err
	}
	return &Bridge{d: d, name: caseName}, nil
}

// DeployDispatcher creates a bridge host with the given IP and hosts
// the named cases on it — every loaded case when cases is empty —
// behind shared entry listeners, with inbound payloads classified to
// the right case (trial-parse or signature-index; see DESIGN.md).
//
// ctx follows the DeployBridge contract. Unknown case names fail with
// ErrUnknownCase. Call Sync after mutating the registry to pick up
// model changes with zero restart.
func (f *Framework) DeployDispatcher(ctx context.Context, hostIP string, cases []string, opts ...Option) (*Dispatcher, error) {
	provOpts := compileOptions(opts).provisionOptions()
	if len(cases) > 0 {
		provOpts = append(provOpts, provision.WithCases(cases...))
	}
	d, err := provision.Deploy(ctx, f.reg.r, f.rt.rt, hostIP, provOpts...)
	if err != nil {
		return nil, err
	}
	return &Dispatcher{d: d}, nil
}

// Bridge is a deployed interoperability connector executing one merged
// automaton: a dispatcher hosting a single case.
type Bridge struct {
	d    *Dispatcher
	name string
}

// Case returns the name of the merged automaton the bridge executes.
func (b *Bridge) Case() string { return b.name }

// State returns the bridge's lifecycle state.
func (b *Bridge) State() State { return b.d.State() }

// Metrics returns a consistent snapshot of the bridge's counters:
// session metrics and staged latency distributions of its case, the
// ingest lanes, and the classification counters of its entry
// listeners.
func (b *Bridge) Metrics() Metrics { return b.d.Metrics() }

// Sessions lists the bridge's currently live sessions, oldest first.
func (b *Bridge) Sessions() []SessionInfo { return b.d.Sessions() }

// Shutdown drains the bridge gracefully: no new sessions are admitted
// (late initiator requests surface as ErrDraining drops), live
// sessions run to completion, and ctx bounds the drain — on expiry the
// remaining sessions are torn down and the returned error wraps
// ctx.Err(). The bridge host is released either way.
func (b *Bridge) Shutdown(ctx context.Context) error { return b.d.Shutdown(ctx) }

// Close undeploys the bridge immediately, tearing down in-flight
// sessions and releasing the bridge host.
func (b *Bridge) Close() error { return b.d.Close() }

// Dispatcher is a multi-case bridge deployment: one daemon hosting
// every selected case at once behind shared entry listeners, with
// inbound payloads classified to the right case.
type Dispatcher struct {
	d *provision.Dispatcher
}

// Cases lists the currently deployed case names, sorted.
func (d *Dispatcher) Cases() []string { return d.d.Cases() }

// Sync reconciles the hosted cases with the registry's current state:
// new cases are deployed, changed ones redeployed, unloaded ones
// undeployed. A Sync with nothing changed is a cheap no-op. Syncing a
// draining or closed dispatcher fails with ErrDraining / ErrClosed.
func (d *Dispatcher) Sync() error { return d.d.Sync() }

// State returns the dispatcher's lifecycle state.
func (d *Dispatcher) State() State { return stateOf(d.d.State()) }

// Metrics returns a consistent snapshot of the dispatcher's counters:
// per-case session metrics and staged latency distributions, their
// aggregates, and the classification counters and latencies of the
// shared entry listeners.
func (d *Dispatcher) Metrics() Metrics {
	m := Metrics{
		State:       d.State(),
		Dispatch:    dispatchMetricsOf(d.d.DispatchStats()),
		Cases:       map[string]SessionMetrics{},
		CaseLatency: map[string][]StageLatency{},
		Transport:   transportMetricsOf(netapi.ReadIOStats()),
	}
	for name, st := range d.d.Stats() {
		s := sessionMetricsOf(st)
		m.Cases[name] = s
		m.Sessions = m.Sessions.add(s)
	}
	var agg engine.LatencyDump
	for name, ld := range d.d.Latency() {
		m.CaseLatency[name] = latencyRowsOf(ld)
		agg.Merge(ld)
	}
	m.Latency = latencyRowsOf(agg)
	m.Lanes = laneRowsOf(d.d.Lanes())
	fast, slow := d.d.ClassifyLatency()
	m.Dispatch.FastPathLatency = stageLatencyOf("classify", fast)
	m.Dispatch.SlowPathLatency = stageLatencyOf("classify", slow)
	return m
}

// Sessions lists the dispatcher's currently live sessions across every
// hosted case, grouped by case name (sorted), oldest first within each.
func (d *Dispatcher) Sessions() []SessionInfo {
	byCase := d.d.LiveSessions()
	names := make([]string, 0, len(byCase))
	for name := range byCase {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []SessionInfo
	for _, name := range names {
		for _, s := range byCase[name] {
			out = append(out, SessionInfo{
				Case:   name,
				Key:    s.Key,
				Origin: s.Origin.String(),
				Start:  s.Start,
				Trace:  traceEventsOf(s.Trace),
			})
		}
	}
	return out
}

// Shutdown drains the dispatcher gracefully: every hosted case stops
// admitting new sessions immediately (late initiator requests surface
// as ErrDraining drops), live sessions keep receiving their
// mid-program entry payloads and run to completion, and once every
// case has drained — or ctx has expired — the dispatcher closes fully,
// releasing its listeners and host. The returned error wraps ctx.Err()
// if any case was torn down with sessions still live.
func (d *Dispatcher) Shutdown(ctx context.Context) error { return d.d.Shutdown(ctx) }

// Close undeploys everything immediately: listeners first (stopping
// inflow), then every case, tearing down their sessions and releasing
// the host.
func (d *Dispatcher) Close() error { return d.d.Close() }
