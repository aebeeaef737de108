package engine_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/netapi"
	"starlink/internal/protocols/slp"
	"starlink/internal/provision"
	"starlink/internal/realnet"
	"starlink/internal/registry"
	"starlink/internal/serrors"
)

// While a step of a session runs, payloads posted to it queue up to
// the bound and the excess is dropped — counted Dropped and reported as
// ErrOverloaded — but a fired receive timer still queues past the
// bound, so the session times out instead of stalling forever. Over
// real loopback sockets, where no virtual clock waits for the queued
// events, so the timer fires while the session is held.
func TestSessionQueueBoundKeepsTimer(t *testing.T) {
	reg, err := registry.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var overloaded atomic.Int32
	var mu sync.Mutex
	var ends []engine.SessionStats
	hooks := engine.Hooks{
		Drop: func(_ netapi.Addr, reason error) {
			if errors.Is(reason, serrors.ErrOverloaded) {
				overloaded.Add(1)
			}
		},
		SessionEnd: func(s engine.SessionStats) {
			mu.Lock()
			ends = append(ends, s)
			mu.Unlock()
		},
	}
	rt := realnet.New()
	d, err := provision.Deploy(context.Background(), reg, rt, "127.0.0.1", provision.WithCases("slp-to-bonjour"),
		provision.WithEngineOptions(engine.WithReceiveTimeout(time.Second), engine.WithHooks(hooks)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e, _ := d.Engine("slp-to-bonjour")

	// No Bonjour responder: the session waits at its mDNS receive until
	// the receive timer fires.
	cli, _ := rt.NewNode("cli")
	slp.NewUserAgent(cli, slp.WithConvergenceWait(2*time.Second)).Lookup("service:printer", func(slp.LookupResult) {})
	var st engine.Stalled
	poll(t, "an idle live session", func() bool {
		var ok bool
		st, ok = e.Stall()
		return ok
	})

	for i := 0; i <= engine.QueueCap; i++ {
		st.Post("mDNS", []byte("not a DNS message"))
	}
	if payloads, _ := st.Queued(); payloads != engine.QueueCap {
		t.Fatalf("queued payloads = %d, want %d", payloads, engine.QueueCap)
	}
	if c := e.Stats(); c.Dropped != 1 || overloaded.Load() != 1 {
		t.Fatalf("dropped=%d overloaded hooks=%d, want 1 and 1", c.Dropped, overloaded.Load())
	}
	poll(t, "the receive timer queued past the bound", func() bool {
		_, timers := st.Queued()
		return timers == 1
	})

	st.Resume()
	c := e.Stats()
	if c.Live != 0 || c.Failed != 1 || c.ParseErrors != engine.QueueCap {
		t.Fatalf("after resume: %+v; want the session failed and %d parse errors", c, engine.QueueCap)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ends) != 1 || ends[0].Err == nil || !strings.Contains(ends[0].Err.Error(), "timeout waiting for mDNS/DNSResponse") {
		t.Fatalf("session ends = %+v, want one receive timeout", ends)
	}
}

// poll waits up to 5 s of wall time for cond.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
