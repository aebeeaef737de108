package provision

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/models"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/httpx"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/realnet"
	"starlink/internal/serrors"
	"starlink/internal/simnet"
	"starlink/internal/translation"
)

// assertIPFree fails unless the simulator can create a node at ip,
// i.e. no deployment still holds it.
func assertIPFree(t *testing.T, sim *simnet.Net, ip, when string) {
	t.Helper()
	node, err := sim.NewNode(ip)
	if err != nil {
		t.Fatalf("node leaked %s: %v", when, err)
	}
	_ = node.Close()
}

// Every builtin case deploys as a one-case dispatcher — the form a
// single-case bridge takes — and closes cleanly.
func TestFrameworkDeployAllCases(t *testing.T) {
	sim := simnet.New()
	reg := builtin(t)
	for i, name := range reg.MergedNames() {
		// Distinct host per bridge to avoid group-port collisions.
		d, err := Deploy(context.Background(), reg, sim, fmt.Sprintf("10.0.9.%d", i+1), WithCases(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cases := d.Cases(); len(cases) != 1 || cases[0] != name {
			t.Fatalf("%s: cases = %v", name, cases)
		}
		if e, ok := d.Engine(name); !ok || e.State() != engine.StateRunning || d.Node() == nil {
			t.Fatalf("%s: engine=%v node=%v", name, e, d.Node())
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}
}

func TestFrameworkUnknownCase(t *testing.T) {
	sim := simnet.New()
	_, err := Deploy(context.Background(), builtin(t), sim, "10.0.0.5", WithCases("corba-to-soap"))
	if !errors.Is(err, serrors.ErrUnknownCase) {
		t.Fatalf("err = %v, want ErrUnknownCase", err)
	}
	assertIPFree(t, sim, "10.0.0.5", "by a failed deploy")
}

// TestDeployBridgeFailureReleasesNode is the regression test for the
// node leak on failed deploys: when engine construction fails after
// the bridge host was created, the host must be closed — under simnet,
// that frees its IP for reuse. The failure is forced with an empty
// translation-function registry: the builtin cases' logic references
// T-functions, so Logic.Validate rejects it after the node exists.
func TestDeployBridgeFailureReleasesNode(t *testing.T) {
	sim := simnet.New()
	_, err := Deploy(context.Background(), builtin(t), sim, "10.0.0.5", WithCases("slp-to-bonjour"),
		WithEngineOptions(engine.WithTranslationFuncs(&translation.FuncRegistry{})))
	if err == nil {
		t.Fatal("deploy with an empty T-function registry should fail")
	}
	assertIPFree(t, sim, "10.0.0.5", "by a failed deploy")
}

// TestDeployBridgeCancelledContext verifies a cancelled context aborts
// the deploy before any resource is created.
func TestDeployBridgeCancelledContext(t *testing.T) {
	sim := simnet.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Deploy(ctx, builtin(t), sim, "10.0.0.5", WithCases("slp-to-bonjour")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertIPFree(t, sim, "10.0.0.5", "by a cancelled deploy")
}

// TestBridgeCloseReleasesNode verifies the owning side of the same
// contract: closing a healthy deployment releases its host.
func TestBridgeCloseReleasesNode(t *testing.T) {
	sim := simnet.New()
	d, err := Deploy(context.Background(), builtin(t), sim, "10.0.0.5", WithCases("slp-to-bonjour"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	assertIPFree(t, sim, "10.0.0.5", "after Close")
}

// TestContextCancelClosesBridge verifies the lifetime half of the
// Deploy context contract: cancelling the deploy context closes the
// engines and releases the node.
func TestContextCancelClosesBridge(t *testing.T) {
	sim := simnet.New()
	ctx, cancel := context.WithCancel(context.Background())
	d, err := Deploy(ctx, builtin(t), sim, "10.0.0.5", WithCases("slp-to-bonjour"))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := d.Engine("slp-to-bonjour")
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for d.State() != engine.StateClosed || e.State() != engine.StateClosed {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher %v, engine %v after context cancel", d.State(), e.State())
		}
		time.Sleep(time.Millisecond)
	}
	// Close releases the node after the engines; poll for the IP.
	for {
		node, err := sim.NewNode("10.0.0.5")
		if err == nil {
			_ = node.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node leaked after context cancel: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBridgeOverRealSockets runs the paper's SLP→Bonjour case over
// real loopback UDP — the deployment mode of the starlinkd daemon.
func TestBridgeOverRealSockets(t *testing.T) {
	rt := realnet.New()
	var stats atomic.Int32
	var failed atomic.Int32
	d, err := Deploy(context.Background(), builtin(t), rt, "127.0.0.1", WithCases("slp-to-bonjour"),
		WithSessionObserver(func(_ string, s engine.SessionStats) {
			stats.Add(1)
			if s.Err != nil {
				failed.Add(1)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	svcNode, _ := rt.NewNode("svc")
	responder, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://127.0.0.1:515")
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()

	cliNode, _ := rt.NewNode("cli")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond))
	var res slp.LookupResult
	var done atomic.Bool
	ua.Lookup("service:printer", func(r slp.LookupResult) { res = r; done.Store(true) })
	if err := rt.RunUntil(done.Load, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.URLs) != 1 || res.URLs[0] != "service:printer://127.0.0.1:515" {
		t.Fatalf("urls = %v", res.URLs)
	}
	if err := rt.RunUntil(func() bool { return stats.Load() == 1 }, 10*time.Second); err != nil || failed.Load() != 0 {
		t.Fatalf("sessions ended = %d failed = %d (%v)", stats.Load(), failed.Load(), err)
	}
}

// A dispatcher runs one ingest worker pool however many cases it
// hosts: its idle goroutine count is the same for one case, three
// cases and every builtin case.
func TestIdleGoroutinesIndependentOfCases(t *testing.T) {
	const workers = 2
	reg := builtin(t)
	settled := func() int {
		// Let goroutines of earlier tests and deployments finish
		// exiting: wait for the count to hold still for 10 ms.
		n, still := runtime.NumGoroutine(), 0
		for i := 0; i < 500 && still < 5; i++ {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				still++
			} else {
				n, still = m, 0
			}
		}
		return n
	}
	idle := func(cases ...string) int {
		t.Helper()
		sim := simnet.New()
		before := settled()
		opts := []Option{WithEngineOptions(engine.WithIngestWorkers(workers))}
		if len(cases) > 0 {
			opts = append(opts, WithCases(cases...))
		}
		d, err := Deploy(context.Background(), reg, sim, "10.0.0.5", opts...)
		if err != nil {
			t.Fatal(err)
		}
		n := settled() - before
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	one := idle("slp-to-bonjour")
	three := idle("slp-to-bonjour", "upnp-to-bonjour", "bonjour-to-slp")
	all := idle()
	if one != workers || three != one || all != one {
		t.Fatalf("idle goroutines: 1 case %d, 3 cases %d, all cases %d; want %d each", one, three, all, workers)
	}
}

// A control point that fetches the description the moment the bridged
// SSDP response arrives — instead of after its MX window — must find
// the upnp-to-bonjour session already awaiting the GET: the session
// publishes the await key before it sends the response. Over real
// loopback sockets, so the GET races the session's send for real.
func TestDescriptionGetOnFirstResponse(t *testing.T) {
	const rounds = 100
	// The description server binds a real TCP port: move it off the
	// models' fixed 8080 to a free one, so the test cannot collide with
	// another process (or test binary) serving on 8080.
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := strconv.Itoa(ln.Addr().(*net.TCPAddr).Port)
	_ = ln.Close()
	reg := builtin(t)
	if _, err := reg.ReplaceAutomaton("http-server",
		strings.Replace(models.HTTPServerAutomaton, `value="8080"`, `value="`+port+`"`, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ReplaceMerged(strings.ReplaceAll(models.UPnPToBonjour, ":8080/", ":"+port+"/")); err != nil {
		t.Fatal(err)
	}
	rt := realnet.New()
	d, err := Deploy(context.Background(), reg, rt, "127.0.0.1", WithCases("upnp-to-bonjour"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	svcNode, _ := rt.NewNode("svc")
	responder, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://127.0.0.1:515")
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()
	cli, _ := rt.NewNode("cli")
	search := ssdp.NewMSearch("urn:printer", 1).Marshal()

	for i := 0; i < rounds; i++ {
		got := make(chan string, 1)
		var fetching atomic.Bool
		sock, err := cli.OpenUDP(0, func(pkt netapi.Packet) {
			msg, err := ssdp.Parse(pkt.Data)
			if err != nil || !msg.IsResponse() || !fetching.CompareAndSwap(false, true) {
				return
			}
			addr, path, err := upnp.SplitLocation(msg.Headers["LOCATION"])
			if err != nil {
				got <- "bad location: " + err.Error()
				return
			}
			httpx.Get(cli, addr, path, func(resp *httpx.Response, err error) {
				switch {
				case err != nil:
					got <- err.Error()
				case resp.Status != 200:
					got <- fmt.Sprintf("status %d", resp.Status)
				default:
					base, _ := upnp.ExtractURLBase(resp.Body)
					got <- base
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sock.Send(netapi.Addr{IP: ssdp.Group, Port: ssdp.Port}, search); err != nil {
			t.Fatal(err)
		}
		select {
		case base := <-got:
			if base != "service:printer://127.0.0.1:515" {
				t.Fatalf("round %d: description fetch returned %q", i, base)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: no description (dispatch %+v)", i, d.DispatchStats())
		}
		_ = sock.Close()
	}
	if st := d.DispatchStats(); st.Unroutable != 0 {
		t.Fatalf("%d description GETs unroutable over %d rounds", st.Unroutable, rounds)
	}
}
