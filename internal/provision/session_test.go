package provision

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/models"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/httpx"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/realnet"
	"starlink/internal/registry"
	"starlink/internal/simnet"
)

// settledGoroutines waits for the goroutine count to hold still for
// 10 ms — goroutines of earlier tests and deployments finish exiting —
// and returns it.
func settledGoroutines() int {
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

// A live session has no goroutine of its own: a thousand
// bonjour-to-slp sessions held inside their 6.25 s SLP window run on
// the goroutines the idle deployment already has.
func TestLiveSessionsAddNoGoroutines(t *testing.T) {
	const sessions = 1000
	sim := simnet.New()
	before := settledGoroutines()
	d, err := Deploy(context.Background(), builtin(t), sim, "10.0.0.5", WithCases("bonjour-to-slp"),
		WithEngineOptions(engine.WithIngestWorkers(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e, _ := d.Engine("bonjour-to-slp")
	idle := settledGoroutines() - before

	query, err := (&dnssd.Message{ID: 1, Questions: []dnssd.Question{{Name: "printer.local", QType: dnssd.TypePTR}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := sim.NewNode("10.0.0.1")
	for i := 0; i < sessions; i++ {
		sock, err := cli.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := sock.Send(netapi.Addr{IP: dnssd.Group, Port: dnssd.Port}, query); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(time.Second)
	if live := e.Stats().Live; live != sessions {
		t.Fatalf("live sessions = %d, want %d", live, sessions)
	}
	held := settledGoroutines() - before
	if held > idle+5 {
		t.Fatalf("goroutines: %d idle, %d holding %d live sessions", idle, held, sessions)
	}
	// No SLP service answers: every window expires empty.
	sim.Run(10 * time.Second)
	if c := e.Stats(); c.Live != 0 || c.Failed != sessions {
		t.Fatalf("after the windows: %+v, want %d failed", c, sessions)
	}
}

// Control points sharing one IP fetch their descriptions at the same
// instant: every GET is handed to exactly one awaiting upnp-to-bonjour
// session, so each is answered and none is unroutable. Routing used to
// hand concurrent GETs to the oldest awaiting session, which answered
// one and, finishing, dropped the rest unanswered. Over real loopback
// sockets, where every node shares 127.0.0.1.
func TestConcurrentDescriptionGetsOneIP(t *testing.T) {
	const rounds, points = 20, 4
	reg := descriptionOnFreePort(t)
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
		// Each control point waits for its own SSDP response; once all
		// have one, they GET together.
		var mu sync.Mutex
		var locations []string
		all := make(chan struct{})
		var socks []netapi.UDPSocket
		for p := 0; p < points; p++ {
			var answered bool
			sock, err := cli.OpenUDP(0, func(pkt netapi.Packet) {
				msg, err := ssdp.Parse(pkt.Data)
				if err != nil || !msg.IsResponse() {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if answered {
					return
				}
				answered = true
				locations = append(locations, msg.Headers["LOCATION"])
				if len(locations) == points {
					close(all)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			socks = append(socks, sock)
		}
		for _, sock := range socks {
			if err := sock.Send(netapi.Addr{IP: ssdp.Group, Port: ssdp.Port}, search); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: %d of %d SSDP responses", i, len(locations), points)
		}
		got := make(chan string, points)
		for _, loc := range locations {
			addr, path, err := upnp.SplitLocation(loc)
			if err != nil {
				t.Fatal(err)
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
		}
		for p := 0; p < points; p++ {
			select {
			case base := <-got:
				if base != "service:printer://127.0.0.1:515" {
					t.Fatalf("round %d: description fetch returned %q", i, base)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: %d of %d GETs unanswered (dispatch %+v)", i, points-p, points, d.DispatchStats())
			}
		}
		for _, sock := range socks {
			_ = sock.Close()
		}
	}
	if st := d.DispatchStats(); st.Unroutable != 0 {
		t.Fatalf("%d description GETs unroutable over %d rounds", st.Unroutable, rounds)
	}
}

// descriptionOnFreePort is the builtin registry with the description
// server moved off the models' fixed 8080 to a free port, so a test
// binding it cannot collide with another process serving on 8080.
func descriptionOnFreePort(t *testing.T) *registry.Registry {
	t.Helper()
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
	return reg
}
