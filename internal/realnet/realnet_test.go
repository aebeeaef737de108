package realnet

import (
	"sync"
	"testing"
	"time"

	"starlink/internal/netapi"
)

func TestUnicastUDPLoopback(t *testing.T) {
	rt := New()
	a, err := rt.NewNode("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rt.NewNode("10.0.0.2")

	var got string
	bs, err := b.OpenUDP(0, func(p netapi.Packet) { got = string(p.Data) })
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	as, err := a.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	if err := as.Send(bs.LocalAddr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return got == "hello" }, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMulticastRegistryFanout(t *testing.T) {
	rt := New()
	group := netapi.Addr{IP: "239.255.255.253", Port: 427}
	recvA, recvB := false, false

	a, _ := rt.NewNode("svc-a")
	b, _ := rt.NewNode("svc-b")
	c, _ := rt.NewNode("client")

	sa, err := a.JoinGroup(group, func(netapi.Packet) { recvA = true })
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := b.JoinGroup(group, func(netapi.Packet) { recvB = true })
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	cs, _ := c.OpenUDP(0, func(netapi.Packet) {})
	defer cs.Close()
	if err := cs.Send(group, []byte("query")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return recvA && recvB }, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestGroupReplyToSource(t *testing.T) {
	rt := New()
	group := netapi.Addr{IP: "224.0.0.251", Port: 5353}
	svc, _ := rt.NewNode("svc")
	cli, _ := rt.NewNode("cli")

	var svcSock netapi.UDPSocket
	svcSock, err := svc.JoinGroup(group, func(p netapi.Packet) {
		if err := svcSock.Send(p.From, []byte("pong")); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svcSock.Close()

	var got string
	cs, _ := cli.OpenUDP(0, func(p netapi.Packet) { got = string(p.Data) })
	defer cs.Close()
	if err := cs.Send(group, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return got == "pong" }, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRoundtrip(t *testing.T) {
	rt := New()
	srv, _ := rt.NewNode("srv")
	cli, _ := rt.NewNode("cli")

	l, err := srv.ListenStream(0, nil, func(c netapi.Conn, data []byte) {
		if data != nil {
			if err := c.Send(append([]byte("echo:"), data...)); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Find the listener's port by dialing its Close-protected API is
	// not exposed; use a fixed port instead.
	l2, err := srv.ListenStream(39571, nil, func(c netapi.Conn, data []byte) {
		if data != nil {
			if err := c.Send(append([]byte("echo:"), data...)); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()

	var got string
	conn, err := cli.DialStream(netapi.Addr{IP: "127.0.0.1", Port: 39571}, func(c netapi.Conn, data []byte) {
		if data != nil {
			got += string(data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return got == "echo:ping" }, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTimerFireAndCancel(t *testing.T) {
	rt := New()
	n, _ := rt.NewNode("x")
	fired := false
	n.After(20*time.Millisecond, func() { fired = true })
	if err := rt.RunUntil(func() bool { return fired }, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	cancelled := false
	id := n.After(50*time.Millisecond, func() { cancelled = true })
	n.Cancel(id)
	rt.Run(80 * time.Millisecond)
	if cancelled {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunUntilTimeout(t *testing.T) {
	rt := New()
	if err := rt.RunUntil(func() bool { return false }, 30*time.Millisecond); err == nil {
		t.Fatal("want timeout")
	}
}

func TestGatedUDPReadLoopPausesAndResumes(t *testing.T) {
	rt := New()
	a, err := rt.NewNode("sender")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rt.NewNode("receiver")

	gate := netapi.NewFlowGate()
	gated := netapi.Gated(netapi.Node(b), gate)

	var mu sync.Mutex
	var got []string
	bs, err := gated.OpenUDP(0, func(p netapi.Packet) {
		mu.Lock()
		got = append(got, string(p.Data))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	as, err := a.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()

	// Prove the gated path delivers at all before pausing.
	if err := as.Send(bs.LocalAddr(), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}, 3*time.Second); err != nil {
		t.Fatal(err)
	}

	gate.Pause()
	for i := 0; i < 5; i++ {
		if err := as.Send(bs.LocalAddr(), []byte{'p', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	paused := len(got)
	mu.Unlock()
	if paused != 1 {
		t.Fatalf("handler ran %d times while gate blocked, want 1 (the warmup)", paused)
	}

	gate.Resume()
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 6
	}, 3*time.Second); err != nil {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("after resume got %d deliveries, want 6: %v (%v)", len(got), got, err)
	}
}

func TestGatedStreamReadLoopPausesAndResumes(t *testing.T) {
	rt := New()
	srv, err := rt.NewNode("server")
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := rt.NewNode("client")

	gate := netapi.NewFlowGate()
	gated := netapi.Gated(netapi.Node(srv), gate)

	var mu sync.Mutex
	var total int
	l, err := gated.ListenStream(0, nil, func(c netapi.Conn, chunk []byte) {
		mu.Lock()
		total += len(chunk)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.(interface{ Addr() netapi.Addr }).Addr()

	conn, err := cli.DialStream(addr, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.Send([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == 4
	}, 3*time.Second); err != nil {
		t.Fatal(err)
	}

	gate.Pause()
	// Give the read loop a beat to park on the gate, then send while
	// blocked: bytes must sit in the kernel buffer, not reach recv.
	time.Sleep(20 * time.Millisecond)
	if err := conn.Send([]byte("blocked-bytes")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	pausedTotal := total
	mu.Unlock()
	if pausedTotal != 4 {
		t.Fatalf("recv saw %d bytes while gate blocked, want 4 (the warmup)", pausedTotal)
	}

	gate.Resume()
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == 4+len("blocked-bytes")
	}, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

// A connection parked from inside its own receive handler — a session
// finishing on the reply it was waiting for — must not deadlock on the
// handler's dispatch domain: the park completes when the handler
// returns, and the next detached dial reuses the connection.
func TestParkConnFromOwnHandler(t *testing.T) {
	rt := New()
	srv, _ := rt.NewNode("srv")
	l, err := srv.ListenStream(0, nil, func(c netapi.Conn, data []byte) {
		if data != nil {
			_ = c.Send(append([]byte("re:"), data...))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dest := netapi.Addr{IP: "127.0.0.1", Port: l.(interface{ Addr() netapi.Addr }).Addr().Port}

	cliNode, _ := rt.NewNode("cli")
	cli := netapi.Detach(cliNode)
	parked := make(chan bool, 1)
	conn1, err := cli.DialStream(dest, func(c netapi.Conn, data []byte) {
		if data != nil {
			parked <- cliNode.(netapi.ConnParker).ParkConn(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn1.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-parked:
		if !ok {
			t.Fatal("a clean dialed connection must be parkable from its handler")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ParkConn from the connection's own handler did not return")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rt.stateMu.Lock()
		n := len(rt.parked[dest.Port])
		rt.stateMu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the park did not complete after the handler returned")
		}
		time.Sleep(time.Millisecond)
	}
	got := make(chan string, 1)
	conn2, err := cli.DialStream(dest, func(c netapi.Conn, data []byte) {
		if data != nil {
			got <- string(data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if conn2.LocalAddr() != conn1.LocalAddr() {
		t.Fatalf("expected connection reuse: %v vs %v", conn2.LocalAddr(), conn1.LocalAddr())
	}
	if err := conn2.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r != "re:two" {
			t.Fatalf("reply = %q", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply on the reused connection")
	}
}
