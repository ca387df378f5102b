package server

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/wire"
)

// TestMaxConnsRejectsExcess verifies the connection cap: the excess
// connection is answered with one ErrServerBusy frame, and the slot
// frees up when an admitted connection leaves.
func TestMaxConnsRejectsExcess(t *testing.T) {
	// The served client holds the one slot.
	srv, c1, addr := serve(t, core.Options{}, func(s *Server) { s.MaxConns = 1 })
	if _, err := c1.ListRopes(); err != nil {
		t.Fatalf("first connection: %v", err)
	}

	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err) // TCP accept succeeds; the refusal is a response frame
	}
	_, err = c2.ListRopes()
	if err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("over-limit connection got %v, want server busy", err)
	}
	c2.Close()

	if got := srv.reg.Counter("mmfs_server_rejected_conns_total").Value(); got == 0 {
		t.Fatal("rejection not counted")
	}

	// Freeing the admitted connection reopens the slot.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c3.ListRopes()
		c3.Close()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadTimeoutDropsIdleConn verifies an idle connection is dropped
// once its per-frame read deadline expires.
func TestReadTimeoutDropsIdleConn(t *testing.T) {
	_, _, addr := serve(t, core.Options{}, func(s *Server) { s.ReadTimeout = 50 * time.Millisecond })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing: the server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection was not dropped")
	}
}

// TestGracefulDrain verifies Close lets an in-flight request finish and
// deliver its response, while idle connections are released promptly.
func TestGracefulDrain(t *testing.T) {
	srv, _, addr := serve(t, core.Options{}, nil)

	// One idle connection that would block Close forever without the
	// deadline nudge.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	// One connection with a request racing the drain.
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	// Let both handlers register before draining.
	time.Sleep(20 * time.Millisecond)

	var wg sync.WaitGroup
	wg.Add(1)
	respErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		if err := wire.WriteFrame(busy, wire.Request(wire.OpListRopes, nil)); err != nil {
			respErr <- err
			return
		}
		frame, err := wire.ReadFrame(busy)
		if err != nil {
			respErr <- err
			return
		}
		_, err = wire.ParseResponse(frame)
		respErr <- err
	}()

	done := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain within 5s")
	}
	wg.Wait()
	// The in-flight request either completed with its response (the
	// graceful path) or was sent after the drain cut the connection —
	// but it must never hang.
	select {
	case <-respErr:
	default:
		t.Fatal("in-flight request left unresolved")
	}

	// Post-drain connections are refused outright.
	late, err := net.Dial("tcp", addr)
	if err == nil {
		late.Close()
	}
}

// TestDrainRefusesNewConns verifies a connection arriving during the
// drain window is refused with ErrServerBusy rather than wedged.
func TestDrainRefusesNewConns(t *testing.T) {
	srv, _, _ := serve(t, core.Options{}, nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ok := srv.registerConn(nil); ok {
		t.Fatal("draining server admitted a connection")
	}
}
