package proto

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer answers every request with an empty status reply echoing
// its request ID, and counts the connections it accepted.
func echoServer(t *testing.T) (addr string, accepted *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				pc := NewConn(conn)
				for {
					env, err := pc.Receive()
					if err != nil {
						return
					}
					if pc.SendEnvelope(&Envelope{Version: Version, RequestID: env.RequestID, Type: TypeStatusResponse}) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// TestPoolReusesBoundsAndCloses walks a pool through its life: a
// checkout dials, a Put connection is reused, a Put beyond the idle
// bound is closed, and CloseAll closes the idle list and refuses Get.
func TestPoolReusesBoundsAndCloses(t *testing.T) {
	addr, accepted := echoServer(t)
	ctx := context.Background()
	p := NewPool(addr, time.Second, 1)
	env := &Envelope{Version: Version, RequestID: "p-1", Type: TypeStatusRequest}

	a, reused, err := p.Get(ctx)
	if err != nil || reused {
		t.Fatalf("first Get: reused=%v err=%v, want a fresh dial", reused, err)
	}
	b, reused, err := p.Get(ctx)
	if err != nil || reused {
		t.Fatalf("second Get: reused=%v err=%v, want a fresh dial", reused, err)
	}
	for _, c := range []*PoolConn{a, b} {
		if _, err := c.RoundTrip(env); err != nil {
			t.Fatal(err)
		}
	}
	p.Put(a)
	p.Put(b) // beyond maxIdle 1: closed
	if _, err := b.RoundTrip(env); err == nil {
		t.Error("connection Put beyond the idle bound still works")
	}

	c, reused, err := p.Get(ctx)
	if err != nil || !reused || c != a {
		t.Fatalf("third Get: reused=%v same=%v err=%v, want the idle connection back", reused, c == a, err)
	}
	if _, err := c.RoundTrip(env); err != nil {
		t.Fatal(err)
	}
	p.Put(c)
	p.CloseAll()
	if _, err := a.RoundTrip(env); err == nil {
		t.Error("idle connection still works after CloseAll")
	}
	if _, _, err := p.Get(ctx); err == nil {
		t.Error("Get on a closed pool succeeded")
	}
	if n := accepted.Load(); n != 2 {
		t.Errorf("pool dialed %d connections, want 2", n)
	}
}
