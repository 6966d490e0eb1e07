package proto

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// PoolConn is one pooled connection: the net.Conn (deadlines, Close)
// with the framed codec over it.
type PoolConn struct {
	net.Conn
	codec *Conn
}

// RoundTrip is Conn.RoundTrip on this connection.
func (c *PoolConn) RoundTrip(env *Envelope) (*Envelope, error) {
	return c.codec.RoundTrip(env)
}

// Pool is a free list of connections to one address. The protocol is
// strictly request/response per connection, so a connection is checked
// out for exactly one round trip: a caller closes it on a transport
// error (the next checkout dials fresh) and Puts back only a cleanly
// finished one. maxIdle bounds the list; beyond it, finished connections
// close rather than accumulate.
type Pool struct {
	addr    string
	dialTO  time.Duration
	maxIdle int

	mu     sync.Mutex
	free   []*PoolConn // guarded by mu
	closed bool        // guarded by mu
}

// DefaultMaxIdle is the idle bound of echoimage-router's per-shard pools.
const DefaultMaxIdle = 16

// NewPool builds an empty pool dialing addr over TCP, each dial bounded
// by dialTimeout (0 means no bound beyond the caller's context).
func NewPool(addr string, dialTimeout time.Duration, maxIdle int) *Pool {
	return &Pool{addr: addr, dialTO: dialTimeout, maxIdle: maxIdle}
}

// Get pops an idle connection or dials a new one under ctx. reused
// distinguishes the two: an idle connection may have been closed by the
// peer while it sat in the list, so its first failure indicts the
// connection, not the peer, and is worth one fresh Dial.
func (p *Pool) Get(ctx context.Context) (c *PoolConn, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, false, fmt.Errorf("proto: pool for %s is closed", p.addr)
	}
	c, err = p.Dial(ctx)
	return c, false, err
}

// Dial opens a fresh connection, bypassing the free list (which may hold
// more connections gone stale the same way).
func (p *Pool) Dial(ctx context.Context) (*PoolConn, error) {
	d := net.Dialer{Timeout: p.dialTO}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", p.addr, err)
	}
	return &PoolConn{Conn: conn, codec: NewConn(conn)}, nil
}

// Put returns a healthy connection to the free list, or closes it when
// the list is full or the pool was closed.
func (p *Pool) Put(c *PoolConn) {
	p.mu.Lock()
	if p.closed || len(p.free) >= p.maxIdle {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// CloseAll closes every idle connection and marks the pool closed.
// Checked-out connections finish their round trip and are closed on Put.
func (p *Pool) CloseAll() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
}
