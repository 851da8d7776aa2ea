package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vecstudy/internal/wire"
)

// PoolConn is a pooled connection. Tag is opaque caller state that
// survives Get/Put cycles — the cluster router uses it to remember which
// session settings (SET statements) have been replayed onto this
// connection, so a pooled conn changing hands between sessions with
// different knobs is re-primed instead of leaking the previous session's
// state.
type PoolConn struct {
	*Conn
	Tag string
}

// Pool is a bounded connection pool for one backend address. It bounds
// the *total* number of connections outstanding (checked out + idle) at
// Size: Get blocks (under its context) when the pool is exhausted, which
// gives the router natural per-backend backpressure instead of letting
// every concurrent caller Dial its own connection.
//
// Put decides reuse by the error that ended the checkout: a *wire.Error
// is a statement-level failure on a healthy protocol stream, so the conn
// is returned to the pool; any other error (dial, deadline, broken pipe,
// torn frame) means the stream state is unknown and the conn is closed.
type Pool struct {
	addr        string
	dialTimeout time.Duration
	tokens      chan struct{} // capacity Size; holding a token = owning a conn slot

	mu     sync.Mutex
	idle   []*PoolConn
	closed bool
}

// NewPool creates a pool of at most size connections to addr. size <= 0
// means 8; dialTimeout <= 0 means 5s.
func NewPool(addr string, size int, dialTimeout time.Duration) *Pool {
	if size <= 0 {
		size = 8
	}
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	return &Pool{
		addr:        addr,
		dialTimeout: dialTimeout,
		tokens:      make(chan struct{}, size),
	}
}

// Addr reports the backend address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// Size reports the pool's connection bound.
func (p *Pool) Size() int { return cap(p.tokens) }

// Get checks a connection out, reusing an idle one or dialing a fresh
// one. It blocks while the pool is exhausted until a conn is returned or
// ctx ends. Every successful Get must be paired with exactly one Put.
func (p *Pool) Get(ctx context.Context) (*PoolConn, error) {
	select {
	case p.tokens <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("client: pool %s: %w", p.addr, ctx.Err())
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.tokens
		return nil, fmt.Errorf("client: pool %s is closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()
	c, err := DialTimeout(p.addr, p.dialTimeout)
	if err != nil {
		<-p.tokens
		return nil, err
	}
	return &PoolConn{Conn: c}, nil
}

// Put returns a checked-out connection. resultErr is the error (if any)
// from the conn's last use: statement-level errors (*wire.Error) keep
// the conn poolable; transport-level errors close it so a broken stream
// is never handed to the next caller.
func (p *Pool) Put(pc *PoolConn, resultErr error) {
	if pc == nil {
		return
	}
	defer func() { <-p.tokens }()
	if resultErr != nil && !isStatementError(resultErr) {
		pc.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.Close()
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}

// Close closes every idle connection and marks the pool closed: future
// Gets fail, and checked-out conns are closed at Put.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, pc := range idle {
		pc.Close()
	}
}

// isStatementError reports whether err is a statement-level failure
// that leaves the connection's stream healthy. A shutdown error is
// excluded — the server is about to close the conn, so pooling it would
// hand the next caller a dying stream.
func isStatementError(err error) bool {
	var werr *wire.Error
	if !errors.As(err, &werr) {
		return false
	}
	return werr.Code != wire.CodeShutdown
}
