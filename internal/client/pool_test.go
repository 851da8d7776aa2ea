package client

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vecstudy/internal/wire"
)

// fakeServer is a minimal wire-protocol endpoint: Ping → Done, "boom" →
// statement error (stream stays healthy), "die" → connection dropped
// mid-session (transport error), anything else → empty result. It counts
// accepted connections so tests can observe dials.
type fakeServer struct {
	lis      net.Listener
	accepted atomic.Int64
}

func startFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{lis: lis}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			fs.accepted.Add(1)
			go fs.serve(conn)
		}
	}()
	return fs
}

func (fs *fakeServer) serve(conn net.Conn) {
	defer conn.Close()
	for {
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case wire.TPing:
			wire.WriteFrame(conn, wire.TDone, wire.EncodeDone(0))
		case wire.TQuery:
			switch wire.DecodeQuery(payload) {
			case "boom":
				wire.WriteFrame(conn, wire.TError, wire.EncodeError(wire.CodeError, "boom"))
			case "die":
				return
			default:
				wire.WriteResult(conn, &wire.Result{Msg: "OK"})
			}
		case wire.TTerminate:
			return
		}
	}
}

func (fs *fakeServer) addr() string { return fs.lis.Addr().String() }

// idleCount reports how many connections are parked in the pool.
func idleCount(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

func TestPoolReuse(t *testing.T) {
	fs := startFakeServer(t)
	p := NewPool(fs.addr(), 4, time.Second)
	defer p.Close()

	ctx := context.Background()
	pc, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Ping(); err != nil {
		t.Fatal(err)
	}
	pc.Tag = "primed"
	p.Put(pc, nil)

	pc2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pc2 != pc {
		t.Error("pool dialed a fresh conn instead of reusing the idle one")
	}
	if pc2.Tag != "primed" {
		t.Errorf("Tag = %q, want it preserved across Get/Put", pc2.Tag)
	}
	p.Put(pc2, nil)
	if got := fs.accepted.Load(); got != 1 {
		t.Errorf("server accepted %d conns, want 1", got)
	}
	if idleCount(p) != 1 {
		t.Errorf("idle = %d, want 1", idleCount(p))
	}
}

func TestPoolBounded(t *testing.T) {
	fs := startFakeServer(t)
	p := NewPool(fs.addr(), 2, time.Second)
	defer p.Close()

	ctx := context.Background()
	a, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Third Get must block until a conn is returned.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := p.Get(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exhausted pool Get err = %v, want deadline exceeded", err)
	}

	done := make(chan *PoolConn, 1)
	go func() {
		pc, err := p.Get(ctx)
		if err != nil {
			t.Error(err)
		}
		done <- pc
	}()
	p.Put(a, nil)
	select {
	case pc := <-done:
		p.Put(pc, nil)
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Get never woke after Put")
	}
	p.Put(b, nil)
}

func TestPoolClosesBrokenConns(t *testing.T) {
	fs := startFakeServer(t)
	p := NewPool(fs.addr(), 2, time.Second)
	defer p.Close()
	ctx := context.Background()

	// A statement error keeps the conn poolable.
	pc, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, execErr := pc.Execute("boom")
	var werr *wire.Error
	if !errors.As(execErr, &werr) {
		t.Fatalf("Execute(boom) err = %v, want wire.Error", execErr)
	}
	p.Put(pc, execErr)
	if idleCount(p) != 1 {
		t.Fatalf("idle after statement error = %d, want 1", idleCount(p))
	}

	// A transport error (server dropped the conn) closes it: the next
	// Get dials fresh instead of handing out the broken stream.
	pc2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pc2 != pc {
		t.Fatal("expected the pooled conn back")
	}
	pc2.SetReadTimeout(time.Second)
	_, execErr = pc2.Execute("die")
	if execErr == nil || errors.As(execErr, &werr) {
		t.Fatalf("Execute(die) err = %v, want transport error", execErr)
	}
	p.Put(pc2, execErr)
	if idleCount(p) != 0 {
		t.Fatalf("idle after transport error = %d, want 0 (conn closed)", idleCount(p))
	}
	pc3, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc3.Ping(); err != nil {
		t.Fatalf("fresh conn after broken one: %v", err)
	}
	p.Put(pc3, nil)
	if got := fs.accepted.Load(); got != 2 {
		t.Errorf("server accepted %d conns, want 2 (original + replacement)", got)
	}
}

func TestPoolClose(t *testing.T) {
	fs := startFakeServer(t)
	p := NewPool(fs.addr(), 2, time.Second)
	ctx := context.Background()
	pc, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(idle, nil)

	p.Close()
	if _, err := p.Get(ctx); err == nil {
		t.Error("Get on a closed pool succeeded")
	}
	// A conn checked out across Close is closed at Put, not pooled.
	p.Put(pc, nil)
	if idleCount(p) != 0 {
		t.Errorf("idle after close = %d, want 0", idleCount(p))
	}
}
