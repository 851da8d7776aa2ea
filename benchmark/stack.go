package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"vecstudy/internal/client"
	_ "vecstudy/internal/pase/all"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/server"
)

const (
	tableName = "t"
	indexName = "ix"
)

// stack is one workload's served database: the engine, the TCP server in
// front of it and the reader connections, all in this process.
type stack struct {
	w     workload
	dir   string // database directory of a file-backed workload
	db    *db.DB
	srv   *server.Server
	conns []*client.Conn // reader connections with the workload's SETs applied

	setupDur time.Duration // table load + CREATE INDEX (+ checkpoint when file-backed)
	indexDur time.Duration // CREATE INDEX alone
}

func (w workload) dbConfig(dir string) db.Config {
	cfg := db.Config{BufferFrames: w.frames, EnableWAL: w.wal}
	if w.onDisk {
		cfg.Dir = dir
	}
	return cfg
}

// setUp opens the database, starts the server and builds the table and
// its index with SQL sent over the wire.
func setUp(w workload, c *corpus, dir string) (*stack, error) {
	s := &stack{w: w, dir: dir}
	start := time.Now()
	d, err := db.Open(w.dbConfig(dir))
	if err != nil {
		return nil, err
	}
	s.db = d
	// The timeout only has to be there: on a throttled host a 3 s index
	// build has taken over 30 s, and slowness must read as slowness, not as
	// a failed statement. The driver ends a run that takes 3 minutes anyway.
	s.srv = server.New(d, server.Config{MaxActive: 8, QueueDepth: 8, QueryTimeout: 3 * time.Minute})
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	if err := s.load(c, start); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) load(c *corpus, start time.Time) error {
	conn, err := s.dial(nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Execute("CREATE TABLE " + tableName + " (id int, attr int, vec float[])"); err != nil {
		return err
	}
	for _, ins := range c.inserts {
		if _, err := conn.Execute(ins); err != nil {
			return err
		}
	}
	indexStart := time.Now()
	ddl := fmt.Sprintf("CREATE INDEX %s ON %s USING %s (vec) WITH (%s)", indexName, tableName, s.w.am, s.w.indexOpt)
	if _, err := conn.Execute(ddl); err != nil {
		return err
	}
	s.indexDur = time.Since(indexStart)
	if s.w.onDisk {
		// Set-up ends on disk, so that the window's own writes can be told
		// apart from set-up's; there is no checkpoint after this one.
		if err := s.db.Checkpoint(); err != nil {
			return err
		}
	}
	s.setupDur = time.Since(start)

	for i := 0; i < s.w.conns; i++ {
		conn, err := s.dial(s.w.sets)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, conn)
	}
	return nil
}

// dial opens one connection and applies the session settings.
func (s *stack) dial(sets []string) (*client.Conn, error) {
	conn, err := client.Dial(s.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	for _, set := range sets {
		if _, err := conn.Execute(set); err != nil {
			conn.Close()
			return nil, fmt.Errorf("%s: %w", set, err)
		}
	}
	return conn, nil
}

func (s *stack) table() (*heap.Table, error) { return s.db.Table(tableName) }

func (s *stack) index() (am.Index, error) { return s.db.Index(indexName) }

// storedBytes is the heap plus the index, in whole pages.
func (s *stack) storedBytes() (heapBytes, indexBytes int64, err error) {
	tbl, err := s.table()
	if err != nil {
		return 0, 0, err
	}
	blocks, err := s.db.Pool().NumBlocks(tbl.Rel())
	if err != nil {
		return 0, 0, err
	}
	idx, err := s.index()
	if err != nil {
		return 0, 0, err
	}
	indexBytes, err = idx.SizeBytes()
	return int64(blocks) * int64(s.db.Pool().PageSize()), indexBytes, err
}

// serverStats reads SHOW server_stats over the wire into name → value.
func (s *stack) serverStats() (map[string]float64, error) {
	res, err := s.conns[0].Execute("SHOW server_stats")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(res.Rows))
	for _, row := range res.Rows {
		name, _ := row[0].(string)
		switch v := row[1].(type) {
		case int64:
			out[name] = float64(v)
		case string:
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out, nil
}

// stopServing closes the connections and drains the server; the database
// stays open.
func (s *stack) stopServing() error {
	for _, conn := range s.conns {
		conn.Close()
	}
	s.conns = nil
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.srv = nil
	return err
}

// close tears the whole stack down and removes its directory.
func (s *stack) close() error {
	err := s.stopServing()
	if s.db != nil {
		if cerr := s.db.Close(); err == nil {
			err = cerr
		}
		s.db = nil
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}
