package batch

import "vecstudy/internal/pg/sql"

// Session wraps a sql.Session with query coalescing. It satisfies the
// server's Session contract structurally (Execute(string) (*sql.Result,
// error)) without importing the server package, keeping the dependency
// arrow server -> batch -> sql.
type Session struct {
	inner *sql.Session
	co    *Coalescer
}

// NewSession wraps inner so its vector searches may coalesce through co.
func NewSession(inner *sql.Session, co *Coalescer) *Session {
	return &Session{inner: inner, co: co}
}

// Execute runs one statement. Non-vector statements and unbatchable or
// window-disabled vector searches behave exactly as the bare SQL
// session; a batchable search with SET batch_window > 0 parks in the
// coalescer and returns its share of a multi-query probe.
func (s *Session) Execute(text string) (*sql.Result, error) {
	res, q, err := s.inner.ExecuteOrPlan(text)
	if err != nil || q == nil {
		return res, err
	}
	if ok, _ := q.Batchable(); !ok {
		s.co.unbatchable.Add(1)
		return q.Run()
	}
	window, max := s.inner.BatchKnobs()
	if window <= 0 {
		s.co.solo.Add(1)
		return q.Run()
	}
	return s.co.Submit(q, window, max)
}
